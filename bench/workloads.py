"""The four benchmark workloads: their operations and correctness gates.

Each workload is a list of operations run back to back (a closed loop
with one client and no think time) plus a gate that checks every
output of a pass.  An operation fails when it raises, returns a
non-finite value or misses its gate; failures are counted, never
hidden.  Inputs depend only on the workload name and the seed.

See README.md in this directory for why each workload exists and which
layers it exercises.
"""

import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from mgcp import (
    GammaTC,
    Geometric,
    IgTC,
    IncGamma,
    Logarithmic,
    Mgcp,
    Mgfcp,
    Mgsfcp,
    Mgstfcp,
    Named,
    RateMatrix,
    ShockModel,
    SineIntegral,
    Tempered,
)
from mgcp import bernstein, montecarlo, shock, variants

NAMES = ("pmf-box", "mc-estimate", "levy-shock", "cli-cold")

FIG1 = ((0.5,), (0.5, 0.5))
FIG2 = ((1.0,), (1.0, 1.0))
Q3 = ((0.4, 0.2), (0.3, 0.3, 0.1), (0.5,))

def all_variants():
    return (
        Mgcp(),
        Mgsfcp(0.7),
        Mgfcp(0.8),
        Mgstfcp(0.7, 0.8),
        Tempered(0.6, 1.0),
        GammaTC(1.0, 2.0),
        IgTC(1.0, 1.5),
    )


def levy_variants():
    return (Mgsfcp(0.7), Tempered(0.6, 1.0), GammaTC(1.0, 2.0), IgTC(1.0, 1.5))


def label(v):
    params = ",".join("%g" % x for x in vars(v).values())
    return "%s(%s)" % (type(v).__name__, params)


def op_seed(seed, k):
    """Seed of operation k, a fixed function of the workload seed."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def canonical(value):
    """Exact text of an output: repr of every float, so bit-for-bit comparable."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return "(" + ",".join(canonical(x) for x in value) + ")"
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    return repr(value)


def _finite(values):
    return all(math.isfinite(x) for x in values)


def _box(box):
    return list(itertools.product(*(range(b + 1) for b in box)))


@dataclass
class Op:
    """One operation: run(traced) returns its output; work counts cells or draws."""

    name: str
    run: Callable
    work: int = 0


@dataclass
class Workload:
    name: str
    ops: list
    gate: Callable  # {op name: output} -> {op name: failure reason}
    work_unit: str = ""
    in_process: bool = True
    reference: str = "python"  # kernel of reference.py that calibrates the run
    # kernel runs per reference sample: more for cli-cold, whose children
    # run for a second each, so that a burst does not set a scale alone
    ref_repeat: int = 1
    child_rss_kb: int = 0
    cli_traces: list = field(default_factory=list)


# -- pmf-box ------------------------------------------------------------------


def pmf_tables(smoke):
    fig1, q3 = RateMatrix(FIG1), RateMatrix(Q3)
    if smoke:
        return ((fig1, (4, 4), 1.0), (fig1, (4, 4), 20.0))
    return ((fig1, (12, 12), 1.0), (q3, (7, 7, 7), 1.0), (fig1, (12, 12), 20.0))


def pmf_gate_one(v, rates, t, cells):
    """Failure reason for one box table, or None."""
    if not _finite(cells):
        return "non-finite cell"
    low, high = min(cells), max(cells)
    if low < -1e-12 or high > 1.0 + 1e-12:
        return "cell outside [0, 1]: min %.3g max %.3g" % (low, high)
    mass = math.fsum(cells)
    if mass > 1.0 + 1e-9:
        return "box mass %.12g above 1" % mass
    try:
        pgf0 = variants.variant_pgf(v, rates, (0.0,) * rates.q, t)
    except (ValueError, ArithmeticError) as exc:
        return "pgf(0) raised %r" % exc
    if abs(cells[0] - pgf0) > 1e-9 * abs(pgf0):
        return "origin %.6g differs from pgf(0) %.6g" % (cells[0], pgf0)
    return None


def build_pmf_box(seed, smoke):
    ops, specs = [], {}
    for v in all_variants():
        for rates, box, t in pmf_tables(smoke):
            states = _box(box)
            name = "%s q=%d box=%s t=%g" % (label(v), rates.q, "x".join(map(str, box)), t)
            specs[name] = (v, rates, t)

            def run(traced, v=v, rates=rates, t=t, states=states):
                return tuple(variants.variant_pmf(v, rates, n, t) for n in states)

            ops.append(Op(name, run, len(states)))

    def gate(outputs):
        return {name: pmf_gate_one(*specs[name], out) for name, out in outputs.items()}

    return Workload("pmf-box", ops, gate, work_unit="cells")


# -- mc-estimate ---------------------------------------------------------------

MC_Z_LIMIT = 6.0
MC_MIN_EXPECTED = 20.0


def mc_gate_one(report):
    """Failure reason for one estimator report, or None.

    The z-score is trusted only where the normal approximation holds:
    on pmf cells with at least 20 expected draws, and on every moment.
    """
    for lab, analytic, estimate, se, z in report.cells:
        if not _finite((analytic, estimate, se, z)):
            return "non-finite cell %s" % lab
        if report.kind == "pmf" and report.sample_count * analytic < MC_MIN_EXPECTED:
            continue
        if abs(z) > MC_Z_LIMIT:
            return "cell %s z=%.2f" % (lab, z)
    return None


def build_mc_estimate(seed, smoke):
    rates = RateMatrix(FIG1)
    t = 1.0
    n = 10**4 if smoke else 10**5
    box = (6, 6)
    ops = []
    k = itertools.count()
    seeds = {}
    for v in all_variants():
        s = seeds[label(v)] = op_seed(seed, next(k))

        def run(traced, v=v, s=s):
            return montecarlo.estimate_pmf(v, rates, t, box, n, s, workers=1)

        ops.append(Op("estimate_pmf %s workers=1" % label(v), run, n))
    twin = "estimate_pmf %s workers=1" % label(Mgsfcp(0.7))
    pair = "estimate_pmf %s workers=2" % label(Mgsfcp(0.7))

    def run_w2(traced, s=seeds[label(Mgsfcp(0.7))]):
        return montecarlo.estimate_pmf(Mgsfcp(0.7), rates, t, box, n, s, workers=2)

    ops.append(Op(pair, run_w2, n))
    for v in (Mgfcp(0.8), Tempered(0.6, 1.0)):
        s = op_seed(seed, next(k))

        def run(traced, v=v, s=s):
            return montecarlo.estimate_covariance(v, rates, 0, 1, t, n, s)

        ops.append(Op("estimate_covariance %s" % label(v), run, n))
    for v in (Mgfcp(0.8), Mgstfcp(0.7, 0.8), Tempered(0.6, 1.0)):
        s = op_seed(seed, next(k))

        def run(traced, v=v, s=s):
            return montecarlo.estimate_codifference(v, rates, 0, 1, t, n, s)

        ops.append(Op("estimate_codifference %s" % label(v), run, n))

    def gate(outputs):
        fails = {name: mc_gate_one(rep) for name, rep in outputs.items()}
        if fails.get(pair, "") is None and twin in outputs:
            if outputs[pair].cells != outputs[twin].cells:
                fails[pair] = "workers=2 counts differ from workers=1"
        return fails

    return Workload("mc-estimate", ops, gate, work_unit="draws", reference="scipy")


# -- levy-shock ---------------------------------------------------------------

LEVY_REL_TOL = 1e-8
SHOCK_T_GRID = tuple(float(x) for x in range(11))
SHOCK_DENSITY_T = (0.5, 2.0, 8.0)


def shock_laws():
    return (Geometric(0.5), Logarithmic(0.5), IncGamma(0.0, 0.5), SineIntegral(0.0, 0.5))


def levy_gate_pair(closed, quadrature):
    """Failure reason for a box of closed-form atoms against quadrature, or None."""
    if not (_finite(closed) and _finite(quadrature)):
        return "non-finite atom"
    for a, b in zip(closed, quadrature):
        if abs(a - b) > LEVY_REL_TOL * max(abs(a), abs(b)):
            return "atom %.17g vs quadrature %.17g" % (a, b)
    return None


def shock_gate_one(out):
    """Failure reason for one shock model's (curve, split, densities), or None."""
    curve, per_type, densities = out
    values = [x for _, x in curve]
    if not _finite(values + list(per_type) + list(densities)):
        return "non-finite value"
    if min(values) < 0.0 or max(values) > 1.0:
        return "L(t) outside [0, 1]"
    if any(b > a for a, b in zip(values, values[1:])):
        return "L(t) rises in t"
    if math.fsum(per_type) > 1.0 + 1e-9:
        return "failure-type split sums to %.12g" % math.fsum(per_type)
    return None


def build_levy_shock(seed, smoke):
    fig1 = RateMatrix(FIG1)
    side = 3 if smoke else 6
    jumps = [m for m in _box((side, side)) if any(m)]
    ops, pairs, shocks = [], {}, []
    for v in levy_variants():
        measure = Named(variants.clock_spec(v))
        closed, quad = "levy closed %s" % label(v), "levy quadrature %s" % label(v)
        pairs[closed] = quad

        def run_closed(traced, v=v):
            return tuple(variants.variant_transition_rate(v, fig1, m) for m in jumps)

        def run_quad(traced, measure=measure):
            return tuple(bernstein.tcgcp_transition_rate(fig1, measure, m) for m in jumps)

        ops.append(Op(closed, run_closed))
        ops.append(Op(quad, run_quad))

    alphas = (0.5,) if smoke else tuple(round(0.05 * k, 2) for k in range(1, 20))
    for rates in (RateMatrix(FIG1), RateMatrix(FIG2)):
        for alpha in alphas:
            for law in shock_laws():
                model = ShockModel(rates, alpha, law)
                name = "shock fig%d alpha=%g %s" % (
                    1 if rates.rows == FIG1 else 2, alpha, type(law).__name__
                )
                shocks.append(name)

                def run(traced, model=model, q=rates.q):
                    curve = shock.reliability_curve(model, SHOCK_T_GRID)
                    per_type = tuple(shock.prob_failure_type(model, i) for i in range(q))
                    densities = tuple(
                        shock.failure_density(model, i, t)
                        for i in range(q)
                        for t in SHOCK_DENSITY_T
                    )
                    return tuple(curve), per_type, densities

                ops.append(Op(name, run))

    def gate(outputs):
        fails = {}
        for closed, quad in pairs.items():
            if closed in outputs and quad in outputs:
                fails[closed] = levy_gate_pair(outputs[closed], outputs[quad])
        for name in shocks:
            if name in outputs:
                fails[name] = shock_gate_one(outputs[name])
        return fails

    return Workload("levy-shock", ops, gate)


# -- cli-cold -------------------------------------------------------------------


def cli_cases(seed):
    """(subcommand, argv, format) with small inputs at t=1."""
    model = json.dumps({"rates": [list(r) for r in FIG1]})
    common = ["--model", model, "--t", "1"]
    return (
        ("pmf", ["pmf", *common, "--variant", "mgsfcp", "--alpha", "0.7", "--box", "4,4"], "csv"),
        ("pgf", ["pgf", *common, "--variant", "mgfcp", "--beta", "0.8", "--u", "0.5,0.5"], "json"),
        ("levy", ["levy", *common, "--variant", "tempered", "--alpha", "0.6", "--theta", "1",
                  "--box", "3,3"], "csv"),
        ("moments", ["moments", *common, "--variant", "mgfcp", "--beta", "0.8"], "json"),
        ("simulate", ["simulate", *common, "--variant", "mgstfcp", "--alpha", "0.7",
                      "--beta", "0.8", "--samples", "20", "--seed", str(seed)], "csv"),
        ("estimate", ["estimate", *common, "--stat", "pmf", "--variant", "gamma", "--a", "1",
                      "--b", "2", "--box", "3,3", "--samples", "2000",
                      "--seed", str(seed)], "json"),
        ("reliability", ["reliability", "--case", "fig1", "--alpha", "0.7",
                         "--threshold", "geometric:0.5", "--tgrid", "0:1:0.25"], "csv"),
        ("presets", ["presets"], "json"),
    )


CLI_COMMANDS = tuple(case[0] for case in cli_cases(0))


def cli_gate_one(out, fmt):
    """Failure reason for one CLI (exit code, stdout), or None."""
    code, text = out
    if code not in (0, 3):
        return "exit code %d" % code
    try:
        if fmt == "json":
            doc = json.loads(text)
            if not isinstance(doc, dict) or not isinstance(doc.get("rows"), list):
                return "JSON without a rows array"
            return None
        lines = [line for line in text.splitlines() if not line.startswith("#")]
        rows = list(csv.reader(io.StringIO("\n".join(lines))))
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            return "ragged CSV"
        for r in rows[1:]:
            for cell in r:
                float(cell)
    except ValueError as exc:
        return "output does not parse: %s" % exc
    return None


def run_child(argv, env, cwd):
    """(exit code, stdout text, peak RSS in KB) of one child process.

    The child is reaped with wait4, which also returns its resource usage.
    """
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            env=env, cwd=cwd)
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode("utf-8"), usage.ru_maxrss


def build_cli_cold(seed, smoke, root, trace_dir):
    root = Path(root)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(root / "src")
    shim = str(Path(__file__).with_name("cli_child.py"))
    cases = cli_cases(seed)
    if smoke:
        cases = tuple(c for c in cases if c[0] in ("pgf", "presets"))
    formats = {}
    wl = Workload("cli-cold", [], None, in_process=False, ref_repeat=9)

    for sub, argv, fmt in cases:
        argv = argv + ["--format", fmt]
        name = "cli %s --format %s" % (sub, fmt)
        formats[name] = fmt

        def run(traced, argv=argv, sub=sub):
            if traced:
                trace_file = Path(trace_dir) / ("cli-%s.json" % sub)
                child_env = dict(env, MGCP_BENCH_TRACE_OUT=str(trace_file))
                cmd = [sys.executable, shim, *argv]
            else:
                child_env, cmd = env, [sys.executable, "-m", "mgcp", *argv]
            code, text, rss_kb = run_child(cmd, child_env, str(root))
            wl.child_rss_kb = max(wl.child_rss_kb, rss_kb)
            if traced:
                with open(trace_file, encoding="utf-8") as fh:
                    wl.cli_traces.append(json.load(fh))
                trace_file.unlink()
            return code, text

        wl.ops.append(Op(name, run))

    def gate(outputs):
        return {name: cli_gate_one(out, formats[name]) for name, out in outputs.items()}

    wl.gate = gate
    return wl


def build(name, seed, smoke=False, root=None, trace_dir=None):
    if name == "pmf-box":
        return build_pmf_box(seed, smoke)
    if name == "mc-estimate":
        return build_mc_estimate(seed, smoke)
    if name == "levy-shock":
        return build_levy_shock(seed, smoke)
    if name == "cli-cold":
        return build_cli_cold(seed, smoke, root, trace_dir)
    raise ValueError("unknown workload %r" % name)
