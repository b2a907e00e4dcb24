#!/usr/bin/env python3
"""mgcp benchmark: four closed-loop workloads, gated outputs, traced layers.

Usage, from the root of a checkout:

    python3 bench/run.py --workload pmf-box --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15

With --trace 0 the last line of standard output is one JSON object with
the end-to-end metrics; with --trace 1 it carries the per-layer metrics
of a traced run instead.  Lines before it, starting with '#', give the
run record (versions, CPU, BLAS threads), the report (fail_frac, the
tail percentile and its sample count, cells_per_s, draws_per_s) and the
reason for every failed operation.  Timed metrics are given at the
speed of a reference kernel run beside the workload (see reference.py);
the raw wall times are in the report.  --workload all runs the four
workloads one after another, each in a fresh interpreter, and prints
every metric by name with its unit.  --smoke shrinks each workload to a
quick check of the plumbing; its numbers are not measurements.

The benchmark imports mgcp from src/ of the checkout it sits in, and
refuses to run without it.  Full records and spans go to .bench_out/.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

NAMES = ("pmf-box", "mc-estimate", "levy-shock", "cli-cold")
SETUP_PROBES = 3
# reference samples on either side of an operation that set its scale
SCALE_WINDOW = 2
TAIL_BEYOND = 10
# each operation's median counts as this many samples of the tail, so the
# rank the tail lands on does not move with the number of passes in a run
TAIL_PASSES = 10
# cli-cold fits three passes into a run, the fewest whose median is a
# middle value rather than a mean
MIN_PASSES = 3
BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
}


REPORT_UNITS = {
    "op_tail_percentile": "%",
    "op_tail_beyond": "count",
    "op_samples": "count",
    "passes": "count",
    "setup_wall_s": "s",
    "pass_wall_s": "s",
    "pass_fastest_s": "s",
    "ref_factor": "ratio",
    "setup_ref_factor": "ratio",
    "peak_rss_mb": "MB",
    "cells_per_s": "1/s",
    "draws_per_s": "1/s",
    "fail_frac": "ratio",
    "ops_per_pass": "count",
}


def per_layer_units():
    from tracing import LAYERS
    from workloads import CLI_COMMANDS

    units = {}
    for layer in LAYERS:
        units[layer + ".calls"] = "count"
        units[layer + ".self_s"] = "s"
        units[layer + ".share"] = "ratio"
    units.update(
        {
            "specfun.numerics_warnings": "count",
            "compositions.joints": "count",
            "compositions.joints_per_call": "count/call",
            "variants.pmf_calls": "count",
            "variants.rate_calls": "count",
            "bernstein.quad_calls": "count",
            "subordinators.draws": "count",
            "subordinators.uniforms_per_draw": "count/draw",
            "montecarlo.draws": "count",
            "montecarlo.ppf_s": "s",
            "montecarlo.report_fails": "count",
            "shock.table_misses": "count",
            "shock.table_hit_ratio": "ratio",
            "cli.import_s": "s",
        }
    )
    for sub in CLI_COMMANDS:
        units["cli.%s_s" % sub] = "s"
    units["cli.exit3"] = "count"
    units["trace.overhead_frac"] = "ratio"
    return units


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def fail(msg):
    print("bench: %s" % msg, file=sys.stderr)
    return 2


# -- set-up ---------------------------------------------------------------------


def setup_probe(args):
    """Child side of setup_s: time `import mgcp` and building the inputs."""
    t0 = perf_counter()
    import mgcp  # noqa: F401

    t1 = perf_counter()
    import workloads

    workloads.build(args.workload, args.seed, args.smoke, ROOT, OUT)
    t2 = perf_counter()
    print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1}))
    return 0


def measure_setup(args, ref):
    """(import_s, build_s, scale) of each of several fresh interpreters, run
    in turn between samples of the import kernel; scale is from the samples
    on either side."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    samples = []
    ref.sample()
    for _ in range(1 if args.smoke else SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=False)
        if done.returncode != 0:
            raise RuntimeError("setup probe failed: %s" % done.stderr.strip()[-500:])
        ref.sample()
        doc = json.loads(done.stdout.strip().splitlines()[-1])
        samples.append((doc["import_s"], doc["build_s"], ref.factor(ref.samples[-2:])))
    return samples


def run_record():
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        cpu = platform.processor()
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }


# -- passes ---------------------------------------------------------------------


class Pass:
    """Latencies, outcomes and (when traced) layer totals of one pass."""

    def __init__(self, traced):
        self.traced = traced
        self.latencies = []
        self.failures = {}
        self.digests = {}
        self.trace = None
        self.scales = []

    @property
    def seconds(self):
        return math.fsum(self.latencies)


def run_pass(wl, traced, tracer, ref):
    """One pass over the operations, with reference samples between them
    (at most every EVERY_S) and one after the last.  Each operation is
    taken at the reference speed by up to SCALE_WINDOW samples on either
    side of it."""
    import mgcp.shock
    import workloads

    result = Pass(traced)
    outputs = {}
    before = mgcp.shock._tables.cache_info()
    marks = []
    if traced:
        tracer.install()
    try:
        for op in wl.ops:
            ref.maybe_sample()
            marks.append(len(ref.samples) - 1)
            t0 = perf_counter()
            try:
                out = op.run(traced)
            except Exception as exc:  # noqa: BLE001 - a raising operation is a failure
                result.latencies.append(perf_counter() - t0)
                result.failures[op.name] = "raised %r" % exc
                result.digests[op.name] = "raised %r" % exc
                continue
            result.latencies.append(perf_counter() - t0)
            outputs[op.name] = out
    finally:
        if traced:
            tracer.uninstall()
    ref.sample()
    result.scales = [ref.factor(ref.samples[max(0, i - SCALE_WINDOW + 1) : i + SCALE_WINDOW + 1])
                     for i in marks]
    after = mgcp.shock._tables.cache_info()
    for name, reason in wl.gate(outputs).items():
        if reason is not None:
            result.failures[name] = reason
    for name, out in outputs.items():
        result.digests[name] = workloads.canonical(out)
    if traced:
        result.trace = {
            "layers": tracer.layer_totals(),
            "names": tracer.name_counts(),
            "counts": dict(tracer.counts),
            "timers": dict(tracer.timers),
            "table_hits": after.hits - before.hits,
            "table_misses": after.misses - before.misses,
            "children": wl.cli_traces,
            "spans": tracer.spans,
        }
        wl.cli_traces = []
        tracer.reset()
    return result


def run_passes(wl, args, tracer, ref):
    """Warm-up, then passes back to back until --seconds have been measured
    and at least MIN_PASSES have run.

    A traced run alternates untraced and traced passes, starting untraced.
    """
    warm = [run_pass(wl, False, tracer, ref)] if wl.in_process and not args.smoke else []
    timed = []
    need = (1 if not args.trace else 2) if args.smoke else MIN_PASSES
    start = perf_counter()
    kept_spans = False
    while len(timed) < need or (not args.smoke and perf_counter() - start < args.seconds):
        traced = bool(args.trace) and len(timed) % 2 == 1
        timed.append(run_pass(wl, traced, tracer, ref))
        if traced:
            # spans of the first traced pass are kept for the dump; later
            # passes keep only their totals, which bounds memory
            if kept_spans:
                timed[-1].trace["spans"] = []
                for child in timed[-1].trace["children"]:
                    child["spans"] = []
            kept_spans = True
    return warm + timed, timed


# -- metrics --------------------------------------------------------------------


def tail(latencies):
    """(value, percentile, samples beyond): the highest percentile, in steps
    of 0.1, with at least TAIL_BEYOND samples above it (nearest rank)."""
    xs = sorted(latencies)
    n = len(xs)
    for permille in range(999, 0, -1):
        k = max(1, math.ceil(permille * n / 1000.0))
        if n - k >= TAIL_BEYOND:
            return xs[k - 1], permille / 10.0, n - k
    return xs[-1], 100.0, 0


def end_to_end(wl, setup, timed):
    """End-to-end metrics, plus the report of those the driver does not bound.

    Each operation's latency is its median over the timed passes, each
    latency taken at the reference speed by the kernel samples around it,
    and so is each set-up probe.
    """
    per_op = op_ms(wl, timed, statistics.median, scaled=True)
    pooled = [per_op[op.name] for op in wl.ops for _ in range(TAIL_PASSES)]
    value, pct, beyond = tail(pooled)
    pass_s = math.fsum(per_op.values()) / 1e3
    if wl.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = wl.child_rss_kb
    metrics = {
        "setup_s": statistics.median((a + b) * scale for a, b, scale in setup),
        "pass_s": pass_s,
        "op_p50_ms": statistics.median(per_op.values()),
        "op_tail_ms": value,
    }
    report = {
        "op_tail_percentile": pct,
        "op_tail_beyond": beyond,
        "op_samples": sum(len(p.latencies) for p in timed),
        "passes": len(timed),
        "setup_wall_s": statistics.median(a + b for a, b, _ in setup),
        "pass_wall_s": math.fsum(op_ms(wl, timed, statistics.median).values()) / 1e3,
        "pass_fastest_s": math.fsum(op_ms(wl, timed, min).values()) / 1e3,
        "ref_factor": statistics.median(x for p in timed for x in p.scales),
        "setup_ref_factor": statistics.median(scale for _, _, scale in setup),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    work = sum(op.work for op in wl.ops)
    if wl.work_unit == "cells":
        report["cells_per_s"] = work / pass_s
    if wl.work_unit == "draws":
        report["draws_per_s"] = work / pass_s
    return metrics, report


def per_layer(setup, passes):
    """Per-pass averages over the traced passes, plus the tracing overhead
    (fastest traced pass over fastest untraced pass)."""
    from tracing import LAYERS
    from workloads import CLI_COMMANDS

    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced and p is not passes[0]] or [passes[0]]
    n = len(traced)
    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    names, counts, timers = {}, {}, {}
    hits = misses = exit3 = 0
    imports, mains = [], {}

    def merge(doc):
        nonlocal hits, misses
        for layer, (c, s) in doc["layers"].items():
            calls[layer] += c
            self_s[layer] += s
        for src, dst in ((doc["names"], names), (doc["counts"], counts), (doc["timers"], timers)):
            for key, val in src.items():
                dst[key] = dst.get(key, 0) + val
        hits += doc["table_hits"]
        misses += doc["table_misses"]

    for p in traced:
        merge(p.trace)
        for child in p.trace["children"]:
            merge(child)
            imports.append(child["import_s"])
            mains.setdefault(child["command"], []).append(child["main_s"])
            exit3 += child["exit"] == 3
    total = math.fsum(p.seconds for p in traced)
    m = {}
    for layer in LAYERS:
        m[layer + ".calls"] = calls[layer] / n
        m[layer + ".self_s"] = self_s[layer] / n
        m[layer + ".share"] = self_s[layer] / total
    joints = counts.get("compositions.joints", 0)
    window = counts.get("subordinators.window_draws", 0)
    m.update(
        {
            "specfun.numerics_warnings": counts.get("specfun.numerics_warnings", 0) / n,
            "compositions.joints": joints / n,
            "compositions.joints_per_call": joints / calls["compositions"]
            if calls["compositions"] else 0.0,
            "variants.pmf_calls": names.get("variant_pmf", 0) / n,
            "variants.rate_calls": names.get("variant_transition_rate", 0) / n,
            "bernstein.quad_calls": counts.get("bernstein.quad_calls", 0) / n,
            "subordinators.draws": counts.get("subordinators.draws", 0) / n,
            "subordinators.uniforms_per_draw":
                counts.get("subordinators.window_uniforms", 0) / window if window else 0.0,
            "montecarlo.draws": counts.get("montecarlo.draws", 0) / n,
            "montecarlo.ppf_s": timers.get("montecarlo.ppf_s", 0.0) / n,
            "montecarlo.report_fails": counts.get("montecarlo.report_fails", 0) / n,
            "shock.table_misses": misses / n,
            "shock.table_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "cli.import_s": statistics.median(imports or [a for a, _, _ in setup]),
        }
    )
    for sub in CLI_COMMANDS:
        m["cli.%s_s" % sub] = statistics.median(mains[sub]) if sub in mains else 0.0
    m["cli.exit3"] = exit3 / n
    m["trace.overhead_frac"] = (
        min(p.seconds for p in traced) / min(p.seconds for p in plain) - 1.0
    )
    return m


def op_ms(wl, timed, reduce, scaled=False):
    """Each operation's latencies over the timed passes, reduced, in ms;
    scaled=True takes each latency at the reference speed."""
    return {
        op.name: reduce([p.latencies[k] * (p.scales[k] if scaled else 1.0) for p in timed]) * 1e3
        for k, op in enumerate(wl.ops)
    }


def write_spans(path, passes):
    with open(path, "w", encoding="utf-8") as fh:
        for k, p in enumerate(passes):
            if not p.traced:
                continue
            for span in p.trace["spans"]:
                fh.write(json.dumps({"pass": k, "process": "main", "span": span}) + "\n")
            for child in p.trace["children"]:
                proc = "cli " + child["command"]
                for span in child["spans"]:
                    fh.write(json.dumps({"pass": k, "process": proc, "span": span}) + "\n")


# -- entry points ---------------------------------------------------------------


def run_workload(args):
    import reference

    setup = measure_setup(args, reference.Reference("import"))
    import mgcp
    import mgcp.specfun
    import tracing
    import workloads

    if not Path(mgcp.__file__).resolve().is_relative_to(SRC.resolve()):
        return fail("mgcp was imported from %s, not from %s" % (mgcp.__file__, SRC))
    import warnings

    warnings.simplefilter("ignore", mgcp.specfun.NumericsWarning)
    OUT.mkdir(exist_ok=True)
    wl = workloads.build(args.workload, args.seed, args.smoke, ROOT, OUT)
    record = run_record()
    tracer = tracing.Tracer()
    ref = reference.Reference(wl.reference, wl.ref_repeat)
    passes, timed = run_passes(wl, args, tracer, ref)

    first = passes[0].digests
    mismatched = sorted(
        name for p in passes for name, d in p.digests.items() if first.get(name) != d
    )
    attempted = sum(len(p.latencies) for p in timed)
    failed = sum(len(p.failures) for p in timed)
    if args.trace:
        units = per_layer_units()
        values = per_layer(setup, passes)
        write_spans(OUT / ("spans-%s.jsonl" % args.workload), passes)
        report = {}
    else:
        units = END_TO_END
        values, report = end_to_end(wl, setup, timed)
    report["fail_frac"] = failed / attempted
    report["ops_per_pass"] = len(wl.ops)
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    result = {
        "correct": not mismatched,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    reasons = {}
    for p in timed:
        reasons.update(p.failures)
    doc = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "smoke": args.smoke, "record": record, "report": report,
           "failures": reasons, "mismatched": mismatched,
           "setup": setup, "pass_seconds": [p.seconds for p in timed],
           "op_scales": {op.name: [p.scales[k] for p in timed]
                         for k, op in enumerate(wl.ops)},
           "reference": {"kernel": ref.kind, "samples": ref.samples},
           "op_ms": {op.name: [p.latencies[k] * 1e3 for p in timed]
                     for k, op in enumerate(wl.ops)},
           "result": result}
    with open(OUT / ("%s-trace%d.json" % (args.workload, args.trace)), "w",
              encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)

    print("# run %s" % json.dumps(record))
    print("# report %s" % json.dumps(report))
    for name, reason in sorted(reasons.items()):
        print("# failed %s: %s" % (name, reason))
    for name in mismatched:
        print("# output differs between passes: %s" % name)
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own interpreter; every metric printed by name."""
    for name in NAMES:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=False)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return fail("workload %s exited with %d" % (name, done.returncode))
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        report = json.loads(next(x for x in lines if x.startswith("# report "))[9:])
        print("%s  correct=%s attempted=%d failed=%d" % (
            name, result["correct"], result["attempted"], result["failed"]))
        for key, m in result["metrics"].items():
            print("  %-34s %14.6g %s" % (key, m["value"], m["unit"]))
        for key, val in report.items():
            print("  %-34s %14.6g %s" % (key, val, REPORT_UNITS[key]))
    return 0


def main(argv=None):
    args = parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    if not (SRC / "mgcp" / "__init__.py").is_file():
        return fail("no mgcp sources at %s; run from a full checkout" % SRC)
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
