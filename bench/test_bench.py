"""Tests of the benchmark itself: metric plumbing, gates, tracing.

Run from the root of a checkout:

    python3 -m pytest -q bench/test_bench.py

The smoke runs start the benchmark as the driver would, with --smoke so
each takes a few seconds; the gate tests plant a bad value in a real
output and check that the gate reports it.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402
from mgcp import (  # noqa: E402
    EstimateReport,
    Geometric,
    Mgcp,
    Mgsfcp,
    Named,
    RateMatrix,
    ShockModel,
    clock_spec,
    tcgcp_transition_rate,
    variant_pmf,
    variant_transition_rate,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
FIG1 = RateMatrix(workloads.FIG1)
pytestmark = pytest.mark.filterwarnings("ignore::mgcp.specfun.NumericsWarning")


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=300, check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)
    import run

    report = next(x for x in done.stdout.splitlines() if x.startswith("# report "))
    assert set(json.loads(report[9:])) <= set(run.REPORT_UNITS)


def test_workload_names_match_the_spec():
    assert tuple(w["name"] for w in SPEC["workloads"]) == workloads.NAMES


def test_refuses_to_run_without_the_sources():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = _run("--workload", "pmf-box", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=bare)
        assert done.returncode != 0
        assert done.stdout.strip() == ""
    finally:
        shutil.rmtree(bare)


def test_pmf_gate_fires_on_a_negative_cell():
    states = workloads._box((4, 4))
    cells = [variant_pmf(Mgsfcp(0.7), FIG1, n, 1.0) for n in states]
    assert workloads.pmf_gate_one(Mgsfcp(0.7), FIG1, 1.0, cells) is None
    cells[7] = -1e-9
    assert "outside" in workloads.pmf_gate_one(Mgsfcp(0.7), FIG1, 1.0, cells)


def test_pmf_gate_fires_on_an_origin_off_from_the_pgf():
    cells = [variant_pmf(Mgcp(), FIG1, n, 1.0) for n in workloads._box((2, 2))]
    cells[0] *= 1.0 + 1e-8
    assert "pgf" in workloads.pmf_gate_one(Mgcp(), FIG1, 1.0, cells)


def test_levy_gate_fires_on_an_atom_off_by_1e_6():
    v = Mgsfcp(0.7)
    jumps = [m for m in workloads._box((2, 2)) if any(m)]
    closed = [variant_transition_rate(v, FIG1, m) for m in jumps]
    quad = [tcgcp_transition_rate(FIG1, Named(clock_spec(v)), m) for m in jumps]
    assert workloads.levy_gate_pair(closed, quad) is None
    closed[3] *= 1.0 + 1e-6
    assert "quadrature" in workloads.levy_gate_pair(closed, quad)


def _report(kind, cells, n=10**5):
    return EstimateReport(kind=kind, sample_count=n, seed=0, sigma_level=4.0,
                          max_abs_z=max(abs(c[4]) for c in cells), passed=True,
                          cells=tuple(cells))


def test_mc_gate_fires_on_a_large_z_only_where_the_normal_law_holds():
    busy = ("1,1", 0.01, 0.0113, 0.0003, 6.5)  # 1000 expected draws
    sparse = ("6,1", 6e-6, 4e-5, 7.8e-6, 6.5)  # 0.6 expected draws
    assert "z=6.50" in workloads.mc_gate_one(_report("pmf", [busy]))
    assert workloads.mc_gate_one(_report("pmf", [sparse])) is None
    assert workloads.mc_gate_one(_report("covariance", [busy])) is not None
    nan = ("1,1", 0.01, float("nan"), 0.0003, 0.0)
    assert "non-finite" in workloads.mc_gate_one(_report("pmf", [nan]))


def test_mc_gate_fires_when_worker_counts_change_the_counts():
    wl = workloads.build_mc_estimate(seed=1, smoke=True)
    good = _report("pmf", [("0,0", 0.3, 0.3, 0.001, 0.0)])
    shifted = _report("pmf", [("0,0", 0.3, 0.301, 0.001, 1.0)])
    outputs = {op.name: good for op in wl.ops}
    assert all(r is None for r in wl.gate(outputs).values())
    pair = next(op.name for op in wl.ops if "workers=2" in op.name)
    outputs[pair] = shifted
    assert "workers" in wl.gate(outputs)[pair]


def test_shock_gate_fires_on_a_rising_curve_and_an_overfull_split():
    curve = ((0.0, 1.0), (1.0, 0.5), (2.0, 0.25))
    assert workloads.shock_gate_one((curve, (0.4, 0.5), (0.1,))) is None
    rising = ((0.0, 1.0), (1.0, 0.5), (2.0, 0.5000001))
    assert "rises" in workloads.shock_gate_one((rising, (0.4, 0.5), (0.1,)))
    assert "split" in workloads.shock_gate_one((curve, (0.6, 0.5), (0.1,)))


def test_cli_gate_fires_on_bad_exit_codes_and_unparsable_output():
    assert workloads.cli_gate_one((0, "n1,p\n0,0.5\n# t: 1\n"), "csv") is None
    assert workloads.cli_gate_one((3, '{"rows": []}'), "json") is None
    assert "exit code" in workloads.cli_gate_one((2, ""), "csv")
    assert "parse" in workloads.cli_gate_one((0, '{"rows": '), "json")
    assert "ragged" in workloads.cli_gate_one((0, "n1,p\n0\n"), "csv")


def test_traced_outputs_equal_untraced_and_originals_come_back():
    import mgcp.variants

    model = ShockModel(FIG1, 0.7, Geometric(0.5))
    ops = [
        lambda: [variant_pmf(Mgsfcp(0.7), FIG1, n, 20.0) for n in workloads._box((3, 3))],
        lambda: mgcp.shock.reliability_curve(model, [0.0, 1.0, 2.0]),
        lambda: mgcp.montecarlo.estimate_pmf(Mgsfcp(0.7), FIG1, 1.0, (2, 2), 2000, 5, 2),
    ]
    plain = [workloads.canonical(op()) for op in ops]
    before = mgcp.variants.variant_pmf
    tracer = tracing.Tracer()
    with tracer.installed():
        assert mgcp.variants.variant_pmf is not before
        traced = [workloads.canonical(op()) for op in ops]
    assert mgcp.variants.variant_pmf is before
    assert traced == plain
    totals = tracer.layer_totals()
    assert totals["montecarlo"][0] >= 1 and totals["subordinators"][0] >= 1
    assert tracer.counts["subordinators.draws"] == 2000


def test_self_time_subtracts_the_union_of_child_spans():
    tracer = tracing.Tracer()
    tracer.spans = [
        (0, None, "montecarlo", "estimate_pmf", 1, 0.0, 10.0),
        (1, 0, "subordinators", "clock_from_uniforms", 2, 1.0, 5.0),
        (2, 0, "subordinators", "clock_from_uniforms", 3, 3.0, 6.0),
        (3, 0, "variants", "variant_pmf", 1, 8.0, 9.0),
    ]
    totals = tracer.layer_totals()
    assert totals["montecarlo"] == (1, pytest.approx(10.0 - 5.0 - 1.0))
    assert totals["subordinators"] == (2, pytest.approx(7.0))
    assert totals["variants"] == (1, pytest.approx(1.0))


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    import run

    value, pct, beyond = run.tail([float(x) for x in range(1, 101)])
    assert (value, pct, beyond) == (90.0, 90.0, 10)
    value, pct, beyond = run.tail([float(x) for x in range(1, 17)])
    assert beyond == 10 and value == 6.0


def test_latencies_are_scaled_by_the_reference_samples_around_them():
    import statistics

    import reference
    import run

    nominal = reference.NOMINAL_S["python"]
    ref = reference.Reference("python")
    ref.samples = [nominal, 3.0 * nominal]
    assert ref.factor(ref.samples) == pytest.approx(0.5)
    wl = workloads.Workload("w", [workloads.Op("a", None), workloads.Op("b", None)], None)
    passes = []
    for latencies, scales in (([0.2, 0.04], [0.5, 1.0]), ([0.1, 0.08], [1.0, 0.25])):
        p = run.Pass(False)
        p.latencies, p.scales = latencies, scales
        passes.append(p)
    assert run.op_ms(wl, passes, statistics.median, scaled=True) == pytest.approx(
        {"a": 100.0, "b": 30.0}
    )
    assert run.op_ms(wl, passes, min) == pytest.approx({"a": 100.0, "b": 40.0})
