"""Command-line layer: parsing, output formats, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys

import pytest

import mgcp
from mgcp import shock
from mgcp.cli import main
from mgcp.gcp import RateMatrix, mgcp_component_variance, mgcp_mean
from mgcp.variants import (
    GammaTC,
    IgTC,
    Mgcp,
    Mgfcp,
    Mgsfcp,
    Mgstfcp,
    Tempered,
    covariance,
    holding_rate,
    variant_levy_measure,
    variant_pgf,
    variant_pmf,
)

MODEL = '{"rates": [[0.5], [0.5, 0.5]]}'
FIG1 = RateMatrix([[0.5], [0.5, 0.5]])


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = [ln for ln in text.strip().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


class TestPmfCommand:
    def test_csv_matches_library(self, capsys):
        code, out, _ = run(
            capsys,
            ["pmf", "--model", MODEL, "--variant", "mgsfcp", "--alpha", "0.7",
             "--t", "1.0", "--box", "2,3"],
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["n1", "n2", "p"]
        assert len(rows) == 3 * 4
        for row in rows:
            n = (int(row[0]), int(row[1]))
            want = variant_pmf(Mgsfcp(0.7), FIG1, n, 1.0)
            # repr round-trips, so the match is exact
            assert float(row[2]) == want

    def test_json_document(self, capsys):
        code, out, _ = run(
            capsys,
            ["pmf", "--model", MODEL, "--box", "1,1", "--format", "json"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "pmf"
        assert doc["warnings"] == []
        assert RateMatrix.from_dict(doc["model"]) == FIG1
        assert {"n1", "n2", "p"} == set(doc["rows"][0])
        assert len(doc["rows"]) == 4

    def test_deep_base_process_box_exits_0(self, capsys):
        # the base process reads Panjer's Poisson law, so states past
        # where exp(lambda t) leaves double range keep their value
        code, out, _ = run(
            capsys,
            ["pmf", "--model", '{"rates": [[0.7]]}', "--variant", "mgcp",
             "--t", "1500", "--box", "1100"],
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert len(rows) == 1101
        assert all(0.0 <= float(p) <= 1.0 for _, p in rows)
        assert abs(float(rows[1050][1]) - 0.0123106489871148167) <= 1e-12 * 0.0123

    def test_model_from_file(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(MODEL)
        code, out, _ = run(capsys, ["pmf", "--model", str(path), "--box", "1,1"])
        assert code == 0

    def test_invalid_json_exits_2(self, capsys):
        code, _, err = run(capsys, ["pmf", "--model", '{"rates": [[0.5]'])
        assert code == 2
        assert "model: invalid JSON" in err

    def test_bad_rate_type_names_the_field(self, capsys):
        code, _, err = run(
            capsys, ["pmf", "--model", '{"rates": [[0.5], [true]]}']
        )
        assert code == 2
        assert "model.rates[1][0]" in err

    def test_missing_variant_param_exits_2(self, capsys):
        code, _, err = run(
            capsys, ["pmf", "--model", MODEL, "--variant", "mgsfcp"]
        )
        assert code == 2
        assert "--alpha is required" in err

    def test_box_length_mismatch_exits_2(self, capsys):
        code, _, err = run(capsys, ["pmf", "--model", MODEL, "--box", "3"])
        assert code == 2
        assert "box length" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["levy", "--model", MODEL, "--variant", "ig", "--delta", "1", "--gamma",
             "nan", "--box", "1,1"],
            ["moments", "--model", MODEL, "--variant", "tempered", "--alpha", "0.6",
             "--theta", "nan"],
            ["reliability", "--model", MODEL, "--alpha", "0.5", "--threshold",
             "custom:1,nan,0.2", "--tgrid", "0:1:0.5"],
        ],
        ids=["levy", "moments", "reliability"],
    )
    def test_nan_parameter_exits_2(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("command", ["pmf", "levy"])
    def test_negative_box_entry_exits_2(self, capsys, command):
        code, out, err = run(
            capsys, [command, "--model", MODEL, "--variant", "mgsfcp", "--alpha",
                     "0.7", "--box=-1,2"]
        )
        assert code == 2
        assert "box entries must be non-negative" in err
        assert out == ""


class TestPgfCommand:
    def test_value(self, capsys):
        code, out, _ = run(
            capsys,
            ["pgf", "--model", MODEL, "--variant", "gamma", "--a", "1.2",
             "--b", "0.8", "--u", "0.5,0.4", "--t", "1.0"],
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert float(rows[0][2]) == variant_pgf(
            GammaTC(1.2, 0.8), FIG1, (0.5, 0.4), 1.0
        )

    def test_u_length_mismatch(self, capsys):
        code, _, err = run(capsys, ["pgf", "--model", MODEL, "--u", "0.5"])
        assert code == 2
        assert "u length" in err


class TestLevyCommand:
    def test_atoms_and_holding_rate(self, capsys):
        code, out, _ = run(
            capsys,
            ["levy", "--model", MODEL, "--variant", "tempered", "--alpha",
             "0.6", "--theta", "0.9", "--box", "2,2", "--format", "json"],
        )
        assert code == 0
        doc = json.loads(out)
        v = None
        from mgcp.variants import Tempered

        v = Tempered(0.6, 0.9)
        assert doc["holding_rate"] == holding_rate(v, FIG1)
        states = {(r["n1"], r["n2"]) for r in doc["rows"]}
        assert (0, 0) not in states
        for r in doc["rows"]:
            n = (r["n1"], r["n2"])
            assert r["mass"] == variant_levy_measure(v, FIG1, n)

    def test_rejects_inverse_stable_clock(self, capsys):
        code, _, err = run(
            capsys,
            ["levy", "--model", MODEL, "--variant", "mgfcp", "--beta", "0.6"],
        )
        assert code == 2
        assert "no constant rates" in err


class TestMomentsCommand:
    def test_mgcp_mean_variance(self, capsys):
        code, out, _ = run(capsys, ["moments", "--model", MODEL, "--t", "2.0"])
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["component", "mean", "variance"]
        for row in rows:
            i = int(row[0])
            assert float(row[1]) == mgcp_mean(FIG1, i, 2.0)
            assert float(row[2]) == mgcp_component_variance(FIG1, i, 2.0)

    def test_mgfcp_covariance_table(self, capsys):
        code, out, _ = run(
            capsys,
            ["moments", "--model", MODEL, "--variant", "mgfcp", "--beta",
             "0.8", "--t", "1.0"],
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert len(rows) == 4
        for row in rows:
            i, l = int(row[0]), int(row[1])
            assert float(row[2]) == covariance(Mgfcp(0.8), FIG1, i, l, 1.0)

    def test_unsupported_variant_exits_2(self, capsys):
        code, _, err = run(
            capsys,
            ["moments", "--model", MODEL, "--variant", "gamma", "--a", "1.0",
             "--b", "1.0"],
        )
        assert code == 2
        assert "moments supports" in err


class TestSimulateCommand:
    def test_deterministic_rows(self, capsys):
        argv = ["simulate", "--model", MODEL, "--variant", "ig", "--delta",
                "1.1", "--gamma", "0.7", "--samples", "5", "--seed", "9"]
        code1, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2
        header, rows = csv_rows(out1)
        assert header == ["draw", "n1", "n2"]
        assert [int(r[0]) for r in rows] == list(range(5))

    def test_clock_draw_past_int64_exits_2(self, capsys):
        code, out, err = run(
            capsys,
            ["simulate", "--model", MODEL, "--variant", "mgsfcp", "--alpha", "0.2",
             "--samples", "10000", "--seed", "1"],
        )
        assert code == 2
        assert out == ""
        assert "clock draw 5.86166e+19" in err and "int64" in err


    @pytest.mark.parametrize("t", ["inf", "1e300"])
    def test_tempered_clock_past_its_slices_exits_2(self, capsys, t):
        # --t inf exited 1 with an OverflowError traceback, and --t 1e300
        # ran until killed
        code, out, err = run(
            capsys,
            ["simulate", "--model", MODEL, "--variant", "tempered", "--alpha", "0.6",
             "--theta", "1", "--t", t, "--samples", "5", "--seed", "1"],
        )
        assert code == 2
        assert out == ""
        assert "tempered stable" in err


class TestEstimateCommand:
    def test_workers_same_bytes(self, capsys):
        base = ["estimate", "--model", MODEL, "--stat", "pmf", "--box", "3,3",
                "--samples", "2000", "--seed", "11"]
        _, out1, _ = run(capsys, base + ["--workers", "1"])
        code, out4, _ = run(capsys, base + ["--workers", "4"])
        assert code == 0
        # the workers echo is the only allowed difference
        assert out1.replace("workers: 1", "workers: 4") == out4

    def test_json_report_shape(self, capsys):
        code, out, _ = run(
            capsys,
            ["estimate", "--model", MODEL, "--stat", "covariance", "--variant",
             "mgfcp", "--beta", "0.8", "--samples", "20000", "--seed", "3",
             "--i", "0", "--l", "1", "--format", "json"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "covariance"
        assert doc["passed"] is True
        assert doc["workers"] == 1
        assert doc["rows"][0]["label"] == "covariance"

    def test_mgstfcp_pmf_at_small_reach_is_clean(self, capsys):
        """At beta = 0.3 and alpha = 0.9, t = 1 lies where the paper's
        space-time-fractional r-series cancelled on the deep default-box
        cells and the run exited 3; the FFT of G - 1 takes those cells
        without a flag."""
        argv = ["estimate", "--model", MODEL, "--variant", "mgstfcp", "--alpha", "0.9",
                "--beta", "0.3", "--samples", "2000", "--seed", "1"]
        code, out, _ = run(capsys, argv + ["--format", "json"])
        assert code == 0
        assert json.loads(out)["warnings"] == []
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert "# warning:" not in out

    def test_too_few_samples_exits_2(self, capsys):
        code, _, err = run(
            capsys,
            ["estimate", "--model", MODEL, "--samples", "10", "--seed", "1"],
        )
        assert code == 2
        assert "1000" in err


class TestReliabilityCommand:
    def test_fig1_curve(self, capsys):
        code, out, _ = run(
            capsys,
            ["reliability", "--case", "fig1", "--alpha", "0.9", "--threshold",
             "geometric:0.5", "--tgrid", "0:2:1"],
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["t", "L_T"]
        model = shock.ShockModel(FIG1, 0.9, shock.Geometric(0.5))
        want = shock.reliability_curve(model, [0.0, 1.0, 2.0], "fig1")
        got = [(float(r[0]), float(r[1])) for r in rows]
        assert got == [(t, v) for t, v in want]

    def test_truncated_curve_emits_quality_warnings(self, capsys):
        """A custom threshold holding the first 600 tails of IncGamma(0, 1)
        on fig1 at alpha = 0.5 has not converged by 512 levels at t = 10:
        the value comes with a bound on the dropped mass, the report keeps
        the flag and the exit code says so."""
        tails = [shock.threshold_tail(shock.IncGamma(0.0, 1.0), n) for n in range(600)]
        base = ["reliability", "--case", "general", "--model", MODEL, "--alpha", "0.5",
                "--tgrid", "10:10:1", "--threshold"]
        argv = base + ["custom:" + ",".join(map(repr, tails))]
        code, out, _ = run(capsys, argv + ["--format", "json"])
        assert code == 3
        (flag,) = json.loads(out)["warnings"]
        assert "not converged" in flag
        code, out, _ = run(capsys, argv)
        assert code == 3
        assert "# warning: threshold series not converged" in out
        # the named law takes the mixture route: exit 0, no warning, and
        # L(10) within 1e-10 of mpmath's quadrature of int G_t dmu
        code, out, err = run(capsys, base + ["incgamma:0,1"])
        assert (code, err) == (0, "")
        assert "# warning" not in out
        (row,) = csv_rows(out)[1]
        assert float(row[1]) == pytest.approx(0.006116867035348342, rel=1e-10, abs=0.0)

    def test_general_needs_model(self, capsys):
        code, _, err = run(
            capsys,
            ["reliability", "--alpha", "0.9", "--threshold", "geometric:0.5",
             "--tgrid", "0:1:1"],
        )
        assert code == 2
        assert "--model is required" in err

    def test_threshold_parse_errors(self, capsys):
        base = ["reliability", "--case", "fig1", "--alpha", "0.9", "--tgrid",
                "0:1:1", "--threshold"]
        for bad in ("geometric", "zipf:0.5", "geometric:0.5,0.2", "custom:0.9"):
            code, _, err = run(capsys, base + [bad])
            assert code == 2, bad
            assert err.startswith("error:")

    def test_tgrid_parse_errors(self, capsys):
        base = ["reliability", "--case", "fig1", "--alpha", "0.9",
                "--threshold", "geometric:0.5", "--tgrid"]
        for bad in ("0:2", "2:0:1", "0:1:0"):
            code, _, err = run(capsys, base + [bad])
            assert code == 2, bad
            assert "tgrid" in err

    def test_json_echoes_threshold(self, capsys):
        code, out, _ = run(
            capsys,
            ["reliability", "--case", "fig3", "--alpha", "0.6", "--threshold",
             "incgamma:0,0.5", "--tgrid", "0:1:0.5", "--format", "json"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["threshold"] == {"law": "incgamma", "a": 0.0, "p": 0.5}
        assert doc["case"] == "fig3"

    @pytest.mark.parametrize("alpha", ["0.5", "0.9"])
    def test_large_t_matches_the_geometric_closed_form(self, capsys, alpha):
        # L(t) = exp(-t (Lambda - sum_j pooled_j u^j)^alpha), u = 1 - p:
        # exp(-t 0.875^alpha) at the figure-1 rates
        code, out, err = run(
            capsys,
            ["reliability", "--case", "fig1", "--alpha", alpha, "--threshold",
             "geometric:0.5", "--tgrid", "30:200:170"],
        )
        assert (code, err) == (0, "")
        _, rows = csv_rows(out)
        assert [float(r[0]) for r in rows] == [30.0, 200.0]
        for t, got in ((float(r[0]), float(r[1])) for r in rows):
            want = math.exp(-t * 0.875 ** float(alpha))
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_unresolvable_t_exits_2_naming_t(self, capsys):
        # a custom threshold with the first 600 tails of geometric(0.5)
        # takes the table route, whose levels stop at 512
        tails = ",".join(repr(0.5**n) for n in range(600))
        base = ["reliability", "--case", "general", "--model", MODEL, "--alpha", "0.5",
                "--tgrid", "100000:100000:1", "--threshold"]
        code, out, err = run(capsys, base + ["custom:" + tails])
        assert (code, out) == (2, "")
        assert "t = 100000.0 is too large" in err
        # the named law's mixture route returns exp(-t 0.875^0.5) = 0.0
        code, out, err = run(capsys, base + ["geometric:0.5"])
        assert (code, err) == (0, "")
        assert [float(x) for x in csv_rows(out)[1][0]] == [1e5, 0.0]


class TestPresetsCommand:
    def test_listing(self, capsys):
        code, out, _ = run(capsys, ["presets", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        names = [r["name"] for r in doc["rows"]]
        assert names == ["figure1", "figure2", "order2", "polya_aeppli"]
        for r in doc["rows"]:
            RateMatrix.from_dict(json.loads(r["model"]))


class TestOutputFiles:
    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        code, out, _ = run(
            capsys, ["pmf", "--model", MODEL, "--box", "1,1", "--output",
                     str(path)]
        )
        assert code == 0
        assert out == ""
        assert path.read_text().startswith("n1,n2,p")

    def test_output_dir_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("MGCP_OUTPUT_DIR", str(tmp_path))
        code, _, _ = run(
            capsys,
            ["pmf", "--model", MODEL, "--box", "1,1", "--output",
             "nested/dir/out.csv"],
        )
        assert code == 0
        assert (tmp_path / "nested" / "dir" / "out.csv").exists()


# every --variant name with its flags; mgstfcp's are given in reverse order
# so a table that bound flags by position would build Mgstfcp(0.6, 0.7)
CLI_VARIANTS = [
    ("mgcp", [], Mgcp()),
    ("mgsfcp", ["--alpha", "0.7"], Mgsfcp(0.7)),
    ("mgfcp", ["--beta", "0.6"], Mgfcp(0.6)),
    ("mgstfcp", ["--beta", "0.6", "--alpha", "0.7"], Mgstfcp(0.7, 0.6)),
    ("tempered", ["--alpha", "0.6", "--theta", "0.9"], Tempered(0.6, 0.9)),
    ("gamma", ["--a", "1.2", "--b", "0.8"], GammaTC(1.2, 0.8)),
    ("ig", ["--delta", "1.1", "--gamma", "0.7"], IgTC(1.1, 0.7)),
]


@pytest.mark.parametrize(
    "name, flags, v", CLI_VARIANTS, ids=[c[0] for c in CLI_VARIANTS]
)
def test_variant_table_builds_the_library_variant(capsys, name, flags, v):
    code, out, _ = run(
        capsys,
        ["pgf", "--model", MODEL, "--variant", name, *flags, "--u", "0.4,0.3",
         "--t", "1.3"],
    )
    assert code == 0
    _, rows = csv_rows(out)
    # repr round-trips, so the match is exact
    assert float(rows[0][2]) == variant_pgf(v, FIG1, (0.4, 0.3), 1.3)


@pytest.mark.parametrize(
    "flags",
    [["mgsfcp", "--alpha", "0.7"], ["mgstfcp", "--alpha", "0.7", "--beta", "0.6"]],
)
def test_pgf_accepts_the_slack_past_one(capsys, flags):
    code, out, err = run(
        capsys,
        ["pgf", "--model", MODEL, "--variant", *flags, "--u", "1.0000000000001,1"],
    )
    assert code == 0, err
    _, rows = csv_rows(out)
    assert float(rows[0][2]) == 1.0


@pytest.mark.parametrize(
    "argv",
    [
        ["pmf", "--variant", "gamma", "--a", "1", "--b", "2", "--box", "1,1"],
        ["pgf", "--variant", "mgfcp", "--beta", "0.8", "--u", "0.5,0.5"],
        ["moments", "--variant", "mgfcp", "--beta", "0.8"],
        ["simulate", "--variant", "mgsfcp", "--alpha", "0.7"],
        ["estimate", "--variant", "mgsfcp", "--alpha", "0.7", "--box", "1,1",
         "--samples", "1000"],
    ],
    ids=lambda argv: argv[0],
)
def test_nan_time_exits_2(capsys, argv):
    code, out, err = run(capsys, argv + ["--model", MODEL, "--t", "nan"])
    assert (code, out) == (2, "")
    assert err == "error: t must be non-negative\n"


@pytest.mark.parametrize("t", ["nan", "-1"])
def test_mgcp_moments_reject_bad_time(capsys, t):
    code, out, err = run(capsys, ["moments", "--model", MODEL, "--t", t])
    assert (code, out) == (2, "")
    assert err == "error: t must be non-negative\n"


def test_nan_pgf_argument_exits_2(capsys):
    code, out, err = run(
        capsys,
        ["pgf", "--model", MODEL, "--variant", "mgsfcp", "--alpha", "0.7",
         "--u", "nan,0.5"],
    )
    assert (code, out) == (2, "")
    assert err == "error: need |u_i| <= 1\n"


@pytest.mark.parametrize("u, want", [("0.5,0.5", "0.0"), ("1.0,1.0", "1.0")])
def test_infinite_t_pgf_prints_its_limit(capsys, u, want):
    code, out, err = run(
        capsys,
        ["pgf", "--model", MODEL, "--variant", "mgfcp", "--beta", "0.8",
         "--t", "inf", "--u", u],
    )
    assert (code, err) == (0, "")
    assert csv_rows(out)[1] == [u.split(",") + [want]]


def test_large_t_pmf_prints_the_pgf_value(capsys):
    # p(0, 0) = exp(-t H) = e^-586.3 is a normal double at t = 800
    code, out, err = run(
        capsys,
        ["pmf", "--model", MODEL, "--variant", "tempered", "--alpha", "0.6",
         "--theta", "1", "--t", "800", "--box", "0,0"],
    )
    assert (code, err) == (0, "")
    want = variant_pgf(Tempered(0.6, 1.0), FIG1, (0.0, 0.0), 800.0)
    assert csv_rows(out) == (["n1", "n2", "p"], [["0", "0", repr(want)]])
    assert math.log(want) == pytest.approx(-800.0 * (2.5**0.6 - 1.0), rel=1e-14)


@pytest.mark.parametrize(
    "flags", [["--variant", "mgcp"], ["--variant", "gamma", "--a", "1", "--b", "2"]]
)
def test_infinite_t_pmf_exits_2_naming_t(capsys, flags):
    # the box holds non-empty states, which have no value at t = inf
    code, out, err = run(
        capsys, ["pmf", "--model", MODEL, *flags, "--t", "inf", "--box", "1,1"]
    )
    assert (code, out) == (2, "")
    assert "t = inf" in err


def _limit_memory():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_tgrid_must_be_finite():
    # a NaN or infinite grid never ends the grid loop, so each case runs
    # in a child under a memory cap and a timeout
    base = ["-m", "mgcp", "reliability", "--case", "fig1", "--alpha", "0.9",
            "--threshold", "geometric:0.5", "--tgrid"]
    src = os.path.dirname(os.path.dirname(os.path.abspath(mgcp.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for bad in ("0:nan:1", "0:inf:1", "nan:1:0.5", "0:1:inf"):
        proc = subprocess.run(
            [sys.executable, *base, bad], env=env, capture_output=True,
            text=True, timeout=60, preexec_fn=_limit_memory,
        )
        assert proc.returncode == 2, bad
        assert proc.stderr == "error: tgrid: need finite numbers\n"
