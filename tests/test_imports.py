"""Import graph: what `import mgcp` and each CLI command load.

The closed-form and sampling layers need only numpy and the math
module, so neither `import mgcp` nor any CLI command loads a scipy
module; the quadrature (`bernstein`) and Monte Carlo (`montecarlo`)
layers load on first use, and the package names they export still
resolve.  A one-worker estimate or a simulate run loads no thread pool
(`concurrent.futures`).  Importing the quadrature layer, or building a `Named`
measure, loads no scipy module either: `scipy.integrate` comes with
the first quadrature.
"""

import importlib
import os
import subprocess
import sys

import pytest

import mgcp

MODEL = '{"rates": [[0.5], [0.5, 0.5]]}'
LAYERS = {"mgcp.bernstein", "mgcp.montecarlo"}
T1 = ["--model", MODEL, "--t", "1"]
# the closed-form subcommands other than presets, with small inputs
CLOSED_FORM = {
    "pmf": ["pmf", *T1, "--variant", "mgsfcp", "--alpha", "0.7", "--box", "2,2"],
    "pgf": ["pgf", *T1, "--variant", "mgfcp", "--beta", "0.8", "--u", "0.5,0.5"],
    "levy": ["levy", *T1, "--variant", "tempered", "--alpha", "0.6", "--theta", "1",
             "--box", "2,2"],
    "moments": ["moments", *T1, "--variant", "mgfcp", "--beta", "0.8"],
    "reliability": ["reliability", "--case", "fig1", "--alpha", "0.7",
                    "--threshold", "geometric:0.5", "--tgrid", "0:1:0.5"],
}

# every name the package namespace exports, the lazy layers' included
EXPORTS = {
    "specfun": (
        "CancellationWarning", "NumericsWarning", "TruncationWarning",
        "falling_factorial", "generalized_incomplete_gamma",
        "generalized_sine_integral", "incomplete_beta", "mittag_leffler",
        "reciprocal_gamma", "wright_1_1",
    ),
    "compositions": ("enumerate_compositions", "joint_compositions"),
    "gcp": (
        "RateMatrix", "component_symbol", "default_box", "gcp_pmf",
        "mgcp_component_variance", "mgcp_levy_measure", "mgcp_mean",
        "mgcp_pgf", "mgcp_pmf", "mgcp_pmf_recurrence", "pgf_symbol",
        "preset_rates",
    ),
    "subordinators": (
        "GammaSub", "Identity", "InverseGaussian", "InverseStableTime",
        "Stable", "TemperedStable", "gamma_density",
        "ig_density", "inverse_stable_moment", "laplace_exponent",
        "levy_density", "levy_singularity_exponent", "sample", "sample_many",
        "stream_rng",
    ),
    "variants": (
        "GammaTC", "IgTC", "Mgcp", "Mgfcp", "Mgsfcp", "Mgstfcp", "Tempered",
        "clock_spec", "codifference", "covariance", "holding_rate",
        "variant_levy_measure", "variant_pgf", "variant_pmf",
        "variant_pmf_wright", "variant_transition_rate",
    ),
    "bernstein": (
        "Custom", "Named", "QuadratureError", "bernstein_f", "g_lambda_u",
        "tcgcp_pgf", "tcgcp_pgf_fractional", "tcgcp_transition_rate",
    ),
    "shock": (
        "CustomThreshold", "Geometric", "IncGamma", "Logarithmic",
        "ShockModel", "SineIntegral", "failure_density", "figure_rates",
        "hazard_rate", "prob_failure_type", "reliability", "reliability_curve",
        "threshold_pmf", "threshold_tail",
    ),
    "montecarlo": (
        "EstimateReport", "estimate_codifference", "estimate_covariance",
        "estimate_pmf", "sample_mgcp", "sample_mgcp_many", "sample_variant",
        "sample_variant_many",
    ),
}
EXPORTED = [(mod, name) for mod, names in EXPORTS.items() for name in names]


def _child(args):
    """Run python with args in a fresh interpreter that finds this mgcp."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(mgcp.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def _scipy(modules):
    """The scipy modules among the names given."""
    return {m for m in modules if m == "scipy" or m.startswith("scipy.")}


def _cli_modules(argv):
    """sys.modules after `python -m mgcp argv` in a fresh child."""
    script = (
        "import runpy, sys\n"
        "sys.argv = ['mgcp'] + sys.argv[1:]\n"
        "try:\n"
        "    runpy.run_module('mgcp', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code in (0, 3), exc.code\n"
        "sys.stderr.write('\\n'.join(sys.modules))\n"
    )
    proc = _child(["-c", script, *argv])
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


def test_import_leaves_heavy_layers_unloaded():
    proc = _child(["-c", "import sys, mgcp; print('\\n'.join(sys.modules))"])
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "mgcp.variants" in loaded
    assert not _scipy(loaded) and not LAYERS & loaded


def test_presets_leaves_heavy_layers_unloaded():
    loaded = _cli_modules(["presets"])
    assert "mgcp.cli" in loaded
    assert not _scipy(loaded) and not LAYERS & loaded


@pytest.mark.parametrize("argv", CLOSED_FORM.values(), ids=CLOSED_FORM)
def test_closed_form_commands_load_no_scipy(argv):
    loaded = _cli_modules(argv)
    assert "mgcp.cli" in loaded
    assert not _scipy(loaded) and not LAYERS & loaded


def test_estimate_loads_montecarlo():
    loaded = _cli_modules(
        ["estimate", "--model", MODEL, "--variant", "mgsfcp", "--alpha", "0.7",
         "--samples", "2000", "--box", "1,1"]
    )
    assert "mgcp.montecarlo" in loaded
    assert not _scipy(loaded)
    # one worker runs the chunks inline, with no thread pool to import
    assert "concurrent.futures" not in loaded


def test_simulate_loads_montecarlo_without_scipy():
    loaded = _cli_modules(
        ["simulate", *T1, "--variant", "mgstfcp", "--alpha", "0.7", "--beta", "0.8",
         "--samples", "20", "--seed", "7"]
    )
    assert "mgcp.montecarlo" in loaded
    assert not _scipy(loaded)
    assert "concurrent.futures" not in loaded


def test_estimate_with_two_workers_loads_the_thread_pool():
    loaded = _cli_modules(
        ["estimate", "--model", MODEL, "--variant", "mgsfcp", "--alpha", "0.7",
         "--samples", "2000", "--box", "1,1", "--workers", "2"]
    )
    assert "concurrent.futures" in loaded


def test_bernstein_import_loads_no_scipy():
    script = (
        "import sys\n"
        "import mgcp.bernstein\n"
        "from mgcp import Named, Stable\n"
        "Named(Stable(0.7))\n"
        "print('\\n'.join(sys.modules))\n"
    )
    proc = _child(["-c", script])
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "mgcp.bernstein" in loaded
    assert not _scipy(loaded)


def test_first_quadrature_loads_scipy_integrate():
    script = (
        "import sys\n"
        "from mgcp import Named, Stable, bernstein, figure_rates\n"
        "before = 'scipy.integrate' in sys.modules\n"
        "bernstein.tcgcp_transition_rate(figure_rates(1), Named(Stable(0.7)), (1, 0))\n"
        "import scipy.integrate\n"
        "print(before, 'scipy.integrate' in sys.modules,\n"
        "      bernstein.quad is scipy.integrate.quad)\n"
    )
    proc = _child(["-c", script])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True", "True"]


def test_montecarlo_stats_loads_on_first_access():
    # the name stays reachable for callers that still read it
    script = (
        "import sys\n"
        "from mgcp import montecarlo\n"
        "before = 'scipy.stats' in sys.modules\n"
        "stats = montecarlo.stats\n"
        "print(before, stats is sys.modules['scipy.stats'])\n"
    )
    proc = _child(["-c", script])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


def test_exported_names_are_the_submodule_attributes():
    wrong = [
        (mod, name)
        for mod, name in EXPORTED
        if getattr(mgcp, name) is not getattr(importlib.import_module("mgcp." + mod), name)
    ]
    assert wrong == []
    assert mgcp.bernstein is importlib.import_module("mgcp.bernstein")
    assert mgcp.montecarlo is importlib.import_module("mgcp.montecarlo")


def test_dir_lists_every_export():
    listed = set(dir(mgcp))
    assert {name for _, name in EXPORTED} <= listed
    assert set(EXPORTS) <= listed


def test_lazy_names_follow_a_rebound_submodule_attribute(monkeypatch):
    from mgcp import bernstein, montecarlo

    for module, name in ((bernstein, "tcgcp_pgf"), (montecarlo, "estimate_pmf")):
        stand_in = object()
        monkeypatch.setattr(module, name, stand_in)
        assert getattr(mgcp, name) is stand_in
        # resolved on each access, never cached in the package namespace
        assert name not in vars(mgcp)
    monkeypatch.undo()
    assert mgcp.tcgcp_pgf is bernstein.tcgcp_pgf


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        mgcp.no_such_name
