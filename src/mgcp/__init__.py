"""Multivariate generalized counting processes and their time changes.

The base process jumps by sizes 1..k_i in each of q independent
components.  Running it at a random clock (stable, inverse stable,
tempered stable, gamma, inverse Gaussian, or an arbitrary Bernstein
clock given through its Levy measure) yields the variants covered here,
with closed-form distributions, exact simulation and a shock-model
reliability application on top.
"""

from importlib import import_module as _import_module

from .specfun import (
    CancellationWarning,
    NumericsWarning,
    TruncationWarning,
    falling_factorial,
    generalized_incomplete_gamma,
    generalized_sine_integral,
    incomplete_beta,
    mittag_leffler,
    reciprocal_gamma,
    wright_1_1,
)
from .compositions import enumerate_compositions, joint_compositions
from .gcp import (
    RateMatrix,
    component_symbol,
    default_box,
    gcp_pmf,
    mgcp_component_variance,
    mgcp_levy_measure,
    mgcp_mean,
    mgcp_pgf,
    mgcp_pmf,
    mgcp_pmf_recurrence,
    pgf_symbol,
    preset_rates,
)
from .subordinators import (
    GammaSub,
    Identity,
    InverseGaussian,
    InverseStableTime,
    Stable,
    TemperedStable,
    gamma_density,
    ig_density,
    inverse_stable_moment,
    laplace_exponent,
    levy_density,
    levy_singularity_exponent,
    sample,
    sample_many,
    stream_rng,
)
from .variants import (
    GammaTC,
    IgTC,
    Mgcp,
    Mgfcp,
    Mgsfcp,
    Mgstfcp,
    Tempered,
    clock_spec,
    codifference,
    covariance,
    holding_rate,
    variant_levy_measure,
    variant_pgf,
    variant_pmf,
    variant_pmf_wright,
    variant_transition_rate,
)
from .shock import (
    CustomThreshold,
    Geometric,
    IncGamma,
    Logarithmic,
    ShockModel,
    SineIntegral,
    failure_density,
    figure_rates,
    hazard_rate,
    prob_failure_type,
    reliability,
    reliability_curve,
    threshold_pmf,
    threshold_tail,
)

__version__ = "0.1.0"

# Neither the quadrature layer nor the Monte Carlo layer is on a
# closed-form path, so their names are looked up on first use (PEP 562);
# the quadrature layer in turn loads scipy.integrate on its first
# quadrature.  Each access reads the submodule attribute
# afresh rather than caching it here, so a later rebinding of that
# attribute is what the package name returns.
_LAZY = {
    "bernstein": (
        "Custom",
        "Named",
        "QuadratureError",
        "bernstein_f",
        "g_lambda_u",
        "tcgcp_pgf",
        "tcgcp_pgf_fractional",
        "tcgcp_transition_rate",
    ),
    "montecarlo": (
        "EstimateReport",
        "estimate_codifference",
        "estimate_covariance",
        "estimate_pmf",
        "sample_mgcp",
        "sample_mgcp_many",
        "sample_variant",
        "sample_variant_many",
    ),
}
_LAZY_MODULE = {name: mod for mod, names in _LAZY.items() for name in names}


def __getattr__(name):
    if name in _LAZY:
        return _import_module("." + name, __name__)
    mod = _LAZY_MODULE.get(name)
    if mod is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(_import_module("." + mod, __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY) | set(_LAZY_MODULE))
