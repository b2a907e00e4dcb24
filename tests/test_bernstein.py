"""Measure-driven layer: quadrature against arbitrary Levy densities.

These tests lean on the Named/Custom duality: a Custom measure built
from a named clock's density must reproduce the clock's closed forms
through the quadrature path, which never shortcuts to them.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mgcp import bernstein
from mgcp.bernstein import (
    Custom,
    Named,
    bernstein_f,
    g_lambda_u,
    tcgcp_pgf,
    tcgcp_pgf_fractional,
    tcgcp_transition_rate,
)
from mgcp import subordinators
from mgcp.gcp import RateMatrix, mgcp_pgf, pgf_symbol
from mgcp.specfun import mittag_leffler
from mgcp.subordinators import (
    GammaSub,
    Identity,
    InverseGaussian,
    InverseStableTime,
    Stable,
    TemperedStable,
    laplace_exponent,
    levy_density,
)
from mgcp.variants import (
    GammaTC,
    IgTC,
    Mgsfcp,
    Tempered,
    variant_pgf,
    variant_transition_rate,
)

FIG1 = RateMatrix([[0.5], [0.5, 0.5]])

NAMED_SPECS = [
    Stable(0.7),
    TemperedStable(0.6, 0.9),
    GammaSub(1.2, 0.8),
    InverseGaussian(1.1, 0.7),
]

VARIANT_FOR = {
    Stable: lambda s: Mgsfcp(s.alpha),
    TemperedStable: lambda s: Tempered(s.alpha, s.theta),
    GammaSub: lambda s: GammaTC(s.a, s.b),
    InverseGaussian: lambda s: IgTC(s.delta, s.gamma),
}


def custom_from(spec, declare=True):
    """Wrap a named clock's density as an opaque Custom measure."""
    rho = {Stable: 0.7, TemperedStable: 0.6, GammaSub: 0.0, InverseGaussian: 0.5}[
        type(spec)
    ]
    return Custom(
        density=lambda s: levy_density(spec, s),
        singularity_exponent=rho if declare else None,
    )


def sid(spec):
    return type(spec).__name__


class TestMeasureValidation:
    def test_named_rejects_non_levy(self):
        with pytest.raises(ValueError):
            Named(InverseStableTime(Identity(), 0.5))
        with pytest.raises(ValueError):
            Named(Identity())
        with pytest.raises(ValueError):
            Named("stable")

    def test_custom_param_checks(self):
        with pytest.raises(ValueError):
            Custom(lambda s: math.exp(-s), singularity_exponent=1.0)
        with pytest.raises(ValueError):
            Custom(lambda s: math.exp(-s), decay_rate=0.0)

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_custom_rejects_a_decay_rate_that_is_not_finite(self, rate):
        # a nan rate once set the tail's end to nan, and quad returned a
        # wrong f(1) without complaint
        with pytest.raises(ValueError, match="decay rate"):
            Custom(lambda s: math.exp(-s) * s**-1.5, singularity_exponent=0.5, decay_rate=rate)

    def test_custom_rejects_non_integrable_density(self):
        # s^(-2) fails int_0^1 s mu(ds)
        with pytest.raises(ValueError, match="integrable"):
            Custom(lambda s: s**-2.0, singularity_exponent=None)

    def test_custom_accepts_gamma_density(self):
        Custom(lambda s: math.exp(-s) / s, singularity_exponent=0.0, decay_rate=1.0)


@pytest.mark.parametrize("spec", NAMED_SPECS, ids=sid)
def test_bernstein_f_named_is_closed_form(spec):
    for s in (0.3, 1.0, 4.0):
        assert_allclose(
            bernstein_f(Named(spec), s), laplace_exponent(spec, s), rtol=1e-14
        )
    assert bernstein_f(Named(spec), 0.0) == 0.0
    with pytest.raises(ValueError):
        bernstein_f(Named(spec), -1.0)
    with pytest.raises(ValueError, match="non-negative"):
        bernstein_f(Named(spec), math.nan)


@pytest.mark.parametrize("spec", NAMED_SPECS, ids=sid)
def test_bernstein_f_custom_reproduces_exponent(spec):
    m = custom_from(spec)
    for s in (0.3, 1.0, 4.0):
        assert_allclose(bernstein_f(m, s), laplace_exponent(spec, s), rtol=1e-8)


def test_bernstein_f_undeclared_exponent_probe():
    # no singularity hint: the probe (or tanh-sinh) has to cope alone
    spec = Stable(0.7)
    m = custom_from(spec, declare=False)
    assert_allclose(bernstein_f(m, 1.0), 1.0, rtol=1e-6)


@pytest.mark.parametrize("spec", NAMED_SPECS, ids=sid)
def test_g_lambda_u_matches_exponent_of_symbol(spec):
    ubar = (0.5, 0.7)
    w = pgf_symbol(FIG1, ubar)
    assert_allclose(
        g_lambda_u(FIG1, Named(spec), ubar),
        laplace_exponent(spec, w),
        rtol=1e-8,
    )
    assert g_lambda_u(FIG1, Named(spec), (1.0, 1.0)) == 0.0
    with pytest.raises(ValueError):
        g_lambda_u(FIG1, Named(spec), (1.5, 0.0))


@pytest.mark.parametrize("spec", NAMED_SPECS, ids=sid)
def test_transition_rate_matches_variant_formulas(spec):
    """Quadrature route vs the per-variant closed forms."""
    v = VARIANT_FOR[type(spec)](spec)
    m = Named(spec)
    for lbar in ((1, 0), (0, 1), (0, 2), (1, 1), (2, 2), (0, 4)):
        assert_allclose(
            tcgcp_transition_rate(FIG1, m, lbar),
            variant_transition_rate(v, FIG1, lbar),
            rtol=1e-7,
        )


def test_transition_rate_custom_measure():
    spec = GammaSub(1.2, 0.8)
    got = tcgcp_transition_rate(FIG1, custom_from(spec), (1, 1))
    want = variant_transition_rate(GammaTC(1.2, 0.8), FIG1, (1, 1))
    assert_allclose(got, want, rtol=1e-7)


class _GammaDensity:
    """The gamma clock's Levy density b/s e^(-a s) as a callable that
    compares equal to its twins and has no hash."""

    def __init__(self, a, b):
        self.a, self.b = a, b

    def __eq__(self, other):
        return isinstance(other, _GammaDensity) and (self.a, self.b) == (other.a, other.b)

    __hash__ = None

    def __call__(self, s):
        return self.b / s * math.exp(-self.a * s)


def test_transition_rate_unhashable_custom_density():
    # a Custom hashes by identity, so an unhashable density still works;
    # the value is the one the unmemoised quadrature gave
    m = Custom(_GammaDensity(0.8, 1.2), singularity_exponent=0.0)
    got = tcgcp_transition_rate(FIG1, m, (1, 1))
    assert_allclose(got, 0.05671077504725894, rtol=1e-10)
    want = variant_transition_rate(GammaTC(0.8, 1.2), FIG1, (1, 1))
    assert_allclose(got, want, rtol=1e-7)


def _unmemoised_atom(m, lam, k):
    """nu_1(k) by one fresh quadrature, written out beside the memo."""
    mu = m.density
    i_k = bernstein._integral(
        lambda r: math.exp(-lam * r) * r**k * mu(r),
        bernstein._origin_exponent(m, k),
        bernstein._tail_top(m),
    )
    return i_k * lam**k / math.factorial(k)


@pytest.mark.parametrize(
    "m",
    [Named(Stable(0.7)), Custom(_GammaDensity(0.8, 1.2), singularity_exponent=0.0)],
    ids=["named", "custom"],
)
def test_measure_atom_equals_one_quadrature(m):
    for k in (1, 5, 12):
        assert bernstein._measure_atom(m, 1.5, k) == _unmemoised_atom(m, 1.5, k), k


@pytest.mark.parametrize("spec", NAMED_SPECS, ids=sid)
def test_transition_rates_do_not_depend_on_call_order(spec):
    m = Named(spec)
    jumps = [(a, b) for a in range(7) for b in range(7) if a or b]
    bernstein._measure_atom.cache_clear()
    forward = [tcgcp_transition_rate(FIG1, m, lbar) for lbar in jumps]
    bernstein._measure_atom.cache_clear()
    backward = [tcgcp_transition_rate(FIG1, m, lbar) for lbar in reversed(jumps)]
    assert forward == backward[::-1]


def test_customs_with_equal_hints_keep_their_own_atoms():
    one = Custom(_GammaDensity(0.8, 1.2), singularity_exponent=0.0)
    two = Custom(_GammaDensity(0.8, 2.4), singularity_exponent=0.0)
    for k in (1, 5):
        a, b = bernstein._measure_atom(one, 1.5, k), bernstein._measure_atom(two, 1.5, k)
        assert_allclose(b, 2.0 * a, rtol=1e-9)


def test_transition_rate_domain():
    m = Named(Stable(0.7))
    with pytest.raises(ValueError):
        tcgcp_transition_rate(FIG1, m, (0, 0))
    with pytest.raises(ValueError):
        tcgcp_transition_rate(FIG1, m, (1,))
    with pytest.raises(ValueError):
        tcgcp_transition_rate(FIG1, m, (-1, 1))


@pytest.mark.parametrize("spec", NAMED_SPECS, ids=sid)
def test_pgf_matches_variant_pgf(spec):
    v = VARIANT_FOR[type(spec)](spec)
    ubar = (0.4, 0.8)
    for t in (0.5, 1.5):
        assert_allclose(
            tcgcp_pgf(FIG1, Named(spec), ubar, t),
            variant_pgf(v, FIG1, ubar, t),
            rtol=1e-8,
        )
    assert tcgcp_pgf(FIG1, Named(spec), ubar, 0.0) == 1.0
    with pytest.raises(ValueError):
        tcgcp_pgf(FIG1, Named(spec), ubar, -1.0)


@pytest.mark.parametrize("beta", [None, 1.0, 0.6])
def test_pgf_at_infinite_time_is_its_limit(beta):
    m = Named(GammaSub(1.2, 0.8))

    def pgf(ubar):
        if beta is None:
            return tcgcp_pgf(FIG1, m, ubar, math.inf)
        return tcgcp_pgf_fractional(FIG1, m, beta, ubar, math.inf)

    assert pgf((1.0, 1.0)) == 1.0
    assert pgf((0.4, 0.8)) == 0.0


class TestFractionalPgf:
    def test_beta_one_is_exponential_path(self):
        m = Named(Stable(0.7))
        ubar = (0.4, 0.8)
        assert_allclose(
            tcgcp_pgf_fractional(FIG1, m, 1.0, ubar, 1.2),
            tcgcp_pgf(FIG1, m, ubar, 1.2),
            rtol=1e-14,
        )

    def test_mittag_leffler_of_exponent(self):
        m = Named(GammaSub(1.2, 0.8))
        ubar = (0.4, 0.8)
        beta, t = 0.6, 1.3
        g = g_lambda_u(FIG1, m, ubar)
        assert_allclose(
            tcgcp_pgf_fractional(FIG1, m, beta, ubar, t),
            mittag_leffler(beta, 1.0, 1.0, -(t**beta) * g),
            rtol=1e-12,
        )

    def test_large_t_is_a_probability(self):
        # E_0.8(-60^0.8 g), g = (1.5 + 1)^0.6 - 1 the tempered exponent
        # at Lambda = 1.5; mpmath, 80 digits: g = mpf(2.5)**mpf('0.6') - 1,
        # sum((-mpf(60)**mpf('0.8') * g)**r * rgamma(mpf('0.8')*r + 1)
        # for r in range(1500)) = 0.012009058...
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(80):
            x = -(mpmath.mpf(60) ** mpmath.mpf("0.8")) * (mpmath.mpf(2.5) ** mpmath.mpf("0.6") - 1)
            want = float(mpmath.fsum(x**r * mpmath.rgamma(mpmath.mpf("0.8") * r + 1) for r in range(1500)))
        got = tcgcp_pgf_fractional(FIG1, Named(TemperedStable(0.6, 1.0)), 0.8, (0.0, 0.0), 60.0)
        assert 0.0 <= got <= 1.0
        # the quadrature of g is good to about 1e-12 relative
        assert_allclose(got, want, rtol=1e-10)
        assert_allclose(got, 0.0120091, rtol=1e-5)

    def test_domain(self):
        m = Named(Stable(0.7))
        with pytest.raises(ValueError):
            tcgcp_pgf_fractional(FIG1, m, 1.5, (0.5, 0.5), 1.0)
        with pytest.raises(ValueError):
            tcgcp_pgf_fractional(FIG1, m, 0.5, (0.5, 0.5), -1.0)


def test_deep_quadrature_rate_raises_cleanly():
    # twice: a raising atom is not memoised
    for _ in range(2):
        with pytest.raises(ValueError, match="too deep"):
            tcgcp_transition_rate(RateMatrix([[1.0]]), Named(Stable(0.7)), (200,))


@pytest.mark.parametrize("spec", NAMED_SPECS, ids=sid)
def test_quadrature_route_never_uses_the_closed_form_exponent(spec, monkeypatch):
    """The quadrature side of each cross-check stays independent code."""
    m = Named(spec)
    ubar = (0.4, 0.8)
    want = (
        [tcgcp_transition_rate(FIG1, m, lbar) for lbar in ((1, 0), (1, 2))],
        g_lambda_u(FIG1, m, ubar),
        tcgcp_pgf(FIG1, m, ubar, 1.5),
    )

    def closed_form(*args):
        raise AssertionError("laplace_exponent called")

    monkeypatch.setattr(subordinators, "laplace_exponent", closed_form)
    # integrate the atoms afresh under the patch, not read them from the memo
    bernstein._measure_atom.cache_clear()
    got = (
        [tcgcp_transition_rate(FIG1, m, lbar) for lbar in ((1, 0), (1, 2))],
        g_lambda_u(FIG1, m, ubar),
        tcgcp_pgf(FIG1, m, ubar, 1.5),
    )
    assert got == want
    assert bernstein._measure_atom.cache_info().misses > 0


def test_quadrature_reads_the_rebound_quad(monkeypatch):
    """A wrapper bound to bernstein.quad is what integrates, unchanged."""
    m = Named(Stable(0.7))
    bernstein._measure_atom.cache_clear()
    want = tcgcp_transition_rate(FIG1, m, (1, 0))
    calls = []
    inner = bernstein.quad

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return inner(*args, **kwargs)

    monkeypatch.setattr(bernstein, "quad", counting)
    bernstein._measure_atom.cache_clear()
    assert tcgcp_transition_rate(FIG1, m, (1, 0)) == want
    assert calls
    monkeypatch.undo()
    assert bernstein.quad is inner


def test_nan_time_and_argument_are_rejected():
    m = Named(Stable(0.7))
    with pytest.raises(ValueError, match="non-negative"):
        tcgcp_pgf(FIG1, m, (0.5, 0.5), math.nan)
    with pytest.raises(ValueError, match="non-negative"):
        tcgcp_pgf_fractional(FIG1, m, 0.8, (0.5, 0.5), math.nan)
    with pytest.raises(ValueError, match=r"\|u_i\| <= 1"):
        g_lambda_u(FIG1, m, (math.nan, 0.5))


SLACK = (1.0 + 1e-12, 1.0 + 1e-12)
TS = Named(TemperedStable(0.6, 1.0))


@pytest.mark.parametrize(
    "pgf",
    [
        lambda: mgcp_pgf(FIG1, SLACK, 1e6),
        lambda: tcgcp_pgf(FIG1, TS, SLACK, 1e9),
        lambda: tcgcp_pgf_fractional(FIG1, TS, 0.8, SLACK, 1e12),
    ],
    ids=["mgcp_pgf", "tcgcp_pgf", "tcgcp_pgf_fractional"],
)
def test_pgf_at_the_accepted_slack_is_at_most_one(pgf):
    """|u| <= 1 + 1e-12 is accepted; a large t must not amplify the slack."""
    assert pgf() <= 1.0


def test_state_entries_of_any_integer_type():
    m = Named(Stable(0.7))
    want = tcgcp_transition_rate(FIG1, m, (1, 2))
    assert tcgcp_transition_rate(FIG1, m, (np.int64(1), np.int64(2))) == want
    with pytest.raises(ValueError, match="state entries must be integers"):
        tcgcp_transition_rate(FIG1, m, (1.0, 2))
