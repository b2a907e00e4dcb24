"""Time-changed variants: pmf series, pgf, rates, moments, codifference.

Frozen expected values were produced by the standalone high-precision
script /root/notes/oracles.py (mpmath at 50 digits, no package imports);
the generating call is quoted next to each value.
"""

import cmath
import itertools
import math

import pytest
from numpy.testing import assert_allclose
from scipy import integrate

from mgcp.bernstein import Named, g_lambda_u
from mgcp.compositions import enumerate_compositions
from mgcp.gcp import RateMatrix, component_symbol, mgcp_pmf
from mgcp.specfun import mittag_leffler
from mgcp.subordinators import (
    GammaSub,
    InverseGaussian,
    InverseStable,
    Stable,
    StableTimeInverseStable,
    TemperedStable,
    gamma_density,
    ig_density,
    laplace_exponent,
)
from mgcp.variants import (
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

FIG1 = RateMatrix([[0.5], [0.5, 0.5]])
ONE = RateMatrix([[1.0]])

LEVY_VARIANTS = [
    Mgsfcp(0.7),
    Tempered(0.6, 0.9),
    GammaTC(1.2, 0.8),
    IgTC(1.1, 0.7),
]

ALL_VARIANTS = [Mgcp(), Mgfcp(0.6), Mgstfcp(0.7, 0.6)] + LEVY_VARIANTS


def vid(v):
    return type(v).__name__


class TestVariantValidation:
    def test_alpha_range(self):
        with pytest.raises(ValueError):
            Mgsfcp(1.5)
        with pytest.raises(ValueError):
            Mgstfcp(0.5, 0.0)

    def test_tempered_theta(self):
        with pytest.raises(ValueError):
            Tempered(0.5, -1.0)

    def test_gamma_ig_params(self):
        with pytest.raises(ValueError):
            GammaTC(0.0, 1.0)
        with pytest.raises(ValueError):
            IgTC(1.0, 0.0)

    def test_boundary_params_allowed(self):
        Mgsfcp(1.0)
        Mgfcp(1.0)
        Mgstfcp(1.0, 1.0)


class TestClockSpec:
    def test_mapping(self):
        assert clock_spec(Mgcp()) is None
        assert clock_spec(Mgsfcp(0.7)) == Stable(0.7)
        assert clock_spec(Mgfcp(0.6)) == InverseStable(0.6)
        assert clock_spec(Mgstfcp(0.7, 0.6)) == StableTimeInverseStable(0.7, 0.6)
        assert clock_spec(Tempered(0.6, 0.9)) == TemperedStable(0.6, 0.9)
        assert clock_spec(GammaTC(1.2, 0.8)) == GammaSub(1.2, 0.8)
        assert clock_spec(IgTC(1.1, 0.7)) == InverseGaussian(1.1, 0.7)

    def test_boundary_reduction(self):
        assert clock_spec(Mgsfcp(1.0)) is None
        assert clock_spec(Mgfcp(1.0)) is None
        assert clock_spec(Mgstfcp(1.0, 0.6)) == InverseStable(0.6)
        assert clock_spec(Mgstfcp(0.7, 1.0)) == Stable(0.7)
        assert clock_spec(Tempered(1.0, 2.0)) is None


class TestFrozenPmfValues:
    """Oracle: python3 /root/notes/oracles.py (mpmath, dps=50)."""

    def test_mgsfcp(self):
        # mgsfcp fig1 a=.7 t=1 (1,2) / (0,0)
        assert_allclose(
            variant_pmf(Mgsfcp(0.7), FIG1, (1, 2), 1.0),
            0.043198702813736397,
            rtol=1e-12,
        )
        assert_allclose(
            variant_pmf(Mgsfcp(0.7), FIG1, (0, 0), 1.0),
            0.26495342055308322,
            rtol=1e-12,
        )

    def test_tempered(self):
        # tempered fig1 .6/.9 t=1 (1,2)
        assert_allclose(
            variant_pmf(Tempered(0.6, 0.9), FIG1, (1, 2), 1.0),
            0.035427388032042166,
            rtol=1e-12,
        )

    def test_mgfcp(self):
        # mgfcp fig1 b=.6 t=1 (1,2)
        assert_allclose(
            variant_pmf(Mgfcp(0.6), FIG1, (1, 2), 1.0),
            0.053845900458499257,
            rtol=1e-12,
        )

    def test_mgstfcp(self):
        # mgstfcp fig1 .7/.6 t=1 (1,2)
        assert_allclose(
            variant_pmf(Mgstfcp(0.7, 0.6), FIG1, (1, 2), 1.0),
            0.034236142144272016,
            rtol=1e-12,
        )

    def test_gammatc(self):
        # gammatc fig1 1.2/.8 t=1 (1,2)
        assert_allclose(
            variant_pmf(GammaTC(1.2, 0.8), FIG1, (1, 2), 1.0),
            0.032504546474288595,
            rtol=1e-12,
        )

    def test_igtc(self):
        # igtc fig1 1.1/.7 t=1 (1,2)
        assert_allclose(
            variant_pmf(IgTC(1.1, 0.7), FIG1, (1, 2), 1.0),
            0.046839768307644027,
            rtol=1e-12,
        )


@pytest.mark.parametrize("v", ALL_VARIANTS, ids=vid)
def test_pmf_edge_cases(v):
    assert variant_pmf(v, FIG1, (0, 0), 0.0) == 1.0
    assert variant_pmf(v, FIG1, (1, 0), 0.0) == 0.0
    with pytest.raises(ValueError):
        variant_pmf(v, FIG1, (1, 0), -1.0)
    with pytest.raises(ValueError):
        variant_pmf(v, FIG1, (1,), 1.0)
    with pytest.raises(ValueError):
        variant_pmf(v, FIG1, (-1, 0), 1.0)


def test_boundary_parameters_reduce_to_base():
    for v in (Mgsfcp(1.0), Mgfcp(1.0), Mgstfcp(1.0, 1.0), Tempered(1.0, 2.0)):
        for nbar in ((0, 0), (1, 2), (3, 1)):
            assert_allclose(
                variant_pmf(v, FIG1, nbar, 0.8),
                mgcp_pmf(FIG1, nbar, 0.8),
                rtol=1e-12,
            )


def test_mgstfcp_beta_near_one_approaches_mgsfcp():
    v = Mgstfcp(0.7, 1.0 - 1e-6)
    for nbar in ((0, 0), (1, 1), (2, 2)):
        assert_allclose(
            variant_pmf(v, FIG1, nbar, 1.0),
            variant_pmf(Mgsfcp(0.7), FIG1, nbar, 1.0),
            rtol=1e-5,
        )


@pytest.mark.parametrize("v", [Mgsfcp(0.7), Mgsfcp(0.4), Tempered(0.6, 0.9)], ids=vid)
def test_wright_route_agrees(v):
    for nbar in itertools.product(range(3), range(3)):
        assert_allclose(
            variant_pmf_wright(v, FIG1, nbar, 1.0),
            variant_pmf(v, FIG1, nbar, 1.0),
            rtol=1e-10,
        )


def test_wright_route_only_for_stable_family():
    with pytest.raises(ValueError):
        variant_pmf_wright(Mgfcp(0.6), FIG1, (1, 1), 1.0)
    with pytest.raises(ValueError):
        variant_pmf_wright(GammaTC(1.0, 1.0), FIG1, (1, 1), 1.0)


@pytest.mark.parametrize("v", ALL_VARIANTS, ids=vid)
def test_pgf_equals_pmf_series(v):
    """Sum of pmf * u^n converges geometrically even for heavy tails."""
    t = 1.0
    ubar = (0.4, 0.3)
    box = 28  # 0.4^28 ~ 7e-12 bounds the truncation
    series = sum(
        variant_pmf(v, FIG1, (n1, n2), t) * ubar[0] ** n1 * ubar[1] ** n2
        for n1 in range(box)
        for n2 in range(box)
    )
    assert_allclose(series, variant_pgf(v, FIG1, ubar, t), rtol=1e-9)


@pytest.mark.parametrize(
    "v", [Mgcp(), Mgfcp(0.8), Tempered(0.8, 1.0), GammaTC(1.0, 1.0), IgTC(1.0, 1.0)],
    ids=vid,
)
def test_normalization_light_tails(v):
    """Heavy-tailed variants (stable clocks) are excluded: their count
    tail decays like n^(-alpha), putting the 1e-4 quantile out of any
    feasible box; the pgf series test covers their mass layout instead.
    """
    total = sum(
        variant_pmf(v, FIG1, nbar, 1.0)
        for nbar in itertools.product(range(24), range(24))
    )
    assert total <= 1.0 + 1e-10
    assert total >= 1.0 - 1e-4


def test_heavy_tail_partial_mass():
    total = sum(
        variant_pmf(Mgsfcp(0.7), ONE, (n,), 1.0) for n in range(160)
    )
    assert 0.95 < total < 1.0


def test_deep_state_raises_cleanly():
    # past z ~ 170 the series needs z! in double range
    with pytest.raises(ValueError, match="too deep"):
        variant_pmf(Mgsfcp(0.7), ONE, (300,), 1.0)
    with pytest.raises(ValueError, match="too deep"):
        variant_pmf(GammaTC(1.0, 1.0), ONE, (400,), 1.0)


def _mp_composition_sum(rates, nbar, c, kernel):
    """sum over joint compositions of prod (c lam)^x / x! * kernel(Z) in mpmath."""
    mpmath = pytest.importorskip("mpmath")
    total = mpmath.mpf(0)
    per = [list(enumerate_compositions(k, n)) for k, n in zip(rates.ks, nbar)]
    for joint in itertools.product(*per):
        w, z = mpmath.mpf(1), 0
        for row, comp in zip(rates.rows, joint):
            for lam, x in zip(row, comp):
                if x:
                    w *= (c * mpmath.mpf(lam)) ** x / mpmath.factorial(x)
                    z += x
        total += w * kernel(z)
    return total


@pytest.mark.parametrize("mbar", [(150, 150), (0, 300)])
def test_deep_stable_atom_matches_mpmath(mbar):
    """Deep mixed compositions: each float weight underflows, the atom does not."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        lam, a = mpmath.mpf(FIG1.total), mpmath.mpf("0.7")
        want = _mp_composition_sum(
            FIG1, mbar, -1 / lam, lambda z: -(lam**a) * mpmath.ff(a, z)
        )
        got = variant_transition_rate(Mgsfcp(0.7), FIG1, mbar)
        assert abs(got - want) <= 1e-10 * want


def test_deep_gamma_pmf_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        r = mpmath.mpf(FIG1.total) + 1
        want = _mp_composition_sum(
            FIG1, (100, 100), 1 / r, lambda z: mpmath.rf(2, z)
        ) / r**2
        got = variant_pmf(GammaTC(1.0, 2.0), FIG1, (100, 100), 1.0)
        assert abs(got - want) <= 1e-10 * want


def test_deep_series_pmf_frozen():
    # mpmath at 50 digits: the sum over the joint compositions of
    # (150, 150) of prod (-lam_ij/1.5)^x / x! * K(Z) with
    # K(Z) = sum_{r<400} (-1.5^0.7)^r / r! * ff(0.7 r, Z)
    want = 2.8913648483074278e-22
    got = variant_pmf(Mgsfcp(0.7), FIG1, (150, 150), 1.0)
    assert abs(got - want) <= 1e-10 * want


@pytest.mark.parametrize(
    "v", [Mgsfcp(0.7), Tempered(0.6, 1.0), GammaTC(1.0, 2.0), IgTC(1.0, 1.5)],
    ids=vid,
)
def test_no_zero_atom_in_deep_sweep(v):
    for n in range(1, 301):
        for mbar in ((n, 0), (0, n), (n, n)):
            assert variant_transition_rate(v, FIG1, mbar) > 0.0, mbar


def test_pgf_validates_arguments():
    with pytest.raises(ValueError):
        variant_pgf(Mgsfcp(0.7), FIG1, (1.2, 0.0), 1.0)
    with pytest.raises(ValueError):
        variant_pgf(Mgsfcp(0.7), FIG1, (0.5, 0.5), -1.0)


@pytest.mark.parametrize(
    "v", [Mgsfcp(0.7), Tempered(0.6, 0.9), GammaTC(1.2, 0.8), IgTC(1.1, 0.7)],
    ids=vid,
)
def test_pgf_time_ode(v):
    """d/dt G = -f_clock(symbol) G for the Levy-clock variants."""
    ubar = (0.5, 0.6)
    w = laplace_exponent(clock_spec(v), component_symbol(FIG1.rows[0], ubar[0])
                         + component_symbol(FIG1.rows[1], ubar[1]))
    h = 1e-5
    for t in (0.4, 1.0):
        num = (
            variant_pgf(v, FIG1, ubar, t + h) - variant_pgf(v, FIG1, ubar, t - h)
        ) / (2 * h)
        assert_allclose(num, -w * variant_pgf(v, FIG1, ubar, t), rtol=1e-7)


class TestMixtureIntegralRoutes:
    """pmf = integral of the base pmf against the clock density."""

    def test_gammatc(self):
        v = GammaTC(1.2, 0.8)
        t = 1.0
        for nbar in ((0, 0), (1, 2), (2, 1)):
            mix, _ = integrate.quad(
                lambda x: mgcp_pmf(FIG1, nbar, x) * gamma_density(v.a, v.b, x, t),
                0.0,
                100.0,
            )
            assert_allclose(variant_pmf(v, FIG1, nbar, t), mix, rtol=1e-8)

    def test_igtc(self):
        v = IgTC(1.1, 0.7)
        t = 1.0
        for nbar in ((0, 0), (1, 2), (2, 1)):
            mix, _ = integrate.quad(
                lambda x: mgcp_pmf(FIG1, nbar, x) * ig_density(v.delta, v.gamma, x, t),
                0.0,
                150.0,
            )
            assert_allclose(variant_pmf(v, FIG1, nbar, t), mix, rtol=1e-8)


class TestTransitionRates:
    def test_mgcp_single_jumps_only(self):
        assert variant_transition_rate(Mgcp(), FIG1, (1, 0)) == 0.5
        assert variant_transition_rate(Mgcp(), FIG1, (0, 2)) == 0.5
        assert variant_transition_rate(Mgcp(), FIG1, (1, 1)) == 0.0
        assert variant_transition_rate(Mgcp(), FIG1, (0, 3)) == 0.0

    def test_gammatc_plugin_value(self):
        # b (z-1)! (lam/(lam+a))^z / z! with z=2: 1 * 1! * (1/2)^2 / 2 = 0.125
        assert_allclose(
            variant_transition_rate(GammaTC(1.0, 1.0), ONE, (2,)), 0.125, rtol=1e-14
        )

    def test_mgsfcp_discrete_stable_atoms(self):
        # q=1, k=1: mass(n) = lam^a * a * Gamma(n-a) / (Gamma(1-a) n!)
        lam, a = 1.0, 0.7
        for n in range(1, 8):
            want = (
                lam**a
                * a
                * math.gamma(n - a)
                / (math.gamma(1.0 - a) * math.factorial(n))
            )
            assert_allclose(
                variant_transition_rate(Mgsfcp(a), ONE, (n,)), want, rtol=1e-12
            )

    def test_rejects_zero_jump_and_hidden_clocks(self):
        with pytest.raises(ValueError):
            variant_transition_rate(Mgcp(), FIG1, (0, 0))
        with pytest.raises(ValueError):
            variant_transition_rate(Mgfcp(0.6), FIG1, (1, 0))
        with pytest.raises(ValueError):
            variant_transition_rate(Mgstfcp(0.7, 0.6), FIG1, (1, 0))

    def test_levy_measure_is_the_rate(self):
        for v in LEVY_VARIANTS:
            for mbar in ((1, 0), (1, 2)):
                assert variant_levy_measure(v, FIG1, mbar) == pytest.approx(
                    variant_transition_rate(v, FIG1, mbar), rel=1e-15
                )
        with pytest.raises(ValueError):
            variant_levy_measure(Mgsfcp(0.7), FIG1, (0, 0))


class TestHoldingRate:
    def test_closed_forms(self):
        lam = FIG1.total
        assert holding_rate(Mgcp(), FIG1) == lam
        assert_allclose(holding_rate(Mgsfcp(0.7), FIG1), lam**0.7, rtol=1e-15)
        assert_allclose(
            holding_rate(Tempered(0.6, 0.9), FIG1),
            (lam + 0.9) ** 0.6 - 0.9**0.6,
            rtol=1e-15,
        )
        assert_allclose(
            holding_rate(GammaTC(1.2, 0.8), FIG1),
            0.8 * math.log1p(lam / 1.2),
            rtol=1e-15,
        )
        assert_allclose(
            holding_rate(IgTC(1.1, 0.7), FIG1),
            1.1 * (math.sqrt(2 * lam + 0.49) - 0.7),
            rtol=1e-15,
        )

    def test_rejects_inverse_stable(self):
        with pytest.raises(ValueError):
            holding_rate(Mgfcp(0.6), FIG1)

    def test_equals_clock_exponent_at_total_rate(self):
        for v in LEVY_VARIANTS:
            assert_allclose(
                holding_rate(v, FIG1),
                laplace_exponent(clock_spec(v), FIG1.total),
                rtol=1e-14,
            )

    @pytest.mark.parametrize("v", LEVY_VARIANTS, ids=vid)
    def test_equals_quadrature_exponent(self, v):
        # g(lambda; 0) integrates 1 - exp(-Lambda r) against the clock's
        # Levy density, never its closed-form exponent
        assert_allclose(
            holding_rate(v, FIG1),
            g_lambda_u(FIG1, Named(clock_spec(v)), (0.0,) * FIG1.q),
            rtol=1e-8,
        )


def test_levy_mass_sums_to_holding_rate_light_tails():
    """Atoms decay geometrically for the tempered/gamma/IG clocks.

    The IG ratio 2lam/(2lam+gamma^2) ~ 0.86 is the slowest, hence its
    larger box and looser tolerance.
    """
    cases = [
        (Tempered(0.6, 0.9), 40, 1e-9),
        (GammaTC(1.2, 0.8), 40, 1e-9),
        (IgTC(1.1, 0.7), 60, 5e-6),
    ]
    for v, box, tol in cases:
        total = sum(
            variant_transition_rate(v, FIG1, mbar)
            for mbar in itertools.product(range(box), range(box))
            if any(mbar)
        )
        assert_allclose(total, holding_rate(v, FIG1), rtol=tol)


def test_levy_mass_partial_sum_stable():
    # power tail: the box-30 sum sits below lam^alpha by roughly
    # 30^(-alpha)/Gamma(1-alpha), so assert the one-sided gap
    v = Mgsfcp(0.9)
    total = sum(variant_transition_rate(v, ONE, (m,)) for m in range(1, 31))
    gap = holding_rate(v, ONE) - total
    assert 0.0 < gap < 0.006


class TestCovariance:
    def test_mgfcp_unit_case(self):
        # q=1, k=1, lam=1, t=1, beta=0.5:
        # 1/Gamma(1.5) + 2/Gamma(2) - 1/Gamma(1.5)^2
        want = 1.0 / math.gamma(1.5) + 2.0 - 1.0 / math.gamma(1.5) ** 2
        assert_allclose(covariance(Mgfcp(0.5), ONE, 0, 0, 1.0), want, rtol=1e-14)

    def test_mgfcp_beta_one_cross_term_vanishes(self):
        assert covariance(Mgfcp(1.0), FIG1, 0, 1, 1.7) == pytest.approx(0.0, abs=1e-15)

    def test_mgfcp_beta_one_matches_base_variance(self):
        # deterministic clock: Var N_i = t * sum j^2 lam_ij
        assert_allclose(
            covariance(Mgfcp(1.0), FIG1, 1, 1, 2.0),
            2.0 * FIG1.second_moment_rate(1),
            rtol=1e-14,
        )

    def test_tempered_structure(self):
        v = Tempered(0.5, 2.0)
        t = 2.0
        a, th = v.alpha, v.theta
        cross = t * a * (1 - a) * th ** (a - 2) * FIG1.mean_rate(0) * FIG1.mean_rate(1)
        assert_allclose(covariance(v, FIG1, 0, 1, t), cross, rtol=1e-14)
        own = cross / FIG1.mean_rate(1) * FIG1.mean_rate(0)
        assert_allclose(
            covariance(v, FIG1, 0, 0, t),
            own + t * a * th ** (a - 1) * FIG1.second_moment_rate(0),
            rtol=1e-14,
        )

    def test_symmetry_and_domain(self):
        v = Mgfcp(0.7)
        assert covariance(v, FIG1, 0, 1, 1.3) == covariance(v, FIG1, 1, 0, 1.3)
        with pytest.raises(ValueError):
            covariance(v, FIG1, 0, 2, 1.0)
        with pytest.raises(ValueError):
            covariance(Mgsfcp(0.7), FIG1, 0, 0, 1.0)


class TestCodifference:
    def test_frozen_mgfcp_value(self):
        # oracle: codiff mgfcp fig1 t=.7 (beta=0.8, i=0, l=1)
        tau = codifference(Mgfcp(0.8), FIG1, 0, 1, 0.7)
        assert_allclose(tau.real, 0.082449728933176099, rtol=1e-12)
        assert_allclose(tau.imag, -0.028082322729526682, rtol=1e-12)

    def test_mgfcp_against_characteristic_series(self):
        """Independent route: build each ln E exp(i w N) from the pmf."""
        v, t = Mgfcp(0.8), 0.7
        box = 26
        joint = mi = ml = 0.0
        for n1 in range(box):
            for n2 in range(box):
                p = variant_pmf(v, FIG1, (n1, n2), t)
                joint += p * cmath.exp(1j * (n1 - n2))
                mi += p * cmath.exp(1j * n1)
                ml += p * cmath.exp(-1j * n2)
        want = cmath.log(joint) - cmath.log(mi) - cmath.log(ml)
        got = codifference(v, FIG1, 0, 1, t)
        assert_allclose(got.real, want.real, atol=1e-7)
        assert_allclose(got.imag, want.imag, atol=1e-7)

    def test_equal_components_drop_joint_term(self):
        v, t = Mgfcp(0.8), 0.7
        w_i = complex(component_symbol(FIG1.rows[0], cmath.exp(1j)))
        w_m = complex(component_symbol(FIG1.rows[0], cmath.exp(-1j)))
        want = -cmath.log(
            mittag_leffler(0.8, 1.0, 1.0, -(t**0.8) * w_i)
        ) - cmath.log(mittag_leffler(0.8, 1.0, 1.0, -(t**0.8) * w_m))
        assert_allclose(codifference(v, FIG1, 0, 0, t), want, rtol=1e-12)

    def test_tempered_closed_form(self):
        v, t = Tempered(0.6, 0.9), 1.1
        a, th = v.alpha, v.theta

        def psi(w):
            return (w + th) ** a - th**a

        w_i = complex(component_symbol(FIG1.rows[0], cmath.exp(1j)))
        w_l = complex(component_symbol(FIG1.rows[1], cmath.exp(-1j)))
        want = -t * psi(w_i + w_l) + t * psi(w_i) + t * psi(w_l)
        assert_allclose(codifference(v, FIG1, 0, 1, t), want, rtol=1e-12)

    def test_mgstfcp_alpha_one_matches_mgfcp(self):
        assert_allclose(
            codifference(Mgstfcp(1.0, 0.8), FIG1, 0, 1, 0.7),
            codifference(Mgfcp(0.8), FIG1, 0, 1, 0.7),
            rtol=1e-12,
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            codifference(Mgcp(), FIG1, 0, 1, 1.0)
        with pytest.raises(ValueError):
            codifference(Mgfcp(0.8), FIG1, 0, 5, 1.0)


EVEN = RateMatrix([[0.0, 0.5]])


@pytest.mark.parametrize("v", ALL_VARIANTS, ids=vid)
def test_pgf_inside_the_accepted_slack(v):
    """|u| <= 1 + 1e-12 is accepted, so it must give a real value there."""
    got = variant_pgf(v, FIG1, (1.0 + 1e-13, 1.0), 1.0)
    assert type(got) is float
    assert got == variant_pgf(v, FIG1, (1.0, 1.0), 1.0)
    # only even jumps: the symbol at u = -1 is 0 and just past it negative
    got = variant_pgf(v, EVEN, (-1.0 - 1e-13,), 1.0)
    assert type(got) is float
    assert got == variant_pgf(v, EVEN, (-1.0,), 1.0)


def test_deep_wright_state_raises_cleanly():
    with pytest.raises(ValueError, match="too deep"):
        variant_pmf_wright(Mgsfcp(0.7), ONE, (200,), 1.0)


@pytest.mark.parametrize("v", ALL_VARIANTS, ids=repr)
def test_nan_time_is_rejected(v):
    with pytest.raises(ValueError, match="non-negative"):
        variant_pmf(v, FIG1, (1, 1), math.nan)
    with pytest.raises(ValueError, match="non-negative"):
        variant_pgf(v, FIG1, (0.5, 0.5), math.nan)


@pytest.mark.parametrize("v", [Mgsfcp(0.7), Tempered(0.6, 0.9)], ids=repr)
def test_nan_time_is_rejected_by_the_wright_route(v):
    with pytest.raises(ValueError, match="non-negative"):
        variant_pmf_wright(v, FIG1, (1, 1), math.nan)


@pytest.mark.parametrize("v", ALL_VARIANTS, ids=repr)
def test_nan_pgf_argument_is_rejected(v):
    with pytest.raises(ValueError, match=r"\|u_i\| <= 1"):
        variant_pgf(v, FIG1, (math.nan, 0.5), 1.0)


@pytest.mark.parametrize(
    "v, route",
    [
        (Tempered(0.6, 1.0), variant_pmf),
        (Tempered(0.6, 1.0), variant_pmf_wright),
        (IgTC(1.0, 1.0), variant_pmf),
    ],
)
def test_large_t_prefactor_overflow_names_t(v, route):
    # exp(t theta^alpha) = exp(800) (IgTC: exp(t delta gamma)) overflows at
    # every state, the empty one included: a fault of t, not of depth
    with pytest.raises(ValueError, match=r"t = 800\.0 .*prefactor") as info:
        route(v, FIG1, (0, 0), 800.0)
    assert "too deep" not in str(info.value)
    assert "exp(800)" in str(info.value)


def test_nan_time_is_rejected_by_the_moments():
    with pytest.raises(ValueError, match="non-negative"):
        covariance(Mgfcp(0.8), FIG1, 0, 1, math.nan)
    with pytest.raises(ValueError, match="non-negative"):
        codifference(Tempered(0.6, 0.9), FIG1, 0, 1, math.nan)
