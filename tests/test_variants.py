"""Time-changed variants: pmf series, pgf, rates, moments, codifference.

Frozen expected values come from the mpmath helpers of this module:
_mp_composition_sum over a jump-count law from _mp_jump_count_law
(tempered-stable clocks), _mp_inverse_stable_law (inverse-stable time)
or the negative binomial (gamma clock), and _mp_mittag_leffler for the
codifference.  The generating call is quoted next to each value.
"""

import cmath
import dataclasses
import itertools
import math
import time
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate

from oracles import fractional_poisson_law, negative_binomial_law, space_time_fractional_law
from mgcp.bernstein import Named, g_lambda_u
from mgcp.compositions import enumerate_compositions, jump_profile
from mgcp.gcp import RateMatrix, component_symbol, mgcp_pmf
from mgcp.montecarlo import sample_variant_many
from mgcp.specfun import NumericsWarning, mittag_leffler
from mgcp.subordinators import (
    GammaSub,
    Identity,
    InverseGaussian,
    InverseStableTime,
    Stable,
    TemperedStable,
    _stable_atoms,
    gamma_density,
    ig_density,
    laplace_exponent,
)
from mgcp import compositions as compositions_module
from mgcp import specfun as specfun_module
from mgcp import variants as variants_module
from mgcp.variants import (
    GammaTC,
    IgTC,
    Mgcp,
    Mgfcp,
    Mgsfcp,
    Mgstfcp,
    Tempered,
    _clock_atoms,
    _kernel_sum,
    _split,
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
Q3 = RateMatrix([[0.4, 0.2], [0.3, 0.3, 0.1], [0.5]])

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "make",
        [
            lambda x: Mgsfcp(x),
            lambda x: Mgfcp(x),
            lambda x: Mgstfcp(x, 0.5),
            lambda x: Mgstfcp(0.5, x),
            lambda x: Tempered(x, 1.0),
            lambda x: Tempered(0.5, x),
            lambda x: GammaTC(x, 1.0),
            lambda x: GammaTC(1.0, x),
            lambda x: IgTC(x, 1.0),
            lambda x: IgTC(1.0, x),
        ],
        ids=["Mgsfcp", "Mgfcp", "Mgstfcp.alpha", "Mgstfcp.beta", "Tempered.alpha",
             "Tempered.theta", "GammaTC.a", "GammaTC.b", "IgTC.delta", "IgTC.gamma"],
    )
    def test_nan_and_inf_parameters(self, make, bad):
        with pytest.raises(ValueError):
            make(bad)


class TestClockSpec:
    def test_mapping(self):
        assert clock_spec(Mgcp()) == Identity()
        assert clock_spec(Mgsfcp(0.7)) == Stable(0.7)
        assert clock_spec(Mgfcp(0.6)) == InverseStableTime(Identity(), 0.6)
        assert clock_spec(Mgstfcp(0.7, 0.6)) == InverseStableTime(Stable(0.7), 0.6)
        assert clock_spec(Tempered(0.6, 0.9)) == TemperedStable(0.6, 0.9)
        assert clock_spec(GammaTC(1.2, 0.8)) == GammaSub(1.2, 0.8)
        assert clock_spec(IgTC(1.1, 0.7)) == InverseGaussian(1.1, 0.7)

    def test_boundary_reduction(self):
        assert clock_spec(Mgsfcp(1.0)) == Identity()
        assert clock_spec(Mgfcp(1.0)) == Identity()
        assert clock_spec(Mgstfcp(1.0, 0.6)) == InverseStableTime(Identity(), 0.6)
        assert clock_spec(Mgstfcp(0.7, 1.0)) == Stable(0.7)
        assert clock_spec(Tempered(1.0, 2.0)) == Identity()

    def test_every_variant_builds_its_clock(self):
        # InverseStableTime takes an Identity or Stable inner clock only;
        # every variant's clock passes that check, at the edges too
        for v in (
            Mgcp(),
            Mgsfcp(0.05),
            Mgsfcp(1.0),
            Mgfcp(0.05),
            Mgfcp(0.95),
            Mgfcp(1.0),
            Mgstfcp(0.05, 0.95),
            Mgstfcp(0.95, 0.05),
            Mgstfcp(1.0, 0.6),
            Mgstfcp(0.7, 1.0),
            Mgstfcp(1.0, 1.0),
            Tempered(0.6, 0.9),
            Tempered(1.0, 2.0),
            GammaTC(1.2, 0.8),
            IgTC(1.1, 0.7),
        ):
            spec = clock_spec(v)
            assert type(getattr(spec, "inner", spec)) in (
                Identity,
                Stable,
                TemperedStable,
                GammaSub,
                InverseGaussian,
            )


class TestFrozenPmfValues:
    """Each value is _mp_composition_sum(FIG1, n, c, kernel) in mpmath.

    c = 1 / Lambda and kernel(z) = z! law[z] for a law from
    _mp_jump_count_law(mpmath, form, 1.5, 1.0, 3) at 40 digits, form the
    clock's (alpha, tilt, scale) as in LARGE_T, or from
    _mp_inverse_stable_law(mpmath, v, 1.5, 1.0, 3) at _mp_digits(v, 1.5,
    1.0, 3) digits; the gamma clock's value is spelled out below.
    """

    def test_mgsfcp(self):
        # form (0.7, 0, 1), n = (1, 2) and n = (0, 0)
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
        # form (0.6, 0.9, 1), n = (1, 2)
        assert_allclose(
            variant_pmf(Tempered(0.6, 0.9), FIG1, (1, 2), 1.0),
            0.035427388032042166,
            rtol=1e-12,
        )

    def test_mgfcp(self):
        # _mp_inverse_stable_law with v = Mgfcp(0.6), n = (1, 2)
        assert_allclose(
            variant_pmf(Mgfcp(0.6), FIG1, (1, 2), 1.0),
            0.053845900458499257,
            rtol=1e-12,
        )

    def test_mgstfcp(self):
        # _mp_inverse_stable_law with v = Mgstfcp(0.7, 0.6), n = (1, 2)
        assert_allclose(
            variant_pmf(Mgstfcp(0.7, 0.6), FIG1, (1, 2), 1.0),
            0.034236142144272016,
            rtol=1e-12,
        )

    def test_gammatc(self):
        # (a / r)^b _mp_composition_sum(FIG1, (1, 2), 1 / r, lambda z: rf(b, z))
        # with a = 1.2, b = 0.8 and r = Lambda + a, as in test_deep_gamma_pmf_matches_mpmath
        assert_allclose(
            variant_pmf(GammaTC(1.2, 0.8), FIG1, (1, 2), 1.0),
            0.032504546474288595,
            rtol=1e-12,
        )

    def test_igtc(self):
        # form (0.5, 0.7^2 / 2, 1.1 sqrt(2)), n = (1, 2)
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
    # past z ~ 170 the Wright series needs z! in double range
    with pytest.raises(ValueError, match="too deep"):
        variant_pmf_wright(Mgsfcp(0.7), ONE, (300,), 1.0)
    # the Cauchy integrals form no z!: Mgstfcp's value is
    # _mp_inverse_stable_law(mpmath, Mgstfcp(0.7, 0.8), 1.0, 1.0, 300)[300]
    # at _mp_digits(...) digits
    want = 1.578364281564928e-05
    assert abs(variant_pmf(Mgstfcp(0.7, 0.8), ONE, (300,), 1.0) - want) <= 1e-10 * want
    # and Mgfcp's true value, 5.855e-471 by the same call for Mgfcp(0.8),
    # lies below double range
    assert variant_pmf(Mgfcp(0.8), ONE, (300,), 1.0) == 0.0


def test_panjer_takes_states_past_170_jumps():
    # Panjer's recursion forms no z!: the gamma(1, 1) clock at Lambda = 1,
    # t = 1 makes the jump count geometric, P{Z = z} = 2^-(z + 1)
    got = variant_pmf(GammaTC(1.0, 1.0), ONE, (400,), 1.0)
    assert abs(got - 2.0**-401) <= 1e-13 * 2.0**-401


def _mp_poisson(mpmath, lam, n, t):
    """P{Poisson(lam t) = n} in mpmath, lam and t the doubles given."""
    mean = mpmath.mpf(lam) * mpmath.mpf(t)
    return mpmath.exp(-mean + n * mpmath.log(mean) - mpmath.loggamma(n + 1))


# one-row base-process states deeper than exp(lam t) leaves double range
DEEP_POISSON = [(1050, 1500.0), (4000, 4000 / 0.7)]


@pytest.mark.parametrize("n, t", DEEP_POISSON)
def test_deep_base_process_pmf_matches_mpmath(n, t):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        want = _mp_poisson(mpmath, 0.7, n, t)
    got = variant_pmf(Mgcp(), RateMatrix([[0.7]]), (n,), t)
    assert abs(got - want) <= 1e-12 * want


def test_identity_clock_law_is_linear_in_the_jump_count():
    # the Poisson law has one atom, so the recursion costs O(z): a
    # 16000-jump state takes milliseconds, where a full O(z^2) sum over
    # the 16384-entry atom table would take many seconds
    mpmath = pytest.importorskip("mpmath")
    t = 16000 / 0.7
    with mpmath.workdps(40):
        want = _mp_poisson(mpmath, 0.7, 16000, t)
    variants_module._law.cache_clear()
    start = time.perf_counter()
    got = variant_pmf(Mgcp(), RateMatrix([[0.7]]), (16000,), t)
    assert time.perf_counter() - start < 1.0
    assert abs(got - want) <= 1e-10 * want


@pytest.mark.parametrize("t", [1.0, 20.0])
@pytest.mark.parametrize("rates, box", [(FIG1, (12, 12)), (Q3, (7, 7, 7))], ids=["fig1", "q3"])
def test_base_process_matches_composition_sum(rates, box, t):
    """Panjer's Poisson law over the jump profile against gcp.mgcp_pmf,
    the paper's composition sum: two independent codes."""
    for n in itertools.product(*(range(b + 1) for b in box)):
        want = mgcp_pmf(rates, n, t)
        assert abs(variant_pmf(Mgcp(), rates, n, t) - want) <= 1e-12 * want, n


@pytest.mark.parametrize("n, t", DEEP_POISSON)
def test_deep_base_process_matches_composition_sum(n, t):
    rates = RateMatrix([[0.7]])
    want = mgcp_pmf(rates, (n,), t)
    assert abs(variant_pmf(Mgcp(), rates, (n,), t) - want) <= 1e-11 * want


def test_deep_stable_pmf_matches_mpmath_panjer():
    """Panjer's recursion run in mpmath on the stable atoms
    nu_1(k) = alpha Gamma(k - alpha) / (Gamma(1 - alpha) k!) at Lambda = 1."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        alpha = mpmath.mpf(0.7)
        katoms = [
            alpha * mpmath.gamma(k - alpha) / (mpmath.gamma(1 - alpha) * mpmath.factorial(k - 1))
            for k in range(1, 301)
        ]
        q = [mpmath.exp(-1)]
        for z in range(1, 301):
            q.append(mpmath.fsum(katoms[k - 1] * q[z - k] for k in range(1, z + 1)) / z)
        want = q[300]
    got = variant_pmf(Mgsfcp(0.7), ONE, (300,), 1.0)
    assert abs(got - want) <= 1e-12 * want
    assert_allclose(got, 1.4635e-05, rtol=1e-4)


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


@pytest.mark.parametrize(
    "form, lam", [((0.7, 0.0, 1.0), 1.5), ((0.05, 0.0, 1.0), 1.5), ((0.6, 1.0, 1.3), 0.875)]
)
def test_stable_atoms_match_mpmath(form, lam):
    """nu_1(z) while z! is a double: a log-gamma difference is 1e-13 off by z = 100."""
    mpmath = pytest.importorskip("mpmath")
    atoms = _stable_atoms(form, lam, 170)
    with mpmath.workdps(40):
        alpha, tilt, scale = (mpmath.mpf(x) for x in form)
        base = mpmath.mpf(lam)
        for z in range(1, 171):
            want = (
                scale * (base + tilt) ** alpha * (base / (base + tilt)) ** z
                * alpha * mpmath.gamma(z - alpha)
                / (mpmath.gamma(1 - alpha) * mpmath.factorial(z))
            )
            assert abs(atoms[z - 1] - want) <= 1e-13 * want, z


@pytest.mark.parametrize(
    "clock, lam", [(Identity(), 1.5), (GammaSub(1.2, 0.8), 1.5), (GammaSub(1.0, 2.0), 0.875)]
)
def test_identity_and_gamma_atoms_match_mpmath(clock, lam):
    """nu_1(k) = int e^(-lam s) (lam s)^k / k! nu(ds) over the clock's Levy
    measure: a point mass at s = 0+ of rate lam for the identity clock,
    the density b e^(-a s) / s for the gamma clock, integrated in mpmath."""
    mpmath = pytest.importorskip("mpmath")
    atoms = _clock_atoms(clock, lam, 64)
    assert len(atoms) == 64
    if clock == Identity():
        assert atoms == (lam,) + (0.0,) * 63
        return
    with mpmath.workdps(30):
        a, b, base = mpmath.mpf(clock.a), mpmath.mpf(clock.b), mpmath.mpf(lam)
        for k in (1, 2, 5, 20, 64):
            peak = k / (base + a)

            def density(s, k=k):
                poisson = mpmath.exp(-base * s) * (base * s) ** k / mpmath.factorial(k)
                return b * mpmath.exp(-a * s) / s * poisson

            want = mpmath.quad(density, [0, peak, 4 * peak, mpmath.inf])
            assert abs(atoms[k - 1] - want) <= 1e-13 * want, k


@pytest.mark.parametrize("t", [1.0, 20.0, 100.0])
@pytest.mark.parametrize(
    "clock, lam",
    [(GammaSub(1.2, 0.8), 1.5), (GammaSub(1.0, 2.0), 1.5), (GammaSub(0.5, 3.0), 0.875)],
)
def test_gamma_law_matches_negative_binomial(clock, lam, t):
    """Panjer's recursion on the gamma atoms against the closed form."""
    q, lg = variants_module._law(clock, 1.0, lam, t, 64)
    want = negative_binomial_law(clock.a, clock.b, lam, t, 64)
    assert len(q) == len(want) == 65
    for z, (x, w) in enumerate(zip(q, want)):
        assert abs(x * math.exp(lg) - w) <= 1e-12 * w, z


def test_large_t_gamma_pmf_matches_mpmath():
    """At t = 450 the negative binomial's front (a/r)^(bt) alone
    underflows, while the pmf is 1.47e-200."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        a, b, lam = mpmath.mpf(1), mpmath.mpf(2), mpmath.mpf(1.5)
        r, bt = lam + a, b * 450
        want = (a / r) ** bt * (lam / r) ** 160 * mpmath.rf(bt, 160) / mpmath.factorial(160)
    got = variant_pmf(GammaTC(1.0, 2.0), RateMatrix([[1.5]]), (160,), 450.0)
    assert abs(got - want) <= 1e-10 * want


def test_huge_t_gamma_pmf_underflows_to_zero():
    # the true value is about 6.2e-6015 (mpmath), 0.0 in double precision
    assert variant_pmf(GammaTC(1.0, 2.0), RateMatrix([[1.5]]), (160,), 8000.0) == 0.0


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


# (variant, (alpha, tilt, scale) of its clock exponent
# scale ((s + tilt)^alpha - tilt^alpha)), written out for the oracles
LARGE_T = [
    (Mgsfcp(0.7), lambda mp: (mp.mpf(0.7), 0, 1)),
    (Tempered(0.6, 1.0), lambda mp: (mp.mpf(0.6), 1, 1)),
    (IgTC(1.0, 1.5), lambda mp: (mp.mpf(0.5), mp.mpf(1.5) ** 2 / 2, mp.sqrt(2))),
]


def _mp_jump_count_law(mpmath, form, lam, t, zmax):
    """P{Z_t = z}, z <= zmax, for the jump count at a tempered-stable clock.

    The r-series of exp(-t f(lam (1 - u))) = exp(t scale tilt^alpha)
    exp(-a (1 - rho u)^alpha): coefficient z of (1 - rho u)^(alpha r) is
    C(alpha r, z) (-rho)^z, with alpha r formed in mpf.  The terms peak
    near e^a, so the caller needs about 2a / ln 10 digits.
    """
    alpha, tilt, scale = form
    lam, t = mpmath.mpf(lam), mpmath.mpf(t)
    a, rho = t * scale * (lam + tilt) ** alpha, lam / (lam + tilt)
    sums = [mpmath.mpf(0)] * (zmax + 1)
    floor = mpmath.exp(-a) * mpmath.mpf(10) ** -40
    r, weight = 0, mpmath.mpf(1)  # (-a)^r / r!
    while True:
        binom, largest = mpmath.mpf(1), mpmath.mpf(0)  # C(alpha r, z)
        for z in range(zmax + 1):
            if z:
                binom = binom * (alpha * r - z + 1) / z
            sums[z] += weight * binom
            largest = max(largest, abs(weight * binom))
        if r > a and largest < floor:
            break
        r += 1
        weight = weight * -a / r
    return [mpmath.exp(t * scale * tilt**alpha) * (-rho) ** z * x for z, x in enumerate(sums)]


@pytest.mark.parametrize("t", [20.0, 60.0])
@pytest.mark.parametrize("rates, box", [(FIG1, (6, 6)), (Q3, (3, 3, 3))], ids=["fig1", "q3"])
@pytest.mark.parametrize("v, form", [pytest.param(v, f, id=vid(v)) for v, f in LARGE_T])
def test_large_t_pmf_matches_mpmath(v, form, rates, box, t):
    """Cells checked against the r-series summed in mpmath at enough digits."""
    mpmath = pytest.importorskip("mpmath")
    form = form(mpmath)
    a = t * float(form[2]) * (rates.total + float(form[1])) ** float(form[0])
    with mpmath.workdps(int(2 * a / math.log(10)) + 40):
        law = _mp_jump_count_law(mpmath, form, rates.total, t, sum(box))
        for n in itertools.product(*(range(b + 1) for b in box)):
            want = _mp_composition_sum(
                rates, n, 1 / mpmath.mpf(rates.total), lambda z: mpmath.factorial(z) * law[z]
            )
            got = variant_pmf(v, rates, n, t)
            assert abs(got - want) <= 1e-13 * want, n


def _mp_inverse_stable_law(mpmath, v, lam, t, zmax):
    """P{Z_t = z}, z <= zmax, for the jump count at inverse beta-stable time.

    The paper's series, with beta r and alpha r formed in mpf:
    sum_r (-a)^r / Gamma(beta r + 1) * C(alpha r, z) (-1)^z, a =
    t^beta lam^alpha, and alpha = 1 for Mgfcp.  The terms peak near
    e^(a^(1/beta)), so the caller needs about a^(1/beta) / ln 10 digits
    beyond the target.
    """
    alpha = mpmath.mpf(getattr(v, "alpha", 1))
    beta = mpmath.mpf(v.beta)
    a = mpmath.mpf(t) ** beta * mpmath.mpf(lam) ** alpha
    sums = [mpmath.mpf(0)] * (zmax + 1)
    r, largest_seen = 0, mpmath.mpf(0)
    while True:
        weight = (-a) ** r / mpmath.gamma(beta * r + 1)
        binom, largest = mpmath.mpf(1), mpmath.mpf(0)  # C(alpha r, z)
        for z in range(zmax + 1):
            if z:
                binom = binom * (alpha * r - z + 1) / z
            sums[z] += weight * binom
            largest = max(largest, abs(weight * binom))
        largest_seen = max(largest_seen, largest)
        if r > 2 * a ** (1 / beta) and largest < largest_seen * mpmath.mpf(10) ** -mpmath.mp.dps:
            break
        r += 1
    return [(-1) ** z * x for z, x in enumerate(sums)]


def _mp_digits(v, lam, t, zmax):
    """Digits for _mp_inverse_stable_law: the binomials of deep jump
    counts lift the largest terms further."""
    x = t**v.beta * lam ** getattr(v, "alpha", 1.0)
    return int(x ** (1 / v.beta) / math.log(10)) + 40 + 2 * zmax


INVERSE_STABLE = [Mgfcp(0.8), Mgstfcp(0.7, 0.8)]


@pytest.mark.parametrize("t", [20.0, 60.0])
@pytest.mark.parametrize("rates, box", [(FIG1, (6, 6)), (Q3, (3, 3, 3))], ids=["fig1", "q3"])
@pytest.mark.parametrize("v", INVERSE_STABLE, ids=vid)
def test_inverse_stable_pmf_and_pgf_match_mpmath(v, rates, box, t):
    """The Cauchy integrals against the paper's series summed in mpmath."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(_mp_digits(v, rates.total, t, sum(box))):
        law = _mp_inverse_stable_law(mpmath, v, rates.total, t, sum(box))
        for n in itertools.product(*(range(b + 1) for b in box)):
            want = _mp_composition_sum(
                rates, n, 1 / mpmath.mpf(rates.total), lambda z: mpmath.factorial(z) * law[z]
            )
            got = variant_pmf(v, rates, n, t)
            assert abs(got - want) <= 1e-12 * want + 1e-16, n
        # the pgf E_beta(-t^beta w^alpha), w = sum_ij lam_ij (1 - u_i^j)
        beta = mpmath.mpf(v.beta)
        alpha = mpmath.mpf(getattr(v, "alpha", 1))
        for ubar in [(0.0,) * rates.q, (0.5,) * rates.q, (0.9, 0.6, 0.3)[: rates.q]]:
            w = sum(
                mpmath.mpf(lam) * (1 - mpmath.mpf(u) ** j)
                for row, u in zip(rates.rows, ubar)
                for j, lam in enumerate(row, start=1)
            )
            want = _mp_mittag_leffler(mpmath, beta, -(mpmath.mpf(t) ** beta) * w**alpha)
            if not any(ubar):
                # the two mpmath sums agree, pgf(0) = P{Z_t = 0}, up to
                # the rounding of the float total rate
                assert abs(want - law[0]) <= 1e-15 * want
            got = variant_pgf(v, rates, ubar, t)
            assert abs(got - want) <= 1e-12 * want, ubar


@pytest.mark.parametrize("t", [20.0, 60.0])
@pytest.mark.parametrize("v", INVERSE_STABLE, ids=vid)
def test_inverse_stable_deep_cells_match_mpmath(v, t):
    """Up to 57 jumps, at every one of which the error stays relative."""
    mpmath = pytest.importorskip("mpmath")
    states = [(20, 20), (30, 30), (0, 57), (45, 10)]
    zmax = max(a + b for a, b in states)
    with mpmath.workdps(_mp_digits(v, FIG1.total, t, zmax)):
        law = _mp_inverse_stable_law(mpmath, v, FIG1.total, t, zmax)
        for n in states:
            want = _mp_composition_sum(
                FIG1, n, 1 / mpmath.mpf(FIG1.total), lambda z: mpmath.factorial(z) * law[z]
            )
            got = variant_pmf(v, FIG1, n, t)
            assert abs(got - want) <= 1e-12 * want, n


def _mp_mittag_leffler(mpmath, beta, x):
    """E_beta(x) by its power series in mpf; the caller sets the digits."""
    total, r, largest = mpmath.mpf(0), 0, mpmath.mpf(0)
    xi = abs(x) ** (1 / beta)
    while True:
        term = x**r / mpmath.gamma(beta * r + 1)
        total += term
        largest = max(largest, abs(term))
        if r > 2 * xi + 10 and abs(term) < largest * mpmath.mpf(10) ** -mpmath.mp.dps:
            return total
        r += 1


def _t_at_reach(v, reach):
    """The t at which x^(1/beta) = reach, x = t^beta Lambda^alpha on FIG1."""
    return reach / FIG1.total ** (getattr(v, "alpha", 1.0) / v.beta)


@pytest.mark.parametrize("v", INVERSE_STABLE, ids=vid)
@pytest.mark.parametrize("reach", [2.5, 3.5, 4.5, 5.0])
def test_series_and_contour_agree_around_the_switch(v, reach):
    """Around x^(1/beta) = 4, where x^(1/beta) = reach, the paper's series
    is still accurate in doubles, and the Cauchy integrals must agree
    with it: for Mgstfcp the r-series of oracles.space_time_fractional_law
    against the FFT, for Mgfcp the Mittag-Leffler series of
    oracles.fractional_poisson_law against the saddle-point circles.
    The two sides are independent code."""
    t = _t_at_reach(v, reach)
    clock, beta = _split(v)
    lam = FIG1.total
    law, lg = variants_module._law(clock, beta, lam, t, 16)
    assert lg == 0.0
    if clock == Identity():
        series = fractional_poisson_law(beta, t**beta * lam, 12)
    else:
        series = space_time_fractional_law(clock.alpha, beta, t**beta * lam**clock.alpha, 12)
    for n in itertools.product(range(7), range(7)):
        profile = jump_profile(FIG1, n)
        want = _kernel_sum(profile, n, series.__getitem__)
        assert abs(_kernel_sum(profile, n, law.__getitem__) - want) <= 1e-12, n


@pytest.mark.parametrize("v", INVERSE_STABLE, ids=vid)
def test_inverse_stable_route_switch(v, monkeypatch):
    """Both inverse-stable variants take the Cauchy integrals at every t,
    on either side of x^(1/beta) = specfun._CONTOUR_FROM, where Mgstfcp
    once switched from the paper's r-series to the FFT."""
    taken = []
    cauchy = variants_module._cauchy_law
    monkeypatch.setattr(
        variants_module, "_cauchy_law", lambda *a: taken.append(a[-2]) or cauchy(*a)
    )
    variants_module._law.cache_clear()
    t_switch = _t_at_reach(v, specfun_module._CONTOUR_FROM)
    times = (1.0, 0.99 * t_switch, 1.01 * t_switch, 20.0)
    for t in times:
        variant_pmf(v, FIG1, (1, 1), t)
    assert taken == list(times)


# Mgfcp cells whose series cancel, or whose z! leaves double range.  Each
# value is _mp_composition_sum(FIG1, n, 1 / Lambda, z! law[z]) with law =
# _mp_inverse_stable_law(mpmath, Mgfcp(beta), 1.5, t, sum(n)) at
# _mp_digits(Mgfcp(beta), 1.5, t, sum(n)) digits
DEEP_MGFCP = [
    # the ROADMAP's band rows: reach 11 and 8, and the CLI's t = 6 box
    (0.7, (60, 60), 11 / 1.5 ** (1 / 0.7), 1.861826091983713e-46, 1e-12),
    (0.8, (60, 60), 8 / 1.5 ** (1 / 0.8), 1.91965027946822e-60, 1e-12),
    (0.7, (60, 60), 6.0, 4.776084314545983e-47, 1e-12),
    (0.9, (40, 40), 6.0, 1.96024796969772e-34, 1e-12),
    # below the switch, where the paper's series in doubles loses every digit
    (0.3, (20, 20), 1.0, 2.3427016788459805e-13, 1e-10),
    (0.5, (60, 60), 1.0, 4.4667639332951533e-63, 1e-10),
    (0.3, (0, 170), 1.0, 8.058977949167504e-57, 1e-10),
]


@pytest.mark.parametrize("beta, n, t, want, rtol", DEEP_MGFCP)
def test_deep_mgfcp_cells_match_mpmath(beta, n, t, want, rtol):
    got = _no_numerics_warnings(lambda: variant_pmf(Mgfcp(beta), FIG1, n, t))
    assert abs(got - want) <= rtol * want


def test_deep_state_past_the_switch_matches_mpmath():
    """(60, 60) at t = 3 (reach 4.5): p is 1e-97, far below the absolute
    error of any fixed contour, so only a relative error resolves it.
    _mp_composition_sum as for DEEP_MGFCP."""
    want = 2.497357176278148e-97
    assert abs(variant_pmf(Mgfcp(0.99), FIG1, (60, 60), 3.0) - want) <= 1e-12 * want


def test_deep_state_far_past_the_switch_matches_mpmath():
    """(170, 170) at t = 50 (reach 75): 340 jumps, past the 170-jump cap
    of any series that forms z!, and the series cancel by some e^75.
    _mp_composition_sum as for DEEP_MGFCP."""
    want = 1.4554153723027317e-93
    assert abs(variant_pmf(Mgfcp(0.999), FIG1, (170, 170), 50.0) - want) <= 1e-12 * want


def test_deep_state_far_past_the_switch_is_nonnegative():
    """(100, 100) at t = 20 (reach 33): p is 2.6e-59, where an absolute
    error of 1e-49 would allow a negative value.  _mp_composition_sum as
    for DEEP_MGFCP."""
    want = 2.590378640434325e-59
    p = variant_pmf(Mgfcp(0.8), FIG1, (100, 100), 20.0)
    assert abs(p - want) <= 1e-12 * want


def test_contour_takes_states_past_170_jumps():
    """The Cauchy integrals form no z!, so the 170-jump cap of the series
    does not bind them.  The frozen value is _mp_composition_sum(FIG1,
    (0, 171), 1 / Lambda, z! law[z]) with law = _mp_inverse_stable_law(
    mpmath, Mgfcp(0.8), 1.5, 60, 171) at _mp_digits(...) digits."""
    got = variant_pmf(Mgfcp(0.8), FIG1, (0, 171), 60.0)
    assert abs(got - 6.566074498040299e-25) <= 1e-12 * 6.566074498040299e-25


def test_series_state_past_170_jumps_raises():
    # the Wright series forms z!, so 171 jumps in a component raise
    with pytest.raises(ValueError, match="too deep"):
        variant_pmf_wright(Mgsfcp(0.7), FIG1, (171, 0), 1.0)
    # the inverse-stable variants take the Cauchy integrals at every t:
    # _mp_composition_sum as for DEEP_MGFCP, law from
    # _mp_inverse_stable_law(mpmath, v, 1.5, 1.0, 171)
    want = 1.4370902551990967e-86
    assert abs(variant_pmf(Mgstfcp(0.7, 0.8), FIG1, (171, 0), 1.0) - want) <= 1e-10 * want
    want = 5.11036475720193e-121
    assert abs(variant_pmf(Mgfcp(0.8), FIG1, (0, 171), 1.0) - want) <= 1e-12 * want


def _numerics_warnings(call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call()
    return [w for w in caught if issubclass(w.category, NumericsWarning)]


def _no_numerics_warnings(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error", NumericsWarning)
        return call()


def test_mgstfcp_at_small_reach_does_not_cancel():
    """Mgstfcp(0.9, 0.3) at reach 3 on (10, 10): the paper's r-series in
    doubles cancels there and once warned six times, while the FFT of
    G - 1 gives the value without a warning.  _mp_composition_sum as for
    DEEP_MGFCP, law from _mp_inverse_stable_law(mpmath, v, 1.5, t, 20)."""
    v = Mgstfcp(0.9, 0.3)
    got = _no_numerics_warnings(lambda: variant_pmf(v, FIG1, (10, 10), _t_at_reach(v, 3.0)))
    want = 1.4563302808927082e-05
    assert abs(got - want) <= 1e-10 * want


def test_mgstfcp_baseline_cell_matches_mpmath():
    """One component of rate 1, Mgstfcp(0.99, 0.3), 20 jumps at t = 3.9
    (reach 3.9): the r-series in doubles returned 1.02e-4, above p(19),
    under a CancellationWarning.  _mp_inverse_stable_law(mpmath, v, 1.0,
    3.9, 20)[20] at _mp_digits(...) digits."""
    got = _no_numerics_warnings(lambda: variant_pmf(Mgstfcp(0.99, 0.3), ONE, (20,), 3.9))
    want = 7.691341256716546e-05
    assert abs(got - want) <= 1e-10 * want


# (alpha, beta, reach, p) of Mgstfcp(alpha, beta) on FIG1 at (10, 10) and
# t = _t_at_reach(v, reach): _mp_composition_sum as for DEEP_MGFCP, with
# law = _mp_inverse_stable_law(mpmath, v, 1.5, t, 20)
SMALL_REACH_MGSTFCP = [
    (0.7, 0.3, 1.0, 3.287281150144684e-05),
    (0.7, 0.3, 3.0, 4.8507765409465336e-05),
    (0.7, 0.3, 3.9, 5.320464646542877e-05),
    (0.7, 0.5, 1.0, 3.263156105378324e-05),
    (0.7, 0.5, 3.0, 6.283113917325817e-05),
    (0.7, 0.5, 3.9, 7.344121480705825e-05),
    (0.9, 0.3, 1.0, 8.748108857437246e-06),
    (0.9, 0.3, 3.0, 1.4563302808927082e-05),
    (0.9, 0.3, 3.9, 1.66774632903616e-05),
    (0.9, 0.5, 1.0, 8.357665787176731e-06),
    (0.9, 0.5, 3.0, 1.9028424947242703e-05),
    (0.9, 0.5, 3.9, 2.4068883707210175e-05),
    (0.99, 0.3, 1.0, 7.315781081410678e-07),
    (0.99, 0.3, 3.0, 1.4688824042839307e-06),
    (0.99, 0.3, 3.9, 1.8602358377698145e-06),
    (0.99, 0.5, 1.0, 6.812493326711057e-07),
    (0.99, 0.5, 3.0, 1.7671256095448391e-06),
    (0.99, 0.5, 3.9, 2.5926826270002964e-06),
]


@pytest.mark.parametrize("alpha, beta, reach, want", SMALL_REACH_MGSTFCP)
def test_small_reach_mgstfcp_matches_mpmath(alpha, beta, reach, want):
    """Reach up to 3.9, where the paper's r-series cancelled worst at alpha
    near 1 and small beta.  No cell may warn."""
    v = Mgstfcp(alpha, beta)
    got = _no_numerics_warnings(lambda: variant_pmf(v, FIG1, (10, 10), _t_at_reach(v, reach)))
    assert abs(got - want) <= 1e-10 * want


@pytest.mark.parametrize("v, t", [(Mgstfcp(0.5, 0.9), 1e-10), (Mgstfcp(0.7, 0.5), 1e-12),
                                  (Mgstfcp(0.99, 0.99), 1e-8)], ids=str)
def test_small_t_mgstfcp_law_matches_mpmath(v, t):
    """At small t, G is within t^beta of 1 on the whole circle, and an FFT
    of G itself would lose q(z >= 1) to the rounding of that 1 (1e-6
    relative at z = 20 for the first case); the FFT of G - 1 keeps them
    relative."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(_mp_digits(v, 1.0, t, 20)):
        law = _mp_inverse_stable_law(mpmath, v, 1.0, t, 20)
    for z in range(21):
        want = float(law[z])
        assert abs(variant_pmf(v, ONE, (z,), t) - want) <= 1e-10 * want, z


# q(z) of Mgstfcp(0.99, 0.3) on one component of rate 1 at t = 3.9:
# _mp_inverse_stable_law(mpmath, v, 1.0, 3.9, 300)[z] at _mp_digits(...) digits
DEEP_FFT_CELLS = [(100, 1.8851792636843107e-06), (300, 2.0121355247018352e-07)]


@pytest.mark.parametrize("z, want", DEEP_FFT_CELLS)
def test_fft_rounding_bound_holds_at_deep_cells(z, want):
    """The FFT's stated bound: an absolute error of about eps max|G - 1|
    r^(-z) on q(z), with |G - 1| <= 2 on the circle (|G| <= 1 there) and
    M = max(1024, 8 size) nodes on r = 10^(-13/M), as _cauchy_law
    states.  Relative to q(z) that is 4e-9 and 2e-8 here."""
    got = _no_numerics_warnings(lambda: variant_pmf(Mgstfcp(0.99, 0.3), ONE, (z,), 3.9))
    m = max(1024, 8 * compositions_module._table_size(z))
    bound = 2.0**-52 * 2.0 * 10.0 ** (13.0 * z / m)
    assert abs(got - want) <= bound


def test_deep_state_between_the_switch_and_reach_12_does_not_cancel():
    assert not _numerics_warnings(lambda: variant_pmf(Mgfcp(0.9), FIG1, (40, 40), 6.0))


# (beta, reach, state, p) for Mgfcp and for Mgstfcp(0.7, beta) at
# t = _t_at_reach(v, reach): _mp_composition_sum as for DEEP_MGFCP, with
# law = _mp_inverse_stable_law(mpmath, v, 1.5, t, sum(n))
ROUTE_SWEEP = {
    "Mgfcp": [
        (0.5, 3.9, (20, 20), 1.929745883360304e-14),
        (0.5, 3.9, (40, 40), 7.938207482374214e-33),
        (0.5, 3.9, (60, 60), 4.3221160124377575e-54),
        (0.5, 8.0, (20, 20), 1.4115625223114444e-11),
        (0.5, 8.0, (40, 40), 4.180920199739495e-26),
        (0.5, 8.0, (60, 60), 2.767499928330028e-43),
        (0.5, 11.0, (20, 20), 1.7122235789606854e-10),
        (0.5, 11.0, (40, 40), 1.9462386541585348e-23),
        (0.5, 11.0, (60, 60), 6.642136306938756e-39),
        (0.7, 3.9, (20, 20), 8.225097928790003e-17),
        (0.7, 3.9, (40, 40), 1.2247150931665416e-41),
        (0.7, 3.9, (60, 60), 5.017744051968832e-71),
        (0.7, 8.0, (20, 20), 4.455219700979615e-12),
        (0.7, 8.0, (40, 40), 1.1665382333828577e-30),
        (0.7, 8.0, (60, 60), 1.2320330943543707e-53),
        (0.7, 11.0, (20, 20), 2.5325331971630314e-10),
        (0.7, 11.0, (40, 40), 2.9738399221908584e-26),
        (0.7, 11.0, (60, 60), 1.861826091983713e-46),
        (0.9, 3.9, (20, 20), 1.7954468058953794e-20),
        (0.9, 3.9, (40, 40), 2.4021257279453767e-53),
        (0.9, 3.9, (60, 60), 2.438480709870563e-92),
        (0.9, 8.0, (20, 20), 1.792738994235096e-13),
        (0.9, 8.0, (40, 40), 8.939338802832888e-38),
        (0.9, 8.0, (60, 60), 3.414682603438116e-68),
        (0.9, 11.0, (20, 20), 8.238573426117355e-11),
        (0.9, 11.0, (40, 40), 2.4871536601968433e-31),
        (0.9, 11.0, (60, 60), 6.006423440657256e-58),
    ],
    "Mgstfcp": [
        (0.5, 3.9, (20, 20), 1.328133339185175e-06),
        (0.5, 3.9, (40, 40), 2.2847876048318237e-09),
        (0.5, 3.9, (60, 60), 7.78245155310976e-12),
        (0.5, 8.0, (20, 20), 2.0452625375139814e-06),
        (0.5, 8.0, (40, 40), 3.4590994646624096e-09),
        (0.5, 8.0, (60, 60), 1.1646511866263049e-11),
        (0.5, 11.0, (20, 20), 2.475300674458709e-06),
        (0.5, 11.0, (40, 40), 4.1769585154341165e-09),
        (0.5, 11.0, (60, 60), 1.3989053034344682e-11),
        (0.7, 3.9, (20, 20), 1.7312920831795733e-06),
        (0.7, 3.9, (40, 40), 2.958601541960235e-09),
        (0.7, 3.9, (60, 60), 1.0051102345479574e-11),
        (0.7, 8.0, (20, 20), 3.203910419131767e-06),
        (0.7, 8.0, (40, 40), 5.34489190961261e-09),
        (0.7, 8.0, (60, 60), 1.783448470894491e-11),
        (0.7, 11.0, (20, 20), 4.1801208093089565e-06),
        (0.7, 11.0, (40, 40), 7.0147274359488155e-09),
        (0.7, 11.0, (60, 60), 2.322960125390644e-11),
        (0.9, 3.9, (20, 20), 2.1638287802916124e-06),
        (0.9, 3.9, (40, 40), 3.6852097011725714e-09),
        (0.9, 3.9, (60, 60), 1.2506459282784433e-11),
        (0.9, 8.0, (20, 20), 4.842511976891905e-06),
        (0.9, 8.0, (40, 40), 7.968939386730874e-09),
        (0.9, 8.0, (60, 60), 2.6374508266626865e-11),
        (0.9, 11.0, (20, 20), 6.79814452522847e-06),
        (0.9, 11.0, (40, 40), 1.1408118797179357e-08),
        (0.9, 11.0, (60, 60), 3.7391726323605936e-11),
    ],
}


@pytest.mark.parametrize(
    "v, reach, n, want",
    [
        pytest.param(Mgfcp(b) if name == "Mgfcp" else Mgstfcp(0.7, b), reach, n, want,
                     id="%s-%g-%g-%d" % (name, b, reach, n[0]))
        for name, rows in ROUTE_SWEEP.items()
        for b, reach, n, want in rows
    ],
)
def test_route_sweep_matches_mpmath(v, reach, n, want):
    """Both sides of x^(1/beta) = 4, up to reach 11: Mgstfcp takes the FFT
    and Mgfcp the saddle-point circles throughout.  No cell may warn."""
    got = _no_numerics_warnings(lambda: variant_pmf(v, FIG1, n, _t_at_reach(v, reach)))
    assert 0.0 <= got <= 1.0
    assert abs(got - want) <= 1e-10 * want


@pytest.mark.parametrize("t", [1.0, 20.0])
@pytest.mark.parametrize("v", ALL_VARIANTS, ids=vid)
def test_box_does_not_depend_on_call_order(v, t):
    """Every cell reads one law per route, clock, Lambda, t and table
    size, so the order in which a box is filled changes no value.  The
    two deep cells read a larger table than the 12 x 12 box."""
    states = list(itertools.product(range(13), range(13))) + [(20, 20), (30, 30)]

    def box(order):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NumericsWarning)
            cells = {n: variant_pmf(v, FIG1, n, t) for n in order}
        return [cells[n].hex() for n in states]

    variants_module._law.cache_clear()
    shallow = box(sorted(states, key=sum))
    deep = box(sorted(states, key=sum, reverse=True))
    variants_module._law.cache_clear()
    assert shallow == deep == box(states)


def _clear_memos():
    for memo in (
        compositions_module._profile,
        compositions_module._column,
        compositions_module._powers,
        variants_module._law,
        variants_module._clock_atoms,
        variants_module._split,
    ):
        memo.cache_clear()


@pytest.mark.parametrize("t", [1.0, 20.0])
@pytest.mark.parametrize("rates, box", [(FIG1, (12, 12)), (Q3, (7, 7, 7))], ids=["fig1", "q3"])
def test_box_does_not_depend_on_the_profile_memo(rates, box, t):
    """A box read forward, in reverse and from cleared memos gives the
    same profile bits and the same pmf bits for every variant."""
    states = list(itertools.product(*(range(b + 1) for b in box)))

    def bits(order):
        profiles = {n: jump_profile(rates, n) for n in order}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NumericsWarning)
            cells = {(v, n): variant_pmf(v, rates, n, t) for v in ALL_VARIANTS for n in order}
        return (
            [(profiles[n][0], [x.hex() for x in profiles[n][1]]) for n in states],
            [cells[v, n].hex() for v in ALL_VARIANTS for n in states],
        )

    _clear_memos()
    forward = bits(states)
    backward = bits(states[::-1])
    _clear_memos()
    assert forward == backward == bits(states)


@pytest.mark.parametrize("v", INVERSE_STABLE, ids=vid)
@pytest.mark.parametrize("t", [20.0, 60.0, 200.0])
def test_inverse_stable_box_is_a_probability_table(v, t):
    cells = [variant_pmf(v, FIG1, n, t) for n in itertools.product(range(13), range(13))]
    pgf0 = variant_pgf(v, FIG1, (0.0, 0.0), t)
    assert cells[0] == pytest.approx(pgf0, rel=1e-12)
    assert all(0.0 <= p <= 1.0 for p in cells)
    assert math.fsum(cells) <= 1.0


@pytest.mark.parametrize("t", [20.0, 60.0])
@pytest.mark.parametrize("rates, box", [(FIG1, (12, 12)), (Q3, (5, 5, 5))], ids=["fig1", "q3"])
@pytest.mark.parametrize("v", [v for v, _ in LARGE_T], ids=vid)
def test_large_t_box_is_a_probability_table(v, rates, box, t):
    cells = [
        variant_pmf(v, rates, n, t)
        for n in itertools.product(*(range(b + 1) for b in box))
    ]
    pgf0 = variant_pgf(v, rates, (0.0,) * rates.q, t)
    assert cells[0] == pytest.approx(pgf0, rel=1e-13)
    assert all(0.0 <= p <= 1.0 for p in cells)
    assert math.fsum(cells) <= 1.0


@pytest.mark.parametrize(
    "v, want",
    [
        pytest.param(v, want, id=vid(v))
        for v, want in [
            (Mgsfcp(0.7), 2.907e-12),
            (Tempered(0.6, 1.0), 4.310e-7),
            (IgTC(1.0, 1.0), 2.061e-9),
        ]
    ],
)
def test_t20_empty_state_values(v, want):
    got = variant_pmf(v, FIG1, (0, 0), 20.0)
    assert got == variant_pgf(v, FIG1, (0, 0), 20.0)
    assert got == pytest.approx(want, rel=2e-4)


def _mp_ig_kernel(mpmath, delta, gamma, lam, t):
    """z! P{Z_t = z} at an inverse Gaussian clock, a Poisson mixture in closed form.

    D_t has density t delta e^(t delta gamma) / sqrt(2 pi) x^(-3/2)
    exp(-(t^2 delta^2 / x + gamma^2 x) / 2), and
    int x^(nu-1) e^(-b x - c / x) dx = 2 (c / b)^(nu/2) K_nu(2 sqrt(b c)).
    """
    delta, gamma, lam, t = (mpmath.mpf(x) for x in (delta, gamma, lam, t))
    b, c = lam + gamma**2 / 2, (t * delta) ** 2 / 2
    front = 2 * t * delta * mpmath.exp(t * delta * gamma) / mpmath.sqrt(2 * mpmath.pi)

    def kernel(z):
        nu = z - mpmath.mpf(0.5)
        return lam**z * front * (c / b) ** (nu / 2) * mpmath.besselk(nu, 2 * mpmath.sqrt(b * c))

    return kernel


def test_underflowing_empty_state_spares_deep_cells():
    # IgTC(1, 1) at t = 800: P{Z = 0} = e^-800 = 3.7e-348 underflows, yet
    # p(40, 40) = 1.4e-256 is a normal double and must not come back as 0
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        kernel = _mp_ig_kernel(mpmath, 1, 1, FIG1.total, 800)
        assert kernel(0) == pytest.approx(mpmath.exp(-800), rel=1e-30)
        want = _mp_composition_sum(FIG1, (40, 40), 1 / mpmath.mpf(FIG1.total), kernel)
    got = variant_pmf(IgTC(1.0, 1.0), FIG1, (40, 40), 800.0)
    assert abs(got - want) <= 1e-12 * want


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
        # lncf(w_i + w_l) - lncf(w_i) - lncf(w_l) of
        # test_mgfcp_large_t_matches_mpmath at t = 0.7 and 50 digits
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

    @pytest.mark.parametrize("t", [20.0, 60.0, 200.0])
    def test_mgfcp_large_t_matches_mpmath(self, t):
        """The w_i and w_l arguments put a pole s^0.8 = x on the principal
        sheet, whose residue the contour adds back; w_i + w_l does not."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(250):
            beta = mpmath.mpf("0.8")
            w_i = mpmath.mpf(0.5) * (1 - mpmath.expj(1))
            w_l = 1 - mpmath.mpf(0.5) * (mpmath.expj(-1) + mpmath.expj(-2))

            def lncf(w):
                return mpmath.log(_mp_mittag_leffler(mpmath, beta, -(mpmath.mpf(t) ** beta) * w))

            want = complex(lncf(w_i + w_l) - lncf(w_i) - lncf(w_l))
        got = codifference(Mgfcp(0.8), FIG1, 0, 1, t)
        assert abs(got - want) <= 1e-12

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
        (Tempered(0.6, 1.0), variant_pmf_wright),
    ],
)
def test_large_t_prefactor_overflow_names_t(v, route):
    # exp(t theta^alpha) = exp(800) overflows at every state, the empty
    # one included: a fault of t, not of depth
    with pytest.raises(ValueError, match=r"t = 800\.0 .*prefactor") as info:
        route(v, FIG1, (0, 0), 800.0)
    assert "too deep" not in str(info.value)
    assert "exp(800)" in str(info.value)


@pytest.mark.parametrize("v", [Tempered(0.6, 1.0), IgTC(1.0, 1.0)], ids=vid)
def test_large_t_empty_state_equals_pgf(v):
    # p(0, 0) = exp(-t f(Lambda)) at any t: e^-586.3 for Tempered, and
    # 0.0 for IgTC, whose true 3.7e-348 lies below the subnormal range
    got = variant_pmf(v, FIG1, (0, 0), 800.0)
    assert got == variant_pgf(v, FIG1, (0, 0), 800.0)
    if isinstance(v, Tempered):
        assert math.log(got) == pytest.approx(-800.0 * (2.5**0.6 - 1.0), rel=1e-14)
    else:
        assert got == 0.0


def test_infinite_time_names_t():
    # P{Z = 0} = exp(-inf) is 0, but the recursion cannot scale t = inf
    assert variant_pmf(Mgsfcp(0.7), FIG1, (0, 0), math.inf) == 0.0
    with pytest.raises(ValueError, match="t = inf is too large"):
        variant_pmf(Mgsfcp(0.7), FIG1, (1, 0), math.inf)


@pytest.mark.parametrize(
    "pmf, v",
    [(variant_pmf, v) for v in ALL_VARIANTS]
    + [(variant_pmf_wright, v) for v in ALL_VARIANTS if isinstance(v, (Mgsfcp, Tempered))],
    ids=lambda x: getattr(x, "__name__", repr(x)),
)
def test_infinite_time_is_zero_or_raises_for_every_variant(pmf, v):
    # every clock grows without bound, so p(0, 0) -> 0; the series of the
    # other states need a finite t
    assert pmf(v, FIG1, (0, 0), math.inf) == 0.0
    for nbar in ((1, 0), (0, 2), (3, 3)):
        with pytest.raises(ValueError, match="t = inf"):
            pmf(v, FIG1, nbar, math.inf)


@pytest.mark.parametrize("v", ALL_VARIANTS, ids=vid)
def test_infinite_time_pgf_is_its_limit(v):
    # exp(-t f(w)) and E_beta(-t^beta f(w)) tend to 1 where f(w) = 0 and
    # to 0 elsewhere; u1 = -1 flips the sign of every odd jump
    assert variant_pgf(v, FIG1, (1.0, 1.0), math.inf) == 1.0
    for ubar in ((0.5, 0.5), (0.0, 1.0), (-1.0, 1.0)):
        assert variant_pgf(v, FIG1, ubar, math.inf) == 0.0


def test_nan_time_is_rejected_by_the_moments():
    with pytest.raises(ValueError, match="non-negative"):
        covariance(Mgfcp(0.8), FIG1, 0, 1, math.nan)
    with pytest.raises(ValueError, match="non-negative"):
        codifference(Tempered(0.6, 0.9), FIG1, 0, 1, math.nan)


@pytest.mark.parametrize("v", [Tempered(0.6, 1.0), Mgfcp(0.8)], ids=vid)
def test_infinite_time_codifference_is_rejected(v):
    # the Levy clock's -t f is nan at t = inf, and E_beta's pole term
    # leaves double range, so both raise rather than return a value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="t = inf"):
            codifference(v, FIG1, 0, 1, math.inf)


SEVEN = [
    Mgcp(),
    Mgsfcp(0.7),
    Mgfcp(0.8),
    Mgstfcp(0.7, 0.8),
    Tempered(0.6, 1.0),
    GammaTC(1.0, 2.0),
    IgTC(1.0, 1.5),
]


class TestClockMemo:
    """_split builds each variant's clock once; every cell reads that clock."""

    @pytest.mark.parametrize("v", SEVEN, ids=vid)
    def test_equal_variants_share_one_clock(self, v):
        twin = type(v)(*(getattr(v, f.name) for f in dataclasses.fields(v)))
        assert twin is not v
        assert _split(v) is _split(twin)

    @pytest.mark.parametrize(
        "ints, floats", [(Mgsfcp(1), Mgsfcp(1.0)), (Tempered(0.6, 1), Tempered(0.6, 1.0))], ids=vid
    )
    @pytest.mark.parametrize("t", [1.0, 20.0])
    def test_integer_fields_give_the_float_box(self, ints, floats, t):
        # equal variants share a memo entry, so the first to arrive sets the
        # clock every later one reads: each side is filled from cold memos
        states = list(itertools.product(range(9), range(9)))

        def box(v):
            _clear_memos()
            return [variant_pmf(v, FIG1, n, t).hex() for n in states]

        assert box(ints) == box(floats)

    @pytest.mark.parametrize("v", SEVEN, ids=vid)
    @pytest.mark.parametrize("t", [1.0, 20.0])
    def test_box_after_the_clock_memo_is_cleared(self, v, t):
        states = list(itertools.product(range(13), range(13)))
        warm = [variant_pmf(v, FIG1, n, t).hex() for n in states]
        _split.cache_clear()
        assert [variant_pmf(v, FIG1, n, t).hex() for n in states] == warm


class TestStateEntryTypes:
    """Any integer type is a state entry, memo cold or warm; nothing else is."""

    def test_numpy_ints_on_a_cold_memo(self):
        v = Mgsfcp(0.7)
        state = (np.int64(2), np.int64(1))
        _clear_memos()
        got = variant_pmf(v, FIG1, state, 1.0), variant_transition_rate(v, FIG1, state)
        _clear_memos()
        assert got == (variant_pmf(v, FIG1, (2, 1), 1.0), variant_transition_rate(v, FIG1, (2, 1)))

    @pytest.mark.parametrize("v", SEVEN, ids=vid)
    def test_sampled_states_on_a_cold_memo(self, v):
        states = sample_variant_many(v, FIG1, 1.0, np.random.default_rng(3), 12)
        for state in states:
            _clear_memos()
            got = variant_pmf(v, FIG1, state, 1.0)
            _clear_memos()
            assert got == variant_pmf(v, FIG1, tuple(map(int, state)), 1.0), state

    @pytest.mark.parametrize("state", [(2.0, 1), (2, 1.0), (np.float64(2.0), 1), ("2", 1)], ids=repr)
    @pytest.mark.parametrize("cold", [True, False], ids=["cold", "warm"])
    def test_other_entries_raise_whatever_the_memo_holds(self, state, cold):
        v = Mgsfcp(0.7)
        if cold:
            _clear_memos()
        else:
            variant_pmf(v, FIG1, (2, 1), 1.0)
            variant_transition_rate(v, FIG1, (2, 1))
        for call in (
            lambda: variant_pmf(v, FIG1, state, 1.0),
            lambda: variant_pmf_wright(v, FIG1, state, 1.0),
            lambda: variant_transition_rate(v, FIG1, state),
            lambda: variant_levy_measure(v, FIG1, state),
        ):
            with pytest.raises(ValueError, match="state entries must be integers"):
                call()

    def test_bools_and_numpy_arrays_are_integer_states(self):
        v = Tempered(0.6, 0.9)
        want = variant_pmf(v, FIG1, (1, 0), 1.0)
        assert variant_pmf(v, FIG1, (True, False), 1.0) == want
        assert variant_pmf(v, FIG1, np.array([1, 0], dtype=np.uint8), 1.0) == want
        with pytest.raises(ValueError, match="non-negative"):
            variant_pmf(v, FIG1, np.array([1, -1]), 1.0)
