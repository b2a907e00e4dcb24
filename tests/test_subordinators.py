"""Clock layer: Laplace exponents, densities, exact samplers.

Sampler checks compare Monte Carlo Laplace transforms E[exp(-s D(t))]
against exp(-t f(s)) (or the Mittag-Leffler transform for the
inverse-stable clocks), with fixed seeds and 5-sigma bands.
"""

import ast
import cmath
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate, stats

from mgcp import subordinators as subs
from oracles import mp_clock_exponent
from mgcp.specfun import mittag_leffler
from mgcp.subordinators import (
    GammaSub,
    Identity,
    InverseGaussian,
    InverseStableTime,
    Stable,
    TemperedStable,
    clock_budget,
    clock_from_uniforms,
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

LEVY_CLOCKS = [
    Stable(0.6),
    TemperedStable(0.5, 1.5),
    GammaSub(2.0, 1.3),
    InverseGaussian(1.2, 0.9),
]

# the inverse-stable clocks keep the ids of the two classes they replaced
ALL_CLOCKS = LEVY_CLOCKS + [
    pytest.param(InverseStableTime(Identity(), 0.7), id="InverseStable"),
    pytest.param(InverseStableTime(Stable(0.6), 0.8), id="StableTimeInverseStable"),
]


def laplace_reference(spec, t, s):
    """E[exp(-s D(t))] from the analytic route."""
    if isinstance(spec, InverseStableTime):
        # condition on the inner clock at E_t: E exp(-E_t f(s))
        f = laplace_exponent(spec.inner, s)
        return mittag_leffler(spec.beta, 1.0, 1.0, -f * t**spec.beta)
    return math.exp(-t * laplace_exponent(spec, s))


class TestSpecValidation:
    def test_stable_alpha(self):
        with pytest.raises(ValueError):
            Stable(1.0)
        with pytest.raises(ValueError):
            Stable(0.0)

    def test_inverse_stable_beta(self):
        with pytest.raises(ValueError):
            InverseStableTime(Identity(), 1.2)

    @pytest.mark.parametrize(
        "inner", [TemperedStable(0.6, 1.0), GammaSub(2.0, 1.3)], ids=lambda c: type(c).__name__
    )
    def test_inverse_stable_inner(self, inner):
        # only the identity and the stable clock have a pmf route and a
        # sampler at inverse-stable time: a tempered inner clock used to
        # fail in sample_many with a TypeError, a gamma one to sample
        with pytest.raises(ValueError, match="must be Identity or Stable.*array of times"):
            InverseStableTime(inner, 0.8)

    def test_tempered(self):
        with pytest.raises(ValueError):
            TemperedStable(0.5, 0.0)
        with pytest.raises(ValueError):
            TemperedStable(1.1, 1.0)

    def test_gamma(self):
        with pytest.raises(ValueError):
            GammaSub(0.0, 1.0)

    def test_ig(self):
        with pytest.raises(ValueError):
            InverseGaussian(1.0, -1.0)

    def test_composition(self):
        with pytest.raises(ValueError):
            InverseStableTime(Stable(0.5), 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "make",
        [
            lambda x: Stable(x),
            lambda x: TemperedStable(x, 1.0),
            lambda x: TemperedStable(0.5, x),
            lambda x: GammaSub(x, 1.0),
            lambda x: GammaSub(1.0, x),
            lambda x: InverseGaussian(x, 1.0),
            lambda x: InverseGaussian(1.0, x),
            lambda x: InverseStableTime(Identity(), x),
        ],
        ids=["Stable", "TemperedStable.alpha", "TemperedStable.theta", "GammaSub.a",
             "GammaSub.b", "InverseGaussian.delta", "InverseGaussian.gamma",
             "InverseStableTime.beta"],
    )
    def test_nan_and_inf_parameters(self, make, bad):
        with pytest.raises(ValueError):
            make(bad)


class TestLaplaceExponent:
    def test_known_values(self):
        assert_allclose(laplace_exponent(Stable(0.5), 4.0), 2.0, rtol=1e-15)
        assert_allclose(
            laplace_exponent(TemperedStable(0.5, 1.0), 3.0), 1.0, rtol=1e-15
        )
        assert_allclose(
            laplace_exponent(GammaSub(2.0, 3.0), 2.0), 3.0 * math.log(2.0), rtol=1e-15
        )
        assert_allclose(
            laplace_exponent(InverseGaussian(1.5, 2.0), 2.5), 1.5, rtol=1e-15
        )

    def test_vanishes_at_zero(self):
        for spec in LEVY_CLOCKS:
            assert laplace_exponent(spec, 0.0) == 0.0

    def test_rejects_non_levy_clocks(self):
        with pytest.raises(ValueError):
            laplace_exponent(InverseStableTime(Identity(), 0.5), 1.0)
        with pytest.raises(ValueError):
            laplace_exponent(InverseStableTime(Stable(0.5), 0.5), 1.0)

    def test_rejects_negative_s(self):
        with pytest.raises(ValueError):
            laplace_exponent(Stable(0.5), -1.0)
        with pytest.raises(ValueError, match="non-negative"):
            laplace_exponent(Stable(0.5), math.nan)


@pytest.mark.parametrize("spec", LEVY_CLOCKS, ids=lambda c: type(c).__name__)
def test_levy_density_reproduces_exponent(spec):
    """f(s) = integral of (1 - e^(-s x)) against the Levy density."""
    for s in (0.5, 2.0):
        head, _ = integrate.quad(
            lambda x: (1.0 - math.exp(-s * x)) * levy_density(spec, x), 0.0, 1.0
        )
        tail, _ = integrate.quad(
            lambda x: (1.0 - math.exp(-s * x)) * levy_density(spec, x), 1.0, np.inf
        )
        assert_allclose(head + tail, laplace_exponent(spec, s), rtol=1e-8)


def test_levy_density_rejects_non_levy():
    with pytest.raises(ValueError):
        levy_density(InverseStableTime(Identity(), 0.5), 1.0)
    with pytest.raises(ValueError):
        levy_density(Identity(), 1.0)
    with pytest.raises(ValueError):
        levy_density(Stable(0.5), 0.0)
    with pytest.raises(ValueError, match="positive"):
        levy_density(Stable(0.5), math.nan)


def test_singularity_exponents():
    assert levy_singularity_exponent(Stable(0.6)) == 0.6
    assert levy_singularity_exponent(TemperedStable(0.4, 2.0)) == 0.4
    assert levy_singularity_exponent(GammaSub(1.0, 1.0)) == 0.0
    assert levy_singularity_exponent(InverseGaussian(1.0, 1.0)) == 0.5


class TestDensities:
    def test_gamma_density_matches_scipy(self):
        a, b, t = 2.0, 1.3, 0.8
        for x in (0.1, 0.7, 3.0):
            assert_allclose(
                gamma_density(a, b, x, t),
                stats.gamma.pdf(x, b * t, scale=1.0 / a),
                rtol=1e-12,
            )

    def test_ig_density_normalizes_and_matches_scipy(self):
        delta, gamma, t = 1.2, 0.9, 1.5
        total, _ = integrate.quad(
            lambda x: ig_density(delta, gamma, x, t), 0.0, np.inf
        )
        assert_allclose(total, 1.0, rtol=1e-9)
        # scipy's invgauss(mu, scale=s) has density with mean mu*s
        mu = delta * t / gamma
        lam = (delta * t) ** 2
        for x in (0.3, 1.0, 4.0):
            assert_allclose(
                ig_density(delta, gamma, x, t),
                stats.invgauss.pdf(x, mu / lam, scale=lam),
                rtol=1e-10,
            )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            gamma_density(1.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            ig_density(1.0, 1.0, 1.0, 0.0)


class TestInverseStableMoment:
    def test_edge_cases(self):
        assert inverse_stable_moment(0.5, 0, 2.0) == 1.0
        assert inverse_stable_moment(0.5, 3, 0.0) == 0.0

    def test_half_beta_closed_form(self):
        # E[Y_{1/2}(t)] = 2 sqrt(t/pi)
        for t in (0.5, 1.0, 4.0):
            assert_allclose(
                inverse_stable_moment(0.5, 1, t),
                2.0 * math.sqrt(t / math.pi),
                rtol=1e-14,
            )
        # n = 2: 2! t / Gamma(2) = 2t
        assert_allclose(inverse_stable_moment(0.5, 2, 3.0), 6.0, rtol=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            inverse_stable_moment(1.5, 1, 1.0)
        with pytest.raises(ValueError):
            inverse_stable_moment(0.5, -1, 1.0)


@pytest.mark.parametrize("spec", ALL_CLOCKS, ids=lambda c: type(c).__name__)
def test_sampler_laplace_transform(spec):
    rng = stream_rng(2024)
    t, s, size = 1.3, 0.8, 40000
    draws = sample_many(spec, t, rng, size)
    assert draws.shape == (size,)
    assert np.all(draws > 0)
    vals = np.exp(-s * draws)
    err = abs(vals.mean() - laplace_reference(spec, t, s))
    assert err < 5.0 * vals.std(ddof=1) / math.sqrt(size)


def test_sampler_edge_cases():
    rng = stream_rng(5)
    assert np.all(sample_many(Stable(0.5), 0.0, rng, 4) == 0.0)
    with pytest.raises(ValueError):
        sample_many(Stable(0.5), -1.0, rng, 4)
    with pytest.raises(ValueError):
        sample(Stable(0.5), 0.0, rng)
    assert isinstance(sample(Stable(0.5), 1.0, rng), float)
    with pytest.raises(ValueError):
        sample_many(object(), 1.0, rng, 4)


def test_tempered_sampler_mean():
    # E[D(t)] = t f'(0) = t alpha theta^(alpha-1)
    spec = TemperedStable(0.6, 2.0)
    t, size = 2.5, 60000
    draws = sample_many(spec, t, stream_rng(77), size)
    want = t * spec.alpha * spec.theta ** (spec.alpha - 1.0)
    err = abs(draws.mean() - want)
    assert err < 5.0 * draws.std(ddof=1) / math.sqrt(size)


def test_inverse_stable_sampler_moments():
    spec = InverseStableTime(Identity(), 0.7)
    t, size = 1.8, 60000
    draws = sample_many(spec, t, stream_rng(31), size)
    for n in (1, 2):
        vals = draws**n
        err = abs(vals.mean() - inverse_stable_moment(spec.beta, n, t))
        assert err < 5.0 * vals.std(ddof=1) / math.sqrt(size)


class TestStreamRng:
    def test_reproducible(self):
        a = stream_rng(42).random(5)
        b = stream_rng(42).random(5)
        assert np.array_equal(a, b)

    def test_streams_disjoint(self):
        a = stream_rng(42, 0).random(5)
        b = stream_rng(42, 1).random(5)
        assert not np.array_equal(a, b)


def test_interior_clamps_endpoints():
    u = subs._interior(np.array([0.0, 0.5, 1.0]))
    assert u[0] > 0.0
    assert u[1] == 0.5
    assert u[2] < 1.0


class TestClockBudget:
    def test_fixed_budgets(self):
        assert clock_budget(Stable(0.5), 1.0) == 2
        assert clock_budget(InverseStableTime(Identity(), 0.5), 7.0) == 2
        assert clock_budget(InverseGaussian(1.0, 1.0), 1.0) == 2
        assert clock_budget(InverseStableTime(Stable(0.5), 0.5), 1.0) == 4
        assert clock_budget(GammaSub(1.0, 1.0), 1.0) == 1

    def test_tempered_budget_scales_with_t(self):
        spec = TemperedStable(0.5, 1.0)
        # ceil(t theta^alpha / ln 2) slices, 3 * 48 columns each
        assert clock_budget(spec, 1.0) == 3 * 48 * 2
        assert clock_budget(spec, 0.1) == 3 * 48
        assert clock_budget(spec, 10.0) > clock_budget(spec, 1.0)


@pytest.mark.parametrize("spec", ALL_CLOCKS, ids=lambda c: type(c).__name__)
def test_clock_from_uniforms_matches_sampler_law(spec):
    t, s, size = 1.1, 0.7, 40000
    u = stream_rng(99).random((size, clock_budget(spec, t)))
    draws = clock_from_uniforms(spec, t, u)
    assert np.all(draws > 0)
    vals = np.exp(-s * draws)
    err = abs(vals.mean() - laplace_reference(spec, t, s))
    assert err < 5.0 * vals.std(ddof=1) / math.sqrt(size)


@pytest.mark.parametrize("spec", ALL_CLOCKS, ids=lambda c: type(c).__name__)
def test_clock_from_uniforms_is_rowwise(spec):
    """Splitting the window into batches cannot change any draw."""
    t = 0.9
    u = stream_rng(7).random((64, clock_budget(spec, t)))
    whole = clock_from_uniforms(spec, t, u)
    parts = np.concatenate(
        [clock_from_uniforms(spec, t, u[lo : lo + 16]) for lo in range(0, 64, 16)]
    )
    assert np.array_equal(whole, parts)


@pytest.mark.parametrize("spec", ALL_CLOCKS, ids=lambda c: type(c).__name__)
def test_sample_many_matches_the_reference_sampler(spec):
    """The live sampler and the uniform-window reference agree in law."""
    t, size = 1.1, 10000
    live = sample_many(spec, t, stream_rng(5), size)
    u = stream_rng(6).random((size, clock_budget(spec, t)))
    ref = clock_from_uniforms(spec, t, u)
    assert stats.ks_2samp(live, ref).pvalue > 1e-3


class FixedUniforms:
    """A generator stand-in whose random(size) returns the given blocks in order."""

    def __init__(self, *blocks):
        self.blocks = list(blocks)

    def random(self, size):
        block = self.blocks.pop(0)
        assert block.shape == (size,)
        return block


@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.7, 0.95, 0.999])
def test_log_form_kanter_matches_the_power_form(alpha):
    """The live sampler by tangents and the reference by logs of sines, on
    equal uniforms."""
    rng = np.random.Generator(np.random.Philox(key=8))
    ends = np.array([0.0, 1.0, 0.0, 1.0, 0.5, 0.5])
    u1 = np.concatenate([rng.random(5000), ends])
    u2 = np.concatenate([rng.random(5000), ends[[0, 1, 3, 2, 0, 1]]])
    live = subs._kanter(alpha, FixedUniforms(u1, u2), u1.size)
    ref = subs._kanter_from_u(alpha, u1, u2)
    assert np.all(np.isfinite(ref)) and np.all(ref > 0)
    assert_allclose(live, ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("alpha", [0.99, 0.995, 0.999])
def test_reference_stable_draws_stay_finite_near_alpha_one(alpha):
    # raising the sine ratio to 1/(1 - alpha) before the (1 - alpha)/alpha
    # power gave inf on 94 of these rows at alpha = 0.999, 15 at 0.995
    u = np.random.Generator(np.random.Philox(key=9)).random((10**5, 2))
    with np.errstate(over="raise"):
        draws = clock_from_uniforms(Stable(alpha), 1.0, u)
    assert np.all(np.isfinite(draws)) and np.all(draws > 0)


def test_gamma_clock_from_uniforms_is_inverse_cdf():
    spec = GammaSub(2.0, 1.5)
    t = 1.2
    u = np.array([[0.1], [0.5], [0.9]])
    draws = clock_from_uniforms(spec, t, u)
    want = stats.gamma.ppf(u[:, 0], spec.b * t, scale=1.0 / spec.a)
    assert_allclose(draws, want, rtol=1e-12)


def test_nan_time_is_rejected():
    rng = stream_rng(1, 0)
    with pytest.raises(ValueError, match="non-negative"):
        sample_many(Stable(0.6), math.nan, rng, 4)
    with pytest.raises(ValueError, match="positive"):
        sample(Stable(0.6), math.nan, rng)
    with pytest.raises(ValueError, match="non-negative"):
        inverse_stable_moment(0.7, 2, math.nan)


@pytest.mark.parametrize("lam", [0.875, 1.5])
@pytest.mark.parametrize(
    "spec", [Identity()] + LEVY_CLOCKS, ids=lambda c: type(c).__name__
)
def test_atoms_agree_with_the_exponent(spec, lam):
    """f(lam) - f(lam (1 - u)) = sum_k nu_1(k) u^k: the atoms are the
    power series of the clock's own exponent at base rate lam."""
    atoms = spec.atoms(lam, 512)
    assert len(atoms) == 512
    for u in (0.3, 0.9):
        want = spec.exponent(lam) - spec.exponent(lam * (1.0 - u))
        got = math.fsum(a * u**k for k, a in enumerate(atoms, start=1))
        assert abs(got - want) <= 1e-13 * want, u


@pytest.mark.parametrize("spec", LEVY_CLOCKS, ids=lambda c: type(c).__name__)
def test_complex_exponent_is_the_levy_integral(spec):
    """f(w) = int (1 - e^(-w x)) nu(dx) at a complex w, each part by quadrature."""
    w = 0.8 + 0.6j
    parts = []
    for part in (np.real, np.imag):

        def integrand(x, part=part):
            return part(1.0 - cmath.exp(-w * x)) * levy_density(spec, x)

        head, _ = integrate.quad(integrand, 0.0, 1.0, limit=200)
        tail, _ = integrate.quad(integrand, 1.0, np.inf, limit=200)
        parts.append(head + tail)
    got = spec.exponent(w)
    assert isinstance(got, complex)
    assert_allclose([got.real, got.imag], parts, rtol=1e-8)
    # on the real axis the exponent stays a float
    assert isinstance(spec.exponent(0.8), float)


def test_identity_clock():
    clock = Identity()
    assert clock == Identity() and hash(clock) == hash(Identity())
    assert laplace_exponent(clock, 2.5) == 2.5
    assert clock.exponent(0.5 + 1j) == 0.5 + 1j
    assert clock.atoms(1.5, 3) == (1.5, 0.0, 0.0)
    assert np.array_equal(sample_many(clock, 2.5, stream_rng(1), 3), np.full(3, 2.5))
    with pytest.raises(ValueError, match="no Levy density"):
        levy_singularity_exponent(clock)


# sample_many(clock, 1.5, Generator(Philox(key=7)), 4).tolist(): the
# README promises byte-deterministic seeds, so a change to any sampler's
# use of its generator shows here.  The generator is explicit, so these
# pins hold the samplers apart from stream_rng's choice of bit generator,
# which test_stream_rng_draws_stay_the_same pins.  The third entry, where
# given, is the string the sine form of Kanter's sampler printed: the
# tangent form reads the same uniforms, so its draws move in the last
# bits only
SEEDED_DRAWS = [
    (Stable(0.7), "[3.7967037397101007, 1.3191624097415748, 0.910983401086938, 1.331869852889673]", None),
    (
        TemperedStable(0.6, 1.0),
        "[0.4930488593272478, 2.1748320281980815, 0.634568978402158, 0.7548157303091418]",
        "[0.49304885932724757, 2.1748320281980815, 0.6345689784021581, 0.7548157303091416]",
    ),
    (GammaSub(1.0, 2.0), "[0.7084150555058466, 3.8008257934079834, 6.378082064750907, 1.7825100795493676]", None),
    (
        InverseGaussian(1.0, 1.5),
        "[0.3299593337686194, 0.6658350957263122, 0.3490709960748276, 1.5030993014071068]",
        None,
    ),
    (
        InverseStableTime(Identity(), 0.8),
        "[0.8728362258957149, 1.7322691645236252, 2.0370991544560595, 1.708858541704873]",
        "[0.8728362258957147, 1.7322691645236254, 2.0370991544560595, 1.7088585417048725]",
    ),
    (
        InverseStableTime(Stable(0.7), 0.8),
        "[0.37542721633484655, 7.748199396057618, 8.83859394093297, 2.589409612247106]",
        "[0.37542721633484644, 7.748199396057619, 8.838593940932968, 2.5894096122471044]",
    ),
]


@pytest.mark.parametrize(
    "spec, want, sine_form",
    SEEDED_DRAWS,
    ids=[
        "Stable", "TemperedStable", "GammaSub", "InverseGaussian",
        "InverseStable", "StableTimeInverseStable",
    ],
)
def test_seeded_draws_stay_the_same(spec, want, sine_form):
    draws = sample_many(spec, 1.5, np.random.Generator(np.random.Philox(key=7)), 4).tolist()
    assert repr(draws) == want
    if sine_form is not None:
        assert_allclose(draws, ast.literal_eval(sine_form), rtol=1e-12, atol=0.0)


def test_stream_rng_draws_stay_the_same():
    # stream 0 of seed 7 is PCG64DXSM seeded by 7; the estimators and the
    # CLI draw on these streams, so a change of bit generator shows here
    draws = sample_many(Stable(0.7), 1.5, stream_rng(7, 0), 4).tolist()
    assert repr(draws) == (
        "[1.8565758474811738, 3.929101208573096, 1.8396393384121514, 1.6371361931627268]"
    )


@pytest.mark.parametrize("c", [0.5, 3.0, 10.0])
def test_tempered_sampler_matches_the_reference_across_slices(c):
    """KS of the live tempered sampler against _tempered_from_u at
    t theta^alpha = c: one slice, three slices and ten."""
    spec, size = TemperedStable(0.6, 2.0), 2000
    t = c / spec.theta**spec.alpha
    live = sample_many(spec, t, stream_rng(41), size)
    u = stream_rng(42).random((size, clock_budget(spec, t)))
    ref = clock_from_uniforms(spec, t, u)
    assert stats.ks_2samp(live, ref).pvalue > 1e-3


@pytest.mark.parametrize("t", [math.inf, 1e300])
def test_tempered_sampler_rejects_a_time_it_cannot_slice(t):
    # t = inf raised OverflowError from math.ceil, and t = 1e300 ran a
    # slice loop of about 4e299 rounds
    with pytest.raises(ValueError, match="tempered stable"):
        sample_many(TemperedStable(0.6, 1.0), t, stream_rng(1), 5)


def test_tempered_slice_ceiling():
    spec = TemperedStable(0.5, 4.0)
    # t theta^alpha = 2 (_MAX_SLICES + 1) / 2 takes _MAX_SLICES + 1 slices
    with pytest.raises(ValueError, match="more than 1000000 rejection slices"):
        sample_many(spec, (subs._MAX_SLICES + 1) / 2.0, stream_rng(1), 1)
    # a hundred slices draw as usual
    assert sample_many(spec, 50.0, stream_rng(1), 3).shape == (3,)


def test_tempered_slices_drawn_in_blocks_keep_the_law():
    """100 slices of 2000 draws run in blocks of 16 slices and a last
    of 4; the mean and variance are t f'(0) and -t f''(0)."""
    spec, size = TemperedStable(0.6, 2.0), 2000
    t = 100.0 / spec.theta**spec.alpha
    assert subs._SLICE_BLOCK // size == 16
    draws = sample_many(spec, t, stream_rng(78), size)
    mean = t * spec.alpha * spec.theta ** (spec.alpha - 1.0)
    var = t * spec.alpha * (1.0 - spec.alpha) * spec.theta ** (spec.alpha - 2.0)
    assert abs(draws.mean() - mean) < 5.0 * math.sqrt(var / size)
    assert draws.var(ddof=1) == pytest.approx(var, rel=0.15)


@pytest.mark.parametrize(
    "clock",
    [
        Identity(),
        TemperedStable(0.6, 1.0),
        TemperedStable(0.3, 2.5),
        GammaSub(1.0, 2.0),
        GammaSub(3.0, 0.5),
        InverseGaussian(1.0, 1.5),
        InverseGaussian(2.0, 0.7),
    ],
    ids=repr,
)
def test_clock_moments_are_the_exponent_derivatives(clock):
    mpmath = pytest.importorskip("mpmath")
    f = mp_clock_exponent(mpmath, clock)
    with mpmath.workdps(40):
        first, second = (float(mpmath.diff(f, 0, n)) for n in (1, 2))
    assert clock.mean_rate == pytest.approx(first, rel=1e-14, abs=0.0)
    assert clock.curvature == pytest.approx(second, rel=1e-14, abs=1e-300)


def test_stable_clock_moments_are_infinite():
    # f(s) = s^alpha has an infinite slope at 0
    assert Stable(0.7).mean_rate is None
    assert Stable(0.7).curvature is None


def test_clock_moments_are_not_fields():
    # equality, hash and repr key the clock memos, and stay as they were
    assert repr(GammaSub(1.0, 2.0)) == "GammaSub(a=1.0, b=2.0)"
    assert repr(TemperedStable(0.6, 1.0)) == "TemperedStable(alpha=0.6, theta=1.0)"
    assert repr(InverseGaussian(1.0, 1.5)) == "InverseGaussian(delta=1.0, gamma=1.5)"
    assert repr(Identity()) == "Identity()"

