"""Shock-model reliability: threshold laws, hazard, survival, failure split.

IncGamma frozen values are checked against mpmath's generalized
incomplete gamma (oracles.mp_threshold_tail); the other laws are checked
against classical closed forms or direct quadrature.  The level pmf is checked against the paper's signed
formula (tests/oracles.py) in doubles at small t and in mpmath at large t,
and the level table against the column-by-column convolution recursion.
The named laws' mixture route is checked against the table route, which
a CustomThreshold holding the same tails takes, and against mpmath.
"""

import copy
import itertools
import math
import pickle
import sys
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate

import oracles
from mgcp import compositions, shock
from mgcp.gcp import RateMatrix
from mgcp.shock import (
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
    _poisson_weights,
    _tables,
)
from mgcp.specfun import TruncationWarning
from mgcp.variants import (
    GammaTC,
    IgTC,
    Mgcp,
    Mgfcp,
    Mgsfcp,
    Mgstfcp,
    Tempered,
    variant_pmf,
    variant_transition_rate,
)

FIG1 = figure_rates(1)
FIG2 = figure_rates(2)
Q3 = RateMatrix([[0.4, 0.2], [0.3, 0.3, 0.1], [0.5]])
MODEL = ShockModel(FIG1, 0.9, Geometric(0.5))
LAWS = (Geometric(0.5), Logarithmic(0.5), IncGamma(0.0, 0.5), SineIntegral(0.0, 0.5))


def twin(law, n=600):
    """A CustomThreshold holding the first n tails of a named law.

    It takes the table route, where the named law takes the mixture
    route."""
    return CustomThreshold(tuple(threshold_tail(law, k) for k in range(n)))


class TestThresholdLaws:
    def test_geometric(self):
        d = Geometric(0.5)
        assert threshold_tail(d, 0) == 1.0
        assert threshold_tail(d, 3) == 0.125
        assert threshold_pmf(d, 1) == 0.5
        with pytest.raises(ValueError):
            Geometric(0.0)

    def test_logarithmic_is_log_series(self):
        # pmf must match the classical p^n / (n * -ln(1-p))
        d = Logarithmic(0.4)
        norm = -math.log1p(-0.4)
        for n in range(1, 9):
            assert_allclose(
                threshold_pmf(d, n), 0.4**n / (n * norm), rtol=1e-12
            )
        with pytest.raises(ValueError):
            Logarithmic(1.0)

    def test_inc_gamma_frozen(self):
        # incgamma(0, .5) tail q_1 / pmf n=1, each pinned value checked
        # against mpmath at 50 digits
        mpmath = pytest.importorskip("mpmath")
        tail, pmf = 0.22925295873160086, 0.77074704126839914
        with mpmath.workdps(50):
            want_tail = oracles.mp_threshold_tail(mpmath, 0.0, 0.5, 1)
            want_pmf = oracles.mp_threshold_tail(mpmath, 0.0, 0.5, 0) - want_tail
        assert abs(tail - want_tail) <= 1e-13 * want_tail
        assert abs(pmf - want_pmf) <= 1e-13 * want_pmf
        d = IncGamma(0.0, 0.5)
        assert_allclose(threshold_tail(d, 1), tail, rtol=1e-13)
        assert_allclose(threshold_pmf(d, 1), pmf, rtol=1e-13)
        with pytest.raises(ValueError):
            IncGamma(0.5, 0.5)

    def test_inc_gamma_tail_by_quadrature(self):
        d = IncGamma(0.1, 0.8)
        norm = math.exp(-0.1) - math.exp(-0.8)
        for n in (1, 2, 5):
            want, _ = integrate.quad(
                lambda x: x**n * math.exp(-x) / norm, 0.1, 0.8
            )
            assert_allclose(threshold_tail(d, n), want, rtol=1e-10)

    def test_sine_integral_tail_by_quadrature(self):
        d = SineIntegral(0.2, 0.9)
        norm = math.cos(0.2) - math.cos(0.9)
        for n in (1, 2, 5):
            want, _ = integrate.quad(
                lambda x: x**n * math.sin(x) / norm, 0.2, 0.9
            )
            assert_allclose(threshold_tail(d, n), want, rtol=1e-10)
        with pytest.raises(ValueError):
            SineIntegral(-0.1, 0.5)

    def test_custom_threshold(self):
        d = CustomThreshold((1.0, 0.6, 0.2))
        assert threshold_tail(d, 1) == 0.6
        assert threshold_tail(d, 7) == 0.0
        with pytest.raises(ValueError):
            CustomThreshold((0.9, 0.5))
        with pytest.raises(ValueError):
            CustomThreshold((1.0, 0.5, 0.7))
        with pytest.raises(ValueError):
            CustomThreshold((1.0, -0.1))

    @pytest.mark.parametrize(
        "q", [(1.0, math.nan, 0.2), (1.0, 0.5, math.nan), (1.0, -math.inf)]
    )
    def test_custom_threshold_rejects_entries_that_are_not_finite(self, q):
        with pytest.raises(ValueError):
            CustomThreshold(q)

    @pytest.mark.parametrize(
        "d", LAWS + (CustomThreshold((1.0, 0.6, 0.2)),), ids=lambda d: type(d).__name__
    )
    def test_threshold_tail_reads_the_law_tail(self, d):
        for n in (1, 2, 3, 40):
            assert threshold_tail(d, n) == d.tail(n)
        assert threshold_tail(d, 0) == 1.0

    def test_tails_are_monotone_probabilities(self):
        laws = [
            Geometric(0.3),
            Logarithmic(0.6),
            IncGamma(0.0, 0.5),
            SineIntegral(0.0, 1.0),
        ]
        for d in laws:
            tails = [threshold_tail(d, n) for n in range(30)]
            assert tails[0] == 1.0
            assert all(0.0 <= b <= a for a, b in zip(tails, tails[1:]))
            # sine/inc-gamma tails decay only polynomially (like 1/n)
            assert tails[-1] < 0.2

    def test_domain(self):
        with pytest.raises(ValueError):
            threshold_tail(Geometric(0.5), -1)
        with pytest.raises(ValueError):
            threshold_pmf(Geometric(0.5), 0)
        with pytest.raises(ValueError):
            threshold_tail(object(), 2)


def test_shock_model_validation():
    with pytest.raises(ValueError):
        ShockModel(FIG1, 1.0, Geometric(0.5))
    with pytest.raises(ValueError):
        ShockModel(FIG1, 0.5, "geometric")


def test_level_pmf_matches_state_sums():
    """The cached table route vs brute enumeration of states by total."""
    t = 1.0
    plevel = oracles.table_level_pmf(MODEL, t, 32)
    for n in range(9):
        direct = sum(
            variant_pmf(Mgsfcp(MODEL.alpha), FIG1, (n1, n - n1), t)
            for n1 in range(n + 1)
        )
        assert_allclose(plevel[n], direct, rtol=1e-10, atol=1e-15)


@pytest.mark.parametrize("a", (1e-3, 0.7, 26.2, 244.9))
def test_poisson_weights_match_mpmath(a):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        x = mpmath.mpf(a)
        want = np.array(
            [float(mpmath.exp(-x) * x**n / mpmath.factorial(n)) for n in range(513)]
        )
    got = _poisson_weights(np.array([a]), 512)[:, 0]
    # the weights that carry the mass; at a = 244.9 the log-space form
    # exp(-a + n log a - log n!) is 4e-13 off there
    top = want >= 1e-3 * want.max()
    assert_allclose(got[top], want[top], rtol=2e-14)
    assert_allclose(got, want, rtol=1e-12, atol=1e-300)
    # below 15 levels the tabulated Stirling remainders alone are read
    np.testing.assert_array_equal(_poisson_weights(np.array([a]), 8)[:, 0], got[:9])


def test_poisson_weight_columns_are_the_scalar_weights():
    a = (1e-3, 0.7, 26.2, 244.9)
    cols = _poisson_weights(np.array(a), 512)
    assert cols.shape == (513, 4)
    for k, x in enumerate(a):
        want = _poisson_weights(np.array([x]), 512)[:, 0]
        assert np.all(np.abs(cols[:, k] - want) <= np.spacing(want))


def test_level_pmf_normalizes_at_zero_time():
    # at t = 0 no level jump has come: the level pmf is column 0 of the
    # table, the unit mass at n = 0
    plevel = _tables(FIG1, 0.9, 32)[0][:, 0]
    assert plevel[0] == 1.0
    assert_allclose(plevel[1:], 0.0, atol=1e-15)


class TestLevelTables:
    """The nonnegative level table against the paper's signed formula."""

    @pytest.mark.parametrize("alpha", (0.3, 0.5, 0.9))
    def test_level_pmf_matches_the_signed_formula_at_small_t(self, alpha):
        # the signed route is good in doubles while Lambda^alpha t is small
        for t in (0.5, 2.0, 10.0):
            model = ShockModel(FIG1, alpha, Geometric(0.5))
            want = oracles.signed_level_pmf(FIG1, alpha, t, 32)
            assert_allclose(oracles.table_level_pmf(model, t, 32), want, rtol=1e-10)

    @pytest.mark.parametrize("alpha", (0.3, 0.5, 0.9))
    def test_integrals_match_the_signed_formula(self, alpha):
        _, g = _tables(FIG1, alpha, 32)
        assert_allclose(g, oracles.signed_level_integrals(FIG1, alpha, 32), rtol=1e-10)

    @pytest.mark.parametrize("alpha, t", [(0.05, 20.0), (0.3, 20.0), (0.5, 50.0)])
    def test_level_pmf_matches_mpmath_at_large_t(self, alpha, t):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            want = [float(p) for p in oracles.mp_level_pmf(mpmath, FIG1, alpha, t, 32)]
        got = oracles.table_level_pmf(ShockModel(FIG1, alpha, Geometric(0.5)), t, 32)
        assert_allclose(got, want, rtol=1e-13)
        if alpha == 0.05:
            # the signed route in doubles cancels: 1.1e-3 off at level 32
            signed = oracles.signed_level_pmf(FIG1, alpha, t, 32)
            assert abs(signed[32] - want[32]) > 1e-4 * want[32]

    def test_entries_are_probabilities(self):
        table, g = _tables(figure_rates(2), 0.4, 64)
        assert table.min() >= 0.0 and g.min() > 0.0
        # column m is the law of m level jumps, cut at level 64
        assert np.all(table.sum(axis=0) <= 1.0 + 1e-15)
        assert np.all(np.triu(table, 1) == 0.0)

    @pytest.mark.parametrize("nmax", (32, 64, 128, 512))
    @pytest.mark.parametrize("alpha", (0.05, 0.5, 0.95))
    @pytest.mark.parametrize("rates", (FIG1, FIG2, Q3), ids=("fig1", "fig2", "q3"))
    def test_table_matches_the_convolution_recursion(self, rates, alpha, nmax):
        table, g = _tables(rates, alpha, nmax)
        want, want_g = oracles.convolution_level_table(rates, alpha, nmax)
        assert np.all(np.triu(table, 1) == 0.0)
        # the doubling sums each entry in another order.  Below 1e-300 the
        # terms pass through subnormals, which keep fewer digits or flush
        # to 0: at alpha = 0.05 and nmax = 512 about 2,100 entries that are
        # subnormal or 0 in the recursion differ, so entries below 1e-300
        # are only held below 1e-299
        normal = want >= 1e-300
        assert_allclose(table[normal], want[normal], rtol=1e-13)
        assert np.all(table[~normal] < 1e-299)
        assert_allclose(g, want_g, rtol=1e-13)

    @pytest.mark.parametrize("nmax", (64, 512))
    def test_a_rebuilt_table_is_bit_identical(self, nmax):
        # the benchmark rebuilds tables on every pass and requires the
        # same outputs from each
        first = _tables(Q3, 0.05, nmax)
        shock._tables.cache_clear()
        compositions._profile.cache_clear()
        second = _tables(Q3, 0.05, nmax)
        assert second is not first
        np.testing.assert_array_equal(second[0], first[0])
        np.testing.assert_array_equal(second[1], first[1])

    def test_table_cache_keeps_its_statistics(self):
        # the benchmark reads the table cache statistics on every pass
        info = shock._tables.cache_info()
        assert info.maxsize == 32

    def test_tails_are_computed_once_per_law(self, monkeypatch):
        calls = []

        def counting(d, n):
            calls.append(n)
            return threshold_tail(d, n)

        monkeypatch.setattr(shock, "threshold_tail", counting)
        shock._tail_values.cache_clear()
        # the table route reads the tails of a CustomThreshold
        model = ShockModel(FIG1, 0.7, twin(Logarithmic(0.37)))
        first = reliability_curve(model, range(11)), prob_failure_type(model, 0)
        assert calls
        del calls[:]
        again = reliability_curve(model, range(11)), prob_failure_type(model, 0)
        assert again == first and calls == []
        # the named law's mixture route reads no tail at all
        model = ShockModel(FIG1, 0.7, Logarithmic(0.37))
        del calls[:]
        first = reliability_curve(model, range(11)), prob_failure_type(model, 0)
        again = reliability_curve(model, range(11)), prob_failure_type(model, 0)
        assert again == first and calls == []


class TestHazardRate:
    def test_constant_in_state_and_time(self):
        for i, l in ((0, 1), (1, 1), (1, 2)):
            jump = tuple(l if r == i else 0 for r in range(2))
            want = variant_transition_rate(Mgsfcp(MODEL.alpha), FIG1, jump)
            for nbar in ((0, 0), (1, 2), (3, 1)):
                for t in (0.5, 2.0):
                    assert_allclose(
                        hazard_rate(MODEL, i, l, nbar, t), want, rtol=1e-9
                    )

    def test_domain(self):
        with pytest.raises(ValueError):
            hazard_rate(MODEL, 2, 1, (0, 0), 1.0)
        with pytest.raises(ValueError):
            hazard_rate(MODEL, 0, 2, (0, 0), 1.0)
        with pytest.raises(ValueError):
            hazard_rate(MODEL, 0, 1, (0, 0), 0.0)

    def test_state_entries_of_any_integer_type(self):
        want = hazard_rate(MODEL, 1, 2, (3, 1), 2.0)
        assert hazard_rate(MODEL, 1, 2, (np.int64(3), np.int64(1)), 2.0) == want
        with pytest.raises(ValueError, match="state entries must be integers"):
            hazard_rate(MODEL, 1, 2, (3.0, 1), 2.0)


class TestReliability:
    def test_starts_at_one_and_decreases(self):
        ts = [0.0, 0.5, 1.0, 2.0, 4.0]
        vals = [reliability(MODEL, t) for t in ts]
        assert vals[0] == pytest.approx(1.0, abs=1e-12)
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(0.0 < v <= 1.0 for v in vals)

    def test_matches_direct_threshold_sum(self):
        t = 1.2
        direct = sum(
            threshold_tail(MODEL.threshold, n)
            * sum(
                variant_pmf(Mgsfcp(MODEL.alpha), FIG1, (n1, n - n1), t)
                for n1 in range(n + 1)
            )
            for n in range(28)
        )
        # geometric tails make the remainder below 0.5^28 ~ 4e-9
        assert_allclose(reliability(MODEL, t), direct, atol=1e-8)

    def test_deterministic_unit_threshold(self):
        # N = 1: the system dies at the first shock, L(t) = P{no shock}
        model = ShockModel(FIG1, 0.7, CustomThreshold((1.0,)))
        for t in (0.3, 1.0, 2.5):
            assert_allclose(
                reliability(model, t),
                variant_pmf(Mgsfcp(0.7), FIG1, (0, 0), t),
                rtol=1e-12,
            )

    def test_domain(self):
        with pytest.raises(ValueError):
            reliability(MODEL, -0.5)

    @pytest.mark.parametrize("which", (1, 2))
    @pytest.mark.parametrize("alpha", (0.5, 0.9))
    def test_matches_the_geometric_closed_form_at_large_t(self, which, alpha):
        # L(t) = pgf of the total count at u = 1 - p:
        # exp(-t (Lambda - sum_j pooled_j u^j)^alpha)
        rates = figure_rates(which)
        pooled = oracles.pooled_row(rates).rows[0]
        symbol = rates.total - sum(lam * 0.5**j for j, lam in enumerate(pooled, start=1))
        for law in (twin(Geometric(0.5)), Geometric(0.5)):
            model = ShockModel(rates, alpha, law)
            for t in (30.0, 50.0, 200.0):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    got = reliability(model, t)
                assert got == pytest.approx(math.exp(-t * symbol**alpha), rel=1e-12, abs=0.0)
                # on the table route the bound q_513 P{total > 512} on the
                # dropped mass is 2e-11 of L(200) at the figure-2 rates with
                # alpha = 0.9: only that sum stops at the cap, and it says
                # so.  The named law's mixture route has no cap and no warning
                capped = law != Geometric(0.5) and (which, alpha, t) == (2, 0.9, 200.0)
                assert [w.category for w in caught] == [TruncationWarning] * capped

    @pytest.mark.parametrize(
        "alpha, t, value", [(0.9, 30.0, 2.7958900182619e-12), (0.5, 200.0, 5.6356263048878e-82)]
    )
    def test_large_t_within_2e_14_of_the_closed_form(self, alpha, t, value):
        # fig1 pooled by jump size is [1.0, 0.5], so at u = 1 - p = 0.5
        # L(t) = exp(-t 0.875^alpha), here in mpmath
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            want = mpmath.exp(-t * mpmath.mpf(0.875) ** mpmath.mpf(alpha))
        got = reliability(ShockModel(FIG1, alpha, Geometric(0.5)), t)
        assert abs(got - want) <= 2e-14 * want
        assert got == pytest.approx(value, rel=1e-13, abs=0.0)

    def test_value_below_double_range(self):
        # at t = 1e5 the level pmf lies past the largest table: the sum
        # over n <= 512 underflows to 0 while the mass it cannot see may
        # be up to q_513, so the value is unknown and the call names t
        with pytest.raises(ValueError, match=r"t = 100000\.0 is too large"):
            reliability(ShockModel(FIG1, 0.5, twin(Geometric(0.5))), 1e5)
        # the mixture route takes the closed form exp(-t 0.875^0.5),
        # which underflows to 0.0, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert reliability(ShockModel(FIG1, 0.5, Geometric(0.5)), 1e5) == 0.0
        # a threshold with q_1 = 0 leaves nothing past n = 0: L(t) is
        # P{no shock} = exp(-t Lambda^alpha), which underflows to 0.0
        assert reliability(ShockModel(FIG1, 0.5, Geometric(1.0)), 1e5) == 0.0
        assert reliability(ShockModel(FIG1, 0.5, Geometric(1.0)), 400.0) == pytest.approx(
            math.exp(-400.0 * 1.5**0.5), rel=1e-13, abs=0.0
        )

    def test_slow_threshold_warns_at_cap(self):
        model = ShockModel(FIG1, 0.9, twin(Geometric(1e-4)))
        with pytest.warns(TruncationWarning):
            reliability(model, 1.0)
        # the mixture route reads the geometric law as its atom at 1 - p:
        # L(1) = exp(-c^0.9), c = sum_j pooled_j (1 - (1 - p)^j) = 2p - p^2/2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = reliability(ShockModel(FIG1, 0.9, Geometric(1e-4)), 1.0)
        assert got == pytest.approx(math.exp(-(2e-4 - 0.5e-8) ** 0.9), rel=1e-14, abs=0.0)

    def test_failure_density_keeps_its_mass_at_large_t(self):
        # the untruncated 512-level sum h_0(t) = J_0(1) sum_n p_n
        # P{total = n - 1} (component 0 has k_0 = 1) at t = 50, against the
        # mixture route
        model = ShockModel(FIG1, 0.5, Geometric(0.5))
        plevel = oracles.table_level_pmf(model, 50.0, 512)
        jump = variant_transition_rate(Mgsfcp(0.5), FIG1, (1, 0))
        want = jump * math.fsum(
            threshold_pmf(model.threshold, n) * plevel[n - 1] for n in range(1, 514)
        )
        assert want == pytest.approx(4.9728e-22, rel=1e-4)
        assert failure_density(model, 0, 50.0) == pytest.approx(want, rel=1e-12, abs=0.0)


class TestFailureSplit:
    def test_density_integrates_to_type_probability(self):
        """Two independent routes: time quadrature vs the analytic
        termwise integral, the kernel 1 / c(x)^alpha of the mixture route
        and 1 / Lambda^alpha of the table route."""
        models = (
            MODEL,
            ShockModel(FIG1, 0.9, CustomThreshold((1.0, 0.6, 0.2))),
            ShockModel(FIG1, 0.9, twin(Logarithmic(0.5), 300)),
        )
        for model in models:
            for i in (0, 1):
                want = prob_failure_type(model, i)
                got, err = integrate.quad(
                    lambda t: failure_density(model, i, t), 0.0, np.inf, limit=100
                )
                assert err < 1e-8
                assert_allclose(got, want, atol=1e-6)

    def test_type_probabilities_sum_below_one(self):
        # simultaneous multi-component jumps carry the missing mass, so
        # the two single-type probabilities cannot reach 1 for alpha < 1
        total = prob_failure_type(MODEL, 0) + prob_failure_type(MODEL, 1)
        assert 0.5 < total < 1.0

    def test_sum_approaches_one_as_alpha_to_one(self):
        def deficit(alpha):
            m = ShockModel(FIG1, alpha, Geometric(0.5))
            return 1.0 - (prob_failure_type(m, 0) + prob_failure_type(m, 1))

        d = [deficit(a) for a in (0.5, 0.9, 0.999)]
        assert d[0] > d[1] > d[2] > 0.0
        assert d[2] < 0.01

    def test_density_positive_and_domain(self):
        assert failure_density(MODEL, 0, 1.0) > 0.0
        with pytest.raises(ValueError):
            failure_density(MODEL, 3, 1.0)
        with pytest.raises(ValueError):
            failure_density(MODEL, 0, 0.0)
        with pytest.raises(ValueError):
            prob_failure_type(MODEL, -1)


class TestFigurePresets:
    def test_rates(self):
        assert figure_rates(1) == RateMatrix([[0.5], [0.5, 0.5]])
        assert figure_rates(2) == RateMatrix([[1.0], [1.0, 1.0]])
        with pytest.raises(ValueError):
            figure_rates(3)

    def test_curve_general(self):
        pts = reliability_curve(MODEL, [0.0, 1.0, 2.0])
        assert [t for t, _ in pts] == [0.0, 1.0, 2.0]
        assert pts[0][1] == pytest.approx(1.0, abs=1e-12)
        assert pts[1][1] > pts[2][1]

    @pytest.mark.parametrize("which", (1, 2))
    @pytest.mark.parametrize("law", LAWS, ids=lambda d: type(d).__name__)
    @pytest.mark.parametrize("alpha", (0.05, 0.5, 0.95))
    def test_curve_is_the_pointwise_reliability(self, which, law, alpha):
        model = ShockModel(figure_rates(which), alpha, law)
        grid = [float(t) for t in range(11)]
        pts = reliability_curve(model, grid)
        assert [t for t, _ in pts] == grid
        got = np.array([value for _, value in pts])
        want = np.array([reliability(model, t) for t in grid])
        assert np.all(np.abs(got - want) <= 4 * np.spacing(want))

    @pytest.mark.parametrize(
        "law", (Logarithmic(0.5), twin(Logarithmic(0.5))), ids=("named", "custom")
    )
    @pytest.mark.parametrize(
        "grid",
        ([], [0.0, 0.0, 0.0], [0, 1, 2, 5], np.array([0.5, 1.0, 3.0, 0.0])),
        ids=("empty", "zeros", "ints", "array"),
    )
    def test_grids_of_any_form_are_the_pointwise_reliability(self, law, grid):
        model = ShockModel(FIG1, 0.5, law)
        floats = [float(t) for t in grid]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pts = reliability_curve(model, grid)
            same = reliability_curve(model, floats)
            pointwise = [reliability(model, t) for t in grid]
        assert [t for t, _ in pts] == floats
        assert all(type(t) is float and type(v) is float for t, v in pts)
        assert [v.hex() for _, v in pts] == [v.hex() for _, v in same]
        assert [v for t, v in pts if t == 0.0] == [1.0] * floats.count(0.0)
        got = [v for _, v in pts]
        if law.mixture() is None:
            # the table route sums each t's own row of terms
            assert [v.hex() for v in got] == [v.hex() for v in pointwise]
        else:
            # a product over several t may round apart from a product over one
            assert np.all(np.abs(np.subtract(got, pointwise)) <= 4 * np.spacing(pointwise))

    def test_curve_raises_for_the_same_t(self):
        model = ShockModel(FIG1, 0.5, twin(Geometric(0.5)))
        with pytest.raises(ValueError, match=r"t = 100000\.0 is too large"):
            reliability_curve(model, [1.0, 2.0, 1e5])
        # a grid stops at its first t that fails, in grid order
        with pytest.raises(ValueError, match=r"t = 100000\.0 is too large"):
            reliability_curve(model, [1.0, 1e5, math.inf])
        with pytest.raises(ValueError, match="t = inf"):
            reliability_curve(model, [1.0, math.inf, 1e5])
        with pytest.raises(ValueError, match="non-negative"):
            reliability_curve(model, [1.0, -0.5])
        # the mixture route returns the closed form exp(-t 0.875^0.5) at
        # every finite t, and names the first bad t in grid order
        model = ShockModel(FIG1, 0.5, Geometric(0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pts = reliability_curve(model, [1.0, 2.0, 1e5])
        want = [math.exp(-t * 0.875**0.5) for t in (1.0, 2.0, 1e5)]
        assert [v for _, v in pts] == pytest.approx(want, rel=1e-14, abs=0.0)
        with pytest.raises(ValueError, match="t = inf"):
            reliability_curve(model, [1.0, math.inf, 1e5])
        with pytest.raises(ValueError, match="non-negative"):
            reliability_curve(model, [1.0, -0.5])

    def test_curve_warns_once_per_unconverged_t_in_grid_order(self):
        # the mixture route converges at every t, with the closed form
        named = ShockModel(FIG1, 0.9, Geometric(1e-4))
        grid = [0.0, 0.5, 1.0, 3.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pts = reliability_curve(named, grid)
        want = [math.exp(-t * (2e-4 - 0.5e-8) ** 0.9) for t in grid]
        assert [v for _, v in pts] == pytest.approx(want, rel=1e-14, abs=0.0)
        model = ShockModel(FIG1, 0.9, twin(Geometric(1e-4)))
        pointwise = []
        for t in grid:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                reliability(model, t)
            pointwise.append([str(w.message) for w in caught])
        # t = 0 converges at once, every later t stops at the cap
        assert [len(m) for m in pointwise] == [0, 1, 1, 1]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            reliability_curve(model, grid)
        assert [str(w.message) for w in caught] == sum(pointwise, [])
        assert all(w.category is TruncationWarning for w in caught)
        # each warning names the line that called reliability_curve
        assert all(w.filename == __file__ for w in caught)

    def test_zero_time_inside_a_grid_is_exact(self):
        model = ShockModel(figure_rates(2), 0.5, Logarithmic(0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            pts = reliability_curve(model, [0.0, 0.5, 0.0, 1.0])
        assert pts[0][1] == pts[2][1] == 1.0
        assert 0.0 < pts[3][1] < pts[1][1] < 1.0

    def test_curve_case_validation(self):
        with pytest.raises(ValueError):
            reliability_curve(MODEL, [1.0], case="fig9")
        with pytest.raises(ValueError):
            # fig2 pairs with the logarithmic threshold
            reliability_curve(MODEL, [1.0], case="fig2")
        one = ShockModel(RateMatrix([[1.0]]), 0.9, Geometric(0.5))
        with pytest.raises(ValueError):
            reliability_curve(one, [1.0], case="fig1")

    def test_fig1_survival_increases_with_alpha(self):
        t = 2.0
        vals = [
            reliability(ShockModel(FIG1, a, Geometric(0.5)), t)
            for a in (0.3, 0.6, 0.9)
        ]
        assert vals[0] < vals[1] < vals[2]


def test_infinite_time_is_rejected_naming_t():
    with pytest.raises(ValueError, match="t = inf"):
        reliability(MODEL, math.inf)
    with pytest.raises(ValueError, match="t = inf"):
        failure_density(MODEL, 0, math.inf)


def test_nan_time_is_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        reliability(MODEL, math.nan)
    with pytest.raises(ValueError, match="positive"):
        failure_density(MODEL, 0, math.nan)
    with pytest.raises(ValueError, match="positive"):
        hazard_rate(MODEL, 0, 1, (0, 0), math.nan)


class TestMixtureRoute:
    """The named laws as mixtures of geometric laws, q_n = int x^n mu(dx)."""

    @pytest.mark.parametrize("law", LAWS[1:] + (IncGamma(0.2, 1.0),), ids=repr)
    def test_mixture_moments_are_the_tails(self, law):
        mu = law.mixture()
        for n in (1, 2, 5, 20):
            want, _ = integrate.quad(
                lambda x: x**n * mu.density(x, 1.0 - x), mu.a, mu.p, epsabs=0.0, epsrel=1e-13
            )
            assert_allclose(threshold_tail(law, n), want, rtol=1e-11)

    def test_geometric_is_one_atom_and_custom_has_none(self):
        assert Geometric(0.25).mixture() == shock.Atom(0.25)
        assert CustomThreshold((1.0, 0.5)).mixture() is None

    @pytest.mark.parametrize("alpha", (0.05, 0.5, 0.95))
    @pytest.mark.parametrize("law", LAWS, ids=lambda d: type(d).__name__)
    @pytest.mark.parametrize("which", (1, 2))
    def test_matches_the_table_route(self, which, law, alpha):
        # the first 200 tails hold all but q_200 <= 0.5^200 of each law, and
        # with q_n = 0 past them every table-route series ends by n = 256
        named = ShockModel(figure_rates(which), alpha, law)
        table = ShockModel(figure_rates(which), alpha, twin(law, 200))
        grid = [float(t) for t in range(11)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [v for _, v in reliability_curve(named, grid)]
            want = [v for _, v in reliability_curve(table, grid)]
            assert_allclose(got, want, rtol=1e-12, atol=0.0)
            for i in range(2):
                assert_allclose(
                    prob_failure_type(named, i), prob_failure_type(table, i), rtol=1e-12, atol=0.0
                )
                for t in grid[1:]:
                    assert_allclose(
                        failure_density(named, i, t),
                        failure_density(table, i, t),
                        rtol=1e-12,
                        atol=0.0,
                    )

    def test_baseline_rows_match_their_true_values(self):
        mpmath = pytest.importorskip("mpmath")

        def geometric(alpha, t, c):
            # the atom at u = 1 - p: L(t) = exp(-t c^alpha), c = c(u)
            with mpmath.workdps(40):
                return mpmath.exp(-t * mpmath.mpf(c) ** mpmath.mpf(alpha))

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # fig2 at u = 0.5: c = 3 - 1 - 0.5 - 0.25 = 1.75; the fatal
            # type-0 jumps have rate J_0(1) and chance 1 - u = 0.5
            model = ShockModel(FIG2, 0.9, Geometric(0.5))
            jump = variant_transition_rate(Mgsfcp(0.9), FIG2, (1, 0))
            got = failure_density(model, 0, 10.0)
            assert abs(got - jump * 0.5 * geometric(0.9, 10.0, 1.75)) <= 1e-10 * got
            assert got == pytest.approx(2.6241083846938824e-08, rel=1e-10, abs=0.0)
            # fig1 at u = 0.5: c = 0.875
            model = ShockModel(FIG1, 0.5, Geometric(0.5))
            jump = variant_transition_rate(Mgsfcp(0.5), FIG1, (1, 0))
            got = failure_density(model, 0, 50.0)
            assert abs(got - jump * 0.5 * geometric(0.5, 50.0, 0.875)) <= 1e-10 * got
            assert got == pytest.approx(4.972787835102395e-22, rel=1e-10, abs=0.0)
            got = reliability(model, 400.0)
            assert abs(got - geometric(0.5, 400.0, 0.875)) <= 1e-10 * got
            assert got == pytest.approx(3.176028384834194e-163, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize(
        "alpha, t, value", [(0.5, 10.0, 0.006116867035348342), (0.1, 400.0, 1.0070214623868089e-20)]
    )
    def test_cusp_at_p_one_matches_mpmath(self, alpha, t, value):
        # IncGamma(0, 1) on fig1: L(t) = int_0^1 exp(-t c(x)^alpha) e^-x dx
        # / (1 - e^-1), with G_t's layer at 1 - x ~ 1e-17 for alpha = 0.1
        # at t = 400.  mpmath integrates over the gap d = 1 - x, with
        # c = sum_j pooled_j (1 - (1 - d)^j) and breakpoints 10^-k
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            a = mpmath.mpf(alpha)

            def integrand(d):
                c = -mpmath.expm1(mpmath.log1p(-d)) - 0.5 * mpmath.expm1(2 * mpmath.log1p(-d))
                return mpmath.exp(-t * c**a - (1 - d))

            cuts = [mpmath.mpf(0)] + [mpmath.mpf(10) ** -k for k in range(40, -1, -2)]
            want = mpmath.quad(integrand, cuts) / (1 - mpmath.exp(-1))
        assert abs(value - want) <= 1e-15 * want
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = reliability(ShockModel(FIG1, alpha, IncGamma(0.0, 1.0)), t)
        assert abs(got - want) <= 1e-10 * want

    @pytest.mark.parametrize("alpha", (0.05, 0.5, 0.95))
    @pytest.mark.parametrize("which", (1, 2))
    def test_no_warning_up_to_t_400(self, which, alpha):
        grid = [0.0, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 200.0, 400.0]
        for law in LAWS + (IncGamma(0.0, 1.0), SineIntegral(0.0, 1.0)):
            model = ShockModel(figure_rates(which), alpha, law)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                values = [v for _, v in reliability_curve(model, grid)]
                split = [prob_failure_type(model, i) for i in range(2)]
                densities = [failure_density(model, i, t) for i in range(2) for t in grid[1:]]
            assert all(0.0 <= v <= 1.0 for v in values)
            assert all(b <= a for a, b in zip(values, values[1:]))
            assert 0.0 < math.fsum(split) < 1.0
            assert all(d >= 0.0 for d in densities)

    @pytest.mark.parametrize("alpha", (0.05, 0.5, 0.95))
    @pytest.mark.parametrize("which", (1, 2))
    def test_extreme_times_stay_probabilities(self, which, alpha):
        for law in LAWS + (IncGamma(0.0, 1.0), SineIntegral(0.0, 1.0), Geometric(1.0)):
            model = ShockModel(figure_rates(which), alpha, law)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                values = [reliability(model, t) for t in (1e-300, 1e-12, 1e5)]
            assert all(0.0 <= v <= 1.0 for v in values)
            assert values[0] >= values[1] >= values[2]

    def test_a_subnormal_value_needs_no_relative_accuracy(self):
        # L(1000) is about 1.3e-316: its terms keep a few digits each, so
        # the error check holds it to the smallest normal double instead
        model = ShockModel(FIG1, 0.99, SineIntegral(0.5, 0.6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = reliability(model, 1000.0)
            density = failure_density(model, 0, 1000.0)
        assert 0.0 < value < 1e-310 and 0.0 < density < value

    @pytest.mark.parametrize(
        "model, outputs",
        [
            (
                ShockModel(FIG2, 0.3, IncGamma(0.0, 1.0)),
                lambda model: (
                    reliability_curve(model, [0.0, 0.5, 10.0, 400.0]),
                    prob_failure_type(model, 1),
                    failure_density(model, 1, 2.0),
                ),
            ),
            # one case per entry point that steps past 2^-4: the curve at
            # t = 50, the split and the density near the cusp at p = 1
            (
                ShockModel(FIG1, 0.5, IncGamma(0.0, 1.0)),
                lambda model: reliability_curve(model, [0.5, 5.0, 50.0]),
            ),
            (ShockModel(FIG1, 0.5, Logarithmic(0.99)), lambda model: prob_failure_type(model, 1)),
            (
                ShockModel(FIG1, 0.5, Logarithmic(0.999999)),
                lambda model: failure_density(model, 1, 5.0),
            ),
        ],
        ids=["fig2-incgamma", "curve", "split", "density"],
    )
    def test_outputs_repeat_whatever_the_memo_state(self, model, outputs):
        shock._weighted_rule.cache_clear()
        shock._jump_rates.cache_clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            first = outputs(model)
            # the steps 2^-4 and 2^-5 at least
            assert shock._weighted_rule.cache_info().currsize >= 2
            assert outputs(model) == first
            shock._weighted_rule.cache_clear()
            assert outputs(model) == first
        if isinstance(first, list):
            # each t of the curve steps on its own, as reliability does
            got = np.array([value for _, value in first])
            want = np.array([reliability(model, t) for t, _ in first])
            assert np.all(np.abs(got - want) <= 4 * np.spacing(want))

    def test_the_finest_step_warns_with_its_estimate(self):
        # the layer of Logarithmic(1 - 1e-12) at its cusp takes more than 2^-8
        model = ShockModel(FIG1, 0.95, Logarithmic(1.0 - 1e-12))
        slow = ShockModel(FIG1, 0.05, Logarithmic(1.0 - 1e-12))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            curve = reliability_curve(model, [0.0, 0.5, 50.0])
            split = prob_failure_type(model, 1)
            density = failure_density(slow, 1, 1e3)
        note = "mixture quadrature not converged at step 2^-8: the error estimate is %s of %s"
        assert [(w.category, str(w.message)) for w in caught] == [
            (TruncationWarning, note % ("1.1e-09", "L(t)")),
            (TruncationWarning, note % ("1.33e-09", "L(t)")),
            (TruncationWarning, note % ("4.98e-10", "Pr{type i}")),
            (TruncationWarning, note % ("3.56e-07", "h_i(t)")),
        ]
        assert all(w.filename == __file__ for w in caught)
        assert curve[0][1] == 1.0 and 0.0 < curve[2][1] < curve[1][1] < 1.0
        assert 0.0 < split < 1.0 and density > 0.0


class TestTableRouteStops:
    def test_density_stops_on_its_mass_bound(self):
        # the first 600 tails of geometric(0.5) on fig1 at t = 50: the
        # level pmf sits near n = 60, so the terms stay above 1e-12 of
        # the sum well past the absolute 1e-12 that used to stop it
        model = ShockModel(FIG1, 0.5, twin(Geometric(0.5)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = failure_density(model, 0, 50.0)
        assert got == pytest.approx(4.972787835102395e-22, rel=1e-10, abs=0.0)

    def test_density_warns_with_its_bound_at_the_cap(self):
        # the tails of IncGamma(0, 1) fall like 1/n: at n = 513 the bound
        # J_0 q_513 P{total > 512} is 1e-3 of h_0(2), above 1e-13 of it
        # but below the value, so the sum stops there with a warning
        model = ShockModel(FIG1, 0.5, twin(IncGamma(0.0, 1.0)))
        with pytest.warns(TruncationWarning, match=r"at most 0.00108 of h_i\(t\)"):
            got = failure_density(model, 0, 2.0)
        named = failure_density(ShockModel(FIG1, 0.5, IncGamma(0.0, 1.0)), 0, 2.0)
        assert 0.0 < got <= named
        assert named - got <= 0.00108 * got

    def test_a_bound_above_its_value_raises(self):
        # q_n of geometric(1e-4) is still 0.95 at n = 513: past the 512
        # levels J_0(1) q_513 / Lambda^alpha may add 0.285 to a split of
        # 0.00646, and J_0 q_513 P{total > 512} more than the density
        model = ShockModel(FIG1, 0.9, twin(Geometric(1e-4)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"Pr\{type i\} is out of reach .* up to 0\.284997"):
                prob_failure_type(model, 0)
            with pytest.raises(ValueError, match=r"t = 1\.0 is too large for the threshold series"):
                failure_density(model, 0, 1.0)

    def test_split_bound_is_the_telescoped_tail(self):
        # past N = 512 the split's weights sum to suffix[0] q_513 + ... +
        # suffix[k_i - 1] q_(512 + k_i): 5.63e-12 of either split for the
        # first 600 tails of geometric(0.05), where J_i sum_(S>512) q_S
        # read 1.1e-10 and 7.5e-11; a 640-level table holds every tail,
        # and the mass it adds stays under the bound
        model = ShockModel(FIG1, 0.95, twin(Geometric(0.05)))
        _, g = _tables(FIG1, 0.95, 640)
        q = np.zeros(650)
        q[:600] = model.threshold.q
        for i in (0, 1):
            with pytest.warns(TruncationWarning, match=r"at most 5\.63e-12 of Pr\{type i\}"):
                got = prob_failure_type(model, i)
            js = shock._jump_rates(FIG1, 0.95)[i][0]
            w = sum(j * (q[:641] - q[l : l + 641]) for l, j in enumerate(js, 1))
            assert 0.0 < float(w @ g) - got <= 5.63e-12 * got

    def test_split_of_a_finite_threshold_is_exact(self):
        # q_n = 0 from n = 3 on: the series has three terms, read whole
        model = ShockModel(FIG1, 0.5, CustomThreshold((1.0, 0.6, 0.2)))
        suffix = shock._jump_rates(FIG1, 0.5)[1][1]
        _, g = _tables(FIG1, 0.5, 32)
        p = (0.4, 0.4, 0.2)
        want = math.fsum(
            p[n - 1] * g[s] * suffix[n - s - 1]
            for n in (1, 2, 3)
            for s in range(max(0, n - 2), n)
        )
        assert prob_failure_type(model, 1) == pytest.approx(want, rel=1e-14, abs=0.0)


class TestJumpRateMemo:
    def test_a_second_pass_over_an_alpha_sweep_misses_nothing(self):
        # 19 alphas on two rate matrices: one entry per (rates, alpha) holds
        # every component's jump rates
        models = [
            ShockModel(rates, round(0.05 * k, 2), Geometric(0.5))
            for rates in (FIG1, FIG2)
            for k in range(1, 20)
        ]

        def sweep():
            for model in models:
                for i in range(model.rates.q):
                    failure_density(model, i, 1.0)
                    prob_failure_type(model, i)

        shock._weighted_rule.cache_clear()
        shock._jump_rates.cache_clear()
        sweep()
        assert shock._jump_rates.cache_info().misses == len(models)
        sweep()
        assert shock._jump_rates.cache_info().misses == len(models)


def per_call_sum(model, coef, kernel):
    """One mixture integral formed afresh at each level, as without the weighted-rule memo.

    The rule from _mixture_rule, its weights coef @ pairs and c(x)^alpha,
    the step halving from 2^-4 until the full and coarse sums agree
    within 1e-13 or the step is 2^-8.
    """
    for level in range(shock._LEVEL_START, shock._LEVEL_CAP + 1):
        rule = shock._mixture_rule(model.rates, model.threshold, level)
        weights = (coef @ rule.pairs[: len(coef)]).reshape(-1, 2)
        ((full, coarse),) = (kernel(rule.c**model.alpha) @ weights).tolist()
        if abs(full - coarse) <= shock._QUAD_TOL * abs(full) + shock._QUAD_FLOOR:
            break
    return full


class TestWeightedRuleMemo:
    def test_a_second_sweep_adds_no_miss(self):
        # 19 alphas on two rate matrices with each of the four laws: every
        # (model, level) the first sweep reads stays in the memo
        models = [
            ShockModel(rates, round(0.05 * k, 2), law)
            for rates in (FIG1, FIG2)
            for k in range(1, 20)
            for law in LAWS
        ]

        def sweep():
            for model in models:
                reliability_curve(model, [0.0, 1.0, 10.0])
                for i in range(model.rates.q):
                    prob_failure_type(model, i)
                    failure_density(model, i, 2.0)

        shock._weighted_rule.cache_clear()
        sweep()
        first = shock._weighted_rule.cache_info()
        assert first.misses >= len(models)
        assert first.currsize == first.misses
        sweep()
        assert shock._weighted_rule.cache_info().misses == first.misses

    @pytest.mark.parametrize("cold", [True, False], ids=["cold", "warm"])
    @pytest.mark.parametrize("alpha", (0.05, 0.5, 0.95))
    @pytest.mark.parametrize("rates", (FIG1, Q3), ids=("fig1", "q3"))
    def test_values_equal_the_per_call_arithmetic(self, rates, alpha, cold):
        laws = LAWS + (IncGamma(0.0, 1.0), SineIntegral(0.2, 0.9), Logarithmic(1e-200))
        for law in laws:
            model = ShockModel(rates, alpha, law)
            if cold:
                shock._weighted_rule.cache_clear()
            for t in (0.5, 10.0):
                want = per_call_sum(
                    model, np.ones(1), lambda c: np.exp(np.multiply.outer(-np.array([t]), c))
                )
                assert reliability(model, t) == min(want, 1.0), (law, t)
            for i in range(rates.q):
                coef = np.array((0.0,) + shock._jump_rates(rates, alpha)[i][0])
                want = per_call_sum(model, coef, lambda c: 1.0 / c[None, :])
                assert prob_failure_type(model, i) == want, (law, i)
                for t in (0.5, 10.0):
                    want = per_call_sum(model, coef, lambda c: np.exp(-t * c)[None, :])
                    assert failure_density(model, i, t) == want, (law, i, t)

    def test_entries_are_read_only(self):
        rule = shock._weighted_rule(ShockModel(Q3, 0.5, LAWS[1]), shock._LEVEL_START)
        assert len(rule.failure) == Q3.q
        for array in (rule.cpow, rule.split, rule.survival) + rule.failure:
            assert not array.flags.writeable


class TestNarrowThresholds:
    """Threshold laws whose mixing interval or normaliser is tiny."""

    @pytest.mark.parametrize("alpha", (0.05, 0.5, 0.95))
    @pytest.mark.parametrize(
        "law", (Logarithmic(1e-200), IncGamma(0.0, 1e-200), Logarithmic(1e-160)), ids=repr
    )
    def test_a_threshold_at_one_fails_at_the_first_shock(self, law, alpha):
        # N = 1 up to a chance below 1e-159: L(t) = exp(-t Lambda^alpha),
        # h_i(t) = J_i exp(-t Lambda^alpha) and Pr{type i} = J_i / Lambda^alpha
        model = ShockModel(FIG1, alpha, law)
        rate = FIG1.total**alpha
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = reliability_curve(model, [0.5, 1.0, 4.0])
            split = [prob_failure_type(model, i) for i in range(2)]
            density = failure_density(model, 1, 1.0)
        for t, value in curve:
            want = math.exp(-t * rate)
            assert abs(value - want) <= 1e-15 * want, t
        jumps = [math.fsum(shock._jump_rates(FIG1, alpha)[i][0]) for i in range(2)]
        for got, jump in zip(split, jumps):
            assert got == pytest.approx(jump / rate, rel=1e-13, abs=0.0)
        assert density == pytest.approx(jumps[1] * math.exp(-rate), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("p", (1e-4, 1e-8, 1e-12))
    def test_tails_match_mpmath(self, p):
        mpmath = pytest.importorskip("mpmath")
        for n in (1, 2, 5):
            with mpmath.workdps(50):
                want_gamma = float(oracles.mp_threshold_tail(mpmath, 0.0, p, n))
                want_sine = float(oracles.mp_sine_threshold_tail(mpmath, 0.0, p, n))
            got_gamma = threshold_tail(IncGamma(0.0, p), n)
            got_sine = threshold_tail(SineIntegral(0.0, p), n)
            assert abs(got_gamma - want_gamma) <= 1e-13 * want_gamma, n
            assert abs(got_sine - want_sine) <= 1e-13 * want_sine, n

    @pytest.mark.parametrize("width", (1e-12, 1e-8))
    def test_short_interval_tails_match_mpmath(self, width):
        # q^e - p^e cancels on (0.2, 0.2 + width): by direct subtraction
        # the tails were 6.0e-6 and 9.9e-6 off at width 1e-12
        mpmath = pytest.importorskip("mpmath")
        a, p = 0.2, 0.2 + width
        for n in (1, 2, 5, 40):
            with mpmath.workdps(50):
                want_gamma = float(oracles.mp_threshold_tail(mpmath, a, p, n))
                want_sine = float(oracles.mp_sine_threshold_tail(mpmath, a, p, n))
            got_gamma = threshold_tail(IncGamma(a, p), n)
            got_sine = threshold_tail(SineIntegral(a, p), n)
            assert abs(got_gamma - want_gamma) <= 1e-13 * want_gamma, n
            assert abs(got_sine - want_sine) <= 1e-13 * want_sine, n

    @pytest.mark.parametrize("law", (IncGamma(1e-20, 1.0), SineIntegral(1e-300, 0.5)), ids=repr)
    def test_small_left_end_tails_match_mpmath(self, law):
        # q - p rounds to q, so the share (q - p)/q is 1 and log1p(-1)
        # raised; the model's own probe of the tail raised with it
        mpmath = pytest.importorskip("mpmath")
        oracle = oracles.mp_threshold_tail if isinstance(law, IncGamma) else oracles.mp_sine_threshold_tail
        for n in (1, 2, 5, 40):
            with mpmath.workdps(50):
                want = float(oracle(mpmath, law.a, law.p, n))
            got = threshold_tail(law, n)
            assert abs(got - want) <= 1e-13 * want, n
        ShockModel(FIG1, 0.5, law)

    @pytest.mark.parametrize(
        "law", (IncGamma(0.0, 1e-200), Logarithmic(1e-200), IncGamma(0.0, 1e-160), Logarithmic(1e-160)),
        ids=repr,
    )
    def test_narrow_law_tails_match_mpmath(self, law):
        # p^(n+1) underflowed before the normaliser (about p) divided it,
        # so q_1 = 5e-201 read 0.0; a tail is 0 only below the subnormals,
        # and a subnormal one is off by at most one subnormal step
        mpmath = pytest.importorskip("mpmath")
        for n in (1, 2, 3):
            with mpmath.workdps(450):
                if isinstance(law, IncGamma):
                    want = oracles.mp_threshold_tail(mpmath, law.a, law.p, n)
                else:
                    want = oracles.mp_log_threshold_tail(mpmath, law.p, n)
            got = threshold_tail(law, n)
            if want >= sys.float_info.min:
                assert abs(got - want) <= 1e-13 * want, n
            elif want >= 2.0**-1074:
                assert 0.0 < got and abs(got - want) <= 2.0**-1074, n
            else:
                assert got == 0.0, n

    def test_survival_matches_the_table_route(self):
        # the mixture route against the tails summed by the table route
        for law in (IncGamma(0.0, 1e-12), SineIntegral(0.0, 1e-8)):
            model = ShockModel(FIG1, 0.5, law)
            twin_model = ShockModel(FIG1, 0.5, twin(law, 40))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = reliability(model, 1.0)
                want = reliability(twin_model, 1.0)
            assert got == pytest.approx(want, rel=1e-13, abs=0.0), law

    def test_a_normaliser_that_underflows_raises(self):
        # a subnormal normaliser keeps too few digits: SineIntegral(0, 1e-160)
        # gave q_1 = 6.66996e-161 against mpmath's 6.66667e-161
        mpmath = pytest.importorskip("mpmath")
        for law, args in ((SineIntegral, (0.0, 1e-200)), (SineIntegral, (0.0, 1e-160)),
                          (IncGamma, (0.0, 1e-310))):
            with pytest.raises(ValueError, match="underflows"):
                law(*args)
        with mpmath.workdps(400):
            want = float(oracles.mp_sine_threshold_tail(mpmath, 0.0, 1e-160, 1))
        assert want == pytest.approx(6.666666666666667e-161, rel=1e-15)
        for n in (1, 2, 5):
            with mpmath.workdps(400):
                want = float(oracles.mp_sine_threshold_tail(mpmath, 0.0, 1e-150, n))
            got = threshold_tail(SineIntegral(0.0, 1e-150), n)
            assert abs(got - want) <= 1e-13 * want, n
        assert IncGamma(0.0, 1e-200).mixture().density(0.0, 1.0) == pytest.approx(1e200)

    @pytest.mark.parametrize("p", (0.9999, 1.0 - 1e-6, 1.0 - 1e-9))
    def test_logarithmic_tails_near_one_match_mpmath(self, p):
        # the series of x^m / (n + 1 + m) needs more than 200000 terms here;
        # its partial sum plus the bound on the rest was up to 253 times
        # too large, and the model's probe of q_1 warned
        mpmath = pytest.importorskip("mpmath")
        for n in (1, 5, 50):
            with mpmath.workdps(50):
                want = float(oracles.mp_log_threshold_tail(mpmath, p, n))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = threshold_tail(Logarithmic(p), n)
            assert abs(got - want) <= 1e-13 * want, n
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ShockModel(FIG1, 0.5, Logarithmic(p))

    # q_n of Logarithmic(p) by float.hex, recorded before the tail series
    # learned to skip a sum that cannot stop within its 200000 terms; at
    # p = 0.999 the series still stops and sums
    LOG_TAILS = {
        0.999: ("0x1.b5f45bf2a8b0cp-1", "0x1.57216805b1950p-1", "0x1.6c5d14ca27e03p-2"),
        0.9999: ("0x1.c86a7625b9d98p-1", "0x1.811915f864a2fp-1", "0x1.062b0ca649a8ap-1"),
        1.0 - 1e-6: ("0x1.daf0b3a6e3c0cp-1", "0x1.ab615c896077ap-1", "0x1.594320f9b5c4cp-1"),
        1.0 - 1e-9: ("0x1.e74b20d1bbea0p-1", "0x1.c796359bc08bep-1", "0x1.90d71a73540e3p-1"),
    }

    @pytest.mark.parametrize("p", sorted(LOG_TAILS))
    def test_logarithmic_tails_near_one_keep_their_bits(self, p):
        got = tuple(threshold_tail(Logarithmic(p), n).hex() for n in (1, 5, 50))
        assert got == self.LOG_TAILS[p]

    def test_a_logarithmic_tail_that_cancels_raises(self):
        # at n = 20000 > 1 / (1 - p) the closed form loses its digits
        with pytest.raises(ValueError, match="cancels"):
            threshold_tail(Logarithmic(0.9999), 20000)


class TestComponentIndex:
    """A component index or jump size of any integer type; nothing else."""

    TABLE = ShockModel(FIG1, 0.9, CustomThreshold((1.0, 0.6, 0.2)))

    @pytest.mark.parametrize("i", (0.5, 1.0, np.float64(1.0), "1", None), ids=repr)
    @pytest.mark.parametrize("model", (MODEL, TABLE), ids=("mixture", "table"))
    def test_a_non_integer_index_raises_value_error(self, model, i):
        for call in (
            lambda: failure_density(model, i, 1.0),
            lambda: prob_failure_type(model, i),
            lambda: hazard_rate(model, i, 1, (1, 1), 1.0),
        ):
            with pytest.raises(ValueError, match="component index must be an integer"):
                call()
        with pytest.raises(ValueError, match="jump size must be an integer"):
            hazard_rate(model, 1, i, (1, 1), 1.0)

    @pytest.mark.parametrize("model", (MODEL, TABLE), ids=("mixture", "table"))
    def test_bools_and_numpy_ints_are_indices(self, model):
        for one in (True, np.int64(1), np.uint8(1)):
            assert failure_density(model, one, 1.0) == failure_density(model, 1, 1.0)
            assert prob_failure_type(model, one) == prob_failure_type(model, 1)
            got = hazard_rate(model, one, np.int32(2), (1, 1), 1.0)
            assert got == hazard_rate(model, 1, 2, (1, 1), 1.0)
        with pytest.raises(ValueError, match="out of range"):
            prob_failure_type(model, np.int64(2))


VARIANTS = (
    Mgcp(),
    Mgsfcp(0.7),
    Mgfcp(0.8),
    Mgstfcp(0.7, 0.8),
    Tempered(0.6, 1.0),
    GammaTC(1.0, 2.0),
    IgTC(1.0, 1.5),
)
THRESHOLDS = LAWS + (CustomThreshold((1.0, 0.6, 0.2)),)


def copies(value):
    """A pickle round trip and a deep copy of value."""
    return pickle.loads(pickle.dumps(value)), copy.deepcopy(value)


class TestCopies:
    """Rates, variants, laws and models survive pickle and deepcopy."""

    @pytest.mark.parametrize("value", (FIG1, Q3) + VARIANTS + THRESHOLDS, ids=repr)
    def test_values_round_trip(self, value):
        for dup in copies(value):
            assert dup == value and hash(dup) == hash(value) and repr(dup) == repr(value)

    def test_rates_round_trip_immutable(self):
        grid = [0.0, 0.5, 2.0, 10.0]
        want = [v.hex() for _, v in reliability_curve(ShockModel(FIG1, 0.5, LAWS[1]), grid)]
        for dup in copies(FIG1):
            assert dup is not FIG1 and (dup.q, dup.ks, dup.total) == (FIG1.q, FIG1.ks, FIG1.total)
            with pytest.raises(AttributeError, match="immutable"):
                dup.rows = ((1.0,),)
            curve = reliability_curve(ShockModel(dup, 0.5, LAWS[1]), grid)
            assert [v.hex() for _, v in curve] == want

    @pytest.mark.parametrize("law", THRESHOLDS, ids=repr)
    def test_models_round_trip(self, law):
        # the copy keeps the model's route: a named law read by the table
        # route would differ in its last bits
        model = ShockModel(FIG1, 0.5, law)
        grid = [0.0, 0.5, 2.0, 10.0]
        want = [v.hex() for _, v in reliability_curve(model, grid)]
        for dup in copies(model):
            assert dup is not model
            assert dup == model and hash(dup) == hash(model) and repr(dup) == repr(model)
            assert [v.hex() for _, v in reliability_curve(dup, grid)] == want
