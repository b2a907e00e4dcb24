"""Shock-model reliability: threshold laws, hazard, survival, failure split.

IncGamma frozen values come from /root/notes/oracles.py (mpmath at 50
digits); the other laws are checked against classical closed forms or
direct quadrature.  The level pmf is checked against the paper's signed
formula (tests/oracles.py) in doubles at small t and in mpmath at large t.
"""

import itertools
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate

import oracles
from mgcp import shock
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
    _level_pmf,
    _poisson_weights,
    _tables,
)
from mgcp.specfun import TruncationWarning
from mgcp.variants import Mgsfcp, variant_pmf, variant_transition_rate

FIG1 = figure_rates(1)
MODEL = ShockModel(FIG1, 0.9, Geometric(0.5))


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
        # oracle: incgamma(0, .5) tail q_1 / pmf n=1
        d = IncGamma(0.0, 0.5)
        assert_allclose(threshold_tail(d, 1), 0.22925295873160086, rtol=1e-13)
        assert_allclose(threshold_pmf(d, 1), 0.77074704126839914, rtol=1e-13)
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
    plevel = _level_pmf(MODEL, t, 32)
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
    got = _poisson_weights(a, 512)
    # the weights that carry the mass; at a = 244.9 the log-space form
    # exp(-a + n log a - log n!) is 4e-13 off there
    top = want >= 1e-3 * want.max()
    assert_allclose(got[top], want[top], rtol=2e-14)
    assert_allclose(got, want, rtol=1e-12, atol=1e-300)
    # below 15 levels the tabulated Stirling remainders alone are read
    np.testing.assert_array_equal(_poisson_weights(a, 8), got[:9])


def test_level_pmf_normalizes_at_zero_time():
    plevel = _level_pmf(MODEL, 0.0, 32)
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
            assert_allclose(_level_pmf(model, t, 32), want, rtol=1e-10)

    @pytest.mark.parametrize("alpha", (0.3, 0.5, 0.9))
    def test_integrals_match_the_signed_formula(self, alpha):
        _, g = _tables(FIG1, alpha, 32)
        assert_allclose(g, oracles.signed_level_integrals(FIG1, alpha, 32), rtol=1e-10)

    @pytest.mark.parametrize("alpha, t", [(0.05, 20.0), (0.3, 20.0), (0.5, 50.0)])
    def test_level_pmf_matches_mpmath_at_large_t(self, alpha, t):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            want = [float(p) for p in oracles.mp_level_pmf(mpmath, FIG1, alpha, t, 32)]
        got = _level_pmf(ShockModel(FIG1, alpha, Geometric(0.5)), t, 32)
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
        model = ShockModel(FIG1, 0.7, Logarithmic(0.37))
        first = reliability_curve(model, range(11)), prob_failure_type(model, 0)
        assert calls
        del calls[:]
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
        model = ShockModel(rates, alpha, Geometric(0.5))
        symbol = rates.total - sum(lam * 0.5**j for j, lam in enumerate(pooled, start=1))
        for t in (30.0, 50.0, 200.0):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = reliability(model, t)
            assert got == pytest.approx(math.exp(-t * symbol**alpha), rel=1e-12, abs=0.0)
            # the bound q_513 P{total > 512} on the dropped mass is 2e-11
            # of L(200) at the figure-2 rates with alpha = 0.9: only that
            # sum stops at the cap, and it says so
            capped = (which, alpha, t) == (2, 0.9, 200.0)
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
            reliability(ShockModel(FIG1, 0.5, Geometric(0.5)), 1e5)
        # a threshold with q_1 = 0 leaves nothing past n = 0: L(t) is
        # P{no shock} = exp(-t Lambda^alpha), which underflows to 0.0
        assert reliability(ShockModel(FIG1, 0.5, Geometric(1.0)), 1e5) == 0.0
        assert reliability(ShockModel(FIG1, 0.5, Geometric(1.0)), 400.0) == pytest.approx(
            math.exp(-400.0 * 1.5**0.5), rel=1e-13, abs=0.0
        )

    def test_slow_threshold_warns_at_cap(self):
        model = ShockModel(FIG1, 0.9, Geometric(1e-4))
        with pytest.warns(TruncationWarning):
            reliability(model, 1.0)


class TestFailureSplit:
    def test_density_integrates_to_type_probability(self):
        """Two independent routes: time quadrature vs the analytic
        termwise integral."""
        for i in (0, 1):
            want = prob_failure_type(MODEL, i)
            got, err = integrate.quad(
                lambda t: failure_density(MODEL, i, t), 0.0, np.inf, limit=100
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
