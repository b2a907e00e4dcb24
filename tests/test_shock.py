"""Shock-model reliability: threshold laws, hazard, survival, failure split.

IncGamma frozen values come from /root/notes/oracles.py (mpmath at 50
digits); the other laws are checked against classical closed forms or
direct quadrature.
"""

import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate

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


def test_level_pmf_normalizes_at_zero_time():
    plevel = _level_pmf(MODEL, 0.0, 32)
    assert plevel[0] == 1.0
    assert_allclose(plevel[1:], 0.0, atol=1e-15)


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


def test_nan_time_is_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        reliability(MODEL, math.nan)
    with pytest.raises(ValueError, match="positive"):
        failure_density(MODEL, 0, math.nan)
    with pytest.raises(ValueError, match="positive"):
        hazard_rate(MODEL, 0, 1, (0, 0), math.nan)
