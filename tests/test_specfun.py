"""Series floor: Mittag-Leffler, Wright, and the small integral helpers.

Reference values were generated with mpmath at dps=50; each frozen
constant carries the command that produced it.
"""

import cmath
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from oracles import caputo_derivative_numeric
from mgcp.specfun import (
    CancellationWarning,
    NumericsWarning,
    _gammasgn,
    _lgamma,
    _ml_contour,
    _ml_series,
    TruncationWarning,
    falling_factorial,
    generalized_incomplete_gamma,
    generalized_sine_integral,
    incomplete_beta,
    mittag_leffler,
    reciprocal_gamma,
    wright_1_1,
)


@pytest.mark.parametrize("x", np.linspace(-5.0, 5.0, 21))
def test_ml_exponential_reduction(x):
    # absolute floor matters at the deep-negative end where the
    # alternating series cancels ~4 digits
    assert_allclose(
        mittag_leffler(1.0, 1.0, 1.0, x), math.exp(x), rtol=1e-12, atol=1e-12
    )


def test_ml_at_zero_is_reciprocal_gamma():
    assert mittag_leffler(0.5, 1.7, 2.0, 0.0) == reciprocal_gamma(1.7)


def test_ml_frozen_values():
    # mpmath: sum(rf(1,r)*(-1)**r/(fac(r)*gamma(r/2+1)) for r in range(400))
    # equals e*erfc(1)
    assert_allclose(mittag_leffler(0.5, 1.0, 1.0, -1.0), 0.427583576155807, rtol=1e-13)
    # mpmath: e**4*erfc(-2)
    assert_allclose(mittag_leffler(0.5, 1.0, 1.0, 2.0), 108.94090438997797, rtol=1e-13)
    # mpmath: sum(rf(2,r)*(-0.8)**r/(fac(r)*gamma(0.7*r+1.3)) for r in range(400))
    assert_allclose(
        mittag_leffler(0.7, 1.3, 2.0, -0.8), 0.28783935560639529, rtol=1e-13
    )


def test_ml_complex_argument():
    z = complex(0.3, 0.4)
    got = mittag_leffler(1.0, 1.0, 1.0, z)
    # mpmath: exp(mpc(0.3, 0.4))
    assert_allclose(got.real, 1.2433022950695026, rtol=1e-12)
    assert_allclose(got.imag, 0.52565977919697875, rtol=1e-12)


@pytest.mark.parametrize(
    "x, want",
    [
        # mpmath, 60 digits: sum(mpf(-16.4)**r * rgamma(mpf('0.8')*r + 1) for r in range(600))
        (-16.4, 0.0143789862803524),
        # mpmath, 80 digits: sum(mpf(-40)**r * rgamma(mpf('0.8')*r + 1) for r in range(1200))
        (-40.0, 0.00562073306386501),
    ],
)
def test_ml_past_the_series_reach(x, want):
    # the series cancels here (0.4435 and 2.2e28 from 2000 terms)
    assert_allclose(mittag_leffler(0.8, 1.0, 1.0, x), want, rtol=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 0.8, 0.95])
@pytest.mark.parametrize("reach", [2.5, 3.5, 4.5, 5.0])
@pytest.mark.parametrize("phase", [1.0, 0.75, 0.5])
def test_ml_series_and_contour_agree_around_the_switch(alpha, reach, phase):
    """|x|^(1/alpha) = reach straddles the switch; the phase is a fraction
    of pi, and a phase below alpha puts a pole on the principal sheet."""
    x = reach**alpha * cmath.exp(1j * math.pi * phase)
    if phase == 1.0:
        x = -(reach**alpha)
    series = _ml_series(alpha, 1.0, 1.0, x)
    contour = _ml_contour(alpha, 1.0, 1.0, x)
    assert abs(series - contour) <= 1e-12


def test_ml_rejects_bad_parameters():
    with pytest.raises(ValueError):
        mittag_leffler(0.0, 1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        mittag_leffler(0.5, -1.0, 1.0, 0.5)


@pytest.mark.parametrize("at", range(3))
def test_ml_rejects_a_nan_parameter(at):
    params = [0.5, 1.0, 1.0]
    params[at] = math.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="positive"):
            mittag_leffler(*params, 0.5)


@pytest.mark.parametrize("alpha", [0.4, 0.7, 1.0])
@pytest.mark.parametrize("beta", [0.5, 1.0, 1.6])
@pytest.mark.parametrize("gamma", [1.0, 2.0, 3.5])
@pytest.mark.parametrize("x", [-1.0, -0.25, 0.1, 0.9, 2.5])
def test_wright_matches_ml(alpha, beta, gamma, x):
    """1Psi1[(gamma,1);(beta,alpha)](x) = Gamma(gamma) E^gamma_{alpha,beta}(x).

    Deeper negative x at gamma=3.5 pushes both alternating series past a
    5e8 cancellation ratio (they emit low-precision flags and agree only
    to ~1e-8); the identity is checked where float64 can support 1e-10.
    At x = -1, gamma = 2, beta = alpha = 1 both sides are (1 + x) e^x = 0
    exactly, so both series cancel completely and must say so; every
    other case must not warn.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error", NumericsWarning)
        if (x, gamma, beta, alpha) == (-1.0, 2.0, 1.0, 1.0):
            with pytest.warns(CancellationWarning) as caught:
                lhs = wright_1_1(gamma, 1.0, beta, alpha, x)
                rhs = math.gamma(gamma) * mittag_leffler(alpha, beta, gamma, x)
            assert len(caught) == 2
        else:
            lhs = wright_1_1(gamma, 1.0, beta, alpha, x)
            rhs = math.gamma(gamma) * mittag_leffler(alpha, beta, gamma, x)
    assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-10)


def test_wright_frozen_values():
    # lower pair (0, 0.6) hits the Gamma pole at r=0; the series reduces
    # to 0.6*x*e^x.  mpmath: 0.6*(-0.5)*e**-0.5
    assert_allclose(
        wright_1_1(1.0, 0.6, 0.0, 0.6, -0.5), -0.18195919791379003, rtol=1e-12
    )
    # mpmath: sum(gamma(0.9+0.7*r)*rgamma(1.1+0.5*r)*(-0.6)**r/fac(r) for r in range(400))
    assert_allclose(
        wright_1_1(0.9, 0.7, 1.1, 0.5, -0.6), 0.68230677947839239, rtol=1e-12
    )


def test_wright_at_zero_is_the_gamma_ratio():
    # only the r = 0 term survives: Gamma(a) / Gamma(b), zero at a pole of b
    assert wright_1_1(2.5, 0.7, 1.5, 0.3, 0) == pytest.approx(1.5, rel=1e-15)
    assert wright_1_1(2.5, 0.7, -1.0, 0.3, 0) == 0.0


def test_truncation_warning_and_flag():
    # at beta = 0.1 the terms 2^r / Gamma(0.1 r + 1) still grow at the
    # 2000-term cap: the series kernel returns the partial sum, with the
    # warning
    with pytest.warns(TruncationWarning, match="not converged within 2000 terms"):
        partial = _ml_series(0.1, 1.0, 1.0, 2.0)
    assert math.isfinite(partial)


def test_overflowing_pole_term_is_inf():
    # E_0.1(2) = 5.2e445 (mpmath: 40000 terms, about (1/0.1) e^(2^10)),
    # past double range; mittag_leffler takes the
    # contour there, whose pole term e^(2^10) / 0.1 overflows to inf
    # instead of returning the series' finite 8.2e227
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert mittag_leffler(0.1, 1.0, 1.0, 2.0) == math.inf
    with pytest.raises(OverflowError, match="leaves double range"):
        mittag_leffler(0.1, 1.0, 1.0, complex(2.0, 0.1))


def test_cancellation_warning_fires_for_deep_alternation():
    # mittag_leffler takes the contour at this argument; the kept series
    # kernel still flags its cancellation
    with pytest.warns(CancellationWarning):
        _ml_series(0.9, 1.0, 1.0, -40.0)


def test_reciprocal_gamma_zero_at_poles():
    assert reciprocal_gamma(0.0) == 0.0
    assert reciprocal_gamma(-3.0) == 0.0
    assert_allclose(reciprocal_gamma(0.5), 1.0 / math.gamma(0.5), rtol=1e-15)


# poles, both signs of non-integer negatives, the underflow and overflow
# edges of 1/Gamma, and the non-finite inputs
GAMMA_POINTS = (
    0.0, -1.0, -2.0, -3.0, -4.0, -5.0, -0.5, -1.5, 1e-300, 0.5, 171.7, 200.0,
    -200.5, math.nan, math.inf, -math.inf,
)


def _same(got, want, rtol):
    """Both nan, equal where want is 0 or infinite, else within rtol."""
    if math.isnan(want):
        return math.isnan(got)
    if want == 0.0 or math.isinf(want):
        return got == want
    return abs(got - want) <= rtol * abs(want)


@pytest.mark.parametrize("x", GAMMA_POINTS, ids=repr)
def test_gamma_helpers_match_scipy(x):
    special = pytest.importorskip("scipy.special")
    # |Gamma| has no limit at -inf: gammaln says -inf, math.lgamma +inf
    want = math.inf if x == -math.inf else float(special.gammaln(x))
    assert _same(_lgamma(x), want, 1e-15)
    assert _same(_gammasgn(x), float(special.gammasgn(x)), 0.0)
    got, want = reciprocal_gamma(x), float(special.rgamma(x))
    # rgamma flushes 1/Gamma below the normal range to 0; exp(-lgamma)
    # keeps the subnormal value (1/Gamma(171.7) = 3.8e-309)
    if want == 0.0 and abs(got) < sys.float_info.min:
        return
    # exp(-lgamma) turns lgamma's half ulp into |lgamma| eps / 2 relative
    assert _same(got, want, 1e-13)


def test_incomplete_beta_polynomial_case():
    # int_0^0.5 t dt
    assert_allclose(incomplete_beta(0.5, 2.0, 1.0), 0.125, rtol=1e-12)


def test_incomplete_beta_q_zero_frozen():
    # mpmath: quad(lambda t: t**2/(1-t), [0, 0.5])
    assert_allclose(incomplete_beta(0.5, 3.0, 0.0), 0.068147180559945309, rtol=1e-10)


def test_incomplete_beta_domain():
    with pytest.raises(ValueError):
        incomplete_beta(1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        incomplete_beta(0.5, 0.0, 1.0)
    # at q = 0 and x within 2e-4 of 1 the series is cut, and only an
    # integer p has the closed form that replaces it
    with pytest.raises(ValueError, match="more than 200000 terms"):
        incomplete_beta(0.99999, 2.5, 0.0)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        want = float(-mpmath.log1p(-mpmath.mpf(0.99999)) - mpmath.mpf(0.99999))
    assert incomplete_beta(0.99999, 2.0, 0.0) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_generalized_incomplete_gamma_frozen():
    # mpmath: quad(lambda t: e**-t*sqrt(t), [0.2, 0.8])
    assert_allclose(
        generalized_incomplete_gamma(1.5, 0.2, 0.8), 0.24889920278331663, rtol=1e-12
    )


def test_generalized_incomplete_gamma_exponential_case():
    got = generalized_incomplete_gamma(1.0, 0.0, 0.7)
    assert_allclose(got, 1.0 - math.exp(-0.7), rtol=1e-13)
    with pytest.raises(ValueError):
        generalized_incomplete_gamma(1.0, 0.5, 0.4)


def test_generalized_sine_integral_frozen():
    # mpmath: quad(lambda t: t**2*sin(t), [0.1, 0.9])
    assert_allclose(
        generalized_sine_integral(3.0, 0.1, 0.9), 0.1496793273389239, rtol=1e-10
    )


def test_generalized_sine_integral_x_one():
    got = generalized_sine_integral(1.0, 0.1, 0.9)
    assert_allclose(got, math.cos(0.1) - math.cos(0.9), rtol=1e-12)
    with pytest.raises(ValueError):
        generalized_sine_integral(0.5, 0.1, 0.9)


@pytest.mark.parametrize(
    "p, q",
    [(0.2, 0.2 + 1e-12), (0.9, 0.9 + 1e-9), (0.0, 1e-200), (0.5, 1.0), (1e-20, 1.0), (1e-300, 0.5)],
)
def test_short_and_narrow_intervals_match_mpmath(p, q):
    # q^e - p^e cancels on a short interval far from 0, and q^e
    # underflows on a narrow one at 0 only where the integral does; a
    # left end far below q is a share q - p that rounds to q
    mpmath = pytest.importorskip("mpmath")
    for x in (1.0, 2.0, 7.5):
        with mpmath.workdps(60):
            mp_p, mp_q = mpmath.mpf(p), mpmath.mpf(q)
            want_gamma = float(mpmath.gammainc(x, mp_p, mp_q))
            want_sine = float(mpmath.quad(lambda t: t ** (x - 1) * mpmath.sin(t), [mp_p, mp_q]))
        for got, want in (
            (generalized_incomplete_gamma(x, p, q), want_gamma),
            (generalized_sine_integral(x, p, q), want_sine),
        ):
            if want >= sys.float_info.min:
                assert abs(got - want) <= 1e-14 * want, (x, got, want)
            else:
                assert abs(got) <= 2.0**-1074, (x, got, want)


def test_falling_factorial_small():
    assert falling_factorial(5.0, 0) == 1.0
    assert falling_factorial(5.0, 3) == 60.0
    assert falling_factorial(0.5, 2) == 0.5 * -0.5


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=12))
@settings(max_examples=60, deadline=None)
def test_falling_factorial_gamma_ratio(n, k):
    got = falling_factorial(float(n), k)
    want = math.gamma(n + 1) / math.gamma(n - k + 1) if n >= k else 0.0
    # integer x with k > x crosses a pole; the product form gives 0 there
    if n >= k:
        assert_allclose(got, want, rtol=1e-12)
    else:
        assert got == 0.0


def test_caputo_derivative_of_linear():
    """Caputo derivative of f(t)=t at order 1/2 is 2 sqrt(t/pi)."""
    step = 1e-4
    t_eval = 1.0
    ts = np.arange(0.0, t_eval + step / 2, step)
    got = caputo_derivative_numeric([(t, t) for t in ts], 0.5, t_eval, step)
    want = 2.0 * math.sqrt(t_eval / math.pi)
    assert_allclose(got, want, rtol=2e-3)


def test_caputo_order_one_is_plain_derivative():
    step = 1e-3
    ts = np.arange(0.0, 1.0 + 2 * step, step)
    got = caputo_derivative_numeric([(t, t * t) for t in ts], 1.0, 0.5, step)
    assert_allclose(got, 1.0, rtol=1e-6)
