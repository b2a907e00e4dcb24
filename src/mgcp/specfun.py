"""Scalar special functions shared by the counting-process layers.

Mittag-Leffler and generalized Wright series run under one fixed
truncation policy (_REL_TOL, _MAX_TERMS, _CANCELLATION_WARN_RATIO).
Past the series' reach the Mittag-Leffler function comes from Laplace
inversion on one fixed Talbot contour (_talbot).  _ml_scaled takes both
routes over a numpy array, scaled in logs: the variants module reads
the pgf of its inverse-stable jump-count laws through it.
The incomplete integrals here are the ones the shock thresholds need.
"""

import math
import sys
import warnings

import numpy as np


class NumericsWarning(UserWarning):
    """Base class for numerical-quality flags."""


class TruncationWarning(NumericsWarning):
    """A series hit its term cap before the stopping rule was met."""


class CancellationWarning(NumericsWarning):
    """Alternating-series cancellation ate most of the digits."""


# the truncation policy of every power series in this package: stop once
# |term| < _REL_TOL * |partial sum| holds for three consecutive terms, or
# after _MAX_TERMS terms; flag the result as low precision when
# max |term| / |result| exceeds _CANCELLATION_WARN_RATIO
_REL_TOL = 1e-14
_MAX_TERMS = 2000
_CANCELLATION_WARN_RATIO = 1e8


def _warn_flags(label, converged, ratio, stacklevel=2):
    """Emit the NumericsWarnings of a finished series from its flags."""
    if not converged:
        warnings.warn(
            "%s: series not converged within %d terms" % (label, _MAX_TERMS),
            TruncationWarning,
            stacklevel=stacklevel + 1,
        )
    if ratio > _CANCELLATION_WARN_RATIO:
        warnings.warn(
            "%s: cancellation ratio %.2e, result is low precision" % (label, ratio),
            CancellationWarning,
            stacklevel=stacklevel + 1,
        )


def _lgamma(x):
    """log|Gamma(x)|, +inf at the poles x = 0, -1, -2, ..."""
    try:
        return math.lgamma(x)
    except ValueError:
        return math.inf


def _gammasgn(x):
    """Sign of Gamma(x); nan at the poles -1, -2, ..., at -inf and at nan."""
    if x > 0:
        return 1.0
    if x == 0:
        return math.copysign(1.0, x)
    if not x > -math.inf:
        return math.nan
    n = math.floor(x)
    if n == x:
        return math.nan
    return -1.0 if n % 2 else 1.0


def reciprocal_gamma(x):
    """1/Gamma(x), exactly zero at the poles x = 0, -1, -2, ..."""
    lg = _lgamma(x)
    if lg == math.inf:
        return 0.0
    try:
        return _gammasgn(x) * math.exp(-lg)
    except OverflowError:
        return _gammasgn(x) * math.inf


def _gamma_ratio(u, v):
    """Gamma(u)/Gamma(v) with sign tracking; zero when v is a pole."""
    lv = _lgamma(v)
    if math.isinf(lv):
        return 0.0
    return _gammasgn(u) * _gammasgn(v) * math.exp(_lgamma(u) - lv)


# Laplace inversion at time 1 on Weideman's (2006) optimised Talbot
# contour s(theta) = N (-0.6122 + 0.5017 theta cot(0.6407 theta)
# + 0.2645 i theta), theta in (-pi, pi), with the midpoint rule in theta:
# f(1) = (1 / 2 pi i) int e^s F(s) ds ~ sum_k w_k F(s_k).  The error is
# absolute, about e^(-1.36 N) times the size of F on the contour, and
# needs F analytic off the negative real axis.
_CONTOUR_N = 24
# the series give way to the contour once the saddle |x|^(1 / alpha) of
# e^s F(s) passes this constant: there the series' cancellation ratio,
# about e^(|x|^(1/alpha)) / |E|, has grown to some 1e3 while the
# contour's relative error at small jump counts is down to 1e-14
_CONTOUR_FROM = 4.0


def _talbot(n):
    """(s, w) of the n-node contour."""
    theta = (np.arange(n) + 0.5) * (2.0 * np.pi / n) - np.pi
    c = 0.6407 * theta
    s = n * (-0.6122 + 0.5017 * theta / np.tan(c) + 0.2645j * theta)
    ds = n * (0.5017 * (1.0 / np.tan(c) - c / np.sin(c) ** 2) + 0.2645j)
    return s, np.exp(s) * ds / (1j * n)


_FULL = _talbot(_CONTOUR_N)
# theta > 0 only: for a real f the lower half is the mirror image of the
# upper one, so f = Re sum 2 w F over the upper nodes
_UPPER = (_FULL[0][_CONTOUR_N // 2 :], 2.0 * _FULL[1][_CONTOUR_N // 2 :])


def series_reach(alpha, x):
    """|x|^(1 / alpha): the series of order alpha at x cancel by about e to this power."""
    return abs(x) ** (1.0 / alpha)


def mittag_leffler(alpha, beta, gamma, x):
    """Three-parameter Mittag-Leffler function E^gamma_{alpha,beta}(x).

    Series sum_r (gamma)_r x^r / (r! Gamma(alpha r + beta)) with the
    rising factorial (gamma)_r.  Accepts complex x (the codifference
    formulas evaluate it on the unit-circle arguments); real x in, real
    out.  For alpha < 1 and |x|^(1 / alpha) past _CONTOUR_FROM it
    inverts the Laplace pair s^(alpha gamma - beta) / (s^alpha - x)^gamma
    on the Talbot contour instead (_ml_contour), unless gamma != 1 meets
    a pole s^alpha = x on the principal sheet.
    """
    if not (alpha > 0 and beta > 0 and gamma > 0):
        raise ValueError("alpha, beta, gamma must be positive")
    if x == 0:
        return reciprocal_gamma(beta)
    if alpha < 1.0 and series_reach(alpha, x) > _CONTOUR_FROM:
        if gamma == 1.0 or not _has_pole(alpha, x):
            return _ml_contour(alpha, beta, gamma, x)
    return _ml_series(alpha, beta, gamma, x)


def _has_pole(alpha, x):
    """True where s^alpha = x has a root on the principal sheet; x may be an array."""
    return np.abs(np.angle(x)) < alpha * np.pi


def _ml_contour(alpha, beta, gamma, x, log_scale=0.0):
    """E^gamma_{alpha,beta}(x) exp(-log_scale) by inversion at t = 1 on the Talbot contour.

    x is a scalar or a numpy array, and log_scale broadcasts against it.
    A root s* = x^(1 / alpha) on the principal sheet (gamma = 1 only) is
    a simple pole with residue rho = s*^(1 - beta) / alpha.  Its pole
    rho / (s - s*) is taken out of F before the quadrature and its
    exact inverse rho e^(s* - log_scale) added back, so the pole may lie
    on either side of the contour, or next to it, without harm.  A real
    x whose pole term leaves double range gives inf; a complex scalar
    raises OverflowError.
    """
    real = not np.iscomplexobj(x)
    s, w = _UPPER if real else _FULL
    x = np.asarray(x)
    f = s ** (alpha * gamma - beta) / (s**alpha - x[..., None]) ** gamma
    pole = _has_pole(alpha, x)
    root = np.where(pole, x, 1.0).astype(complex) ** (1.0 / alpha)
    rho = np.where(pole, root ** (1.0 - beta) / alpha, 0.0)
    f = f - rho[..., None] / (s - root[..., None])
    with np.errstate(over="ignore", invalid="ignore"):
        residue = np.where(pole, rho * np.exp(root - log_scale), 0.0)
    if not real and x.ndim == 0 and not np.isfinite(residue):
        raise OverflowError(
            "mittag_leffler: the pole term at x = %r leaves double range" % (x.item(),)
        )
    value = (f @ w) * np.exp(-log_scale) + residue
    if real:
        value = value.real
    return value if value.ndim else value.item()


def _ml_series(alpha, beta, gamma, x):
    """The power series of mittag_leffler, under the module's truncation policy.

    x is a scalar or a numpy array.  The sum runs until every element has
    met the stop rule, and the call warns once, for its worst element.
    """
    x = np.asarray(x)
    term = np.full(x.shape, reciprocal_gamma(beta), dtype=np.result_type(x, float))
    total = np.zeros_like(term)
    largest = np.zeros(x.shape)
    run = np.zeros(x.shape, dtype=int)
    for r in range(_MAX_TERMS):
        total = total + term
        mag = np.abs(term)
        largest = np.maximum(largest, mag)
        run = np.where(mag < _REL_TOL * np.abs(total), run + 1, 0)
        if (run >= 3).all():
            break
        # term_{r+1}/term_r = (gamma+r)/(r+1) * x * G(ar+b)/G(ar+a+b)
        u = alpha * r + beta
        ratio = math.exp(math.lgamma(u) - math.lgamma(u + alpha))
        term = term * ((gamma + r) / (r + 1.0)) * ratio * x
    ratio = np.max(largest / np.maximum(np.abs(total), math.ulp(0.0)), initial=0.0)
    _warn_flags("mittag_leffler", bool((run >= 3).all()), ratio)
    return total if total.ndim else total.item()


def _ml_scaled(alpha, x, log_scale=0.0, beta=1.0):
    """E_{alpha,beta}(x) exp(-log_scale) over a numpy array x, in one pass per route.

    Each element takes the route mittag_leffler takes at it.  log_scale
    broadcasts against x; a pole term e^(x^(1/alpha)) stays in double
    range when log_scale is near its exponent.
    """
    x = np.asarray(x)
    scale = np.broadcast_to(log_scale, x.shape)
    far = (alpha < 1.0) & (series_reach(alpha, x) > _CONTOUR_FROM)
    out = np.empty(x.shape, dtype=np.result_type(x, float))
    out[far] = _ml_contour(alpha, beta, 1.0, x[far], scale[far])
    near = ~far
    out[near] = _ml_series(alpha, beta, 1.0, x[near]) * np.exp(-scale[near])
    return out


def wright_1_1(a, alpha_a, b, beta_b, x):
    """Generalized Wright function 1Psi1 with one (a, alpha_a) upper and
    one (b, beta_b) lower parameter pair.

    Series sum_r Gamma(a + alpha_a r)/Gamma(b + beta_b r) * x^r / r!.
    Lower-gamma poles zero out their terms via the reciprocal gamma.
    """
    if x == 0:
        return _gamma_ratio(a, b)
    logax = math.log(abs(x))
    sgnx = 1.0 if x > 0 else -1.0
    sign_r = 1.0
    total = largest = 0.0
    # leading exact-zero terms (reciprocal-gamma poles) do not count
    # toward the three-small-terms stop; trailing ones do
    seen_nonzero, small_run = False, 0
    for r in range(_MAX_TERMS):
        u = a + alpha_a * r
        v = b + beta_b * r
        lv = _lgamma(v)
        if math.isinf(lv):
            term = 0.0
        else:
            logmag = _lgamma(u) - lv + r * logax - math.lgamma(r + 1.0)
            term = _gammasgn(u) * _gammasgn(v) * sign_r * math.exp(logmag)
        total += term
        mag = abs(term)
        largest = max(largest, mag)
        seen_nonzero = seen_nonzero or mag != 0.0
        small_run = small_run + 1 if seen_nonzero and mag < _REL_TOL * abs(total) else 0
        if small_run >= 3:
            break
        sign_r *= sgnx
    _warn_flags("wright_1_1", small_run >= 3, largest / (abs(total) or math.ulp(0.0)))
    return total


def incomplete_beta(x, p, q):
    """Incomplete beta integral int_0^x t^(p-1) (1-t)^(q-1) dt.

    q = 0 is allowed (the integrand t^(p-1)/(1-t) stays integrable for
    x < 1); that case backs the logarithmic threshold law.  For x within
    about 2e-4 of 1 it holds its value only at integer p, and raises
    ValueError otherwise (_beta_zero_scaled).
    """
    if not 0.0 < x < 1.0:
        raise ValueError("x must lie in (0, 1)")
    if p <= 0:
        raise ValueError("p must be positive")
    if q == 0.0:
        return x**p * _beta_zero_scaled(x, p)
    # QAWS handles the algebraic t^(p-1) endpoint weight exactly; scipy's
    # integrate package is loaded here, its one use in this module, so
    # that importing mgcp does not pay for it
    from scipy.integrate import quad

    val, err = quad(
        lambda t: (1.0 - t) ** (q - 1.0),
        0.0,
        x,
        weight="alg",
        wvar=(p - 1.0, 0.0),
        epsabs=1e-12,
        limit=200,
    )
    if err > 1e-8:
        warnings.warn(
            "incomplete_beta: quadrature error %.2e" % err,
            TruncationWarning,
            stacklevel=2,
        )
    return val


# the series of _beta_zero_scaled stops after this many terms, which only
# x within about 2e-4 of 1 reaches, and a closed form must then hold its
# rounding below _CLOSED_TOL of the value
_BETA_TERMS = 200_000
_CLOSED_TOL = 1e-13


def _beta_zero_scaled(x, p):
    """x^(-p) incomplete_beta(x, p, 0) = sum_m x^m / (p + m), for 0 < x < 1.

    Expanding 1/(1-t) gives positive terms, so the value stays exact
    where quadrature loses the boundary layer at large p; with x^p taken
    out, a narrow x (a threshold law's tail) does not underflow first.
    Where the series needs more than 200000 terms, an integer p = n + 1
    (the threshold tails) takes the closed form
    sum_{k > n} x^k / k = -log1p(-x) - sum_{k <= n} x^k / k, whose
    rounding is at most 2 eps (-log1p(-x) + sum_{k <= n} x^k / k): there
    x is near 1 and the log is large, so it cancels little unless n
    nears 1 / (1 - x).  Where that bound exceeds 1e-13 of the value, and
    for any other p, the value cannot be held and the call raises
    ValueError.  The terms fall in m and sum to at most 1/p - log1p(-x),
    so where the term at m = 200000 is above twice 1e-17 of that bound
    the series cannot stop, whatever its rounding, and is not summed.
    """
    if x**_BETA_TERMS / (p + _BETA_TERMS) <= 2e-17 * (1.0 / p - math.log1p(-x)):
        total = 0.0
        xm = 1.0
        m = 0.0
        while True:
            term = xm / (p + m)
            total += term
            if term <= 1e-17 * total:
                return total
            if m >= _BETA_TERMS:
                break
            xm *= x
            m += 1.0
    if p != int(p):
        raise ValueError(
            "incomplete_beta: the series at x = %r needs more than %d terms" % (x, _BETA_TERMS)
        )
    n = int(p) - 1
    log = -math.log1p(-x)
    head = math.fsum(x**k / k for k in range(1, n + 1))
    tail = log - head
    if 2.0 * sys.float_info.epsilon * (log + head) > _CLOSED_TOL * tail:
        raise ValueError(
            "incomplete_beta: sum_{k > %d} x^k / k at x = %r cancels past %g of its value"
            % (n, x, _CLOSED_TOL)
        )
    return tail / x**p


def _log_ratio(p, q):
    """log(p / q) for 0 <= p < q, as log1p of the interval's share of q near q.

    1 - (p/q)^e = -expm1(e log(p/q)) then keeps its digits when the
    interval (p, q) is short against q, where q^e - p^e cancels.  Past
    p = q/2, q - p is exact and log1p keeps the short interval's digits;
    below it, log(p / q) is at least log 2 in size and keeps its own,
    where log1p would take 1 minus a share that rounds to 1.
    """
    if p > 0.5 * q:
        return math.log1p(-(q - p) / q)
    return math.log(p / q) if p > 0.0 else -math.inf


def _check_interval(p, q):
    """ValueError unless 0 <= p < q <= 1, the interval both series take."""
    if not (0.0 <= p < q <= 1.0):
        raise ValueError("need 0 <= p < q <= 1")


def generalized_incomplete_gamma(x, p, q):
    """int_p^q e^(-t) t^(x-1) dt for 0 <= p < q <= 1, x > 0.

    Expanding e^(-t) turns this into
    sum_k (-1)^k / k! * (q^(x+k) - p^(x+k)) / (x+k); since q <= 1 the
    factorial makes convergence immediate for any x, including the very
    large orders (deep threshold tails) where gamma-function routes
    overflow and quadrature collapses into the endpoint layer.
    """
    if x <= 0:
        raise ValueError("x must be positive")
    _check_interval(p, q)
    return q**x * _incomplete_gamma_scaled(x, p, q)


def _incomplete_gamma_scaled(x, p, q):
    """q^(-x) generalized_incomplete_gamma(x, p, q), from checked arguments.

    Term k is (-1)^k q^k / k! * (1 - (p/q)^(x+k)) / (x+k), each
    difference formed by _log_ratio without cancelling.
    """
    r = _log_ratio(p, q)
    total = 0.0
    sign = 1.0
    fact = 1.0
    qk = 1.0
    for k in range(60):
        e = x + k
        term = sign * qk * -math.expm1(e * r) / (e * fact)
        total += term
        if abs(term) <= 1e-17 * abs(total):
            break
        sign = -sign
        fact *= k + 1.0
        qk *= q
    return total


def generalized_sine_integral(x, p, q):
    """int_p^q t^(x-1) sin(t) dt for 0 <= p < q <= 1, x >= 1.

    Same device as the incomplete gamma above, expanding sin(t); the
    (2k+1)! denominators converge even faster.
    """
    if x < 1:
        raise ValueError("x must be >= 1")
    _check_interval(p, q)
    return q**x * _sine_integral_scaled(x, p, q)


def _sine_integral_scaled(x, p, q):
    """q^(-x) generalized_sine_integral(x, p, q), from checked arguments.

    Term k is (-1)^k q^(2k+1) / (2k+1)! * (1 - (p/q)^e) / e, e = x+2k+1,
    each difference formed by _log_ratio without cancelling.
    """
    r = _log_ratio(p, q)
    q2 = q * q
    total = 0.0
    sign = 1.0
    fact = 1.0
    qk = q
    for k in range(40):
        e = x + 2.0 * k + 1.0
        term = sign * qk * -math.expm1(e * r) / (e * fact)
        total += term
        if abs(term) <= 1e-17 * abs(total):
            break
        sign = -sign
        fact *= (2.0 * k + 2.0) * (2.0 * k + 3.0)
        qk *= q2
    return total


def falling_factorial(x, k):
    """(x)_k = x (x-1) ... (x-k+1); (x)_0 = 1."""
    if k < 0:
        raise ValueError("k must be non-negative")
    out = 1.0
    for m in range(k):
        out *= x - m
    return out

