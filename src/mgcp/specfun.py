"""Scalar special functions shared by the counting-process layers.

Mittag-Leffler and generalized Wright series run under one fixed
truncation policy (_REL_TOL, _MAX_TERMS, _CANCELLATION_WARN_RATIO).
The incomplete integrals here are the ones the shock thresholds need.
"""

import math
import warnings


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


class _Accumulator:
    """Sums series terms under the module's truncation policy.

    Leading exact-zero terms (reciprocal-gamma poles) do not count
    toward the three-small-terms stop; trailing ones do.
    """

    def __init__(self, label):
        self.label = label
        self.total = 0.0
        self.largest = 0.0
        self._small_run = 0
        self._seen_nonzero = False
        self.converged = False

    def add(self, term):
        """Accumulate one term; True means the stop rule fired."""
        self.total = self.total + term
        mag = abs(term)
        if mag > self.largest:
            self.largest = mag
        if mag != 0.0:
            self._seen_nonzero = True
        if self._seen_nonzero and mag < _REL_TOL * abs(self.total):
            self._small_run += 1
            if self._small_run >= 3:
                self.converged = True
                return True
        else:
            self._small_run = 0
        return False

    def finish(self):
        if not self.converged:
            warnings.warn(
                "%s: series not converged within %d terms"
                % (self.label, _MAX_TERMS),
                TruncationWarning,
                stacklevel=3,
            )
        denom = abs(self.total)
        if denom == 0.0:
            denom = math.ulp(0.0)
        if self.largest / denom > _CANCELLATION_WARN_RATIO:
            warnings.warn(
                "%s: cancellation ratio %.2e, result is low precision"
                % (self.label, self.largest / denom),
                CancellationWarning,
                stacklevel=3,
            )
        return self.total


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


def mittag_leffler(alpha, beta, gamma, x):
    """Three-parameter Mittag-Leffler function E^gamma_{alpha,beta}(x).

    Series sum_r (gamma)_r x^r / (r! Gamma(alpha r + beta)) with the
    rising factorial (gamma)_r.  Accepts complex x (the codifference
    formulas evaluate it on the unit-circle arguments); real x in, real
    out.
    """
    if alpha <= 0 or beta <= 0 or gamma <= 0:
        raise ValueError("alpha, beta, gamma must be positive")
    term = reciprocal_gamma(beta)
    if x == 0:
        return term
    acc = _Accumulator("mittag_leffler")
    for r in range(_MAX_TERMS):
        if acc.add(term):
            break
        # term_{r+1}/term_r = (gamma+r)/(r+1) * x * G(ar+b)/G(ar+a+b)
        u = alpha * r + beta
        ratio = math.exp(math.lgamma(u) - math.lgamma(u + alpha))
        term = term * ((gamma + r) / (r + 1.0)) * ratio * x
    return acc.finish()


def wright_1_1(a, alpha_a, b, beta_b, x):
    """Generalized Wright function 1Psi1 with one (a, alpha_a) upper and
    one (b, beta_b) lower parameter pair.

    Series sum_r Gamma(a + alpha_a r)/Gamma(b + beta_b r) * x^r / r!.
    Lower-gamma poles zero out their terms via the reciprocal gamma.
    """
    if x == 0:
        return _gamma_ratio(a, b)
    acc = _Accumulator("wright_1_1")
    logax = math.log(abs(x))
    sgnx = 1.0 if x > 0 else -1.0
    sign_r = 1.0
    for r in range(_MAX_TERMS):
        u = a + alpha_a * r
        v = b + beta_b * r
        lv = _lgamma(v)
        if math.isinf(lv):
            term = 0.0
        else:
            logmag = _lgamma(u) - lv + r * logax - math.lgamma(r + 1.0)
            term = _gammasgn(u) * _gammasgn(v) * sign_r * math.exp(logmag)
        if acc.add(term):
            break
        sign_r *= sgnx
    return acc.finish()


def incomplete_beta(x, p, q):
    """Incomplete beta integral int_0^x t^(p-1) (1-t)^(q-1) dt.

    q = 0 is allowed (the integrand t^(p-1)/(1-t) stays integrable for
    x < 1); that case backs the logarithmic threshold law.
    """
    if not 0.0 < x < 1.0:
        raise ValueError("x must lie in (0, 1)")
    if p <= 0:
        raise ValueError("p must be positive")
    if q == 0.0:
        # expand 1/(1-t): sum_m x^(p+m)/(p+m), all terms positive, so
        # the value stays exact down to underflow where quadrature
        # loses the boundary layer at large p
        total = 0.0
        xm = x**p
        m = 0.0
        while True:
            term = xm / (p + m)
            total += term
            if term <= 1e-17 * total:
                return total
            if m >= 200_000.0:
                warnings.warn(
                    "incomplete_beta: series cut at x=%g" % x,
                    TruncationWarning,
                    stacklevel=2,
                )
                # geometric bound on everything dropped
                return total + term * x / (1.0 - x)
            xm *= x
            m += 1.0
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
    if not (0.0 <= p < q <= 1.0):
        raise ValueError("need 0 <= p < q <= 1")
    total = 0.0
    sign = 1.0
    fact = 1.0
    for k in range(60):
        e = x + k
        term = sign * (q**e - p**e) / (e * fact)
        total += term
        if abs(term) <= 1e-17 * abs(total):
            break
        sign = -sign
        fact *= k + 1.0
    return total


def generalized_sine_integral(x, p, q):
    """int_p^q t^(x-1) sin(t) dt for 0 <= p < q <= 1, x >= 1.

    Same device as the incomplete gamma above, expanding sin(t); the
    (2k+1)! denominators converge even faster.
    """
    if x < 1:
        raise ValueError("x must be >= 1")
    if not (0.0 <= p < q <= 1.0):
        raise ValueError("need 0 <= p < q <= 1")
    total = 0.0
    sign = 1.0
    fact = 1.0
    for k in range(40):
        e = x + 2.0 * k + 1.0
        term = sign * (q**e - p**e) / (e * fact)
        total += term
        if abs(term) <= 1e-17 * abs(total):
            break
        sign = -sign
        fact *= (2.0 * k + 2.0) * (2.0 * k + 3.0)
    return total


def falling_factorial(x, k):
    """(x)_k = x (x-1) ... (x-k+1); (x)_0 = 1."""
    if k < 0:
        raise ValueError("k must be non-negative")
    out = 1.0
    for m in range(k):
        out *= x - m
    return out

