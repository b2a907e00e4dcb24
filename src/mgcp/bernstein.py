"""MGCP driven by an arbitrary subordinator given through its Levy measure.

Everything here goes through numerical quadrature against the measure,
even when the measure belongs to a named clock with known closed forms.
That makes tcgcp_transition_rate an independent oracle for the
per-variant rate formulas instead of a restatement of them.

The integrals all have the shape int_0^inf phi(r) mu(r) dr
(_measure_integral), with mu blowing up like r^(-1-rho) at the
origin.  On (0, 1] we substitute r = u^p with p chosen so the
transformed integrand is bounded; on [1, inf) the exponential or
polynomial decay is left to adaptive quadrature.  Custom densities
must be safe to call concurrently.

The module keeps one piece of shared state: a bounded memo of the
measure atoms nu_1(k) (_measure_atom), keyed by the measure itself, so
a Custom density must be pure, giving the same value for the same s.

scipy.integrate is loaded on the first quadrature, not on import: quad
is a module attribute bound on first access (PEP 562), and _quad reads
it on every call, so a rebinding of bernstein.quad is what integrates.
Building a Custom integrates, so it loads scipy.integrate too.
"""

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .gcp import _check_state, _pgf_exponent
from .specfun import mittag_leffler
from .variants import _profile_sum
from . import subordinators as subs


def __getattr__(name):
    if name == "quad":
        from scipy.integrate import quad

        globals()["quad"] = quad
        return quad
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


class QuadratureError(RuntimeError):
    """An integral against the Levy measure could not be trusted."""


@dataclass(frozen=True)
class Named:
    """The Levy measure of a clock with a density (Stable, TemperedStable,
    GammaSub or InverseGaussian).

    It offers density and singularity_exponent, the clock's own, and
    decay_rate as Custom does; decay_rate is None, so tails run to infinity.
    """

    spec: object
    decay_rate = None

    def __post_init__(self):
        try:
            subs.levy_singularity_exponent(self.spec)
        except ValueError as exc:
            raise ValueError("spec must be a Levy subordinator with a density") from exc

    @property
    def singularity_exponent(self):
        return self.spec.singularity_exponent

    def density(self, s):
        return self.spec.density(s)


@dataclass(frozen=True, eq=False)
class Custom:
    """A user-supplied Levy density with integrability hints.

    singularity_exponent rho means density(s) ~ s^(-1-rho) near 0;
    leaving it None makes a log-slope probe near the origin estimate
    the substitution power instead.  decay_rate c means the density
    decays like exp(-c s) and fixes the tail truncation point.

    A Custom compares and hashes by identity, so any callable, hashable
    or not, can serve as its density; two Customs over equal densities
    are two measures.
    """

    density: Callable[[float], float]
    singularity_exponent: Optional[float] = None
    decay_rate: Optional[float] = None

    def __post_init__(self):
        if self.singularity_exponent is not None and not (
            self.singularity_exponent < 1.0
        ):
            raise ValueError("singularity exponent must be < 1")
        if self.decay_rate is not None and not 0.0 < self.decay_rate < math.inf:
            raise ValueError("decay rate must be positive and finite")
        # the defining requirement int (1 ^ s) mu(ds) < inf
        try:
            head, head_err = _head(
                lambda s: s * self.density(s), _origin_exponent(self, 1)
            )
            tail, tail_err = _quad(self.density, 1.0, _tail_top(self))
        except (QuadratureError, OverflowError) as exc:
            raise ValueError("density is not an integrable Levy measure") from exc
        total = head + tail
        if not math.isfinite(total) or head_err + tail_err > 1e-3 * max(1.0, total):
            raise ValueError("density is not an integrable Levy measure")


def _origin_exponent(m, power):
    """Exponent e with s^power * density ~ s^e at 0, or None when undeclared."""
    rho = m.singularity_exponent
    return None if rho is None else power - 1.0 - rho


def _tail_top(m):
    return 1.0 + 40.0 / m.decay_rate if m.decay_rate else np.inf


def _quad(fn, lo, hi):
    # the module attribute, bound on first use and read afresh each call
    integrate = globals().get("quad") or __getattr__("quad")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return integrate(fn, lo, hi, epsabs=1e-13, epsrel=1e-11, limit=200)


def _probe_power(fn):
    """Estimate the integrand's power-law exponent from its log-slope near 0."""
    lo, hi = 1e-7, 1e-5
    flo, fhi = fn(lo), fn(hi)
    if flo <= 0.0 or fhi <= 0.0:
        return 0.0
    e = (math.log(fhi) - math.log(flo)) / (math.log(hi) - math.log(lo))
    return min(e, 0.0)


def _head(fn, exponent):
    """(value, err) of int_0^1 fn(s) ds, fn ~ s^exponent near the origin."""
    if exponent is None:
        exponent = _probe_power(fn)
    if exponent <= -1.0:
        raise QuadratureError("integrand non-integrable at the origin")
    return _quad(_substituted(fn, 1.0 / (1.0 + exponent)), 0.0, 1.0)


def _integral(fn, exponent, tail_top):
    """int_0^inf fn(s) ds where fn ~ s^exponent (> -1) near the origin."""
    head, head_err = _head(fn, exponent)
    tail, tail_err = _quad(fn, 1.0, np.inf if tail_top is None else tail_top)
    val = head + tail
    err = head_err + tail_err
    if not math.isfinite(val) or err > 1e-6 * max(1.0, abs(val)):
        raise QuadratureError(
            "quadrature achieved tolerance %.3e for value %r" % (err, val)
        )
    return val


def _measure_integral(m, f, power):
    """int_0^inf f(r) mu(dr), f(r) ~ r^power at the origin."""
    mu = m.density
    return _integral(lambda r: f(r) * mu(r), _origin_exponent(m, power), _tail_top(m))


def _substituted(fn, p):
    def g(u):
        if u <= 0.0:
            return 0.0
        s = u**p
        try:
            return fn(s) * p * u ** (p - 1.0)
        except OverflowError:
            # the density grows faster near 0 than its declared or
            # probed exponent promised
            raise QuadratureError("integrand overflows near the origin") from None

    return g


def bernstein_f(m, s):
    """The Bernstein function f(s) = int (1 - e^(-s r)) mu(dr)."""
    if not s >= 0:
        raise ValueError("s must be non-negative")
    if s == 0:
        return 0.0
    if isinstance(m, Named):
        return subs.laplace_exponent(m.spec, s)
    return _measure_integral(m, lambda r: -math.expm1(-s * r), 1)


def g_lambda_u(rates, m, ubar):
    """The pgf exponent g(lambda; u) = int (1 - e^(-r w)) mu(dr).

    The bracket in the defining display is a sum over all jump vectors
    weighted by powers of u; it collapses to 1 - exp(-r w) with w the
    pgf symbol, and we integrate that directly.  Unlike bernstein_f this
    never shortcuts to closed forms, so it can sit on the other side of
    an equality test.
    """
    w = _pgf_exponent(rates, ubar)
    if w == 0.0:
        return 0.0
    return _measure_integral(m, lambda r: -math.expm1(-w * r), 1)


@lru_cache(maxsize=1024)
def _measure_atom(m, lam, k):
    """nu_1(k) = int e^(-lam r) (lam r)^k / k! mu(dr), by quadrature.

    The rate at which the measure-driven clock fires k base jumps of
    total rate lam at once.  Each (measure, lam, k) is integrated on its
    first read only; a k whose quadrature raises is not kept.
    """
    i_k = _measure_integral(m, lambda r: math.exp(-lam * r) * r**k, k)
    return i_k * lam**k / math.factorial(k)


def tcgcp_transition_rate(rates, m, lbar):
    """Rate of the jump by lbar > 0 for the measure-driven process.

    rate = sum over compositions of prod(lam^x / x!) * I_Z with
    I_Z = int e^(-lam r) r^Z mu(dr), Z the total jump count: the jump's
    profile summed against the measure atoms _measure_atom(m, lam, Z).
    """
    lbar = _check_state(rates, lbar)
    if not any(lbar):
        raise ValueError("lbar must be a non-zero jump")
    lam = rates.total
    return _profile_sum(rates, lbar, lambda z: _measure_atom(m, lam, z))


def tcgcp_pgf(rates, m, ubar, t):
    """pgf exp(-t g(lambda; u)); solves dG/dt = -g G, G(0) = 1.

    The time-fractional pgf at beta = 1, where E_1(-t g) = exp(-t g).
    """
    return tcgcp_pgf_fractional(rates, m, 1.0, ubar, t)


def tcgcp_pgf_fractional(rates, m, beta, ubar, t):
    """Time-fractional pgf E_beta(-t^beta g(lambda; u))."""
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must lie in (0, 1]")
    if not t >= 0:
        raise ValueError("t must be non-negative")
    g = g_lambda_u(rates, m, ubar)
    if t == math.inf:
        return 1.0 if g == 0 else 0.0
    if beta == 1.0:
        return math.exp(-t * g)
    return mittag_leffler(beta, 1.0, 1.0, -(t**beta) * g)
