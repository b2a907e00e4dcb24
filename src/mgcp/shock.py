"""Shock-model reliability driven by the space-fractional variant.

Shocks of q types arrive as the components of an MGSFCP; the system
fails once the total shock count reaches a random threshold N.  This
module computes hazard rates, per-type failure densities, failure-type
probabilities and the survival function, plus the four named threshold
laws.

The series over threshold values needs the pmf aggregated over all
states with a given total.  That aggregate is built from a signed table
B[n, Z] (total count n, total jump count Z): (-1)^Z times the
jump-count profile of the one-row rates pooled by jump size, so entries
stay in [-1, 1].  It is folded together with the
finite-difference table D[x, Z] = sum_y (-1)^y C(x,y) C(alpha y, Z);
both depend only on (rates, alpha) and are cached.  hazard_rate runs
the same profile against its own double sum per jump count.
"""

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
from scipy.special import gammaln

from .gcp import RateMatrix, _check_state
from .compositions import jump_profile
from .specfun import (
    TruncationWarning,
    falling_factorial,
    generalized_incomplete_gamma,
    generalized_sine_integral,
    incomplete_beta,
)
from .variants import Mgsfcp, _profile_sum, variant_pmf, variant_transition_rate

_NMAX_START = 32
_NMAX_CAP = 512
_TERM_TOL = 1e-12
_TAIL_TOL = 1e-8


@dataclass(frozen=True)
class Geometric:
    """Pr{N > n} = (1 - p)^n."""

    p: float

    def __post_init__(self):
        if not 0.0 < self.p <= 1.0:
            raise ValueError("p must lie in (0, 1]")


@dataclass(frozen=True)
class Logarithmic:
    """Pr{N > n} = -B(p; n+1, 0) / ln(1 - p).

    p = 1 is rejected: the normalizer ln(1 - p) diverges there, so the
    law is only defined on the open interval.
    """

    p: float

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError("p must lie in (0, 1)")


@dataclass(frozen=True)
class IncGamma:
    """Pr{N > n} via the generalized incomplete gamma on [a, p]."""

    a: float
    p: float

    def __post_init__(self):
        if not 0.0 <= self.a < self.p <= 1.0:
            raise ValueError("need 0 <= a < p <= 1")


@dataclass(frozen=True)
class SineIntegral:
    """Pr{N > n} via the generalized sine integral on [a, p]."""

    a: float
    p: float

    def __post_init__(self):
        if not 0.0 <= self.a < self.p <= 1.0:
            raise ValueError("need 0 <= a < p <= 1")


@dataclass(frozen=True)
class CustomThreshold:
    """Explicit tail sequence q_0, q_1, ...; zero beyond the end."""

    q: tuple

    def __post_init__(self):
        q = tuple(float(x) for x in self.q)
        object.__setattr__(self, "q", q)
        if not q or q[0] != 1.0:
            raise ValueError("q_0 must be 1")
        if any(b > a for a, b in zip(q, q[1:])) or q[-1] < 0.0:
            raise ValueError("tails must be non-increasing and non-negative")


def threshold_tail(d, n):
    """q_n = Pr{N > n} for the chosen law."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return 1.0
    if isinstance(d, Geometric):
        return (1.0 - d.p) ** n
    if isinstance(d, Logarithmic):
        return incomplete_beta(d.p, n + 1.0, 0.0) / -math.log1p(-d.p)
    if isinstance(d, IncGamma):
        norm = math.exp(-d.a) - math.exp(-d.p)
        return generalized_incomplete_gamma(n + 1.0, d.a, d.p) / norm
    if isinstance(d, SineIntegral):
        norm = math.cos(d.a) - math.cos(d.p)
        return generalized_sine_integral(n + 1.0, d.a, d.p) / norm
    if isinstance(d, CustomThreshold):
        return d.q[n] if n < len(d.q) else 0.0
    raise ValueError("unknown threshold law %r" % (d,))


def threshold_pmf(d, n):
    """p_n = q_(n-1) - q_n, n >= 1."""
    if n < 1:
        raise ValueError("n must be positive")
    return threshold_tail(d, n - 1) - threshold_tail(d, n)


@dataclass(frozen=True)
class ShockModel:
    rates: RateMatrix
    alpha: float
    threshold: object

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        # probe at n=1: the n=0 shortcut would accept any object
        threshold_tail(self.threshold, 1)


@lru_cache(maxsize=32)
def _tables(rates, alpha, nmax):
    """(B, D, U): the scaled level table and finite-difference tables.

    B[n, Z] = Z! * sum over mixed compositions of total n with Z jumps
    of prod (-lam_ij/lam)^x / x!: (-1)^Z times the jump-count profile of
    the rates pooled by jump size, so |B| <= 1.
    D[x, Z] = sum_y (-1)^y C(x,y) C(alpha y, Z), exactly zero for x > Z.
    U[Z] = sum_x D[x, Z].
    """
    size = nmax + 1
    by_size = itertools.zip_longest(*rates.rows, fillvalue=0.0)
    pooled = RateMatrix([map(math.fsum, by_size)])
    zs = np.arange(size)
    signs = np.where(zs % 2 == 0, 1.0, -1.0)
    b = np.zeros((size, size))
    for n in range(size):
        z0, col = jump_profile(pooled, (n,))
        b[n, z0 : z0 + len(col)] = col
    b *= signs
    # C(alpha y, Z) by the column recurrence C(x, Z) = C(x, Z-1)(x-Z+1)/Z
    steps = (alpha * zs[:, None] - zs[None, :-1]) / zs[None, 1:]
    cb = np.ones((size, size))
    cb[:, 1:] = np.cumprod(steps, axis=1)
    pascal = np.zeros((size, size))
    pascal[0, 0] = 1.0
    for x in range(1, size):
        pascal[x, 0] = 1.0
        pascal[x, 1:] = pascal[x - 1, 1:] + pascal[x - 1, :-1]
    signed = pascal * signs
    d = np.triu(signed @ cb)
    return b, d, d.sum(axis=0)


def _level_pmf(model, t, nmax):
    """Vector P[n] = sum over states with total n of the MGSFCP pmf."""
    b, d, _ = _tables(model.rates, model.alpha, nmax)
    a = model.rates.total**model.alpha * t
    xs = np.arange(nmax + 1)
    if a == 0.0:
        pois = np.zeros(nmax + 1)
        pois[0] = 1.0
    else:
        pois = np.exp(-a + xs * np.log(a) - gammaln(xs + 1))
    # |B| <= 1 and |D| <= 1 (each column of |D| sums to 1: D[x, Z] is the
    # w^Z coefficient of (1 - (1+w)^alpha)^x, whose expansion in -w has
    # nonnegative coefficients with total 1), so both contractions are
    # absolutely stable for any t.
    return b @ (pois @ d)


@lru_cache(maxsize=32)
def _jump_rates(rates, alpha, i):
    """(J_i(1..k_i), suffix sums over l) for single-component jumps."""
    v = Mgsfcp(alpha)
    ki = rates.ks[i]
    js = []
    for l in range(1, ki + 1):
        jump = tuple(l if r == i else 0 for r in range(rates.q))
        js.append(variant_transition_rate(v, rates, jump))
    suffix = list(js)
    for m in range(ki - 2, -1, -1):
        suffix[m] += suffix[m + 1]
    return tuple(js), tuple(suffix)


def _tail_values(model, upto):
    return [threshold_tail(model.threshold, n) for n in range(upto + 1)]


def hazard_rate(model, i, l, nbar, t):
    """Rate of a fatal type-i shock of size l from state nbar at time t.

    Numerator and denominator are evaluated through different series
    (the finite x/y double sum against the r-series pmf), so the ratio
    carries a real consistency check even though it is analytically the
    constant single-component jump rate J_i(l).
    """
    rates = model.rates
    if not 0 <= i < rates.q:
        raise ValueError("component index out of range")
    if not 1 <= l <= rates.ks[i]:
        raise ValueError("jump size out of range")
    if not t > 0:
        raise ValueError("t must be positive")
    _check_state(rates, nbar)
    alpha = model.alpha
    a = rates.total**alpha * t

    def ktilde(z):
        inner = 0.0
        apow = 1.0
        for x in range(z + 1):
            diff = 0.0
            for y in range(x + 1):
                diff += (-1.0) ** y * math.comb(x, y) * falling_factorial(
                    alpha * y, z
                )
            inner += apow * diff
            apow *= a / (x + 1.0)
        return (-1.0) ** z * inner / math.factorial(z)

    total = _profile_sum(rates, nbar, ktilde)
    numer = _jump_rates(rates, alpha, i)[0][l - 1] * math.exp(-a) * total
    denom = variant_pmf(Mgsfcp(alpha), rates, nbar, t)
    if denom <= 0.0:
        raise ValueError("pmf vanishes at this state; hazard undefined")
    return numer / denom


def _series_over_threshold(model, fn, first_n):
    """sum_n fn(n, tails) with the adaptive table and truncation rule."""
    nmax = _NMAX_START
    tails = _tail_values(model, nmax)
    refresh = fn(nmax)
    total = 0.0
    small = 0
    n = first_n
    while True:
        if n > nmax:
            if nmax >= _NMAX_CAP:
                warnings.warn(
                    "threshold series not converged by n=%d" % nmax,
                    TruncationWarning,
                    stacklevel=3,
                )
                break
            nmax = min(2 * nmax, _NMAX_CAP)
            tails = _tail_values(model, nmax)
            refresh = fn(nmax)
        term = refresh(n, tails)
        total += term
        if abs(term) < _TERM_TOL and tails[n] < _TAIL_TOL:
            small += 1
            if small >= 3:
                break
        else:
            small = 0
        n += 1
    return total


def reliability(model, t):
    """Survival probability L(t) = sum_n q_n P{total shock count = n}."""
    if not t >= 0:
        raise ValueError("t must be non-negative")

    def fn(nmax):
        plevel = _level_pmf(model, t, nmax)

        def term(n, tails):
            return tails[n] * plevel[n]

        return term

    return _series_over_threshold(model, fn, 0)


def failure_density(model, i, t):
    """Density of failure time with the fatal shock of type i.

    h_i(t) = sum_n p_n sum_{S=max(0,n-k_i)}^{n-1} P_S(t)
             * sum_{l=n-S}^{k_i} J_i(l),
    counting every fatal jump size, not only the exact crossing.
    """
    rates = model.rates
    if not 0 <= i < rates.q:
        raise ValueError("component index out of range")
    if not t > 0:
        raise ValueError("t must be positive")
    ki = rates.ks[i]
    suffix = _jump_rates(rates, model.alpha, i)[1]

    def fn(nmax):
        plevel = _level_pmf(model, t, nmax)

        def term(n, tails):
            pn = tails[n - 1] - tails[n]
            if pn == 0.0:
                return 0.0
            acc = 0.0
            for s in range(max(0, n - ki), n):
                acc += plevel[s] * suffix[n - s - 1]
            return pn * acc

        return term

    return _series_over_threshold(model, fn, 1)


def prob_failure_type(model, i):
    """Pr{the failure is caused by a type-i shock}.

    The time integral of each failure-density term is analytic
    (int e^(-a) a^x dt = x! / lam^alpha), so this is failure_density
    integrated over (0, inf) termwise.
    """
    rates = model.rates
    if not 0 <= i < rates.q:
        raise ValueError("component index out of range")
    ki = rates.ks[i]
    suffix = _jump_rates(rates, model.alpha, i)[1]
    inv_rate = rates.total ** -model.alpha

    def fn(nmax):
        b, _, u = _tables(rates, model.alpha, nmax)
        glevel = inv_rate * (b @ u)

        def term(n, tails):
            pn = tails[n - 1] - tails[n]
            if pn == 0.0:
                return 0.0
            acc = 0.0
            for s in range(max(0, n - ki), n):
                acc += glevel[s] * suffix[n - s - 1]
            return pn * acc

        return term

    return _series_over_threshold(model, fn, 1)


_FIG_FAMILY = {
    "fig1": Geometric,
    "fig2": Logarithmic,
    "fig3": IncGamma,
    "fig4": SineIntegral,
}


def figure_rates(which):
    """The two illustration rate matrices (q=2, ks=(1,2))."""
    if which == 1:
        return RateMatrix([[0.5], [0.5, 0.5]])
    if which == 2:
        return RateMatrix([[1.0], [1.0, 1.0]])
    raise ValueError("which must be 1 or 2")


def reliability_curve(model, t_grid, case="general"):
    """Sampled survival curve [(t, L(t))] with the preset-case checks."""
    if case != "general":
        family = _FIG_FAMILY.get(case)
        if family is None:
            raise ValueError("case must be general or fig1..fig4")
        if model.rates.q != 2 or model.rates.ks != (1, 2):
            raise ValueError("%s requires q=2, ks=(1, 2)" % case)
        if not isinstance(model.threshold, family):
            raise ValueError(
                "%s pairs with the %s threshold" % (case, family.__name__)
            )
    return [(float(t), reliability(model, float(t))) for t in t_grid]
