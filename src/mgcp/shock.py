"""Shock-model reliability driven by the space-fractional variant.

Shocks of q types arrive as the components of an MGSFCP; the system
fails once the total shock count reaches a random threshold N.  This
module computes hazard rates, per-type failure densities, failure-type
probabilities and the survival function, plus the four named threshold
laws.

The series over threshold values needs the level pmf P{total count = n}.
The total count is a one-dimensional compound Poisson process: the
joint jumps of the MGSFCP, pooled by their total size, give its level
jumps, which come at rate Lambda^alpha with size law pi.  So the level
pmf is sum_m Pois(Lambda^alpha t; m) pi^{*m}(n), a sum of nonnegative
terms.  The table of the convolution powers pi^{*m} depends only on
(rates, alpha) and is cached, as are the tails of each threshold law.
hazard_rate keeps the paper's finite-difference double sum per jump
count, so its numerator is an independent route.
"""

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gcp import RateMatrix, _check_state
from .compositions import jump_profile
from .specfun import (
    TruncationWarning,
    falling_factorial,
    generalized_incomplete_gamma,
    generalized_sine_integral,
    incomplete_beta,
)
from .variants import (
    Mgsfcp,
    _profile_sum,
    _stable_atom,
    variant_pmf,
    variant_transition_rate,
)

_NMAX_START = 32
_NMAX_CAP = 512
_TERM_TOL = 1e-12
_TAIL_TOL = 1e-8
# reliability stops once the mass it drops is below this share of L(t)
_MASS_TOL = 1e-13


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
    """(L, G): the level-jump convolution table and its time integrals.

    The total shock count is compound Poisson.  Its level jumps come at
    rate Lambda^alpha, and one has size k with probability
    pi(k) = sum_z S_k[z] nu_1(z) / Lambda^alpha: nu_1 the stable clock's
    atoms (z base jumps at once) and S_k the jump-count profile of k
    under the rates pooled by jump size.  L[n, m] = pi^{*m}(n) is the
    chance that m level jumps add up to n, zero for m > n, so
    P{total = n at t} = sum_m L[n, m] Pois(Lambda^alpha t; m).
    G[n] = sum_m L[n, m] / Lambda^alpha is that pmf integrated over
    t in (0, inf).  Every entry is a sum of nonnegative terms.
    """
    size = nmax + 1
    by_size = itertools.zip_longest(*rates.rows, fillvalue=0.0)
    pooled = RateMatrix([map(math.fsum, by_size)])
    rate = rates.total**alpha
    atom = _stable_atom((alpha, 0.0, 1.0), rates.total)
    nu = np.array([0.0] + [atom(z) for z in range(1, size)]) / rate
    pi = np.zeros(size)
    for k in range(1, size):
        z0, col = jump_profile(pooled, (k,))
        pi[k] = np.dot(col, nu[z0 : z0 + len(col)])
    table = np.zeros((size, size))
    table[0, 0] = 1.0
    for m in range(1, size):
        # column m is column m - 1 convolved with pi, kept on n >= m
        step = np.convolve(table[m - 1 : -1, m - 1], pi[1 : size - m + 1])
        table[m:, m] = step[: size - m]
    return table, table.sum(axis=1) / rate


# Stirling remainder log n! - (n + 1/2) log n + n - log sqrt(2 pi) for
# n = 1..15 (mpmath; Loader's table), and the coefficients of its
# asymptotic series, which is exact to 1e-16 from n = 16 on
_STIRLERR = (
    0.08106146679532726,
    0.0413406959554093,
    0.02767792568499834,
    0.020790672103765093,
    0.016644691189821193,
    0.013876128823070748,
    0.01189670994589177,
    0.010411265261972096,
    0.009255462182712733,
    0.00833056343336287,
    0.007573675487951841,
    0.00694284010720953,
    0.006408994188004207,
    0.0059513701127588475,
    0.005554733551962801,
)
_S0, _S1, _S2, _S3, _S4 = 1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188


@lru_cache(maxsize=8)
def _stirling_terms(nmax):
    """(n, -stirlerr(n) - log sqrt(2 pi n)) for n = 1..nmax, read-only."""
    n = np.arange(1, nmax + 1, dtype=float)
    nn = n * n
    stirl = (_S0 - (_S1 - (_S2 - (_S3 - _S4 / nn) / nn) / nn) / nn) / n
    small = min(nmax, len(_STIRLERR))
    stirl[:small] = _STIRLERR[:small]
    c = -stirl - 0.5 * np.log(2.0 * math.pi * n)
    n.flags.writeable = False
    c.flags.writeable = False
    return n, c


def _poisson_weights(a, nmax):
    """Pois(a; n) for n = 0..nmax, a > 0, in Loader's saddle-point form.

    exp(-stirlerr(n) - bd0(n, a)) / sqrt(2 pi n), with the deviance
    bd0 = n log(n / a) + a - n >= 0 taken through log1p.  The exponent
    is small where the mass is, so at a = 250 the weights there are
    within 1e-14 relative, where exp(-a + n log a - log n!) cancels
    terms of size a log a and is 4e-13 off (C. Loader, Fast and accurate
    computation of binomial probabilities, 2000).
    """
    n, c = _stirling_terms(nmax)
    d = n - a
    out = np.empty(nmax + 1)
    out[0] = math.exp(-a)
    np.exp(c - (n * np.log1p(d / a) - d), out=out[1:])
    return out


def _level_pmf(model, t, nmax):
    """Vector P[n] = P{total shock count = n at t}, n = 0..nmax.

    L @ Pois(Lambda^alpha t): every term is nonnegative, so each P[n]
    keeps the relative accuracy of its Poisson weights at any t, down to
    their underflow.
    """
    table, _ = _tables(model.rates, model.alpha, nmax)
    a = model.rates.total**model.alpha * t
    if a == 0.0:
        pois = np.zeros(nmax + 1)
        pois[0] = 1.0
    else:
        pois = _poisson_weights(a, nmax)
    return table @ pois


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


@lru_cache
def _tail_values(threshold, upto):
    """(q_0, ..., q_upto): the law's tails, computed once per law and length."""
    return tuple(threshold_tail(threshold, n) for n in range(upto + 1))


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


def _failure_series(model, i, levels):
    """sum_n p_n sum_{S=max(0,n-k_i)}^{n-1} V[S] sum_{l=n-S}^{k_i} J_i(l).

    V = levels(nmax) is a level vector: the level pmf at t for the
    failure density, its time integral G for the failure-type split.
    The inner sum is the convolution of V with the suffix sums of J_i.
    The series stops after three consecutive terms below 1e-12 whose
    tails are below 1e-8; nmax doubles from 32 and stops at 512 with a
    TruncationWarning.
    """
    suffix = _jump_rates(model.rates, model.alpha, i)[1]
    nmax = _NMAX_START
    while True:
        tails = np.array(_tail_values(model.threshold, nmax))
        # terms[n - 1] is term n, n = 1..nmax
        terms = -np.diff(tails) * np.convolve(levels(nmax), suffix)[:nmax]
        small = (np.abs(terms) < _TERM_TOL) & (tails[1:] < _TAIL_TOL)
        stops = np.flatnonzero(small[:-2] & small[1:-1] & small[2:])
        if stops.size:
            return math.fsum(terms[: stops[0] + 3])
        if nmax >= _NMAX_CAP:
            warnings.warn(
                "threshold series not converged by n=%d" % nmax,
                TruncationWarning,
                stacklevel=3,
            )
            return math.fsum(terms)
        nmax = min(2 * nmax, _NMAX_CAP)


def reliability(model, t):
    """Survival probability L(t) = sum_n q_n P{total shock count = n}.

    The sum over n <= N drops at most q_(N+1) P{total > N}, since the
    tails do not increase.  N doubles from 32 until that bound is below
    1e-13 L(t); past n = 512 the sum stops with a TruncationWarning that
    states the bound.  Where even the bound exceeds the sum, as when the
    level pmf has moved past n = 512 (large t), the value is unknown:
    ValueError naming t.
    """
    if not 0 <= t < math.inf:
        raise ValueError("t must be non-negative and finite, got t = %r" % (t,))
    nmax = _NMAX_START
    while True:
        plevel = _level_pmf(model, t, nmax)
        tails = np.array(_tail_values(model.threshold, nmax + 1))
        total = float(tails[:-1] @ plevel)
        dropped = tails[-1] * max(0.0, 1.0 - plevel.sum())
        if dropped <= _MASS_TOL * total:
            return total
        if nmax >= _NMAX_CAP:
            break
        nmax = min(2 * nmax, _NMAX_CAP)
    if dropped > total:
        raise ValueError(
            "t = %r is too large for the threshold series: the levels "
            "up to n = %d give %.6g, and the mass past them may be up to %.6g"
            % (t, nmax, total, dropped)
        )
    warnings.warn(
        "threshold series not converged by n=%d: the dropped mass is at "
        "most %.3g of L(t)" % (nmax, dropped / total),
        TruncationWarning,
        stacklevel=2,
    )
    return total


def failure_density(model, i, t):
    """Density of failure time with the fatal shock of type i.

    h_i(t) = sum_n p_n sum_{S=max(0,n-k_i)}^{n-1} P_S(t)
             * sum_{l=n-S}^{k_i} J_i(l),
    counting every fatal jump size, not only the exact crossing.
    """
    rates = model.rates
    if not 0 <= i < rates.q:
        raise ValueError("component index out of range")
    if not 0 < t < math.inf:
        raise ValueError("t must be positive and finite, got t = %r" % (t,))
    return _failure_series(model, i, lambda nmax: _level_pmf(model, t, nmax))


def prob_failure_type(model, i):
    """Pr{the failure is caused by a type-i shock}.

    The time integral of each failure-density term is analytic
    (int e^(-a) a^x dt = x! / lam^alpha), so this is failure_density
    integrated over (0, inf) termwise.
    """
    rates = model.rates
    if not 0 <= i < rates.q:
        raise ValueError("component index out of range")
    return _failure_series(model, i, lambda nmax: _tables(rates, model.alpha, nmax)[1])


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
