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
It is built by doubling: pi is one product of the memoised profile
matrix of the pooled rates with the stable clock's atoms, and once
column m = pi^{*m} is known, columns m + 1 .. 2m are the lower
triangular Toeplitz matrix of column m times columns 1 .. m, so a table
of N levels takes about log2 N matrix products.
reliability_curve evaluates its whole t grid at once, with one
Poisson-weight matrix and one table product per table size;
reliability is its one-point case, and each t keeps its stop rule.
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
from .subordinators import Stable
from .variants import (
    Mgsfcp,
    _clock_atoms,
    _profile_sum,
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


@lru_cache(maxsize=8)
def _level_profiles(rates, nmax):
    """S[k, z] for k, z <= nmax: the level jumps' profiles, read-only.

    S[k, z] is the chance that z jumps drawn from the rates pooled by
    jump size add up to k (compositions.jump_profile).  It does not
    depend on alpha, so every alpha of one rate matrix and table size
    shares it.
    """
    by_size = itertools.zip_longest(*rates.rows, fillvalue=0.0)
    pooled = RateMatrix([map(math.fsum, by_size)])
    size = nmax + 1
    profiles = np.zeros((size, size))
    for k in range(1, size):
        z0, col = jump_profile(pooled, (k,))
        profiles[k, z0 : z0 + len(col)] = col
    profiles.flags.writeable = False
    return profiles


def _toeplitz_product(d, b):
    """T @ b for the lower triangular Toeplitz matrix T[r, s] = d[r - s].

    T is cut into square blocks.  Block (I, J) is the Toeplitz block T_D
    of offset D = I - J, zero for D < 0, so row block I of the product
    is sum_{D <= I} T_D @ b_(I - D): one stacked product per D, which
    skips the zero blocks above the diagonal.  The side is the largest
    with side^2 * w <= 2^18 multiply-adds per block product, b having w
    columns: OpenBLAS computes such a product on the calling thread,
    and larger ones, which it splits across threads, stalled for 8-16 ms
    each on a 2-CPU Xeon.  For tables of up to 64 levels each call is
    one product.
    """
    k, w = b.shape
    side = min(k, math.isqrt((1 << 18) // w))
    nb = -(-k // side)
    pad = nb * side
    padded = np.zeros(pad + side - 1)
    padded[side - 1 : side - 1 + k] = d
    # windows[i, j] = padded[i + j], so blocks[D][r, s] = windows[D side + r,
    # side - 1 - s] = d[D side + r - s]; the reshape copies
    windows = np.ndarray((pad, side), buffer=padded, strides=padded.strides * 2)
    blocks = windows[:, ::-1].reshape(nb, side, side)
    rows = np.zeros((pad, w))
    rows[:k] = b
    rows = rows.reshape(nb, side, w)
    out = blocks[0] @ rows
    for offset in range(1, nb):
        out[offset:] += blocks[offset] @ rows[: nb - offset]
    return out.reshape(pad, w)[:k]


@lru_cache(maxsize=32)
def _tables(rates, alpha, nmax):
    """(L, G): the level-jump convolution table and its time integrals.

    The total shock count is compound Poisson.  Its level jumps come at
    rate Lambda^alpha, and one has size k with probability
    pi(k) = sum_z S[k, z] nu_1(z) / Lambda^alpha: nu_1 the stable clock's
    atoms (z base jumps at once; the variants._clock_atoms table that
    the Mgsfcp pmf and transition rates read) and S the jump-count
    profiles of the rates pooled by jump size (_level_profiles), so pi
    is one matrix-vector product.
    L[n, m] = pi^{*m}(n) is the chance that m level jumps add up to n,
    zero for m > n, so P{total = n at t} = sum_m L[n, m]
    Pois(Lambda^alpha t; m).  Lower triangular Toeplitz matrices
    multiply as their columns convolve, so once column m is known,
    columns m + 1 .. 2m are its Toeplitz matrix times columns 1 .. m,
    restricted to the rows n > m and the terms that can be nonzero
    (_toeplitz_product): columns 1, 2, 4, ... double in about log2 nmax
    products.  Each entry differs from the column-by-column convolution
    only in the order of its sum.
    G[n] = sum_m L[n, m] / Lambda^alpha is that pmf integrated over
    t in (0, inf).  Every entry is a sum of nonnegative terms.
    """
    rate = rates.total**alpha
    nu = np.array((0.0,) + _clock_atoms(Stable(alpha), rates.total, nmax)) / rate
    table = np.zeros((nmax + 1, nmax + 1))
    table[0, 0] = 1.0
    table[:, 1] = _level_profiles(rates, nmax) @ nu
    m = 1
    while m < nmax:
        k, w = nmax - m, min(m, nmax - m)
        step = _toeplitz_product(table[m:nmax, m], table[1 : k + 1, 1 : w + 1])
        table[m + 1 :, m + 1 : m + 1 + w] = step
        m *= 2
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
    computation of binomial probabilities, 2000).  A 1-D array a gives
    one column per value, the scalar's weights within an ulp.
    """
    n, c = _stirling_terms(nmax)
    if np.ndim(a):
        n, c, first = n[:, None], c[:, None], np.exp(-a)
    else:
        first = math.exp(-a)
    d = n - a
    out = np.empty((nmax + 1,) + d.shape[1:])
    out[0] = first
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
    """q_0, ..., q_upto as a read-only array, computed once per law and length."""
    tails = np.array([threshold_tail(threshold, n) for n in range(upto + 1)])
    tails.flags.writeable = False
    return tails


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
        tails = _tail_values(model.threshold, nmax)
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


def _survival(model, ts):
    """[L(t) for t in ts]: a whole grid, one table size at a time.

    L(t) = sum_n q_n P{total = n at t} = sum_m Pois(a; m) r_m, with
    a = Lambda^alpha t and r_m = sum_n q_n L[n, m] the chance that the
    threshold outlasts m level jumps: the level pmf L @ Pois(a) summed
    against the tails in the other order.  The sum over n <= N drops at
    most q_(N+1) P{total > N}, since the tails do not increase, and
    P{total <= N} = sum_m Pois(a; m) c_m with c the column sums of L.
    N doubles from 32 for the t whose bound is not yet below 1e-13 L(t),
    so each table size takes one Poisson-weight matrix and one product
    of it with the two table rows r and c.  Past n = 512 a sum stops
    with a TruncationWarning that states the bound.  Where even the
    bound exceeds the sum, as when the level pmf has moved past n = 512
    (large t), the value is unknown: ValueError naming t.  Errors and
    warnings come in grid order and name the caller of the public
    function.
    """
    bad = next((k for k, t in enumerate(ts) if not 0 <= t < math.inf), len(ts))
    a = model.rates.total**model.alpha * np.array(ts[:bad], dtype=float)
    # at t = 0 no shock has come: L(0) = q_0 = 1 with nothing dropped
    values = np.ones(bad)
    dropped = np.zeros(bad)
    todo = np.flatnonzero(a > 0.0)
    nmax = _NMAX_START
    while todo.size:
        table, _ = _tables(model.rates, model.alpha, nmax)
        tails = _tail_values(model.threshold, nmax + 1)
        rows = np.stack((tails[:-1] @ table, table.sum(axis=0)))
        # each t sums its own contiguous row of terms, so its value does
        # not depend on the rest of the grid
        pois = _poisson_weights(a[todo], nmax).T[:, None]
        values[todo], kept = np.multiply(pois, rows, order="C").sum(axis=2).T
        dropped[todo] = tails[-1] * np.maximum(0.0, 1.0 - kept)
        todo = todo[dropped[todo] > _MASS_TOL * values[todo]]
        if nmax >= _NMAX_CAP:
            break
        nmax = min(2 * nmax, _NMAX_CAP)
    values, dropped = values.tolist(), dropped.tolist()
    for t, total, drop in zip(ts, values, dropped):
        if drop <= _MASS_TOL * total:
            continue
        if drop > total:
            raise ValueError(
                "t = %r is too large for the threshold series: the levels "
                "up to n = %d give %.6g, and the mass past them may be up to %.6g"
                % (t, _NMAX_CAP, total, drop)
            )
        warnings.warn(
            "threshold series not converged by n=%d: the dropped mass is at "
            "most %.3g of L(t)" % (_NMAX_CAP, drop / total),
            TruncationWarning,
            stacklevel=3,
        )
    if bad < len(ts):
        raise ValueError("t must be non-negative and finite, got t = %r" % (ts[bad],))
    return values


def reliability(model, t):
    """Survival probability L(t) = sum_n q_n P{total shock count = n}.

    The one-point case of reliability_curve.  The sum stops once the
    mass it drops, at most q_(N+1) P{total > N}, is below 1e-13 L(t);
    past n = 512 it stops with a TruncationWarning that states the
    bound, and where the bound exceeds the sum (large t) it raises a
    ValueError naming t.
    """
    return _survival(model, [t])[0]


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
    """Sampled survival curve [(t, L(t))] with the preset-case checks.

    The whole grid is evaluated at once: one Poisson-weight matrix and
    one table product per table size, and each t keeps reliability's
    stop rule.  The values, warnings and errors are those of calling
    reliability at each t in grid order.
    """
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
    ts = [float(t) for t in t_grid]
    return list(zip(ts, _survival(model, ts)))
