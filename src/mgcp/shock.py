"""Shock-model reliability driven by the space-fractional variant.

Shocks of q types arrive as the components of an MGSFCP; the system
fails once the total shock count reaches a random threshold N.  This
module computes hazard rates, per-type failure densities, failure-type
probabilities and the survival function, plus the four named threshold
laws.

Each quantity is a series over threshold values.  Two routes sum it.

The mixture route serves the four named laws.  Each is a mixture of
geometric laws, q_n = Pr{N > n} = int x^n mu(dx), with mu its mixing
measure (the law's mixture()).  The total shock count has the pgf
G_t(x) = exp(-t c(x)^alpha), c(x) = sum_ij lambda_ij (1 - x^j), so
swapping the sums turns each quantity into one smooth integral over mu:
L(t) = int G_t dmu, h_i(t) = int G_t sum_{l<=k_i} J_i(l)(1 - x^l) dmu
and Pr{type i} = int sum_{l<=k_i} J_i(l)(1 - x^l) / c^alpha dmu.  A
tanh-sinh rule on mu's interval takes them (Takahasi and Mori 1974,
Publ. RIMS 9); each node carries its gap 1 - x, so 1 - x^l keeps its
relative accuracy up to the cusp at p = 1.  Every call checks its own
error: the full sum against the sum over every other node, which is
the rule of twice the step.  Where they differ by more than 1e-13 of
the sum the step halves, down to 2^-8, past which the call warns with
the estimate.  Each t of a curve takes its step on its own.

The table route serves CustomThreshold, and the tests check the
mixture route against it.  It needs the level pmf P{total count = n}.
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
of N levels takes about log2 N matrix products.  The sums stop on a
bound of the mass they drop, or at 512 levels with a TruncationWarning.
reliability_curve evaluates its whole t grid at once, with one
Poisson-weight matrix and one table product per table size;
reliability is its one-point case, and each t keeps its stop rule.
hazard_rate keeps the paper's finite-difference double sum per jump
count, so its numerator is an independent route.
"""

import collections
import itertools
import math
import sys
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
# the mixture route's tanh-sinh steps 2^-level, and the error it accepts
_LEVEL_START = 4
_LEVEL_CAP = 8
_QUAD_TOL = 1e-13
# an error below the smallest normal double counts as converged: a sum
# that small is subnormal and keeps no relative accuracy
_QUAD_FLOOR = sys.float_info.min
# the nodes stop at |u| = 3.3, where the distance to an end of mu's
# interval is 1e-18 of its length, or at u = 6 toward p = 1, 1e-275 of
# it, where the mass of G_t sits at large t and small alpha
_U_END = 3.3
_U_CUSP = 6.0

Atom = collections.namedtuple("Atom", "gap")
Atom.__doc__ = "A mixing measure that is one unit atom, at x = 1 - gap."
Density = collections.namedtuple("Density", "a p density")
Density.__doc__ = "A mixing measure density(x, 1 - x) dx on (a, p)."


@dataclass(frozen=True)
class Geometric:
    """Pr{N > n} = (1 - p)^n."""

    p: float

    def __post_init__(self):
        if not 0.0 < self.p <= 1.0:
            raise ValueError("p must lie in (0, 1]")

    def mixture(self):
        """mu = the unit atom at x = 1 - p."""
        return Atom(self.p)

    def tail(self, n):
        """q_n for n >= 1."""
        return (1.0 - self.p) ** n


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

    def mixture(self):
        """mu(dx) = dx / ((1 - x)(-ln(1 - p))) on (0, p)."""
        norm = -math.log1p(-self.p)
        return Density(0.0, self.p, lambda x, gap: 1.0 / (gap * norm))

    def tail(self, n):
        """q_n for n >= 1."""
        return incomplete_beta(self.p, n + 1.0, 0.0) / -math.log1p(-self.p)


@dataclass(frozen=True)
class IncGamma:
    """Pr{N > n} via the generalized incomplete gamma on [a, p]."""

    a: float
    p: float

    def __post_init__(self):
        if not 0.0 <= self.a < self.p <= 1.0:
            raise ValueError("need 0 <= a < p <= 1")

    def mixture(self):
        """mu(dx) = e^(-x) dx / (e^(-a) - e^(-p)) on (a, p)."""
        norm = math.exp(-self.a) - math.exp(-self.p)
        return Density(self.a, self.p, lambda x, gap: np.exp(-x) / norm)

    def tail(self, n):
        """q_n for n >= 1."""
        norm = math.exp(-self.a) - math.exp(-self.p)
        return generalized_incomplete_gamma(n + 1.0, self.a, self.p) / norm


@dataclass(frozen=True)
class SineIntegral:
    """Pr{N > n} via the generalized sine integral on [a, p]."""

    a: float
    p: float

    def __post_init__(self):
        if not 0.0 <= self.a < self.p <= 1.0:
            raise ValueError("need 0 <= a < p <= 1")

    def mixture(self):
        """mu(dx) = sin x dx / (cos a - cos p) on (a, p)."""
        norm = math.cos(self.a) - math.cos(self.p)
        return Density(self.a, self.p, lambda x, gap: np.sin(x) / norm)

    def tail(self, n):
        """q_n for n >= 1."""
        norm = math.cos(self.a) - math.cos(self.p)
        return generalized_sine_integral(n + 1.0, self.a, self.p) / norm


@dataclass(frozen=True)
class CustomThreshold:
    """Explicit tail sequence q_0, q_1, ...; zero beyond the end."""

    q: tuple

    def __post_init__(self):
        q = tuple(float(x) for x in self.q)
        object.__setattr__(self, "q", q)
        if not q or q[0] != 1.0:
            raise ValueError("q_0 must be 1")
        if not all(math.isfinite(x) for x in q):
            raise ValueError("tails must be finite")
        if any(b > a for a, b in zip(q, q[1:])) or q[-1] < 0.0:
            raise ValueError("tails must be non-increasing and non-negative")

    def mixture(self):
        """None: any tail sequence, so the table route sums its series."""
        return None

    def tail(self, n):
        """q_n for n >= 1."""
        return self.q[n] if n < len(self.q) else 0.0


def threshold_tail(d, n):
    """q_n = Pr{N > n} for the chosen law."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return 1.0
    try:
        tail = d.tail
    except AttributeError:
        raise ValueError("unknown threshold law %r" % (d,)) from None
    return tail(n)


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


def _pooled(rates):
    """The rates pooled over components by jump size, sizes 1..max k."""
    return [math.fsum(col) for col in itertools.zip_longest(*rates.rows, fillvalue=0.0)]


@lru_cache(maxsize=8)
def _level_profiles(rates, nmax):
    """S[k, z] for k, z <= nmax: the level jumps' profiles, read-only.

    S[k, z] is the chance that z jumps drawn from the rates pooled by
    jump size add up to k (compositions.jump_profile).  It does not
    depend on alpha, so every alpha of one rate matrix and table size
    shares it.
    """
    pooled = RateMatrix([_pooled(rates)])
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


# at most this many (rates, alpha) keep their jump rates (_jump_rates); an
# entry holds 2 (k_1 + ... + k_q) floats, so the memo stays small while it
# holds every (rates, alpha) of a long sweep
_JUMP_RATE_ENTRIES = 1024


@lru_cache(maxsize=_JUMP_RATE_ENTRIES)
def _jump_rates(rates, alpha):
    """(J_i(1..k_i), suffix sums over l) for single-component jumps, per component i."""
    v = Mgsfcp(alpha)
    out = []
    for i, ki in enumerate(rates.ks):
        js = []
        for l in range(1, ki + 1):
            jump = tuple(l if r == i else 0 for r in range(rates.q))
            js.append(variant_transition_rate(v, rates, jump))
        suffix = list(js)
        for m in range(ki - 2, -1, -1):
            suffix[m] += suffix[m + 1]
        out.append((tuple(js), tuple(suffix)))
    return tuple(out)


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
    nbar = _check_state(rates, nbar)
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
    numer = _jump_rates(rates, alpha)[i][0][l - 1] * math.exp(-a) * total
    denom = variant_pmf(Mgsfcp(alpha), rates, nbar, t)
    if denom <= 0.0:
        raise ValueError("pmf vanishes at this state; hazard undefined")
    return numer / denom


_Rule = collections.namedtuple("_Rule", "c pairs")


@lru_cache(maxsize=64)
def _mixture_rule(rates, law, level):
    """A quadrature over the law's mixing measure mu, read-only.

    c = c(x) = sum_ij lambda_ij (1 - x^j) at the nodes x, and
    pairs[l] = (w (1 - x^l), w' (1 - x^l)) there, node by node, for
    l = 0..max k: w is mu's weight at x and w' that of a coarser rule,
    zero off its nodes, for the error check.  Each 1 - x^l is formed
    from the node's gap 1 - x as -expm1(l log1p(-gap)).
    A density on (a, p) takes the tanh-sinh rule of step h = 2^-level,
    x = (a + p)/2 + (p - a)/2 tanh(pi/2 sinh u) at u = jh, and its
    coarse rule is that of step 2h, the nodes of even j.  The distances
    d = (p - a)/(1 + e^(pi sinh u)) to p and e = (p - a)/(1 + e^(-pi sinh u))
    from a are both formed without cancelling, and gap = (1 - p) + d.
    An atom is its own rule at every level, and its own coarse rule.
    """
    mu = law.mixture()
    if isinstance(mu, Atom):
        gap = np.array([mu.gap])
        weights = coarse = np.ones(1)
    else:
        a, p, density = mu
        h = 0.5**level
        top = _U_CUSP if p == 1.0 else _U_END
        j = np.arange(-math.floor(_U_END / h), math.floor(top / h) + 1)
        s = math.pi * np.sinh(j * h)
        width = p - a
        d = width / (1.0 + np.exp(s))
        e = width / (1.0 + np.exp(-s))
        gap = (1.0 - p) + d
        weights = h * math.pi * np.cosh(j * h) * (d * e / width) * density(a + e, gap)
        coarse = np.where(j % 2 == 0, 2.0 * weights, 0.0)
    powers = np.ones((max(rates.ks) + 1, gap.size))
    with np.errstate(divide="ignore"):
        # gap = 1 at x = 0, where 1 - x^l = 1
        powers[1:] = -np.expm1(np.multiply.outer(np.arange(1, len(powers)), np.log1p(-gap)))
    c = np.array(_pooled(rates)) @ powers[1:]
    pairs = np.stack((weights * powers, coarse * powers), axis=2).reshape(len(powers), -1)
    pairs.flags.writeable = False
    c.flags.writeable = False
    return _Rule(c, pairs)


def _mixture_sums(model, coef, kernel, m):
    """(values, error estimates) of m integrals over mu, as lists.

    Integral k is int kernel(cpow, rows)[k] sum_l coef[l] (1 - x^l) mu(dx),
    with cpow = c(x)^alpha at the nodes, 1 - x^0 read as 1, and rows
    the integrals still open, one kernel row each.  Each integral halves
    its step until its full sum and its coarse sum agree within 1e-13
    of the full sum, or until the step is 2^-8; its value depends on its
    own row alone.  Below the smallest normal double the error is
    absolute.
    """
    values, errors = [0.0] * m, [0.0] * m
    todo = list(range(m))
    level = _LEVEL_START
    while todo:
        rule = _mixture_rule(model.rates, model.threshold, level)
        weights = (coef @ rule.pairs[: len(coef)]).reshape(-1, 2)
        sums = kernel(rule.c**model.alpha, todo) @ weights
        left = []
        for k, (full, coarse) in zip(todo, sums.tolist()):
            values[k], errors[k] = full, abs(full - coarse)
            if errors[k] > _QUAD_TOL * abs(full) + _QUAD_FLOOR:
                left.append(k)
        if level == _LEVEL_CAP:
            break
        todo = left
        level += 1
    return values, errors


def _quadrature_note(value, error, what):
    """The warning of a mixture integral left above its error bound, or None."""
    if error <= _QUAD_TOL * abs(value) + _QUAD_FLOOR:
        return None
    return "mixture quadrature not converged at step 2^-%d: the error estimate is %.3g of %s" % (
        _LEVEL_CAP,
        error / abs(value) if value else math.inf,
        what,
    )


def _mixture_failure(model, i, t):
    """h_i(t), or Pr{type i} for t = None, by the mixture route."""
    coef = np.array((0.0,) + _jump_rates(model.rates, model.alpha)[i][0])
    if t is None:
        kernel, what = (lambda cpow, rows: 1.0 / cpow[None, :]), "Pr{type i}"
    else:
        kernel, what = (lambda cpow, rows: np.exp(-t * cpow)[None, :]), "h_i(t)"
    (value,), (error,) = _mixture_sums(model, coef, kernel, 1)
    note = _quadrature_note(value, error, what)
    if note:
        warnings.warn(note, TruncationWarning, stacklevel=3)
    return value


def _failure_series(model, i, levels, density):
    """sum_n p_n sum_{S=max(0,n-k_i)}^{n-1} V[S] sum_{l=n-S}^{k_i} J_i(l).

    V = levels(nmax) is a level vector: the level pmf at t for the
    failure density, its time integral G for the failure-type split.
    The inner sum is the convolution of V with the suffix sums of J_i.
    nmax doubles from 32 and stops at 512 with a TruncationWarning.
    For the density the terms past n = N hold only levels S > N - k_i,
    each with a fatal rate at most J_i = sum_l J_i(l) and a threshold
    chance at most q_(N+1-k_i), so the sum stops once
    J_i q_(N+1-k_i) P{total > N - k_i} is below 1e-13 of it; the
    warning at the cap states that bound.  G has no such bound, so the
    split reads every term up to q_nmax = 0, where the series ends.  At
    the cap it warns unless three consecutive terms are below 1e-12 with
    tails below 1e-8.
    """
    suffix = _jump_rates(model.rates, model.alpha)[i][1]
    ki = len(suffix)
    nmax = _NMAX_START
    while True:
        tails = _tail_values(model.threshold, nmax)
        v = levels(nmax)
        # terms[n - 1] is term n, n = 1..nmax
        terms = -np.diff(tails) * np.convolve(v, suffix)[:nmax]
        if density:
            total = math.fsum(terms)
            beyond = max(0.0, 1.0 - math.fsum(v[: nmax + 1 - ki]))
            dropped = suffix[0] * tails[nmax + 1 - ki] * beyond
            if dropped <= _MASS_TOL * total:
                return total
            if nmax >= _NMAX_CAP:
                warnings.warn(
                    "threshold series not converged by n=%d: the dropped mass is at "
                    "most %.3g of h_i(t)"
                    % (_NMAX_CAP, dropped / total if total else math.inf),
                    TruncationWarning,
                    stacklevel=3,
                )
                return total
        elif tails[-1] == 0.0:
            # no threshold passes nmax: the series has ended
            return math.fsum(terms)
        elif nmax >= _NMAX_CAP:
            small = (np.abs(terms) < _TERM_TOL) & (tails[1:] < _TAIL_TOL)
            if not np.any(small[:-2] & small[1:-1] & small[2:]):
                warnings.warn(
                    "threshold series not converged by n=%d" % nmax,
                    TruncationWarning,
                    stacklevel=3,
                )
            return math.fsum(terms)
        nmax = min(2 * nmax, _NMAX_CAP)


def _table_survival(model, ts):
    """(L, notes) at the times ts >= 0 by the table route.

    L(t) = sum_n q_n P{total = n at t} = sum_m Pois(a; m) r_m, with
    a = Lambda^alpha t and r_m = sum_n q_n L[n, m] the chance that the threshold outlasts m
    level jumps: the level pmf L @ Pois(a) summed against the tails in
    the other order.  The sum over n <= N drops at most
    q_(N+1) P{total > N}, since the tails do not increase, and
    P{total <= N} = sum_m Pois(a; m) c_m with c the column sums of L.
    N doubles from 32 for the t whose bound is not yet below 1e-13 L(t),
    so each table size takes one Poisson-weight matrix and one product
    of it with the two table rows r and c.  Past n = 512 a sum stops
    with a TruncationWarning that states the bound.  Where even the
    bound exceeds the sum, as when the level pmf has moved past n = 512
    (large t), the value is unknown: a ValueError naming t.  notes[k]
    is None, or the (category, message) of t k.
    """
    a = model.rates.total**model.alpha * ts
    # at t = 0 no shock has come: L(0) = q_0 = 1 with nothing dropped
    values = np.ones(a.size)
    dropped = np.zeros(a.size)
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
    notes = []
    for total, drop in zip(values.tolist(), dropped.tolist()):
        if drop <= _MASS_TOL * total:
            notes.append(None)
        elif drop > total:
            notes.append((
                ValueError,
                "the levels up to n = %d give %.6g, and the mass past them may be up to %.6g"
                % (_NMAX_CAP, total, drop),
            ))
        else:
            notes.append((
                TruncationWarning,
                "threshold series not converged by n=%d: the dropped mass is at "
                "most %.3g of L(t)" % (_NMAX_CAP, drop / total),
            ))
    return values.tolist(), notes


def _mixture_survival(model, ts):
    """(L, notes) at the times ts >= 0 by the mixture route.

    L(t) = int exp(-t c(x)^alpha) mu(dx) for each t > 0, the whole grid
    in one exponential per rule; L(0) = 1.  A sum that rounding lifts
    above 1 is clamped to 1.
    """
    todo = np.flatnonzero(ts > 0.0)

    def kernel(cpow, rows):
        return np.exp(np.multiply.outer(-ts[todo[rows]], cpow))

    values = [1.0] * ts.size
    notes = [None] * ts.size
    sums, errors = _mixture_sums(model, np.ones(1), kernel, todo.size)
    for k, total, error in zip(todo.tolist(), sums, errors):
        values[k] = min(total, 1.0)
        note = _quadrature_note(total, error, "L(t)")
        if note:
            notes[k] = (TruncationWarning, note)
    return values, notes


def _survival(model, ts):
    """[L(t) for t in ts]: a whole grid, by the threshold's route.

    Errors and warnings come in grid order and name the caller of the
    public function.
    """
    bad = next((k for k, t in enumerate(ts) if not 0 <= t < math.inf), len(ts))
    good = np.array(ts[:bad], dtype=float)
    if model.threshold.mixture() is None:
        values, notes = _table_survival(model, good)
    else:
        values, notes = _mixture_survival(model, good)
    for t, note in zip(ts, notes):
        if note is None:
            continue
        category, message = note
        if category is ValueError:
            raise ValueError("t = %r is too large for the threshold series: %s" % (t, message))
        warnings.warn(message, category, stacklevel=3)
    if bad < len(ts):
        raise ValueError("t must be non-negative and finite, got t = %r" % (ts[bad],))
    return values


def reliability(model, t):
    """Survival probability L(t) = sum_n q_n P{total shock count = n}.

    The one-point case of reliability_curve.  A named threshold law
    takes the mixture route, L(t) = int G_t(x) mu(dx), with its error
    estimated from the same nodes and held below 1e-13 L(t); at the
    finest step it warns with the estimate instead.  A CustomThreshold
    takes the table route: the sum stops once the mass it drops, at
    most q_(N+1) P{total > N}, is below 1e-13 L(t); past n = 512 it
    stops with a TruncationWarning that states the bound, and where the
    bound exceeds the sum (large t) it raises a ValueError naming t.
    """
    return _survival(model, [t])[0]


def failure_density(model, i, t):
    """Density of failure time with the fatal shock of type i.

    h_i(t) = sum_n p_n sum_{S=max(0,n-k_i)}^{n-1} P_S(t)
             * sum_{l=n-S}^{k_i} J_i(l),
    counting every fatal jump size, not only the exact crossing.  A
    named threshold law takes it as int G_t(x) sum_l J_i(l)(1 - x^l)
    mu(dx), a CustomThreshold by the table route.
    """
    rates = model.rates
    if not 0 <= i < rates.q:
        raise ValueError("component index out of range")
    if not 0 < t < math.inf:
        raise ValueError("t must be positive and finite, got t = %r" % (t,))
    if model.threshold.mixture() is not None:
        return _mixture_failure(model, i, t)
    return _failure_series(model, i, lambda nmax: _level_pmf(model, t, nmax), True)


def prob_failure_type(model, i):
    """Pr{the failure is caused by a type-i shock}.

    The time integral of each failure-density term is analytic
    (int e^(-a) a^x dt = x! / lam^alpha), so this is failure_density
    integrated over (0, inf) termwise: for a named threshold law
    int sum_l J_i(l)(1 - x^l) / c(x)^alpha mu(dx).
    """
    rates = model.rates
    if not 0 <= i < rates.q:
        raise ValueError("component index out of range")
    if model.threshold.mixture() is not None:
        return _mixture_failure(model, i, None)
    return _failure_series(
        model, i, lambda nmax: _tables(rates, model.alpha, nmax)[1], False
    )


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
