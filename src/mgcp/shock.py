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
the estimate.  Each t of a curve takes its step on its own.  One
stepping loop (_mixture_sums) serves the curve, the densities and the
split: a single integral costs one kernel evaluation, one product and
a few float comparisons, and a curve one column of its open t, one
product and a float test per t at each step.  A model decides its
route once, when it is built, and keeps its hash, which every memo
keyed by it reads; models pickle and copy by being rebuilt from their
fields.  The weights of a step depend on the model and the step alone:
c(x)^alpha and the split's kernel 1/c(x)^alpha at the nodes, and the
weights times 1 or times sum_l J_i(l)(1 - x^l) for each component i.
They are kept once per (model, level), for up to 256 of them, so the
curve, the densities and the split of one model read one weighted
rule: at most 38096 (q + 2) bytes at the finest step, 39 MB for 256
such rules at q = 2.  Each weight is formed as
d (e / (p - a)) from the node's distances d and e to the ends, which
keeps it from underflowing on an interval narrower than 1e-154, and the
normalisers of the incomplete gamma and sine integral laws are formed
without cancelling, as e^(-a) (1 - e^(a - p)) and
2 sin((p + a)/2) sin((p - a)/2); a law whose normaliser still falls
below the smallest normal double, where it keeps too few digits, is
rejected.

The table route serves CustomThreshold, and the tests check the
mixture route against it.  It needs the level pmf P{total count = n}.
The total count is a one-dimensional compound Poisson process: the
joint jumps of the MGSFCP, pooled by their total size, give its level
jumps, which come at rate Lambda^alpha with size law pi.  So the level
pmf is sum_m Pois(Lambda^alpha t; m) pi^{*m}(n), a sum of nonnegative
terms.  The table L of the convolution powers pi^{*m} depends only on
(rates, alpha) and is cached, as are the tails of each threshold law.
It is built by doubling: pi is one product of the matrix of the pooled
rates' memoised jump-count profiles with the stable clock's atoms, and
once column m = pi^{*m} is known, columns m + 1 .. 2m are the lower
triangular Toeplitz matrix of column m times columns 1 .. m, so a table
of N levels takes about log2 N matrix products.  Swapping the sums puts
every quantity in one form, a weight row w against L read through
r = w @ L: L(t) and h_i(t) are sum_m Pois(Lambda^alpha t; m) r[m] and
Pr{type i} is sum_m r[m] / Lambda^alpha, with w the tails q for L(t)
and w[S] = sum_l J_i(l) (q_S - q_(S+l)) for component i.  One stepping
loop (_table_sums) serves the curve, the densities and the split, with
one stop rule: N doubles from 32 to 512, and each value stops once a
bound on the mass of the levels past N is at most 1e-13 of it.  Past
512 levels a value warns with its bound, and where the bound exceeds
the value the call raises a ValueError.  Each t of a curve stops on its
own, and one Poisson-weight matrix and one table product per table size
serve the whole grid; reliability is the curve's one-point case.  One
dispatch (_evaluate) picks the route and turns either route's
unconverged values into warnings or errors.
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

from .gcp import RateMatrix, _check_index, _check_state
from .compositions import jump_profile
from .specfun import (
    TruncationWarning,
    _beta_zero_scaled,
    _incomplete_gamma_scaled,
    _sine_integral_scaled,
    falling_factorial,
)
from .subordinators import Stable
from .variants import (
    Mgsfcp,
    _clock_atoms,
    _profile_sum,
    variant_pmf,
    variant_transition_rate,
)

# the table route's levels double from _NMAX_START up to _NMAX_CAP, and
# each sum stops once the mass it may drop is below _MASS_TOL of it
_NMAX_START = 32
_NMAX_CAP = 512
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
        p = self.p
        return _scaled_tail(n, p, _beta_zero_scaled(p, n + 1.0), -math.log1p(-p))


def _scaled_tail(n, p, scaled, norm):
    """q_n = int x^n w(x) dx / norm over (a, p), from scaled, that integral over p^(n+1).

    q_n is p^n times p scaled / norm, a mean of (x / p)^n and so at most
    1: neither factor underflows before q_n does, so a narrow law near 0
    keeps its tails, each within a few roundings.
    """
    return p**n * (p * scaled / norm)


@dataclass(frozen=True)
class IncGamma:
    """Pr{N > n} via the generalized incomplete gamma on [a, p]."""

    a: float
    p: float

    def __post_init__(self):
        if not 0.0 <= self.a < self.p <= 1.0:
            raise ValueError("need 0 <= a < p <= 1")
        if not self._norm() >= sys.float_info.min:
            raise ValueError("the mass e^(-a) - e^(-p) of (a, p) underflows")

    def _norm(self):
        """e^(-a) - e^(-p), formed as e^(-a) (1 - e^(a - p)) without cancelling."""
        return math.exp(-self.a) * -math.expm1(self.a - self.p)

    def mixture(self):
        """mu(dx) = e^(-x) dx / (e^(-a) - e^(-p)) on (a, p)."""
        norm = self._norm()
        return Density(self.a, self.p, lambda x, gap: np.exp(-x) / norm)

    def tail(self, n):
        """q_n for n >= 1."""
        scaled = _incomplete_gamma_scaled(n + 1.0, self.a, self.p)
        return _scaled_tail(n, self.p, scaled, self._norm())


@dataclass(frozen=True)
class SineIntegral:
    """Pr{N > n} via the generalized sine integral on [a, p]."""

    a: float
    p: float

    def __post_init__(self):
        if not 0.0 <= self.a < self.p <= 1.0:
            raise ValueError("need 0 <= a < p <= 1")
        if not self._norm() >= sys.float_info.min:
            raise ValueError("the mass cos a - cos p of (a, p) underflows")

    def _norm(self):
        """cos a - cos p, formed as 2 sin((p + a)/2) sin((p - a)/2) without cancelling."""
        return 2.0 * math.sin(0.5 * (self.p + self.a)) * math.sin(0.5 * (self.p - self.a))

    def mixture(self):
        """mu(dx) = sin x dx / (cos a - cos p) on (a, p)."""
        norm = self._norm()
        return Density(self.a, self.p, lambda x, gap: np.sin(x) / norm)

    def tail(self, n):
        """q_n for n >= 1."""
        scaled = _sine_integral_scaled(n + 1.0, self.a, self.p)
        return _scaled_tail(n, self.p, scaled, self._norm())


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
    """Shocks by the MGSFCP of these rates and alpha; failure at the threshold.

    The route (mixture or table) and the hash are fixed by the fields, so
    both are decided once here: every memo keyed by the model reads the
    hash.  Pickling and copying rebuild the model from its fields.
    """

    rates: RateMatrix
    alpha: float
    threshold: object

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        # probe at n=1: the n=0 shortcut would accept any object
        threshold_tail(self.threshold, 1)
        object.__setattr__(self, "_mixed", self.threshold.mixture() is not None)
        object.__setattr__(self, "_hash", hash((self.rates, self.alpha, self.threshold)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return ShockModel, (self.rates, self.alpha, self.threshold)


def _pooled(rates):
    """The rates pooled over components by jump size, sizes 1..max k."""
    return [math.fsum(col) for col in itertools.zip_longest(*rates.rows, fillvalue=0.0)]


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
    profiles of the rates pooled by jump size (compositions.jump_profile,
    which keeps them), so pi is one matrix-vector product.
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
    pooled = RateMatrix([_pooled(rates)])
    profiles = np.zeros((nmax + 1, nmax + 1))
    for k in range(1, nmax + 1):
        z0, col = jump_profile(pooled, (k,))
        profiles[k, z0 : z0 + len(col)] = col
    table = np.zeros((nmax + 1, nmax + 1))
    table[0, 0] = 1.0
    table[:, 1] = profiles @ nu
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
    """Pois(a; n) for n = 0..nmax, one column per entry of the 1-D array a > 0.

    Loader's saddle-point form exp(-stirlerr(n) - bd0(n, a)) / sqrt(2 pi n),
    with the deviance bd0 = n log(n / a) + a - n >= 0 taken through
    log1p.  The exponent is small where the mass is, so at a = 250 the
    weights there are within 1e-14 relative, where
    exp(-a + n log a - log n!) cancels terms of size a log a and is 4e-13
    off (C. Loader, Fast and accurate computation of binomial
    probabilities, 2000).
    """
    n, c = _stirling_terms(nmax)
    n, c = n[:, None], c[:, None]
    d = n - a
    out = np.empty((nmax + 1, a.size))
    out[0] = np.exp(-a)
    np.exp(c - (n * np.log1p(d / a) - d), out=out[1:])
    return out


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
    (the finite x/y double sum against Panjer's law of the total jump
    count, read through variant_pmf), so the ratio
    carries a real consistency check even though it is analytically the
    constant single-component jump rate J_i(l).
    """
    rates = model.rates
    i = _check_index(i, 0, rates.q - 1, "component index")
    l = _check_index(l, 1, rates.ks[i], "jump size")
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


def _mixture_rule(rates, law, level):
    """A quadrature over the law's mixing measure mu.

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
        weights = h * math.pi * np.cosh(j * h) * d * (e / width) * density(a + e, gap)
        coarse = np.where(j % 2 == 0, 2.0 * weights, 0.0)
    powers = np.ones((max(rates.ks) + 1, gap.size))
    with np.errstate(divide="ignore"):
        # gap = 1 at x = 0, where 1 - x^l = 1
        powers[1:] = -np.expm1(np.multiply.outer(np.arange(1, len(powers)), np.log1p(-gap)))
    c = np.array(_pooled(rates)) @ powers[1:]
    pairs = np.stack((weights * powers, coarse * powers), axis=2).reshape(len(powers), -1)
    return _Rule(c, pairs)


# at most this many (model, level) keep their weighted rule (_weighted_rule):
# one per model of a two-matrix, 19-alpha, four-law sweep at one level,
# with room to spare
_WEIGHTED_RULE_ENTRIES = 256

_WeightedRule = collections.namedtuple("_WeightedRule", "cpow split survival failure")


@lru_cache(maxsize=_WEIGHTED_RULE_ENTRIES)
def _weighted_rule(model, level):
    """The model's quadrature at step 2^-level, weighted, read-only.

    cpow = c(x)^alpha at the nodes of _mixture_rule, split = 1 / cpow,
    the kernel of the failure-type split, and (full, coarse) weight
    columns, one row per node: survival, the weights (w, w') themselves,
    for L(t), and failure[i], the weights times sum_l J_i(l) (1 - x^l),
    for component i.  All depend on the model and the level alone, so
    every t and every call of one model shares them: this is the mixture
    route's one memo, and a miss builds its nodes afresh.  At the level
    cap a rule has at most 2381 nodes, so an entry holds at most
    38096 (q + 2) bytes and the memo at most _WEIGHTED_RULE_ENTRIES
    times that: 39 MB at q = 2.
    """
    rule = _mixture_rule(model.rates, model.threshold, level)
    cpow = rule.c**model.alpha
    split = 1.0 / cpow
    survival = (np.ones(1) @ rule.pairs[:1]).reshape(-1, 2)
    failure = []
    for js, _ in _jump_rates(model.rates, model.alpha):
        coef = np.array((0.0,) + js)
        failure.append((coef @ rule.pairs[: len(coef)]).reshape(-1, 2))
    for array in (cpow, split, survival, *failure):
        array.flags.writeable = False
    return _WeightedRule(cpow, split, survival, tuple(failure))


def _mixture_sums(model, i, ts):
    """(sums, missed): integrals over mu, each at the step where it stopped.

    Integral k is int kernel_k(x) f(x) mu(dx), f = 1 for i = None, else
    f = sum_l J_i(l) (1 - x^l) (_weighted_rule).  ts = None is one
    integral with the split's kernel 1 / c(x)^alpha, a number t one with
    kernel exp(-t c(x)^alpha), and a list of times one per t.  sums[k]
    is integral k's [full, coarse] pair of floats, and missed lists the
    k that stopped above the error bound.  This is the one loop that
    steps the mixture route: each integral halves its step until its
    full sum and its coarse sum agree within 1e-13 of the full sum, or
    until the step is 2^-8; its value depends on its own t alone.  Below
    the smallest normal double the error is absolute.  Each level takes
    one kernel of the integrals still open (for a list, one column of
    their t), one product and one .tolist(), and tests each integral in
    floats.
    """
    many = isinstance(ts, list)
    todo = range(len(ts)) if many else (0,)
    sums = [None] * len(todo)
    level = _LEVEL_START
    while True:
        rule = _weighted_rule(model, level)
        if ts is None:
            kernel = rule.split
        elif many:
            kernel = np.exp(np.array([-ts[k] for k in todo])[:, None] * rule.cpow)
        else:
            kernel = np.exp(-ts * rule.cpow)
        # ndarray.dot reaches the same BLAS call as @, with less overhead
        rows = kernel.dot(rule.survival if i is None else rule.failure[i]).tolist()
        missed = []
        for k, pair in zip(todo, rows if many else (rows,)):
            sums[k] = pair
            full, coarse = pair
            if abs(full - coarse) > _QUAD_TOL * abs(full) + _QUAD_FLOOR:
                missed.append(k)
        if not missed or level == _LEVEL_CAP:
            return sums, missed
        todo = missed
        level += 1


def _quadrature_note(full, coarse, what):
    """The warning of a mixture integral left above its error bound at the finest step."""
    return "mixture quadrature not converged at step 2^-%d: the error estimate is %.3g of %s" % (
        _LEVEL_CAP,
        abs(full - coarse) / abs(full) if full else math.inf,
        what,
    )


def _table_sums(model, i, ts):
    """(sums, missed) by the table route, with the contract of _mixture_sums.

    Each quantity is its weight row w against the level table L, through
    r = w @ L: L(t) and h_i(t) are sum_m Pois(Lambda^alpha t; m) r[m],
    and Pr{type i} is sum_m r[m] / Lambda^alpha = w @ G.  w is the tail
    row q for i = None and w[S] = sum_l J_i(l) (q_S - q_(S+l)) for
    component i.  sums[k] is entry k's [value, bound] pair, bound
    capping the mass of the levels past N.  Each w[S] past N is at most
    W q_(N+1), W = 1 for survival and J_i = sum_l J_i(l) for component
    i, so at a time t the bound is W q_(N+1) P{total > N}, with
    P{total <= N} = sum_m Pois(a; m) c[m] and c the column sums of L.
    A level is visited at most once, so G[S] <= 1 / Lambda^alpha, and
    the split's bound is sum_(S>N) w[S] / Lambda^alpha = sum_(j<=k_i)
    suffix[j - 1] q_(N+j) / Lambda^alpha, since q_S - q_(S+l) telescopes
    over S > N to q_(N+1) + ... + q_(N+l).  N doubles from 32 for the
    entries whose bound is above 1e-13 of their value, up to 512, and
    missed lists the entries still above it there.  Each t sums its own
    contiguous row of terms, so its value does not depend on the rest
    of the grid.
    """
    rates, alpha, law = model.rates, model.alpha, model.threshold
    rate = rates.total**alpha
    if i is None:
        js, weight = (), 1.0
    else:
        js, suffix = _jump_rates(rates, alpha)[i]
        weight = suffix[0]
    many = isinstance(ts, list)
    todo = list(range(len(ts))) if many else [0]
    sums = [None] * len(todo)
    nmax = _NMAX_START
    while True:
        table, g = _tables(rates, alpha, nmax)
        tails = _tail_values(law, nmax + max(len(js), 1))
        row = tails[: nmax + 1]
        if js:
            row = sum(j * (row - tails[l : l + nmax + 1]) for l, j in enumerate(js, 1))
        if ts is None:
            dropped = math.fsum(s * q for s, q in zip(suffix, tails[nmax + 1 :].tolist()))
            pairs = [[float(row @ g), dropped / rate]]
        else:
            a = rate * np.array([ts[k] for k in todo] if many else [ts])
            pois = _poisson_weights(a, nmax).T[:, None]
            rows = np.stack((row @ table, table.sum(axis=0)))
            values, kept = np.multiply(pois, rows, order="C").sum(axis=2).T
            bounds = weight * tails[nmax + 1] * np.maximum(0.0, 1.0 - kept)
            pairs = np.stack((values, bounds), axis=1).tolist()
        missed = []
        for k, pair in zip(todo, pairs):
            sums[k] = pair
            value, bound = pair
            if bound > _MASS_TOL * value:
                missed.append(k)
        if not missed or nmax >= _NMAX_CAP:
            return sums, missed
        todo = missed
        nmax = min(2 * nmax, _NMAX_CAP)


def _evaluate(model, i, ts):
    """One quantity by the threshold's route; entries that did not converge warn or raise.

    i = None with a list ts is L(t) over a grid, i with a number t is
    h_i(t) and i with ts = None is Pr{type i}.  A grid is read up to its
    first t that is negative or not finite; L(0) = 1 exactly, and a sum
    that rounding lifts above 1 is clamped to 1.  An entry left above
    its bound warns with the route's estimate.  Where a table-route
    bound exceeds its value the value is unknown, and the call raises a
    ValueError naming t.  Errors and warnings come in grid order and
    name the caller of the public function.
    """
    grid = isinstance(ts, list)
    if grid:
        bad = next((k for k, t in enumerate(ts) if not 0 <= t < math.inf), len(ts))
        good = [float(t) for t in ts[:bad]]
        todo = [k for k, t in enumerate(good) if t > 0.0]
        times = [good[k] for k in todo]
    else:
        times = ts
    mixed = model._mixed
    sums, missed = (_mixture_sums if mixed else _table_sums)(model, i, times)
    for k in missed:
        value, error = sums[k]
        what = "L(t)" if grid else "h_i(t)" if ts is not None else "Pr{type i}"
        if mixed:
            message = _quadrature_note(value, error, what)
        elif error > value:
            t = ts[todo[k]] if grid else ts
            where = "Pr{type i} is out of reach" if t is None else "t = %r is too large" % (t,)
            raise ValueError(
                "%s for the threshold series: the levels up to n = %d give %.6g, and the mass "
                "past them may be up to %.6g" % (where, _NMAX_CAP, value, error)
            )
        else:
            message = (
                "threshold series not converged by n=%d: the dropped mass is at most %.3g of %s"
                % (_NMAX_CAP, error / value, what)
            )
        warnings.warn(message, TruncationWarning, stacklevel=3)
    if not grid:
        return sums[0][0]
    values = [1.0] * len(good)
    for k, (value, _) in zip(todo, sums):
        values[k] = min(value, 1.0)
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
    return _evaluate(model, None, [t])[0]


def failure_density(model, i, t):
    """Density of failure time with the fatal shock of type i.

    h_i(t) = sum_n p_n sum_{S=max(0,n-k_i)}^{n-1} P_S(t)
             * sum_{l=n-S}^{k_i} J_i(l),
    counting every fatal jump size, not only the exact crossing.  A
    named threshold law takes it as int G_t(x) sum_l J_i(l)(1 - x^l)
    mu(dx), a CustomThreshold by the table route, as
    sum_S P_S(t) sum_l J_i(l) (q_S - q_(S+l)) with reliability's stop
    rule at the bound J_i q_(N+1) P{total > N}.
    """
    rates = model.rates
    i = _check_index(i, 0, rates.q - 1, "component index")
    if not 0 < t < math.inf:
        raise ValueError("t must be positive and finite, got t = %r" % (t,))
    return _evaluate(model, i, t)


def prob_failure_type(model, i):
    """Pr{the failure is caused by a type-i shock}.

    The time integral of each failure-density term is analytic
    (int e^(-a) a^x dt = x! / lam^alpha), so this is failure_density
    integrated over (0, inf) termwise: for a named threshold law
    int sum_l J_i(l)(1 - x^l) / c(x)^alpha mu(dx), for a CustomThreshold
    sum_S G[S] sum_l J_i(l) (q_S - q_(S+l)), which stops once
    J_i sum_(S>N) q_S / Lambda^alpha is below 1e-13 of it.
    """
    rates = model.rates
    i = _check_index(i, 0, rates.q - 1, "component index")
    return _evaluate(model, i, None)


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
    reliability at each t in grid order, except that on the mixture
    route a value may differ by a few ulps: a product over several t
    rounds apart from a product over one.
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
    return list(zip(ts, _evaluate(model, None, ts)))
