"""Time-changed MGCP variants: pmf, pgf, rates, covariance, codifference.

Every variant is the base process run at a random clock (clock_spec):
a Levy clock, optionally run at inverse beta-stable time, and every
formula here follows from that clock.  A Levy clock with Laplace
exponent f gives the pgf exp(-t f(w)), the holding rate f(Lambda),
constant transition rates and an atomic Levy measure; at inverse-stable
time the pgf becomes E_beta(-t^beta f(w)) and only pmf, pgf and
codifference remain.

Every pmf and transition rate here is a sum over the jump compositions
of the state that depends on them only through the total jump count z;
compositions.jump_profile collapses it to a sum over z, and each route
supplies its own kernel K(z).  The profile depends on the rates and the
state only, so one memoised profile serves every variant and time.
Every Levy clock, the identity clock of the base process included, has
one table of atoms nu_1(k), the rate at which it fires k base jumps at
once (_clock_atoms): the transition rates read it directly, and
Panjer's recursion on it gives the pmf's jump-count law.  The paper's
composition sum of the base process, gcp.mgcp_pmf, stays the
independent side of that route.
"""

import cmath
import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .compositions import _table_size, jump_profile
from .gcp import _check_state, _pgf_exponent, component_symbol, mgcp_pmf
from .specfun import (
    _CONTOUR_FROM,
    _LAW_NODES,
    _MAX_TERMS,
    _Accumulator,
    _ml_sum,
    _warn_flags,
    falling_factorial,
    mittag_leffler,
    series_reach,
    wright_1_1,
)
from . import subordinators as subs

# largest z with z! in double range
_MAX_FACTORIAL = 170
# an inverse-stable pmf from the contour stands when its error bound is
# at most _CONTOUR_RTOL of it.  The contour's error grows with the jump
# count, the more so as beta nears 1; a deeper state takes the series
# while the reach |x|^(1/beta) is at most _SERIES_TO (a cancellation
# ratio near e^12, some 1e-11 of relative error).  Past it the contour's
# value still stands when its bound is at most _CONTOUR_ATOL, and the
# call raises otherwise
_CONTOUR_RTOL = 1e-6
_CONTOUR_ATOL = 1e-13
_SERIES_TO = 12.0
# the jump-count recursion rescales its values past this bound
_RESCALE = 2.0**512
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class Mgcp:
    """The base process itself (deterministic clock)."""


@dataclass(frozen=True)
class Mgsfcp:
    """Space-fractional variant: MGCP at an alpha-stable clock."""

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")


@dataclass(frozen=True)
class Mgfcp:
    """Time-fractional variant: MGCP at an inverse beta-stable clock."""

    beta: float

    def __post_init__(self):
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("beta must lie in (0, 1]")


@dataclass(frozen=True)
class Mgstfcp:
    """Space-time-fractional variant: stable clock run at inverse-stable time."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("beta must lie in (0, 1]")


@dataclass(frozen=True)
class Tempered:
    """Tempered space-fractional variant."""

    alpha: float
    theta: float

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if self.theta <= 0:
            raise ValueError("theta must be positive")


@dataclass(frozen=True)
class GammaTC:
    """MGCP at a gamma subordinator."""

    a: float
    b: float

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise ValueError("a and b must be positive")


@dataclass(frozen=True)
class IgTC:
    """MGCP at an inverse Gaussian subordinator."""

    delta: float
    gamma: float

    def __post_init__(self):
        if self.delta <= 0 or self.gamma <= 0:
            raise ValueError("delta and gamma must be positive")


def clock_spec(v):
    """The random clock driving the variant; None for the identity clock.

    The one place that reads variant fields.  alpha = 1 and beta = 1 are
    exact branch points: a stable or tempered clock at alpha = 1 is the
    identity, and inverse-stable time at beta = 1 is plain time.
    """
    if isinstance(v, (Mgcp, Mgsfcp, Mgfcp, Mgstfcp)):
        # each is Mgstfcp with its missing parameters at 1
        alpha, beta = getattr(v, "alpha", 1.0), getattr(v, "beta", 1.0)
        if beta == 1.0:
            return None if alpha == 1.0 else subs.Stable(alpha)
        if alpha == 1.0:
            return subs.InverseStable(beta)
        return subs.StableTimeInverseStable(alpha, beta)
    if isinstance(v, Tempered):
        # Psi(s) = (s + theta) - theta = s at alpha = 1
        return None if v.alpha == 1.0 else subs.TemperedStable(v.alpha, v.theta)
    if isinstance(v, GammaTC):
        return subs.GammaSub(v.a, v.b)
    if isinstance(v, IgTC):
        return subs.InverseGaussian(v.delta, v.gamma)
    raise ValueError("unknown variant %r" % (v,))


def _split(v):
    """(Levy clock or None for the identity, beta) of the variant's clock."""
    clock = clock_spec(v)
    if isinstance(clock, subs.InverseStable):
        return None, clock.beta
    if isinstance(clock, subs.StableTimeInverseStable):
        return subs.Stable(clock.alpha), clock.beta
    return clock, 1.0


def _stable_form(clock):
    """(alpha, tilt, scale) of a tempered-stable family clock, else None.

    Exponent scale ((s + tilt)^alpha - tilt^alpha); the inverse Gaussian
    clock is the tempered 1/2-stable one at scale delta sqrt(2).
    """
    if isinstance(clock, subs.Stable):
        return clock.alpha, 0.0, 1.0
    if isinstance(clock, subs.TemperedStable):
        return clock.alpha, clock.theta, 1.0
    if isinstance(clock, subs.InverseGaussian):
        return 0.5, 0.5 * clock.gamma**2, clock.delta * math.sqrt(2.0)
    return None


def _stable_atom(form, lam):
    """nu_1(z): rate at which a tempered-stable family clock fires z base jumps at once.

    With exponent scale ((s + tilt)^alpha - tilt^alpha) and base rate lam,
    f(lam (1 - u)) = f(lam) - sum_z nu_1(z) u^z, where nu_1(z) =
    scale (lam + tilt)^alpha (lam / (lam + tilt))^z |C(alpha, z)| and
    |C(alpha, z)| = alpha Gamma(z - alpha) / (Gamma(1 - alpha) z!).
    The gamma ratio is a quotient while z! is a double: a difference of
    log-gammas is up to 6e-15 off below z = 17 and 1e-13 by z = 100, and
    the shock reliability multiplies that error by Lambda^alpha t.
    """
    alpha, tilt, scale = form
    denom = lam + tilt
    front = scale * denom**alpha * alpha / math.gamma(1.0 - alpha)
    log_ratio = math.log(lam / denom)

    def atom(z):
        if z <= _MAX_FACTORIAL:
            ratio = math.gamma(z - alpha) / math.gamma(z + 1.0)
        else:
            ratio = math.exp(math.lgamma(z - alpha) - math.lgamma(z + 1.0))
        return front * ratio * math.exp(z * log_ratio)

    return atom


@lru_cache(maxsize=64)
def _clock_atoms(clock, lam, size):
    """(nu_1(1), ..., nu_1(size)): the rates at which a Levy clock fires k base jumps at once.

    f(lam (1 - u)) = f(lam) - sum_k nu_1(k) u^k for the clock's exponent
    f at base rate lam: (lam, 0, ...) for the identity clock (None),
    b r^k / k with r = lam / (lam + a) for the gamma clock, and
    _stable_atom for the tempered-stable family.  Callers pass
    compositions._table_size of the deepest jump count they need, so
    every cell of a box reads one table.
    """
    if clock is None:
        return (lam,) + (0.0,) * (size - 1)
    if isinstance(clock, subs.GammaSub):
        ratio = lam / (lam + clock.a)
        return tuple(clock.b * ratio**k / k for k in range(1, size + 1))
    atom = _stable_atom(_stable_form(clock), lam)
    return tuple(atom(k) for k in range(1, size + 1))


def _total_rate(clock, lam):
    """f(lam): the rate at which a Levy clock (None for the identity) fires any base jump."""
    return lam if clock is None else subs.laplace_exponent(clock, lam)


def _jump_count_law(nu, t, h, zmax):
    """(q, lg) with P{Z_t = z} = q[z] exp(lg), z = 0..zmax.

    Z_t counts the base jumps by time t under a Levy clock: compound
    Poisson with atoms nu[k - 1] = nu_1(k) and total rate h, so
    P{Z_t = 0} = exp(-t h) and Panjer's recursion
    z q(z) = t sum_k k nu_1(k) q(z - k) gives the rest in nonnegative
    terms.  It starts from q(0) = 1 and scales its values down by an
    exact power of two whenever one passes 2^512, so neither a large t
    nor the factor exp(-t h) leaves double range.  q stops short of
    zmax at the first z whose value is inf.  Trailing zero atoms add
    nothing to a sum and are dropped, so the identity clock's Poisson
    law, one atom, costs O(zmax).
    """
    katoms = [k * a for k, a in enumerate(nu[:zmax], start=1)]
    while katoms and not katoms[-1]:
        katoms.pop()
    q, lg = [1.0], -t * h
    for z in range(1, zmax + 1):
        x = t * (math.fsum(map(operator.mul, katoms[:z], reversed(q))) / z)
        if x == math.inf:
            break
        q.append(x)
        if x > _RESCALE:
            e = math.frexp(x)[1]
            q = [math.ldexp(y, -e) for y in q]
            lg += e * _LN2
    return q, lg


def _times_exp(y, lg):
    """y exp(lg) for 0 <= y < 2^600, also where exp(lg) alone leaves double range."""
    if -700.0 < lg < 700.0:
        return y * math.exp(lg)
    if lg < -2000.0:
        return 0.0
    k = math.floor(lg / _LN2)
    return math.ldexp(y * math.exp(lg - k * _LN2), k)


def _inverse_stable_law(beta, x, nu, zmax):
    """(q, err): q_t(z), z = 0..zmax, at inverse beta-stable time by contour, and an error bound.

    x = t^beta H, H the total rate of the Levy clock, and nu[k - 1] =
    t^beta nu_1(k) its atoms at the same scale, or None for the
    identity clock.  The law has the Laplace pair s^(beta - 1) Q(s^beta, z)
    at time 1 (Meerschaert, Nane and Vellaisamy 2011), where Q solves
    the forward equation (s^beta + x) Q(z) = delta_z0 + sum_k nu[k - 1]
    Q(z - k), which is x^z / (s^beta + x)^(z + 1) for the identity clock.
    One numpy pass over the nodes of every contour gives every z; each z
    takes the contour whose distance from its check, err[z], is least.
    The error is absolute and grows with z.
    """
    s, w = _LAW_NODES
    sb = s**beta
    d = sb + x
    if nu is None:
        table = (x / d) ** np.arange(zmax + 1)[:, None] / d
    else:
        nu = np.asarray(nu)
        table = np.empty((zmax + 1, len(s)), dtype=complex)
        table[0] = 1.0 / d
        for z in range(1, zmax + 1):
            # an elementwise product, not np.dot: BLAS would thread each small call
            table[z] = (nu[z - 1 :: -1, None] * table[:z]).sum(0) / d
    values = (table @ (w * (sb / s)[:, None])).real
    q, bounds = values[:, 0::2], np.abs(values[:, 0::2] - values[:, 1::2])
    best = np.argmin(bounds, axis=1)[:, None]
    return np.take_along_axis(q, best, 1)[:, 0], np.take_along_axis(bounds, best, 1)[:, 0]


@lru_cache(maxsize=64)
def _law(route, clock, beta, lam, t, size):
    """The jump-count law one pmf route reads, for z = 0..size.

    Every cell of a box at one clock, beta, Lambda = lam and t reads the
    same law.  size is compositions._table_size of the cell's deepest
    jump count, so the order in which cells come never changes a value.
    Each route has its own entries, so the series and the contour stay
    independent code:
    - "panjer": (q, lg) of _jump_count_law on the Levy clock's atoms,
      cut short where it leaves double range;
    - "contour": (q, err) of _inverse_stable_law;
    - "series": the ktilde of the paper's inverse-stable series, a
      _SeriesKernel.
    """
    if route == "panjer":
        q, lg = _jump_count_law(_clock_atoms(clock, lam, size), t, _total_rate(clock, lam), size)
        return tuple(q), lg
    scale = t**beta
    if route == "contour":
        nu = None if clock is None else [scale * a for a in _clock_atoms(clock, lam, size)]
        q, err = _inverse_stable_law(beta, scale * _total_rate(clock, lam), nu, size)
        return tuple(q.tolist()), tuple(err.tolist())
    if clock is None:
        # plain clock at inverse-stable time: K(z) = E^(z+1)_(beta, beta z + 1)(-x)
        x = lam * scale

        def term(z):
            if beta * z > _MAX_FACTORIAL:
                raise OverflowError("1/Gamma(beta z + 1) underflows")
            power = x**z
            acc = _ml_sum(beta, beta * z + 1.0, z + 1.0, -x)
            return power * acc.total, acc

        return _SeriesKernel(term)

    # the stable clock at inverse-stable time
    alpha = clock.alpha
    c = -1.0 / lam
    a = lam**alpha * scale

    def term(z):
        power = (c * lam) ** z
        acc = _state_sum(a, z, alpha, beta, "variant_pmf")
        return power * acc.total, acc

    return _SeriesKernel(term)


class _SeriesKernel:
    """ktilde(z) of an inverse-stable series, each z summed on its first read.

    A z keeps its series' flags (label, converged, cancellation ratio)
    beside its value, and every read emits their NumericsWarnings
    again, so a cell warns exactly as if it had summed the series
    itself.  A z that no cell reads is never summed, so it neither
    raises nor warns; a z whose sum raises is not kept.
    """

    def __init__(self, term):
        self._term = term
        self._sums = {}

    def __call__(self, z):
        got = self._sums.get(z)
        if got is None:
            value, acc = self._term(z)
            got = self._sums[z] = (value, acc.flags())
        _warn_flags(*got[1], stacklevel=3)
        return got[0]


def _tilt_prefactor(t, scale, tilt, alpha):
    """exp(t scale tilt^alpha), which undoes the tempering of the series.

    Its overflow is a property of t, not of the state, so it raises its
    own ValueError rather than the "too deep" one.
    """
    x = t * scale * tilt**alpha
    try:
        return math.exp(x)
    except OverflowError:
        raise ValueError(
            "t = %r is too large for the pmf series: its prefactor "
            "exp(t scale tilt^alpha) = exp(%.6g) overflows" % (t, x)
        ) from None


def _profile_sum(rates, nbar, ktilde):
    """sum_z S[nbar, z] * ktilde(z) over the jump counts the state admits.

    ktilde(z) = (c Lambda)^z K(z) / z! is the scaled jump-count kernel of
    a composition sum with weights (c lambda_ij)^x / x!.  A kernel that
    leaves double range makes the state too deep: ValueError.
    """
    return _kernel_sum(jump_profile(rates, nbar), nbar, ktilde)


def _kernel_sum(profile, nbar, ktilde):
    """_profile_sum over the state's jump profile (z0, S)."""
    z0, s = profile
    try:
        return math.fsum(v * ktilde(z0 + m) for m, v in enumerate(s) if v)
    except OverflowError as exc:
        raise ValueError(
            "state %r is too deep for the double-precision series" % (nbar,)
        ) from exc


def _state_sum(a, z, slope, beta_denom, label):
    """sum_r (-a)^r / Gamma(beta_denom r + 1) * C(slope r, z)  (binomial).

    The inner r-series of the fractional pmfs, per jump count z: the
    falling factorial (slope r)_z over z!, divided once while z! is a
    double and spread over the factors past that.  Returns the summed
    _Accumulator, its flags not yet warned.
    """
    zfact = float(math.factorial(z)) if z <= _MAX_FACTORIAL else None
    acc = _Accumulator(label)
    base = 1.0
    for r in range(_MAX_TERMS):
        x = slope * r
        if zfact:
            term = base * falling_factorial(x, z) / zfact
        else:
            term = base * math.prod((x - m) / (m + 1) for m in range(z))
        if acc.add(term):
            break
        u = beta_denom * r + 1.0
        base *= -a * math.exp(math.lgamma(u) - math.lgamma(u + beta_denom))
    return acc


def variant_pmf(v, rates, nbar, t):
    """P{variant state = nbar at time t}.

    sum_z S[z] q_t(z), S the state's jump-count profile and q_t the law
    of the total jump count Z_t.  Under a Levy clock (identity, stable,
    tempered, gamma, inverse Gaussian) Z_t is compound Poisson with the
    clock's atoms, and q_t comes from Panjer's recursion, whose terms are
    all nonnegative, so the value is exact at any t.  The base process
    (Mgcp) takes this route too: its clock has the one atom Lambda, so
    q_t is the Poisson(Lambda t) law at O(z) cost, and deep states keep
    their value where exp(Lambda t) alone leaves double range.
    gcp.mgcp_pmf, the paper's composition sum, is the independent check
    of this route.  At inverse-stable time, with
    x = t^beta f(Lambda) (f(Lambda) = Lambda for Mgfcp, Lambda^alpha for
    Mgstfcp), q_t is the paper's Mittag-Leffler series (Mgfcp) or
    alternating r-series (Mgstfcp) while x^(1/beta) stays at or below
    specfun._CONTOUR_FROM = 4.  Past it the series cancel, and q_t comes
    from Laplace inversion on the N = 24 node Talbot contour
    (_inverse_stable_law), whose error is absolute, about 1e-15 of the
    largest q_t(z) at small z; deeper jump counts take contours of 48 or
    96 nodes, each z the one with the least error bound (its distance
    from a contour of 5/6 the nodes).  A value whose bound exceeds 1e-6
    of it goes back to the series while x^(1/beta) <= 12; past that it
    stands if the bound is at most 1e-13, and raises ValueError if not.

    The inverse-stable series form z!, so off the contour states that
    need more than 170 jumps in one component raise ValueError, as does
    the time-fractional series once 1/Gamma(beta z + 1) leaves double
    range: no value is better than garbage there.  The contour and
    Panjer's recursion form no z! and take deeper states.

    The law q_t, or the series kernel, is computed once per route, clock,
    beta, Lambda, t and table size of the state's deepest jump count
    (_law, an lru_cache of 64 laws) and shared by every cell of a box.
    The profile S is computed once per rates and state (jump_profile, an
    lru_cache of compositions._PROFILE_ENTRIES profiles) and shared by
    every variant and time.
    """
    return _pmf(_pmf_series, v, rates, nbar, t)


def variant_pmf_wright(v, rates, nbar, t):
    """Alternate pmf route through the generalized Wright function.

    Only the space-fractional and tempered variants have this
    representation; it must agree with variant_pmf.  At alpha = 1 their
    clock is the identity, and the route is the paper's composition sum
    gcp.mgcp_pmf.
    """
    return _pmf(_wright_series, v, rates, nbar, t)


def _pmf(route, v, rates, nbar, t):
    """The checks both pmf routes share; route(clock, beta, ...) does the rest."""
    _check_state(rates, nbar)
    if not t >= 0:
        raise ValueError("t must be non-negative")
    if t == 0:
        return 1.0 if not any(nbar) else 0.0
    if t == math.inf:
        # every clock grows without bound, so p(0) -> 0; the series of the
        # other states need a finite t
        if any(nbar):
            raise ValueError("t = inf is too large for a pmf of a non-empty state")
        return 0.0
    clock, beta = _split(v)
    try:
        return route(clock, beta, rates, nbar, t)
    except OverflowError as exc:
        raise ValueError(
            "state %r is too deep for the double-precision pmf series" % (nbar,)
        ) from exc


def _pmf_series(clock, beta, rates, nbar, t):
    if beta != 1.0:
        # inverse-stable time over the identity or the stable clock
        reach = series_reach(beta, t**beta * _total_rate(clock, rates.total))
        if reach > _CONTOUR_FROM:
            value, err = _pmf_contour(clock, beta, rates, nbar, t)
            if err <= _CONTOUR_RTOL * value:
                return value
            if reach > _SERIES_TO:
                if err <= _CONTOUR_ATOL:
                    # the true value is >= 0 and within err of this one
                    return max(value, 0.0)
                raise ValueError(
                    "state %r is too deep for the pmf at t = %r: the contour's value "
                    "%.3g has an error bound of %.1e, and the series cancel" % (nbar, t, value, err)
                )

    if beta != 1.0:
        # the series forms z!, so it stops at 170 jumps in a component;
        # the contour and Panjer's recursion form none
        for row, n in zip(rates.rows, nbar):
            smallest = next(j for j, rate in enumerate(row, start=1) if rate > 0.0)
            if n // smallest > _MAX_FACTORIAL:
                raise OverflowError("more than %d jumps in one component" % _MAX_FACTORIAL)
        return _fractional_series(clock, beta, rates, nbar, t)

    # a Levy clock: the jump count is compound Poisson with the clock's atoms
    z0, prof = jump_profile(rates, nbar)
    zmax = z0 + len(prof) - 1
    q, lg = _law("panjer", clock, beta, rates.total, t, _table_size(zmax))
    if zmax >= len(q):
        raise ValueError("t = %r is too large for the jump-count recursion" % (t,))
    return _times_exp(math.fsum(s * x for s, x in zip(prof, q[z0:]) if s), lg)


def _pmf_contour(clock, beta, rates, nbar, t):
    """(p, err): the inverse-stable pmf sum_z S[z] q_t(z), q_t from
    _inverse_stable_law, and its error bound sum_z S[z] err[z]."""
    z0, prof = jump_profile(rates, nbar)
    q, err = _law("contour", clock, beta, rates.total, t, _table_size(z0 + len(prof) - 1))
    pairs = [(s, x, e) for s, x, e in zip(prof, q[z0:], err[z0:]) if s]
    return math.fsum(s * x for s, x, _ in pairs), math.fsum(s * e for s, _, e in pairs)


def _fractional_series(clock, beta, rates, nbar, t):
    """The paper's series for the inverse-stable pmfs, cancelling as t grows."""
    profile = jump_profile(rates, nbar)
    z0, prof = profile
    ktilde = _law("series", clock, beta, rates.total, t, _table_size(z0 + len(prof) - 1))
    return _kernel_sum(profile, nbar, ktilde)


def _wright_series(clock, beta, rates, nbar, t):
    if clock is None and beta == 1.0:
        return mgcp_pmf(rates, nbar, t)
    if beta != 1.0 or not isinstance(clock, (subs.Stable, subs.TemperedStable)):
        raise ValueError("Wright form exists only for Mgsfcp and Tempered")
    alpha, tilt, scale = _stable_form(clock)
    lam = rates.total
    denom = lam + tilt
    arg = -scale * denom**alpha * t
    # the exp(t theta^alpha) prefactor is required for the two pmf
    # routes to agree (check the empty state against the pgf)
    pref = _tilt_prefactor(t, scale, tilt, alpha)

    def ktilde(z):
        kz = wright_1_1(1.0, alpha, 1.0 - z, alpha, arg)
        return kz * (-lam / denom) ** z / math.factorial(z)

    return pref * _profile_sum(rates, nbar, ktilde)


def variant_pgf(v, rates, ubar, t):
    """E[prod u_i^{N_i(t)}] for the variant; closed form in every case.

    exp(-t f(w)) for a Levy clock with exponent f and w the pgf symbol,
    E_beta(-t^beta f(w)) at inverse beta-stable time.
    """
    w = _pgf_exponent(rates, ubar)
    if not t >= 0:
        raise ValueError("t must be non-negative")
    clock, beta = _split(v)
    f = w if clock is None else subs.laplace_exponent(clock, w)
    if t == math.inf:
        # every clock grows without bound: the limit is 1 where the
        # exponent vanishes (as at u = 1) and 0 elsewhere
        return 1.0 if f == 0 else 0.0
    if beta == 1.0:
        return math.exp(-t * f)
    return mittag_leffler(beta, 1.0, 1.0, -(t**beta) * f)


def variant_transition_rate(v, rates, mbar):
    """Constant rate of the jump nbar -> nbar + mbar (Levy variants only).

    sum_z S[z] nu_1(z) over the jump's profile S, nu_1 the clock's atoms.
    """
    _check_state(rates, mbar)
    if not any(mbar):
        raise ValueError("mbar must be a non-zero jump")
    clock, beta = _split(v)
    if beta != 1.0:
        raise ValueError("inverse-stable clocks give no constant rates")
    profile = jump_profile(rates, mbar)
    z0, s = profile
    nu = _clock_atoms(clock, rates.total, _table_size(z0 + len(s) - 1))
    return _kernel_sum(profile, mbar, lambda z: nu[z - 1])


def holding_rate(v, rates):
    """Total escape rate out of any state (Levy variants only): f(Lambda)."""
    clock, beta = _split(v)
    if beta != 1.0:
        raise ValueError("inverse-stable clocks give no holding rate")
    return _total_rate(clock, rates.total)


def variant_levy_measure(v, rates, nbar):
    """Mass of the variant's Levy measure at the jump nbar (> 0).

    For these subordinated Levy processes the measure is atomic on the
    jump lattice and each atom equals the constant transition rate.
    """
    _check_state(rates, nbar)
    if not any(nbar):
        raise ValueError("Levy measures exclude the origin")
    return variant_transition_rate(v, rates, nbar)


def covariance(v, rates, i, l, t):
    """Cov(N_i(t), N_l(t)) for the time-fractional and tempered variants.

    Tempered note: the conditional-moment route (law of total
    covariance with the exact tempered-clock cumulants E[D]=t a th^(a-1),
    Var[D]=t a (1-a) th^(a-2)) gives

        1{i=l} * t a th^(a-1) * sum_j j^2 lam_ij
        + t a (1-a) th^(a-2) * (sum_j j lam_ij)(sum_j j lam_lj),

    which is what this function returns.  A published variant of this
    formula squares the rates in the i=l term and carries an extra
    (a t + 1 - a) factor; the two agree only on a measure-zero
    parameter set (e.g. theta=1, a*t = 1-a) and Monte-Carlo estimation
    sides with the formula used here (see the adjudication test).
    """
    if not (0 <= i < rates.q and 0 <= l < rates.q):
        raise ValueError("component index out of range")
    if not t >= 0:
        raise ValueError("t must be non-negative")
    if not isinstance(v, (Mgfcp, Tempered)):
        raise ValueError("covariance formula exists only for Mgfcp and Tempered")
    m_i = rates.mean_rate(i)
    m_l = rates.mean_rate(l)
    clock, b = _split(v)
    if clock is None:
        # plain clock at inverse b-stable time
        bracket = 2.0 / math.gamma(2.0 * b + 1.0) - 1.0 / math.gamma(b + 1.0) ** 2
        out = m_i * m_l * t ** (2.0 * b) * bracket
        if i == l:
            out += rates.second_moment_rate(i) * t**b / math.gamma(b + 1.0)
        return out
    a, th = clock.alpha, clock.theta
    out = t * a * (1.0 - a) * th ** (a - 2.0) * m_i * m_l
    if i == l:
        out += t * a * th ** (a - 1.0) * rates.second_moment_rate(i)
    return out


def codifference(v, rates, i, l, t):
    """Codifference tau(N_i(t), N_l(t)); complex.

    tau = ln E e^(w(Ni-Nl)) - ln E e^(w Ni) - ln E e^(-w Nl) with w the
    imaginary unit.  Under a Levy clock each log is -t f at the complex
    symbol; at inverse-stable time it is the principal log of E_beta.
    """
    if not (0 <= i < rates.q and 0 <= l < rates.q):
        raise ValueError("component index out of range")
    if not t >= 0:
        raise ValueError("t must be non-negative")
    if not isinstance(v, (Mgfcp, Mgstfcp, Tempered)):
        raise ValueError("codifference formula exists only for Mgfcp, Mgstfcp, Tempered")
    w_i = complex(component_symbol(rates.rows[i], cmath.exp(1j)))
    w_l = complex(component_symbol(rates.rows[l], cmath.exp(-1j)))
    clock, beta = _split(v)
    # the identity clock is the alpha = 1 stable one
    alpha, tilt, scale = _stable_form(clock) or (1.0, 0.0, 1.0)

    def lncf(warg):
        # ln E exp(-warg D(t)) through the clock exponent at complex warg
        f = scale * ((warg + tilt) ** alpha - tilt**alpha)
        if beta == 1.0:
            return -t * f
        return cmath.log(mittag_leffler(beta, 1.0, 1.0, -(t**beta) * f))

    joint = 0.0 if i == l else lncf(w_i + w_l)
    return joint - lncf(w_i) - lncf(w_l)
