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
compositions.jump_profile collapses it to a sum over z.  The profile
depends on the rates and the state only, so one memoised profile serves
every variant and time, and each pmf weighs it with the law q_t(z) of
the total jump count (_law).  Every Levy clock, the identity clock of
the base process included, has atoms nu_1(k), the rates at which it
fires k base jumps at once (_clock_atoms): the transition rates read
them directly, and Panjer's recursion on them gives q_t.  The paper's
composition sum of the base process, gcp.mgcp_pmf, stays the
independent side of that route.  At inverse-stable time q_t is the
Cauchy integral of the pgf on a circle (_cauchy_law); the paper's
r-series for Mgstfcp is its independent side, in the tests only.
"""

import cmath
import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .compositions import _table_size, jump_profile
from .gcp import _check_state, _pgf_exponent, component_symbol, mgcp_pmf
from .specfun import _ml_scaled, mittag_leffler, wright_1_1
from . import subordinators as subs

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
        if not 0.0 < self.theta < math.inf:
            raise ValueError("theta must be positive and finite")


@dataclass(frozen=True)
class GammaTC:
    """MGCP at a gamma subordinator."""

    a: float
    b: float

    def __post_init__(self):
        if not (0.0 < self.a < math.inf and 0.0 < self.b < math.inf):
            raise ValueError("a and b must be positive and finite")


@dataclass(frozen=True)
class IgTC:
    """MGCP at an inverse Gaussian subordinator."""

    delta: float
    gamma: float

    def __post_init__(self):
        if not (0.0 < self.delta < math.inf and 0.0 < self.gamma < math.inf):
            raise ValueError("delta and gamma must be positive and finite")


_IDENTITY = subs.Identity()

# at most this many variants keep their clock (_split)
_SPLIT_ENTRIES = 64


@lru_cache(maxsize=_SPLIT_ENTRIES)
def _split(v):
    """(Levy clock, beta): the variant runs the Levy clock at inverse beta-stable time.

    The one place that reads variant fields.  alpha = 1 and beta = 1 are
    exact branch points: a stable or tempered clock at alpha = 1 is the
    identity (the one _IDENTITY), and inverse-stable time at beta = 1 is
    plain time.  Variants are frozen and hashable, so the clock is built
    once per variant and memoised: equal variants share one clock object,
    and a pmf cell pays no clock construction.
    """
    if isinstance(v, (Mgcp, Mgsfcp, Mgfcp, Mgstfcp)):
        # each is Mgstfcp with its missing parameters at 1
        alpha = getattr(v, "alpha", 1.0)
        return (_IDENTITY if alpha == 1.0 else subs.Stable(alpha)), getattr(v, "beta", 1.0)
    if isinstance(v, Tempered):
        # Psi(s) = (s + theta) - theta = s at alpha = 1
        return (_IDENTITY if v.alpha == 1.0 else subs.TemperedStable(v.alpha, v.theta)), 1.0
    if isinstance(v, GammaTC):
        return subs.GammaSub(v.a, v.b), 1.0
    if isinstance(v, IgTC):
        return subs.InverseGaussian(v.delta, v.gamma), 1.0
    raise ValueError("unknown variant %r" % (v,))


def clock_spec(v):
    """The random clock driving the variant: a Levy clock, Identity() for
    the base process, or a subordinators.InverseStableTime."""
    clock, beta = _split(v)
    return clock if beta == 1.0 else subs.InverseStableTime(clock, beta)


@lru_cache(maxsize=64)
def _clock_atoms(clock, lam, size):
    """clock.atoms(lam, size), memoised: nu_1(1), ..., nu_1(size) at base rate lam.

    Callers pass compositions._table_size of the deepest jump count they
    need, so every cell of a box reads one table.
    """
    return clock.atoms(lam, size)


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


def _cauchy_law(clock, beta, lam, t, size):
    """q_t(z), z = 0..size, at inverse beta-stable time, read off the pgf.

    The total jump count Z_t has the pgf G(s) = E_beta(-t^beta f(lam (1 - s)))
    for the Levy clock's exponent f, so q_t(z) is the Cauchy integral of
    G(s) s^(-z - 1) over a circle, which the trapezoid rule resolves
    geometrically fast.  The identity clock (alpha = 1) makes G entire and
    each z takes its own saddle-point circle (_saddle_law).  The stable
    clock puts a branch point at s = 1, and one FFT on a fixed circle
    inside it gives every z >= 1 at once (Abate and Whitt 1992, Oper.
    Res. Lett. 12), at every t.  The FFT reads G - 1 = y E_{beta,beta+1}(y),
    y = -t^beta f(lam (1 - s)), rather than G: at small t, G is near 1
    on the whole circle and would swamp q(z >= 1) in rounding, while
    G - 1 has the size of the law's mass off z = 0.  q(0) = G(0) is
    mittag_leffler's.  M = max(1024, 8 size) nodes on r = 10^(-13/M)
    alias at most r^M = 1e-13 of the law's tail onto each z.  The
    rounding of the transform is absolute: about eps max|G - 1| r^(-z)
    on q(z), r^(-z) <= 10^(13/8), so a deep q(z) far below that is
    resolved only to that floor, not relative to itself.
    """
    scale = t**beta
    if clock.alpha == 1.0:
        return _saddle_law(beta, scale * lam, size)
    m = max(1024, 8 * size)
    r = 10.0 ** (-13.0 / m)
    s = r * np.exp(2j * np.pi / m * np.arange(m // 2 + 1))
    y = -scale * clock.exponent(lam * (1.0 - s))
    g = y * _ml_scaled(beta, y, beta=beta + 1.0)
    # G(conj s) = conj G(s): the half circle gives the real transform
    q = np.fft.irfft(g.conj(), m)[: size + 1] * r ** -np.arange(size + 1.0)
    q[0] = mittag_leffler(beta, 1.0, 1.0, -scale * clock.exponent(lam))
    return q


def _saddle_law(beta, x, size):
    """q(z), z = 0..size, for the identity clock at inverse beta-stable time, x = t^beta Lambda.

    G(s) = E_beta(x (s - 1)) is entire, and on the circle of radius r_z,
    the minimiser of log G(r) - z log r, the trapezoid rule's error is
    relative rather than absolute (Bornemann 2011, Found. Comput. Math.
    11).  r_z comes from log G on a grid of radii; its slope is the mean
    m(r) of the tilted law q(k) r^k / G(r), which is z at r_z.  A rule of
    N nodes adds the tilted mass at z + N and z - N to q(z), and the
    Chernoff bound on that mass is exp(Phi(z + N) - Phi(z) + N log r_z),
    Phi(m) = min_r [log G(r) - m log r], read off the same grid.  Each z
    takes the fewest nodes, a power of two from 128 up, whose bound is
    below 2^-52, the rounding of the sum.  Every circle is scaled by
    G(r_z), so no value leaves double range, and q(z) =
    exp(log G(r_z) - z log r_z) times the circle's mean, which
    underflows to 0 only where q(z) does.
    """
    # m(r) <= r x / Gamma(1 + beta) for r <= 1 and m(r) >= y^(1/beta) / beta
    # for a large y = x (r - 1) > 0, so the grid spans m = 1 to twice
    # 4 size + 1024; its step resolves the spread of the tilted law, the
    # root of the slope's slope, at every saddle up to m = size
    lo = min(0.0, -math.log(x)) - 5.0
    hi = math.log1p(2.0 * (beta * (4 * size + 1024)) ** beta / x)
    step = 0.01
    while True:
        u = np.arange(lo, hi, step)
        y = x * np.expm1(u)
        # log G, with the pole term e^(y^(1/beta)) of a positive argument taken out
        front = np.maximum(y, 0.0) ** (1.0 / beta)
        lg = front + np.log(_ml_scaled(beta, y, front))
        slope = np.gradient(lg, u)
        spread = np.gradient(slope, u)[slope <= size].max()
        if spread * step**2 <= 0.25:
            break
        step = 0.5 / math.sqrt(spread)

    def saddle(m):
        # the grid point nearest the saddle of m, clipped to the grid
        return np.minimum(np.searchsorted(slope, m), len(u) - 1)

    def phi(m):
        k = saddle(m)
        return lg[k] - m * u[k]

    z = np.arange(1, size + 1)
    k = saddle(z)
    uz, lz = u[k], lg[k]
    nodes = np.full(size, 128)
    while True:
        below = np.where(z >= nodes, phi(np.maximum(z - nodes, 0)) - nodes * uz, -np.inf)
        bound = np.maximum(phi(z + nodes) + nodes * uz, below) - (lz - z * uz)
        short = bound > -52.0 * _LN2
        if not short.any():
            break
        nodes[short] *= 2
        if nodes.max() > 1 << 16:
            raise ValueError("the jump-count law at x = %r needs more than 2^16 nodes" % (x,))
    q = np.empty(size + 1)
    q[0] = mittag_leffler(beta, 1.0, 1.0, -x)
    for n in np.unique(nodes):
        theta = 2.0 * np.pi / n * np.arange(n // 2 + 1)
        # G(conj s) = conj G(s): the upper half circle, the inner nodes twice
        weights = np.full(n // 2 + 1, 2.0 / n)
        weights[[0, -1]] = 1.0 / n
        rows = np.flatnonzero(nodes == n)
        # at most 2^14 nodes at once, each a row of Talbot nodes
        for block in np.array_split(rows, -(-len(rows) * len(theta) // (1 << 14))):
            s = np.exp(uz[block, None] + 1j * theta)
            g = _ml_scaled(beta, x * (s - 1.0), lz[block, None])
            mean = (g * np.exp(-1j * z[block, None] * theta)).real @ weights
            q[block + 1] = mean * np.exp(lz[block] - z[block] * uz[block])
    return q


@lru_cache(maxsize=64)
def _law(clock, beta, lam, t, size):
    """(q, lg) with q_t(z) = q[z] exp(lg), z = 0..size: the jump-count law a pmf reads.

    Every cell of a box at one clock, beta, Lambda = lam and t reads the
    same law.  size is compositions._table_size of the cell's deepest
    jump count, so the order in which cells come never changes a value.
    A Levy clock (beta = 1) takes _jump_count_law on its atoms, cut
    short where it leaves double range; inverse-stable time (beta < 1)
    takes _cauchy_law, with lg = 0.
    """
    if beta == 1.0:
        q, lg = _jump_count_law(_clock_atoms(clock, lam, size), t, clock.exponent(lam), size)
        return tuple(q), lg
    return tuple(_cauchy_law(clock, beta, lam, t, size).tolist()), 0.0


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
    of this route.  At inverse-stable time the pgf of Z_t is
    E_beta(-t^beta f(Lambda (1 - s))), and q_t is its Cauchy integral on
    a circle (_cauchy_law), which forms no z!.  Mgfcp's pgf is entire,
    and each jump count takes its own saddle-point circle, whose error is
    relative, at every t and depth.  Mgstfcp takes one FFT of G - 1 on a
    circle inside the branch point s = 1 at every t; its error is
    absolute, the bound that _cauchy_law states.

    The law q_t is computed once per clock, beta, Lambda, t and table
    size of the state's deepest jump count (_law, an lru_cache of 64
    laws) and shared by every cell of a box.
    The profile S is computed once per rates and state (jump_profile, an
    lru_cache of compositions._PROFILE_ENTRIES profiles) and shared by
    every variant and time.  The variant's clock is built once per
    variant (_split, an lru_cache of _SPLIT_ENTRIES variants), so a warm
    cell reads two memos and takes one correctly rounded dot product.

    The entries of nbar may be of any integer type (int, bool, numpy
    integers, as sample_variant_many draws them); anything else raises
    ValueError, whatever the memos hold.
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
    """The checks both pmf routes share; route(v, ...) does the rest."""
    nbar = _check_state(rates, nbar)
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
    try:
        return route(v, rates, nbar, t)
    except OverflowError as exc:
        raise ValueError(
            "state %r is too deep for the double-precision pmf series" % (nbar,)
        ) from exc


def _pmf_series(v, rates, nbar, t):
    clock, beta = _split(v)
    z0, prof = jump_profile(rates, nbar)
    zmax = z0 + len(prof) - 1
    q, lg = _law(clock, beta, rates.total, t, _table_size(zmax))
    if zmax >= len(q):
        raise ValueError("t = %r is too large for the jump-count recursion" % (t,))
    # every q[z] is finite (_law stops at the first inf), so the zero
    # entries of the profile add exact zeros
    return _times_exp(math.fsum(map(operator.mul, prof, q[z0 : zmax + 1])), lg)


def _wright_series(v, rates, nbar, t):
    clock, beta = _split(v)
    if beta != 1.0 or isinstance(v, (GammaTC, IgTC)):
        raise ValueError("Wright form exists only for Mgsfcp and Tempered")
    if clock.alpha == 1.0:
        return mgcp_pmf(rates, nbar, t)
    # a stable clock is the tempered one at theta = 0
    alpha, tilt = clock.alpha, clock.theta
    lam = rates.total
    denom = lam + tilt
    arg = -(denom**alpha) * t
    # the exp(t theta^alpha) prefactor is required for the two pmf
    # routes to agree (check the empty state against the pgf); its
    # overflow is a fault of t, not of the state, so it is not "too deep"
    x = t * tilt**alpha
    try:
        pref = math.exp(x)
    except OverflowError:
        raise ValueError(
            "t = %r is too large for the pmf series: its prefactor "
            "exp(t theta^alpha) = exp(%.6g) overflows" % (t, x)
        ) from None

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
    f = clock.exponent(w)
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
    mbar = _check_state(rates, mbar)
    if not any(mbar):
        raise ValueError("mbar must be a non-zero jump")
    clock, beta = _split(v)
    if beta != 1.0:
        raise ValueError("inverse-stable clocks give no constant rates")
    z0, s = jump_profile(rates, mbar)
    nu = _clock_atoms(clock, rates.total, _table_size(z0 + len(s) - 1))
    # S[m] weighs nu_1(z0 + m) = nu[z0 + m - 1]; every atom is finite
    return math.fsum(map(operator.mul, s, nu[z0 - 1 : z0 - 1 + len(s)]))


def holding_rate(v, rates):
    """Total escape rate out of any state (Levy variants only): f(Lambda)."""
    clock, beta = _split(v)
    if beta != 1.0:
        raise ValueError("inverse-stable clocks give no holding rate")
    return clock.exponent(rates.total)


def variant_levy_measure(v, rates, nbar):
    """Mass of the variant's Levy measure at the jump nbar (> 0).

    For these subordinated Levy processes the measure is atomic on the
    jump lattice and each atom equals the constant transition rate.
    """
    nbar = _check_state(rates, nbar)
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
    if clock.alpha == 1.0:
        # the identity clock at inverse b-stable time, b = 1 for plain time
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
    if t == math.inf:
        raise ValueError("t = inf has no finite codifference")
    w_i = complex(component_symbol(rates.rows[i], cmath.exp(1j)))
    w_l = complex(component_symbol(rates.rows[l], cmath.exp(-1j)))
    clock, beta = _split(v)

    def lncf(warg):
        # ln E exp(-warg D(t)) through the clock exponent at complex warg
        f = clock.exponent(warg)
        if beta == 1.0:
            return -t * f
        return cmath.log(mittag_leffler(beta, 1.0, 1.0, -(t**beta) * f))

    joint = 0.0 if i == l else lncf(w_i + w_l)
    return joint - lncf(w_i) - lncf(w_l)
