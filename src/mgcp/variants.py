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
supplies its own kernel K(z).
"""

import cmath
import math
import operator
from dataclasses import dataclass

from .compositions import jump_profile
from .gcp import _check_state, _pgf_exponent, component_symbol, mgcp_pmf
from .specfun import _MAX_TERMS, _Accumulator, falling_factorial, mittag_leffler, wright_1_1
from . import subordinators as subs

# largest z with z! in double range
_MAX_FACTORIAL = 170
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


def _jump_count_law(atom, t, h, zmax):
    """(q, lg) with P{Z_t = z} = q[z] exp(lg), z = 0..zmax.

    Z_t counts the base jumps by time t under a Levy clock: compound
    Poisson with atoms atom(k) and total rate h, so P{Z_t = 0} = exp(-t h)
    and Panjer's recursion z q(z) = t sum_k k atom(k) q(z - k) gives the
    rest in nonnegative terms.  It starts from q(0) = 1 and scales its
    values down by an exact power of two whenever one passes 2^512, so
    neither a large t nor the factor exp(-t h) leaves double range.
    """
    katoms = [k * atom(k) for k in range(1, zmax + 1)]
    q, lg = [1.0], -t * h
    for z in range(1, zmax + 1):
        x = t * (math.fsum(map(operator.mul, katoms[:z], reversed(q))) / z)
        if x == math.inf:
            raise ValueError("t = %r is too large for the jump-count recursion" % (t,))
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
    z0, s = jump_profile(rates, nbar)
    try:
        return math.fsum(v * ktilde(z0 + m) for m, v in enumerate(s) if v)
    except OverflowError as exc:
        raise ValueError(
            "state %r is too deep for the double-precision series" % (nbar,)
        ) from exc


def _state_series(a, z, slope, beta_denom, label):
    """sum_r (-a)^r / Gamma(beta_denom r + 1) * C(slope r, z)  (binomial).

    The inner r-series of the fractional pmfs, per jump count z: the
    falling factorial (slope r)_z over z!, divided once while z! is a
    double and spread over the factors past that.
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
    return acc.finish()


def variant_pmf(v, rates, nbar, t):
    """P{variant state = nbar at time t}.

    sum_z S[z] q_t(z), S the state's jump-count profile and q_t the law
    of the total jump count Z_t.  Under a Levy clock Z_t is compound
    Poisson: q_t is a negative binomial for the gamma clock and comes
    from Panjer's recursion, whose terms are all nonnegative, for the
    tempered-stable family (stable, tempered, inverse Gaussian), so the
    value is exact at any t.  At inverse-stable time q_t is the
    Mittag-Leffler series (Mgfcp) or the paper's alternating r-series
    (Mgstfcp), which cancel as t grows.

    States that need more than 170 jumps in one component raise
    ValueError, as does the time-fractional route once 1/Gamma(beta z + 1)
    leaves double range: no value is better than garbage there.
    """
    return _pmf(_pmf_series, v, rates, nbar, t)


def variant_pmf_wright(v, rates, nbar, t):
    """Alternate pmf route through the generalized Wright function.

    Only the space-fractional and tempered variants have this
    representation; it must agree with variant_pmf.
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
        if clock is None and beta == 1.0:
            return mgcp_pmf(rates, nbar, t)
        return route(clock, beta, rates, nbar, t)
    except OverflowError as exc:
        raise ValueError(
            "state %r is too deep for the double-precision pmf series" % (nbar,)
        ) from exc


def _pmf_series(clock, beta, rates, nbar, t):
    for row, n in zip(rates.rows, nbar):
        smallest = next(j for j, lam in enumerate(row, start=1) if lam > 0.0)
        if n // smallest > _MAX_FACTORIAL:
            raise OverflowError("more than %d jumps in one component" % _MAX_FACTORIAL)
    lam = rates.total
    form = _stable_form(clock)

    if clock is None:
        # plain clock at inverse-stable time: K(z) = E^(z+1)_(beta, beta z + 1)(-x)
        x = lam * t**beta

        def ktilde(z):
            if beta * z > _MAX_FACTORIAL:
                raise OverflowError("1/Gamma(beta z + 1) underflows")
            return x**z * mittag_leffler(beta, beta * z + 1.0, z + 1.0, -x)

        return _profile_sum(rates, nbar, ktilde)

    if form is None:
        # the gamma clock: a negative binomial in z
        r = lam + clock.a
        bt = clock.b * t

        def ktilde(z):
            # (lam/r)^z (bt)(bt+1)...(bt+z-1) / z!
            return math.prod((bt + k) * lam / (r * (k + 1)) for k in range(z))

        total = _profile_sum(rates, nbar, ktilde)
        return total * math.exp(bt * (math.log(clock.a) - math.log(r)))

    if beta == 1.0:
        # a Levy clock of the tempered-stable family: the jump count is
        # compound Poisson with the clock's atoms
        z0, prof = jump_profile(rates, nbar)
        q, lg = _jump_count_law(
            _stable_atom(form, lam), t, subs.laplace_exponent(clock, lam), z0 + len(prof) - 1
        )
        return _times_exp(math.fsum(s * x for s, x in zip(prof, q[z0:]) if s), lg)

    # the stable clock at inverse-stable time (tilt 0, scale 1)
    alpha = form[0]
    c = -1.0 / lam
    a = lam**alpha * t**beta

    def ktilde(z):
        return (c * lam) ** z * _state_series(a, z, alpha, beta, "variant_pmf")

    return _profile_sum(rates, nbar, ktilde)


def _wright_series(clock, beta, rates, nbar, t):
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
    """Constant rate of the jump nbar -> nbar + mbar (Levy variants only)."""
    _check_state(rates, mbar)
    if not any(mbar):
        raise ValueError("mbar must be a non-zero jump")
    clock, beta = _split(v)
    if beta != 1.0:
        raise ValueError("inverse-stable clocks give no constant rates")
    lam = rates.total
    if clock is None:
        # the base process makes one jump at a time: the z = 1 kernel
        return _profile_sum(rates, mbar, lambda z: lam if z == 1 else 0.0)
    form = _stable_form(clock)
    if form is None:
        # the gamma clock: (lam / (lam + a))^z b (z-1)! / z!
        ratio = lam / (lam + clock.a)
        return _profile_sum(rates, mbar, lambda z: clock.b * ratio**z / z)
    return _profile_sum(rates, mbar, _stable_atom(form, lam))


def holding_rate(v, rates):
    """Total escape rate out of any state (Levy variants only): f(Lambda)."""
    clock, beta = _split(v)
    if beta != 1.0:
        raise ValueError("inverse-stable clocks give no holding rate")
    lam = rates.total
    return lam if clock is None else subs.laplace_exponent(clock, lam)


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
