"""Time-changed MGCP variants: pmf, pgf, rates, covariance, codifference.

Every pmf and transition rate here is a sum over the jump compositions
of the state that depends on them only through the total jump count z;
compositions.jump_profile collapses it to a sum over z, and each route
supplies its own kernel K(z).  The four variants driven by Levy clocks
(space-fractional, tempered, gamma, inverse Gaussian) have constant
transition rates and atomic Levy measures; the two driven by
inverse-stable clocks (time-fractional and space-time-fractional) do
not, and only offer pmf/pgf/codifference.

alpha = 1 and beta = 1 are exact branch points and dispatch to the
underlying non-fractional formulas.
"""

import cmath
import math
from dataclasses import dataclass

from scipy.special import gammaln

from .compositions import jump_profile
from .gcp import _check_state, component_symbol, mgcp_pmf, pgf_symbol
from .specfun import _Accumulator, _config, falling_factorial, mittag_leffler, wright_1_1
from . import subordinators as subs

# largest z with z! in double range
_MAX_FACTORIAL = 170


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


def _reduce(v):
    """Collapse alpha=1 / beta=1 branch points to the simpler variant."""
    if isinstance(v, Mgsfcp) and v.alpha == 1.0:
        return Mgcp()
    if isinstance(v, Mgfcp) and v.beta == 1.0:
        return Mgcp()
    if isinstance(v, Mgstfcp):
        if v.alpha == 1.0 and v.beta == 1.0:
            return Mgcp()
        if v.beta == 1.0:
            return Mgsfcp(v.alpha)
        if v.alpha == 1.0:
            return Mgfcp(v.beta)
    if isinstance(v, Tempered) and v.alpha == 1.0:
        # Psi(s) = (s + theta) - theta = s: the clock is the identity
        return Mgcp()
    return v


def clock_spec(v):
    """The random clock driving the (reduced) variant; None for Mgcp."""
    v = _reduce(v)
    if isinstance(v, Mgcp):
        return None
    if isinstance(v, Mgsfcp):
        return subs.Stable(v.alpha)
    if isinstance(v, Mgfcp):
        return subs.InverseStable(v.beta)
    if isinstance(v, Mgstfcp):
        return subs.StableTimeInverseStable(v.alpha, v.beta)
    if isinstance(v, Tempered):
        return subs.TemperedStable(v.alpha, v.theta)
    if isinstance(v, GammaTC):
        return subs.GammaSub(v.a, v.b)
    if isinstance(v, IgTC):
        return subs.InverseGaussian(v.delta, v.gamma)
    raise ValueError("unknown variant %r" % (v,))


def _profile_sum(rates, nbar, ktilde):
    """sum_z S[nbar, z] * ktilde(z) over the jump counts the state admits.

    ktilde(z) = (c Lambda)^z K(z) / z! is the scaled jump-count kernel of
    a composition sum with weights (c lambda_ij)^x / x!.
    """
    z0, s = jump_profile(rates, nbar)
    return math.fsum(v * ktilde(z0 + m) for m, v in enumerate(s) if v)


def _state_series(a, z, slope, beta_denom, cfg, label):
    """sum_r (-a)^r / Gamma(beta_denom r + 1) * C(slope r, z)  (binomial).

    The inner r-series of the fractional pmfs, per jump count z: the
    falling factorial (slope r)_z over z!, divided once while z! is a
    double and spread over the factors past that.
    """
    zfact = float(math.factorial(z)) if z <= _MAX_FACTORIAL else None
    acc = _Accumulator(cfg, label)
    base = 1.0
    for r in range(cfg.max_terms):
        x = slope * r
        if zfact:
            term = base * falling_factorial(x, z) / zfact
        else:
            term = base * math.prod((x - m) / (m + 1) for m in range(z))
        if acc.add(term):
            break
        u = beta_denom * r + 1.0
        base *= -a * math.exp(gammaln(u) - gammaln(u + beta_denom))
    return acc.finish()


def variant_pmf(v, rates, nbar, t, cfg=None):
    """P{variant state = nbar at time t} by the closed-form series.

    States that need more than 170 jumps in one component raise
    ValueError, as does the time-fractional route once 1/Gamma(beta z + 1)
    leaves double range: no value is better than garbage there.
    """
    _check_state(rates, nbar)
    if t < 0:
        raise ValueError("t must be non-negative")
    if t == 0:
        return 1.0 if not any(nbar) else 0.0
    try:
        return _pmf_series(v, rates, nbar, t, _config(cfg))
    except OverflowError as exc:
        raise ValueError(
            "state %r is too deep for the double-precision pmf series" % (nbar,)
        ) from exc


def _pmf_series(v, rates, nbar, t, cfg):
    v = _reduce(v)
    if isinstance(v, Mgcp):
        return mgcp_pmf(rates, nbar, t)
    for row, n in zip(rates.rows, nbar):
        smallest = next(j for j, lam in enumerate(row, start=1) if lam > 0.0)
        if n // smallest > _MAX_FACTORIAL:
            raise OverflowError("more than %d jumps in one component" % _MAX_FACTORIAL)
    lam = rates.total

    if isinstance(v, Mgfcp):
        b = v.beta
        x = lam * t**b

        def ktilde(z):
            if b * z > _MAX_FACTORIAL:
                raise OverflowError("1/Gamma(beta z + 1) underflows")
            return x**z * mittag_leffler(b, b * z + 1.0, z + 1.0, -x, cfg)

        return _profile_sum(rates, nbar, ktilde)

    if isinstance(v, GammaTC):
        r = lam + v.a
        bt = v.b * t

        def ktilde(z):
            # (lam/r)^z (bt)(bt+1)...(bt+z-1) / z!
            return math.prod((bt + k) * lam / (r * (k + 1)) for k in range(z))

        total = _profile_sum(rates, nbar, ktilde)
        return total * math.exp(bt * (math.log(v.a) - math.log(r)))

    if isinstance(v, Mgsfcp):
        c, a, slope, bden, pref = -1.0 / lam, lam**v.alpha * t, v.alpha, 1.0, 1.0
    elif isinstance(v, Mgstfcp):
        c = -1.0 / lam
        a = lam**v.alpha * t**v.beta
        slope, bden, pref = v.alpha, v.beta, 1.0
    elif isinstance(v, Tempered):
        lt = lam + v.theta
        c, a = -1.0 / lt, lt**v.alpha * t
        slope, bden = v.alpha, 1.0
        pref = math.exp(t * v.theta**v.alpha)
    elif isinstance(v, IgTC):
        s2 = 2.0 * lam + v.gamma**2
        c, a = -2.0 / s2, v.delta * t * math.sqrt(s2)
        slope, bden = 0.5, 1.0
        pref = math.exp(v.delta * v.gamma * t)
    else:
        raise ValueError("unknown variant %r" % (v,))

    def ktilde(z):
        return (c * lam) ** z * _state_series(a, z, slope, bden, cfg, "variant_pmf")

    return pref * _profile_sum(rates, nbar, ktilde)


def variant_pmf_wright(v, rates, nbar, t, cfg=None):
    """Alternate pmf route through the generalized Wright function.

    Only the space-fractional and tempered variants have this
    representation; it must agree with variant_pmf.
    """
    _check_state(rates, nbar)
    if t < 0:
        raise ValueError("t must be non-negative")
    if t == 0:
        return 1.0 if not any(nbar) else 0.0
    cfg = _config(cfg)
    v = _reduce(v)
    if isinstance(v, Mgcp):
        return mgcp_pmf(rates, nbar, t)
    lam = rates.total
    if isinstance(v, Mgsfcp):
        alpha, denom, pref = v.alpha, lam, 1.0
    elif isinstance(v, Tempered):
        alpha, denom = v.alpha, lam + v.theta
        # the exp(t theta^alpha) prefactor is required for the two pmf
        # routes to agree (check the empty state against the pgf)
        pref = math.exp(t * v.theta**v.alpha)
    else:
        raise ValueError("Wright form exists only for Mgsfcp and Tempered")
    arg = -(denom**alpha) * t

    def ktilde(z):
        kz = wright_1_1(1.0, alpha, 1.0 - z, alpha, arg, cfg)
        return kz * (-lam / denom) ** z / math.factorial(z)

    return pref * _profile_sum(rates, nbar, ktilde)


def _transform(v, w, t):
    """E[exp(-w * clock(t))] style transform applied to the pgf symbol w."""
    if isinstance(v, Mgcp):
        return math.exp(-t * w)
    if isinstance(v, Mgsfcp):
        return math.exp(-t * w**v.alpha)
    if isinstance(v, Mgfcp):
        return mittag_leffler(v.beta, 1.0, 1.0, -(t**v.beta) * w)
    if isinstance(v, Mgstfcp):
        return mittag_leffler(v.beta, 1.0, 1.0, -(t**v.beta) * w**v.alpha)
    if isinstance(v, Tempered):
        return math.exp(-t * ((w + v.theta) ** v.alpha - v.theta**v.alpha))
    if isinstance(v, GammaTC):
        return (1.0 + w / v.a) ** (-v.b * t)
    if isinstance(v, IgTC):
        return math.exp(
            -v.delta * t * (math.sqrt(2.0 * w + v.gamma**2) - v.gamma)
        )
    raise ValueError("unknown variant %r" % (v,))


def variant_pgf(v, rates, ubar, t):
    """E[prod u_i^{N_i(t)}] for the variant; closed form in every case."""
    if any(abs(u) > 1.0 + 1e-12 for u in ubar):
        raise ValueError("need |u_i| <= 1")
    if t < 0:
        raise ValueError("t must be non-negative")
    return _transform(_reduce(v), pgf_symbol(rates, ubar), t)


def variant_transition_rate(v, rates, mbar):
    """Constant rate of the jump nbar -> nbar + mbar (Levy variants only)."""
    _check_state(rates, mbar)
    if not any(mbar):
        raise ValueError("mbar must be a non-zero jump")
    v = _reduce(v)
    if isinstance(v, (Mgfcp, Mgstfcp)):
        raise ValueError("inverse-stable clocks give no constant rates")
    if isinstance(v, Mgcp):
        hot = [(i, n) for i, n in enumerate(mbar) if n > 0]
        if len(hot) != 1:
            return 0.0
        i, j = hot[0]
        return rates.rows[i][j - 1] if j <= rates.ks[i] else 0.0

    lam = rates.total
    if isinstance(v, GammaTC):

        def ktilde(z):
            # (lam / (lam + a))^z b (z-1)! / z!
            return v.b * (lam / (lam + v.a)) ** z / z

    elif isinstance(v, (Mgsfcp, Tempered, IgTC)):
        # jump law r^(-1-alpha) e^(-tilt r) up to a scale; the inverse
        # Gaussian clock is the alpha = 1/2 case
        if isinstance(v, IgTC):
            alpha, tilt, scale = 0.5, 0.5 * v.gamma**2, v.delta * math.sqrt(2.0)
        else:
            alpha, scale = v.alpha, 1.0
            tilt = v.theta if isinstance(v, Tempered) else 0.0
        denom = lam + tilt
        # scale denom^alpha (lam/denom)^z |C(alpha, z)| with
        # |C(alpha, z)| = alpha Gamma(z - alpha) / (Gamma(1 - alpha) z!)
        front = scale * denom**alpha * alpha / math.gamma(1.0 - alpha)
        log_ratio = math.log(lam / denom)

        def ktilde(z):
            return front * math.exp(z * log_ratio + gammaln(z - alpha) - gammaln(z + 1.0))

    else:
        raise ValueError("unknown variant %r" % (v,))
    return _profile_sum(rates, mbar, ktilde)


def holding_rate(v, rates):
    """Total escape rate out of any state (Levy variants only)."""
    v = _reduce(v)
    lam = rates.total
    if isinstance(v, Mgcp):
        return lam
    if isinstance(v, Mgsfcp):
        return lam**v.alpha
    if isinstance(v, Tempered):
        return (lam + v.theta) ** v.alpha - v.theta**v.alpha
    if isinstance(v, GammaTC):
        return v.b * math.log1p(lam / v.a)
    if isinstance(v, IgTC):
        return v.delta * (math.sqrt(2.0 * lam + v.gamma**2) - v.gamma)
    raise ValueError("inverse-stable clocks give no holding rate")


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
    if t < 0:
        raise ValueError("t must be non-negative")
    m_i = rates.mean_rate(i)
    m_l = rates.mean_rate(l)
    if isinstance(v, Mgfcp):
        b = v.beta
        bracket = 2.0 / math.gamma(2.0 * b + 1.0) - 1.0 / math.gamma(b + 1.0) ** 2
        out = m_i * m_l * t ** (2.0 * b) * bracket
        if i == l:
            out += rates.second_moment_rate(i) * t**b / math.gamma(b + 1.0)
        return out
    if isinstance(v, Tempered):
        a, th = v.alpha, v.theta
        out = t * a * (1.0 - a) * th ** (a - 2.0) * m_i * m_l
        if i == l:
            out += t * a * th ** (a - 1.0) * rates.second_moment_rate(i)
        return out
    raise ValueError("covariance formula exists only for Mgfcp and Tempered")


def codifference(v, rates, i, l, t, cfg=None):
    """Codifference tau(N_i(t), N_l(t)); complex, principal log branch.

    tau = ln E e^(w(Ni-Nl)) - ln E e^(w Ni) - ln E e^(-w Nl) with w the
    imaginary unit.
    """
    if not (0 <= i < rates.q and 0 <= l < rates.q):
        raise ValueError("component index out of range")
    if t < 0:
        raise ValueError("t must be non-negative")
    cfg = _config(cfg)
    w_i = complex(component_symbol(rates.rows[i], cmath.exp(1j)))
    w_l = complex(component_symbol(rates.rows[l], cmath.exp(-1j)))

    if isinstance(v, Mgfcp):
        b = v.beta

        def lncf(warg):
            return cmath.log(mittag_leffler(b, 1.0, 1.0, -(t**b) * warg, cfg))

        joint = 0.0 if i == l else lncf(w_i + w_l)
        return joint - lncf(w_i) - lncf(w_l)

    if isinstance(v, Mgstfcp):
        a, b = v.alpha, v.beta

        def lncf(warg):
            return cmath.log(mittag_leffler(b, 1.0, 1.0, -(t**b) * warg**a, cfg))

        joint = 0.0 if i == l else lncf(w_i + w_l)
        return joint - lncf(w_i) - lncf(w_l)

    if isinstance(v, Tempered):
        a, th = v.alpha, v.theta

        def psi(warg):
            return (warg + th) ** a - th**a

        joint = 0.0 if i == l else -t * psi(w_i + w_l)
        return joint + t * psi(w_i) + t * psi(w_l)

    raise ValueError("codifference formula exists only for Mgfcp, Mgstfcp, Tempered")
