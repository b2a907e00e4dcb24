"""Random clocks: Laplace exponents, Levy densities, atoms, samplers.

Each clock is a small frozen dataclass that carries what the other
layers ask of it.  A Levy clock carries its Laplace exponent f at real
or complex w (exponent), the rates nu_1(k) at which it fires k jumps of
a rate-lam base process at once (atoms), an exact sampler (sample), and
f'(0) = E[D(1)] and f''(0) = -Var D(1) (mean_rate and curvature, None
where infinite); one with a Levy density carries density and
singularity_exponent too.
InverseStableTime, not a Levy process, carries a sampler only.  The
public functions check their inputs and ask the clock.  Samplers draw
single-time marginals only and take an explicit numpy Generator; use
stream_rng to build reproducible independent streams: stream k of a
seed is PCG64DXSM seeded by it and jumped k times.
clock_from_uniforms is a second, inverse-cdf sampler with its own code,
kept as the test reference for sample_many.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

# largest z with z! in double range
_MAX_FACTORIAL = 170


@dataclass(frozen=True)
class Identity:
    """The clock D(t) = t of the base process: alpha = 1 stable, one atom, no density."""

    alpha = 1.0
    mean_rate = 1.0
    curvature = 0.0

    def exponent(self, w):
        return w

    def atoms(self, lam, size):
        return (lam,) + (0.0,) * (size - 1)

    def sample(self, t, rng, size):
        return np.full(size, t, dtype=float)


class _Tempered:
    """The exponent (s + theta)^alpha - theta^alpha, its atoms and Levy density."""

    def exponent(self, w):
        return (w + self.theta) ** self.alpha - self.theta**self.alpha

    def atoms(self, lam, size):
        return _stable_atoms((self.alpha, self.theta, 1.0), lam, size)

    def density(self, s):
        a = self.alpha
        return a / math.gamma(1.0 - a) * s ** (-1.0 - a) * math.exp(-self.theta * s)

    @property
    def mean_rate(self):
        # f'(0) = alpha theta^(alpha - 1), infinite at theta = 0
        return self.alpha * self.theta ** (self.alpha - 1.0) if self.theta else None

    @property
    def curvature(self):
        a = self.alpha
        return -a * (1.0 - a) * self.theta ** (a - 2.0) if self.theta else None

    @property
    def singularity_exponent(self):
        return self.alpha


@dataclass(frozen=True)
class Stable(_Tempered):
    """alpha-stable subordinator, Laplace exponent s^alpha: tempered at theta = 0."""

    alpha: float
    theta = 0.0

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")

    def sample(self, t, rng, size):
        return t ** (1.0 / self.alpha) * _kanter(self.alpha, rng, size)


@dataclass(frozen=True)
class TemperedStable(_Tempered):
    """Exponentially tempered stable clock, exponent (s+theta)^alpha - theta^alpha."""

    alpha: float
    theta: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not 0.0 < self.theta < math.inf:
            raise ValueError("theta must be positive and finite")

    def sample(self, t, rng, size):
        return _tempered_stable(self.alpha, self.theta, t, rng, size)


@dataclass(frozen=True)
class GammaSub:
    """Gamma subordinator, exponent b*log(1 + s/a)."""

    a: float
    b: float
    singularity_exponent = 0.0

    def __post_init__(self):
        if not (0.0 < self.a < math.inf and 0.0 < self.b < math.inf):
            raise ValueError("a and b must be positive and finite")

    @property
    def mean_rate(self):
        return self.b / self.a

    @property
    def curvature(self):
        return -self.b / self.a**2

    def exponent(self, w):
        if isinstance(w, complex):
            return self.b * cmath.log(1.0 + w / self.a)
        return self.b * math.log1p(w / self.a)

    def atoms(self, lam, size):
        # b r^k / k with r = lam / (lam + a), a logarithmic series
        ratio = lam / (lam + self.a)
        return tuple(self.b * ratio**k / k for k in range(1, size + 1))

    def sample(self, t, rng, size):
        return rng.gamma(self.b * t, 1.0 / self.a, size)

    def density(self, s):
        return self.b / s * math.exp(-self.a * s)


@dataclass(frozen=True)
class InverseGaussian:
    """Inverse Gaussian subordinator, exponent delta*(sqrt(2s+gamma^2) - gamma)."""

    delta: float
    gamma: float
    singularity_exponent = 0.5

    def __post_init__(self):
        if not (0.0 < self.delta < math.inf and 0.0 < self.gamma < math.inf):
            raise ValueError("delta and gamma must be positive and finite")

    @property
    def mean_rate(self):
        return self.delta / self.gamma

    @property
    def curvature(self):
        return -self.delta / self.gamma**3

    def exponent(self, w):
        sqrt = cmath.sqrt if isinstance(w, complex) else math.sqrt
        return self.delta * (sqrt(2.0 * w + self.gamma**2) - self.gamma)

    def atoms(self, lam, size):
        # the tempered 1/2-stable clock at tilt gamma^2 / 2, scale delta sqrt(2)
        form = (0.5, 0.5 * self.gamma**2, self.delta * math.sqrt(2.0))
        return _stable_atoms(form, lam, size)

    def sample(self, t, rng, size):
        # numpy's wald(mean, scale) is the Michael-Schucany-Haas sampler;
        # IG(mean=delta t/gamma, shape=(delta t)^2) matches ig_density
        return rng.wald(self.delta * t / self.gamma, (self.delta * t) ** 2, size)

    def density(self, s):
        return self.delta / math.sqrt(2.0 * math.pi * s**3) * math.exp(-0.5 * self.gamma**2 * s)


@dataclass(frozen=True)
class InverseStableTime:
    """inner, Identity or Stable, run at E_t, the first passage past t of a
    beta-stable subordinator: the time- or space-time-fractional clock."""

    inner: object
    beta: float

    def __post_init__(self):
        if not isinstance(self.inner, (Identity, Stable)):
            raise ValueError(
                "the inner clock at inverse-stable time must be Identity or "
                "Stable, got %r; other clocks there need a sampler that takes an "
                "array of times" % (self.inner,)
            )
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")

    def sample(self, t, rng, size):
        # self-similarity: E_t equals (t / D_beta(1))^beta in law
        return self.inner.sample((t / _kanter(self.beta, rng, size)) ** self.beta, rng, size)


def _stable_atoms(form, lam, size):
    """(nu_1(1), ..., nu_1(size)) of a tempered-stable family clock at base rate lam.

    With exponent scale ((s + tilt)^alpha - tilt^alpha), form =
    (alpha, tilt, scale), f(lam (1 - u)) = f(lam) - sum_z nu_1(z) u^z,
    where nu_1(z) = scale (lam + tilt)^alpha (lam / (lam + tilt))^z
    |C(alpha, z)| and |C(alpha, z)| = alpha Gamma(z - alpha) / (Gamma(1 - alpha) z!).
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

    return tuple(atom(z) for z in range(1, size + 1))


def _method(spec, name, message):
    """spec's attribute name, or ValueError(message % spec) for a clock without it."""
    try:
        return getattr(spec, name)
    except AttributeError:
        raise ValueError(message % (spec,)) from None


def laplace_exponent(spec, s):
    """Bernstein exponent f with E[exp(-s D(t))] = exp(-t f(s)).

    Defined for the Levy clocks only; a clock at inverse-stable time
    has no such exponent.
    """
    if not s >= 0:
        raise ValueError("s must be non-negative")
    return _method(spec, "exponent", "%r is not a Levy subordinator")(s)


def levy_density(spec, s):
    """Density of the clock's Levy measure at s > 0."""
    if not s > 0:
        raise ValueError("s must be positive")
    return _method(spec, "density", "%r has no Levy density")(s)


def levy_singularity_exponent(spec):
    """rho with levy_density(s) ~ c * s^(-1-rho) as s -> 0."""
    return _method(spec, "singularity_exponent", "%r has no Levy density")


def gamma_density(a, b, x, t):
    """Density of the gamma subordinator at value x, time t."""
    if x <= 0 or t <= 0:
        raise ValueError("x and t must be positive")
    return math.exp(
        b * t * math.log(a)
        + (b * t - 1.0) * math.log(x)
        - a * x
        - math.lgamma(b * t)
    )


def ig_density(delta, gamma, x, t):
    """Density of the inverse Gaussian subordinator at value x, time t."""
    if x <= 0 or t <= 0:
        raise ValueError("x and t must be positive")
    return (
        delta
        * t
        / math.sqrt(2.0 * math.pi * x**3)
        * math.exp(delta * gamma * t - 0.5 * (delta**2 * t**2 / x + gamma**2 * x))
    )


def inverse_stable_moment(beta, n, t):
    """E[Y_beta(t)^n] = n! t^(n beta) / Gamma(n beta + 1)."""
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    if n < 0:
        raise ValueError("n must be non-negative")
    if not t >= 0:
        raise ValueError("t must be non-negative")
    if n == 0:
        return 1.0
    if t == 0:
        return 0.0
    return math.exp(
        math.lgamma(n + 1.0) + n * beta * math.log(t) - math.lgamma(n * beta + 1.0)
    )


def stream_rng(seed, stream=0):
    """Reproducible stream (seed, stream) -> Generator.

    Stream k is PCG64DXSM seeded by seed and jumped k times: each jump
    advances the 2^128-period sequence by about 0.618 of its period (the
    golden ratio's fraction), so the streams of one seed start at least
    about 2^100 draws apart for any k below 10^6 and no estimator's
    draws reach from one into the next.
    """
    return np.random.Generator(np.random.PCG64DXSM(seed).jumped(stream))


def _kanter_from_u(alpha, u1, u2):
    """Standard positive stable draws, E[exp(-s X)] = exp(-s^alpha).

    Kanter's (1975) integral representation: with U ~ U(0, pi) and
    E ~ Exp(1), X = (A(U)/E)^((1-alpha)/alpha) where
    A(u) = [sin(alpha u)^alpha sin((1-alpha)u)^(1-alpha) / sin u]^(1/(1-alpha)).
    Takes two unit uniforms and folds the two powers into one exponent,
    log X = (alpha log sin(alpha u) + (1-alpha) log sin((1-alpha)u)
    - log sin u)/alpha - ((1-alpha)/alpha) log E, so no intermediate
    power overflows as alpha nears 1 (A alone passes the double range
    there).  It is the reference sampler behind clock_from_uniforms,
    and the independent side of the test on the live sampler _kanter,
    which computes from half-angle tangents.
    """
    u = np.pi * _interior(u1)
    e = -np.log(_interior(u2))
    log_sines = (
        alpha * np.log(np.sin(alpha * u))
        + (1.0 - alpha) * np.log(np.sin((1.0 - alpha) * u))
        - np.log(np.sin(u))
    )
    return np.exp(log_sines / alpha - (1.0 - alpha) / alpha * np.log(e))


def _interior(u):
    """Clamp unit uniforms away from the endpoints 0 and 1."""
    return np.clip(u, 1e-300, 1.0 - 1e-16)


def _kanter(alpha, rng, size):
    """Kanter's draws of _kanter_from_u on two fresh uniform blocks, by tangents.

    With h = u/2 the half angle, sin u = 2/s for s = tan h + 1/tan h,
    and likewise sin(a u) = 2/s_a for s_a = tan(a h) + 1/tan(a h), so
    X = (s/s_alpha) (s/(s_(1-alpha) E))^((1-alpha)/alpha).  Every term
    is positive on 0 < h < pi/2, so nothing cancels, and the same two
    uniforms are read in the same order as by the reference.  Three
    tangents, one log and one power replace the reference's three sines
    and their logs: numpy vectorises tan, log and pow on hosts where
    its float64 sin and cos run element by element.  The reference
    sampler keeps the sine form, so the two stay independent code.
    """
    h = _interior(rng.random(size))
    h *= 0.5 * np.pi
    e = np.log(_interior(rng.random(size)))
    np.negative(e, out=e)
    # the blocks are reused in place: a fresh one costs page faults
    ratio = _tan_cot((1.0 - alpha) * h)
    ratio *= e
    s_alpha = _tan_cot(alpha * h)
    s = _tan_cot(h)
    np.divide(s, ratio, out=ratio)
    ratio **= (1.0 - alpha) / alpha
    s /= s_alpha
    s *= ratio
    return s


def _tan_cot(h):
    """tan h + 1/tan h, that is 2 / sin 2h, written over h."""
    np.tan(h, out=h)
    h += np.reciprocal(h)
    return h


# the most time slices _tempered_stable takes, about e * 10^6 stable
# proposals and 0.3 s per draw on a 2-CPU Xeon: a larger t theta^alpha
# raises ValueError
_MAX_SLICES = 10**6
# the proposals one rejection block holds: the slices of several draws
# share a block, so a small draw count does not pay numpy's per-call
# cost once per slice
_SLICE_BLOCK = 1 << 15


def _tempered_stable(alpha, theta, t, rng, size):
    """Exact tempered-stable draws by tilting rejection on stable proposals.

    The clock at t is the sum of m independent clocks at t/m, each drawn
    as a stable proposal kept with chance exp(-theta X), which accepts
    with rate exp(-c/m) for c = t theta^alpha.  m = max(1, floor(c))
    keeps that above e^-2 per slice, and a draw costs about m e^(c/m)
    proposals, near the least over m.  The slices are independent, so
    they are drawn as many at a time as fit in _SLICE_BLOCK proposals
    (one at a time once size reaches it) and summed per draw.  A
    non-finite t, or a c whose m passes _MAX_SLICES (10^6), raises
    ValueError.
    """
    if not math.isfinite(t):
        raise ValueError("the tempered stable clock needs a finite t, got %r" % t)
    c = t * theta**alpha
    if not c < _MAX_SLICES + 1:
        raise ValueError(
            "t theta^alpha = %.6g would take more than %d rejection slices "
            "in the tempered stable sampler" % (c, _MAX_SLICES)
        )
    m = max(1, math.floor(c))
    dt = t / m
    scale = dt ** (1.0 / alpha)
    per_block = max(1, _SLICE_BLOCK // max(1, size))
    total = np.zeros(size)
    for first in range(0, m, per_block):
        slices = min(per_block, m - first)
        draw = np.empty(slices * size)
        pending = np.arange(draw.size)
        while pending.size:
            prop = scale * _kanter(alpha, rng, pending.size)
            accept = rng.random(pending.size) < np.exp(-theta * prop)
            # index arrays, not boolean masks: a random mask scatters slowly
            kept = np.flatnonzero(accept)
            draw[pending.take(kept)] = prop.take(kept)
            pending = pending.compress(~accept)
        total += draw.reshape(slices, size).sum(axis=0)
    return total


def sample_many(spec, t, rng, size):
    """Vectorized clock draws; returns an ndarray of shape (size,)."""
    if not t >= 0:
        raise ValueError("t must be non-negative")
    if t == 0:
        return np.zeros(size)
    return _method(spec, "sample", "unknown subordinator spec %r")(t, rng, size)


def sample(spec, t, rng):
    """One exact draw of the clock at time t."""
    if not t > 0:
        raise ValueError("t must be positive")
    return float(sample_many(spec, t, rng, 1)[0])


_TILT_ROUNDS = 48


def _tempered_slices(alpha, theta, t):
    """Slice count keeping the tilting acceptance rate above 1/2."""
    return max(1, math.ceil(t * theta**alpha / math.log(2.0)))


def clock_budget(spec, t):
    """Unit uniforms consumed per draw by clock_from_uniforms.

    Part of the reference sampler; no estimator calls it.
    """
    if isinstance(spec, (Stable, InverseGaussian)):
        return 2
    if isinstance(spec, InverseStableTime) and isinstance(spec.inner, Identity):
        return 2
    if isinstance(spec, InverseStableTime) and isinstance(spec.inner, Stable):
        return 4
    if isinstance(spec, GammaSub):
        return 1
    if isinstance(spec, TemperedStable):
        return 3 * _TILT_ROUNDS * _tempered_slices(spec.alpha, spec.theta, t)
    raise ValueError("unknown subordinator spec %r" % (spec,))


def clock_from_uniforms(spec, t, u):
    """Clock draws from a (size, clock_budget) block of unit uniforms.

    Equal in distribution to sample_many but a pure function of its
    inputs, so any partition of a sample range into batches produces
    the same draws.  No estimator calls it: it is the independent
    reference that the tests compare sample_many against.
    """
    if isinstance(spec, Stable):
        return t ** (1.0 / spec.alpha) * _kanter_from_u(spec.alpha, u[:, 0], u[:, 1])
    if isinstance(spec, InverseStableTime) and isinstance(spec.inner, Identity):
        return (t / _kanter_from_u(spec.beta, u[:, 0], u[:, 1])) ** spec.beta
    if isinstance(spec, GammaSub):
        from scipy.special import gammaincinv

        return gammaincinv(spec.b * t, _interior(u[:, 0])) / spec.a
    if isinstance(spec, InverseGaussian):
        return _ig_from_u(spec.delta * t / spec.gamma, (spec.delta * t) ** 2, u)
    if isinstance(spec, InverseStableTime) and isinstance(spec.inner, Stable):
        y = (t / _kanter_from_u(spec.beta, u[:, 0], u[:, 1])) ** spec.beta
        return y ** (1.0 / spec.inner.alpha) * _kanter_from_u(spec.inner.alpha, u[:, 2], u[:, 3])
    if isinstance(spec, TemperedStable):
        return _tempered_from_u(spec.alpha, spec.theta, t, u)
    raise ValueError("unknown subordinator spec %r" % (spec,))


def _ig_from_u(mean, shape, u):
    """Michael-Schucany-Haas inverse Gaussian from (normal, uniform).

    Part of the reference sampler behind clock_from_uniforms.
    """
    from scipy.special import ndtri

    chi = ndtri(_interior(u[:, 0])) ** 2
    w = mean * chi
    x1 = mean + mean / (2.0 * shape) * (w - np.sqrt(4.0 * shape * w + w * w))
    take = _interior(u[:, 1]) <= mean / (mean + x1)
    return np.where(take, x1, mean * mean / x1)


def _tempered_from_u(alpha, theta, t, u):
    """Tilting rejection driven by a fixed per-draw uniform window.

    Each time slice owns _TILT_ROUNDS column triples (two Kanter inputs
    plus one acceptance uniform); acceptance is at least 1/2 per round,
    so the chance any draw exhausts its 48 rounds is below 4e-15, in
    which case the last proposal is kept.  Part of the reference sampler
    behind clock_from_uniforms.
    """
    size = u.shape[0]
    slices = _tempered_slices(alpha, theta, t)
    dt = t / slices
    scale = dt ** (1.0 / alpha)
    total = np.zeros(size)
    for s in range(slices):
        base = 3 * _TILT_ROUNDS * s
        draw = np.full(size, -1.0)
        pending = np.arange(size)
        for r in range(_TILT_ROUNDS):
            col = base + 3 * r
            prop = scale * _kanter_from_u(
                alpha, u[pending, col], u[pending, col + 1]
            )
            draw[pending] = prop
            accept = _interior(u[pending, col + 2]) < np.exp(-theta * prop)
            pending = pending[~accept]
            if not pending.size:
                break
        total += draw
    return total
