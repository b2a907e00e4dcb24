"""Random clocks: Laplace exponents, Levy densities, moments, samplers.

Each clock is a small frozen dataclass.  Samplers draw single-time
marginals only (that is all the pmf layer and the Monte-Carlo checks
need) and take an explicit numpy Generator; use stream_rng to build
reproducible independent streams.  clock_from_uniforms is a second,
inverse-cdf sampler kept as the test reference for sample_many.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Stable:
    """alpha-stable subordinator, Laplace exponent s^alpha."""

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")


@dataclass(frozen=True)
class InverseStable:
    """First passage of a beta-stable subordinator (not itself Levy)."""

    beta: float

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")


@dataclass(frozen=True)
class TemperedStable:
    """Exponentially tempered stable clock, exponent (s+theta)^alpha - theta^alpha."""

    alpha: float
    theta: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.theta <= 0:
            raise ValueError("theta must be positive")


@dataclass(frozen=True)
class GammaSub:
    """Gamma subordinator, exponent b*log(1 + s/a)."""

    a: float
    b: float

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise ValueError("a and b must be positive")


@dataclass(frozen=True)
class InverseGaussian:
    """Inverse Gaussian subordinator, exponent delta*(sqrt(2s+gamma^2) - gamma)."""

    delta: float
    gamma: float

    def __post_init__(self):
        if self.delta <= 0 or self.gamma <= 0:
            raise ValueError("delta and gamma must be positive")


@dataclass(frozen=True)
class StableTimeInverseStable:
    """Composition D_alpha(Y_beta(t)); a clock but not a Levy process."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")


def laplace_exponent(spec, s):
    """Bernstein exponent f with E[exp(-s D(t))] = exp(-t f(s)).

    Defined for the Levy clocks only; inverse-stable clocks (and the
    stable-of-inverse-stable composition) have no such exponent.
    """
    if s < 0:
        raise ValueError("s must be non-negative")
    if isinstance(spec, Stable):
        return s**spec.alpha
    if isinstance(spec, TemperedStable):
        return (s + spec.theta) ** spec.alpha - spec.theta**spec.alpha
    if isinstance(spec, GammaSub):
        return spec.b * math.log1p(s / spec.a)
    if isinstance(spec, InverseGaussian):
        return spec.delta * (math.sqrt(2.0 * s + spec.gamma**2) - spec.gamma)
    raise ValueError("%r is not a Levy subordinator" % (spec,))


def levy_density(spec, s):
    """Density of the clock's Levy measure at s > 0."""
    if s <= 0:
        raise ValueError("s must be positive")
    if isinstance(spec, Stable):
        a = spec.alpha
        return a / math.gamma(1.0 - a) * s ** (-1.0 - a)
    if isinstance(spec, TemperedStable):
        a = spec.alpha
        return a / math.gamma(1.0 - a) * s ** (-1.0 - a) * math.exp(-spec.theta * s)
    if isinstance(spec, GammaSub):
        return spec.b / s * math.exp(-spec.a * s)
    if isinstance(spec, InverseGaussian):
        return (
            spec.delta
            / math.sqrt(2.0 * math.pi * s**3)
            * math.exp(-0.5 * spec.gamma**2 * s)
        )
    raise ValueError("%r has no Levy density" % (spec,))


def levy_singularity_exponent(spec):
    """rho with levy_density(s) ~ c * s^(-1-rho) as s -> 0."""
    if isinstance(spec, (Stable, TemperedStable)):
        return spec.alpha
    if isinstance(spec, GammaSub):
        return 0.0
    if isinstance(spec, InverseGaussian):
        return 0.5
    raise ValueError("%r has no Levy density" % (spec,))


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
    """Reproducible counter-based stream (seed, stream) -> Generator.

    Streams are Philox jump-ahead blocks, so distinct stream indices
    never overlap regardless of how many draws each consumes.
    """
    return np.random.Generator(np.random.Philox(key=seed).jumped(stream))


def _kanter_from_u(alpha, u1, u2):
    """Standard positive stable draws, E[exp(-s X)] = exp(-s^alpha).

    Kanter's (1975) integral representation: with U ~ U(0, pi) and
    E ~ Exp(1), X = (A(U)/E)^((1-alpha)/alpha) where
    A(u) = [sin(alpha u)^alpha sin((1-alpha)u)^(1-alpha) / sin u]^(1/(1-alpha)).
    Takes two unit uniforms and keeps the power form: it is the
    reference sampler behind clock_from_uniforms, and the independent
    side of the test on the live sampler _kanter, which computes in logs.
    """
    u = np.pi * _interior(u1)
    e = -np.log(_interior(u2))
    a = (
        np.sin(alpha * u) ** alpha
        * np.sin((1.0 - alpha) * u) ** (1.0 - alpha)
        / np.sin(u)
    ) ** (1.0 / (1.0 - alpha))
    return (a / e) ** ((1.0 - alpha) / alpha)


def _interior(u):
    """Clamp unit uniforms away from the endpoints 0 and 1."""
    return np.clip(u, 1e-300, 1.0 - 1e-16)


def _kanter(alpha, rng, size):
    """Kanter's draws of _kanter_from_u on two fresh uniform blocks, in logs.

    (1-alpha)/alpha log A folds the two -log sin u terms into ratios, so
    log X = log r1 + (1-alpha)/alpha (log r2 - log E) with
    r1 = sin(alpha u)/sin u and r2 = sin((1-alpha)u)/sin u: three sines,
    four logs and one exp where the power form takes four powers.  The
    reference sampler keeps the power form, so the two stay independent
    code.
    """
    u = np.pi * _interior(rng.random(size))
    log_e = np.log(-np.log(_interior(rng.random(size))))
    sin_u = np.sin(u)
    log_r1 = np.log(np.sin(alpha * u) / sin_u)
    log_r2 = np.log(np.sin((1.0 - alpha) * u) / sin_u)
    return np.exp(log_r1 + (1.0 - alpha) / alpha * (log_r2 - log_e))


def _tempered_stable(alpha, theta, t, rng, size):
    """Exact tempered-stable draws by tilting rejection on stable proposals.

    The acceptance rate per proposal is exp(-t theta^alpha); slicing t
    into m pieces keeps it above 1/10 per slice regardless of t.
    """
    m = max(1, math.ceil(t * theta**alpha / math.log(10.0)))
    dt = t / m
    scale = dt ** (1.0 / alpha)
    total = np.zeros(size)
    for _ in range(m):
        draw = np.empty(size)
        pending = np.arange(size)
        while pending.size:
            prop = scale * _kanter(alpha, rng, pending.size)
            accept = rng.random(pending.size) < np.exp(-theta * prop)
            draw[pending[accept]] = prop[accept]
            pending = pending[~accept]
        total += draw
    return total


def sample_many(spec, t, rng, size):
    """Vectorized clock draws; returns an ndarray of shape (size,)."""
    if not t >= 0:
        raise ValueError("t must be non-negative")
    if t == 0:
        return np.zeros(size)
    if isinstance(spec, Stable):
        return t ** (1.0 / spec.alpha) * _kanter(spec.alpha, rng, size)
    if isinstance(spec, InverseStable):
        # self-similarity: Y_beta(t) equals (t / D_beta(1))^beta in law
        return (t / _kanter(spec.beta, rng, size)) ** spec.beta
    if isinstance(spec, TemperedStable):
        return _tempered_stable(spec.alpha, spec.theta, t, rng, size)
    if isinstance(spec, GammaSub):
        return rng.gamma(spec.b * t, 1.0 / spec.a, size)
    if isinstance(spec, InverseGaussian):
        # numpy's wald(mean, scale) is the Michael-Schucany-Haas sampler;
        # IG(mean=delta t/gamma, shape=(delta t)^2) matches ig_density
        return rng.wald(spec.delta * t / spec.gamma, (spec.delta * t) ** 2, size)
    if isinstance(spec, StableTimeInverseStable):
        y = (t / _kanter(spec.beta, rng, size)) ** spec.beta
        return y ** (1.0 / spec.alpha) * _kanter(spec.alpha, rng, size)
    raise ValueError("unknown subordinator spec %r" % (spec,))


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
    if isinstance(spec, (Stable, InverseStable, InverseGaussian)):
        return 2
    if isinstance(spec, StableTimeInverseStable):
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
    if isinstance(spec, InverseStable):
        return (t / _kanter_from_u(spec.beta, u[:, 0], u[:, 1])) ** spec.beta
    if isinstance(spec, GammaSub):
        from scipy.special import gammaincinv

        return gammaincinv(spec.b * t, _interior(u[:, 0])) / spec.a
    if isinstance(spec, InverseGaussian):
        return _ig_from_u(spec.delta * t / spec.gamma, (spec.delta * t) ** 2, u)
    if isinstance(spec, StableTimeInverseStable):
        y = (t / _kanter_from_u(spec.beta, u[:, 0], u[:, 1])) ** spec.beta
        return y ** (1.0 / spec.alpha) * _kanter_from_u(spec.alpha, u[:, 2], u[:, 3])
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
