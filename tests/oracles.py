"""Oracles that only serve the tests: independent routes to check src/ against.

The shock model's level pmf P[n] = P{total shock count = n at t} in the
paper's own form.  It is a signed table B[n, Z] (total count n, total
jump count Z): (-1)^Z times the jump-count profile of the rates pooled
by jump size.  B is folded with the finite-difference table
D[x, Z] = sum_y (-1)^y C(x, y) C(alpha y, Z) and the Poisson weights of
x.  The inner sum over x alternates, so in doubles the route is only
good while Lambda^alpha t stays small (t <= 10 or so); mp_level_pmf
evaluates the same formula in mpmath, with alpha y formed in mpf.

table_level_pmf is the level pmf the table route reads, assembled in
the tests from its two pieces: the level table of shock._tables times
the Poisson weights of shock._poisson_weights at one time.  It is the
side of the table route that the signed formula and the state sums
check, not an independent route.

convolution_level_table is the nonnegative level table built one column
at a time, each column the last one convolved with the level-jump law:
the independent side of the Toeplitz doubling of shock._tables.

negative_binomial_law is the gamma clock's jump-count law in closed
form, the independent side of Panjer's recursion on the gamma atoms.

fractional_poisson_law is the paper's Mittag-Leffler series for the
jump count at inverse-stable time under the identity clock (Mgfcp),
summed in doubles: the independent side of the Cauchy integrals of
variants._cauchy_law at shallow cells, where the series cancels little.
space_time_fractional_law is the paper's r-series for the jump count of
a stable clock at inverse-stable time (Mgstfcp), summed in doubles: the
independent side of the FFT of variants._cauchy_law at the same cells.

mp_threshold_tail is the IncGamma threshold's tail from mpmath's own
generalized incomplete gamma, the independent side of the series in
specfun.generalized_incomplete_gamma.  mp_sine_threshold_tail is the
SineIntegral threshold's tail by mpmath quadrature, the independent side
of specfun.generalized_sine_integral.  Both form their normalisers as
differences in mpmath, where the working precision absorbs the
cancellation.  mp_log_threshold_tail is the Logarithmic threshold's
tail by mpmath quadrature, the independent side of the series of
specfun.incomplete_beta at q = 0.

complex_ecf_moments is the codifference estimator's statistics in
complex arithmetic: exp(1j * ...) rows and np.cov, the independent side
of montecarlo._ecf_moments, which builds them from real cos and sin rows.

caputo_derivative_numeric is a Grunwald-Letnikov Caputo derivative from
tabulated samples, for the residual checks of the fractional pgf
equation.

mp_clock_exponent is a Levy clock's Laplace exponent as an mpmath
function of s, written from the clock's parameters alone: the
independent side of each clock's mean_rate f'(0) and curvature f''(0).

mp_levy_measure is the paper's Levy measure of a variant with a Levy
clock, Pi(n) = int_0^inf P{N(s) = n} nu(s) ds, by mpmath quadrature of
the clock's Levy density nu written from its parameters.  The base pmf
P{N(s) = n} is summed over compositions this module enumerates itself,
so it shares no code with the jump-count profile or the clock atoms
that variant_levy_measure reads.
"""

import bisect
import itertools
import math
import operator

import numpy as np
from scipy.special import gammaln

from mgcp.compositions import enumerate_compositions, jump_profile
from mgcp.gcp import RateMatrix
from mgcp.shock import _poisson_weights, _tables
from mgcp.subordinators import GammaSub, Identity, InverseGaussian, Stable, TemperedStable
from mgcp.variants import _clock_atoms


def pooled_row(rates):
    """The one-row rate matrix of the rates pooled by jump size."""
    by_size = itertools.zip_longest(*rates.rows, fillvalue=0.0)
    return RateMatrix([map(math.fsum, by_size)])


def signed_level_tables(rates, alpha, nmax):
    """(B, D, U): the paper's signed level table and finite-difference tables.

    B[n, Z] = Z! * sum over mixed compositions of total n with Z jumps
    of prod (-lam_ij/lam)^x / x!, so |B| <= 1.
    D[x, Z] = sum_y (-1)^y C(x,y) C(alpha y, Z), exactly zero for x > Z.
    U[Z] = sum_x D[x, Z].
    """
    size = nmax + 1
    pooled = pooled_row(rates)
    zs = np.arange(size)
    signs = np.where(zs % 2 == 0, 1.0, -1.0)
    b = np.zeros((size, size))
    for n in range(size):
        z0, col = jump_profile(pooled, (n,))
        b[n, z0 : z0 + len(col)] = col
    b *= signs
    # C(alpha y, Z) by the column recurrence C(x, Z) = C(x, Z-1)(x-Z+1)/Z
    steps = (alpha * zs[:, None] - zs[None, :-1]) / zs[None, 1:]
    cb = np.ones((size, size))
    cb[:, 1:] = np.cumprod(steps, axis=1)
    pascal = np.zeros((size, size))
    pascal[0, 0] = 1.0
    for x in range(1, size):
        pascal[x, 0] = 1.0
        pascal[x, 1:] = pascal[x - 1, 1:] + pascal[x - 1, :-1]
    d = np.triu((pascal * signs) @ cb)
    return b, d, d.sum(axis=0)


def signed_level_pmf(rates, alpha, t, nmax):
    """P[n], n <= nmax, as B @ (Pois(Lambda^alpha t) @ D), in doubles."""
    b, d, _ = signed_level_tables(rates, alpha, nmax)
    a = rates.total**alpha * t
    xs = np.arange(nmax + 1)
    pois = np.exp(-a + xs * np.log(a) - gammaln(xs + 1))
    return b @ (pois @ d)


def table_level_pmf(model, t, nmax):
    """P[n] = P{total shock count = n at t}, n <= nmax, t > 0: L @ Pois(Lambda^alpha t)."""
    a = model.rates.total**model.alpha * t
    return _tables(model.rates, model.alpha, nmax)[0] @ _poisson_weights(np.array([a]), nmax)[:, 0]


def signed_level_integrals(rates, alpha, nmax):
    """int_0^inf P[n](t) dt = Lambda^-alpha (B @ U)[n].

    Each Poisson weight of x integrates to Lambda^-alpha over t.
    """
    b, _, u = signed_level_tables(rates, alpha, nmax)
    return rates.total**-alpha * (b @ u)


def convolution_level_table(rates, alpha, nmax):
    """(L, G) of shock._tables, column by column.

    pi(k) = sum_z S_k[z] nu_1(z) / Lambda^alpha, one dot per level k;
    column m of L is column m - 1 convolved with pi, kept on n >= m;
    G[n] = sum_m L[n, m] / Lambda^alpha.
    """
    size = nmax + 1
    pooled = pooled_row(rates)
    rate = rates.total**alpha
    nu = np.array((0.0,) + _clock_atoms(Stable(alpha), rates.total, nmax)) / rate
    pi = np.zeros(size)
    for k in range(1, size):
        z0, col = jump_profile(pooled, (k,))
        pi[k] = np.dot(col, nu[z0 : z0 + len(col)])
    table = np.zeros((size, size))
    table[0, 0] = 1.0
    for m in range(1, size):
        step = np.convolve(table[m - 1 : -1, m - 1], pi[1 : size - m + 1])
        table[m:, m] = step[: size - m]
    return table, table.sum(axis=1) / rate


def mp_level_pmf(mpmath, rates, alpha, t, nmax):
    """The paper's level pmf in mpmath at the caller's precision.

    The profile comes from an enumeration of the compositions of each
    level under the pooled row, not from jump_profile.  The x-sum
    cancels as a = Lambda^alpha t grows: at a = 20 doubles keep only three
    digits at level 32, while 40 and 80 digits agree to the last double.
    """
    pooled = [mpmath.mpf(lam) for lam in pooled_row(rates).rows[0]]
    lam, alpha = mpmath.fsum(pooled), mpmath.mpf(alpha)
    a = lam**alpha * mpmath.mpf(t)
    pois = [mpmath.exp(-a) * a**x / mpmath.factorial(x) for x in range(nmax + 1)]
    # kz[Z] = sum_x Pois(a; x) D[x, Z], D formed with alpha y in mpf
    kz = [
        mpmath.fsum(
            pois[x]
            * mpmath.fsum(
                (-1) ** y * mpmath.binomial(x, y) * mpmath.binomial(alpha * y, z)
                for y in range(x + 1)
            )
            for x in range(z + 1)
        )
        for z in range(nmax + 1)
    ]
    out = []
    for n in range(nmax + 1):
        total = mpmath.mpf(0)
        for comp in enumerate_compositions(len(pooled), n):
            z = sum(comp)
            w = mpmath.factorial(z) * (-1) ** z
            for p, x in zip(pooled, comp):
                w *= (p / lam) ** x / mpmath.factorial(x)
            total += w * kz[z]
        out.append(total)
    return out


def negative_binomial_law(a, b, lam, t, zmax):
    """P{Z_t = z}, z = 0..zmax, for the base jump count at a gamma(a, b) clock.

    Z_t is negative binomial: (a/r)^(bt) (lam/r)^z (bt)(bt+1)...(bt+z-1) / z!
    with r = lam + a.  The front (a/r)^(bt) is formed on its own, so the
    law underflows once bt ln(r/a) passes about 745, even where its
    values are in double range.
    """
    r = lam + a
    bt = b * t
    front = math.exp(bt * (math.log(a) - math.log(r)))
    factors = ((bt + k) * lam / (r * (k + 1)) for k in range(zmax))
    return [front * x for x in itertools.accumulate(factors, operator.mul, initial=1.0)]


def fractional_poisson_law(beta, x, zmax):
    """P{Z = z}, z = 0..zmax, for a Poisson count run at inverse beta-stable time.

    x = t^beta Lambda, and P{Z = z} = x^z E^(z+1)_(beta, beta z + 1)(-x)
    = sum_r (z + 1)_r / r! (-1)^r x^(z + r) / Gamma(beta (z + r) + 1).
    The first term is formed in logs, so a deep z underflows to 0 rather
    than overflowing.  The terms alternate and peak near e^(x^(1/beta)), so
    the sum keeps about 16 - x^(1/beta) / ln 10 digits: an oracle for
    x^(1/beta) up to 5 or so.
    """
    out = []
    for z in range(zmax + 1):
        term = math.exp(z * math.log(x) - math.lgamma(beta * z + 1))
        total, largest, r = 0.0, 0.0, 0
        while True:
            total += term
            largest = max(largest, abs(term))
            if r > 2 * x ** (1 / beta) + 10 and abs(term) < 1e-17 * largest:
                break
            u = beta * (z + r) + 1
            term *= -x * (z + 1 + r) / (r + 1) * math.exp(math.lgamma(u) - math.lgamma(u + beta))
            r += 1
        out.append(total)
    return out


def space_time_fractional_law(alpha, beta, x, zmax):
    """P{Z = z}, z = 0..zmax, for a stable(alpha) clock at inverse beta-stable time.

    x = t^beta Lambda^alpha, and the paper's r-series is
    P{Z = z} = (-1)^z sum_r (-x)^r / Gamma(beta r + 1) C(alpha r, z),
    each r adding its term to every z at once, C(alpha r, z) by the
    recurrence in z.  The terms alternate in r and peak near
    e^(x^(1/beta)), so the sum keeps about 16 - x^(1/beta) / ln 10
    digits: an oracle for x^(1/beta) up to 5 or so.
    """
    sums = [0.0] * (zmax + 1)
    largest_seen, r = 0.0, 0
    while True:
        weight = (-1.0) ** r * math.exp(r * math.log(x) - math.lgamma(beta * r + 1))
        binom, largest = 1.0, 0.0
        for z in range(zmax + 1):
            if z:
                binom *= (alpha * r - z + 1) / z
            sums[z] += weight * binom
            largest = max(largest, abs(weight * binom))
        largest_seen = max(largest_seen, largest)
        if r > 2 * x ** (1 / beta) + 10 and largest < 1e-17 * largest_seen:
            break
        r += 1
    return [(-1.0) ** z * total for z, total in enumerate(sums)]


def mp_threshold_tail(mpmath, a, p, n):
    """Pr{N > n} of the IncGamma(a, p) threshold in mpmath at the caller's precision.

    int_a^p x^n e^(-x) dx / (e^(-a) - e^(-p)), the numerator mpmath's
    gammainc(n + 1, a, p).
    """
    a, p = mpmath.mpf(a), mpmath.mpf(p)
    return mpmath.gammainc(n + 1, a, p) / (mpmath.exp(-a) - mpmath.exp(-p))


def mp_sine_threshold_tail(mpmath, a, p, n):
    """Pr{N > n} of the SineIntegral(a, p) threshold in mpmath at the caller's precision.

    int_a^p x^n sin x dx / (cos a - cos p), the integral by mpmath's
    quadrature in u on x = a + (p - a) u, u in (0, 1), of
    (x / p)^n sin x / sin p, which is at most 1: mpmath's quadrature
    stops on an absolute error, so a narrow interval near 0 must not
    make the integrand tiny.
    """
    a, p = mpmath.mpf(a), mpmath.mpf(p)
    width = p - a

    def scaled(u):
        x = a + width * u
        return (x / p) ** n * mpmath.sin(x) / mpmath.sin(p)

    integral = width * p**n * mpmath.sin(p) * mpmath.quad(scaled, [0, 1])
    return integral / (mpmath.cos(a) - mpmath.cos(p))


def mp_log_threshold_tail(mpmath, p, n):
    """Pr{N > n} of the Logarithmic(p) threshold in mpmath at the caller's precision.

    int_0^p x^n / (1 - x) dx / -ln(1 - p), the integral by mpmath's
    quadrature in u on x = p u of u^n / (1 - p u), which lies in [0, 1 / (1 - p)]
    whatever p is, and the normaliser by mpmath's log1p, which keeps its
    digits at a p far below the working precision.
    """
    p = mpmath.mpf(p)
    integral = p ** (n + 1) * mpmath.quad(lambda u: u**n / (1 - p * u), [0, 1])
    return integral / -mpmath.log1p(-p)


def complex_ecf_moments(x, y):
    """(means, cov6) of exp(i(x - y)), exp(ix), exp(-iy) from complex exps.

    means are the three empirical characteristic values; cov6 is the
    covariance of their real then imaginary parts, over the number of
    draws.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    obs = np.stack([np.exp(1j * (x - y)), np.exp(1j * x), np.exp(-1j * y)], axis=1)
    real6 = np.concatenate([obs.real, obs.imag], axis=1)
    return obs.mean(axis=0), np.cov(real6, rowvar=False) / x.size


def caputo_derivative_numeric(samples, beta, t_eval, step):
    """Caputo fractional derivative of order beta from tabulated samples.

    Grunwald-Letnikov weights applied to f - f(0); first-order accurate
    in step.  beta = 1 falls back to a central difference (backward at
    the right edge of the sample range).

    samples : sequence of (t, f(t)) pairs on a uniform grid covering
        [0, t_eval].
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must lie in (0, 1]")
    if step <= 0:
        raise ValueError("step must be positive")
    pts = sorted((float(t), float(f)) for t, f in samples)
    if len(pts) < 2:
        raise ValueError("need at least two samples")
    ts = [p[0] for p in pts]
    fs = [p[1] for p in pts]
    if ts[0] > 1e-12 or ts[-1] < t_eval - 1e-12:
        raise ValueError("samples must cover [0, t_eval]")

    def f_at(t):
        # linear interpolation; exact when t sits on the sample grid
        if t <= ts[0]:
            return fs[0]
        if t >= ts[-1]:
            return fs[-1]
        k = bisect.bisect_right(ts, t) - 1
        if ts[k + 1] == ts[k]:
            return fs[k]
        w = (t - ts[k]) / (ts[k + 1] - ts[k])
        return fs[k] * (1.0 - w) + fs[k + 1] * w

    if beta == 1.0:
        if t_eval + step <= ts[-1] + 1e-12 and t_eval - step >= -1e-12:
            return (f_at(t_eval + step) - f_at(t_eval - step)) / (2.0 * step)
        return (f_at(t_eval) - f_at(t_eval - step)) / step

    nsteps = int(math.floor(t_eval / step + 1e-9))
    f0 = f_at(0.0)
    w = 1.0
    acc = f_at(t_eval) - f0
    for j in range(1, nsteps + 1):
        w *= 1.0 - (beta + 1.0) / j
        acc += w * (f_at(t_eval - j * step) - f0)
    return acc / step**beta


def mp_clock_exponent(mpmath, clock):
    """f(s) of a Levy clock in mpmath, from its parameters."""
    if isinstance(clock, Identity):
        return lambda s: s
    if isinstance(clock, (Stable, TemperedStable)):
        a, th = mpmath.mpf(clock.alpha), mpmath.mpf(clock.theta)
        return lambda s: (s + th) ** a - th**a
    if isinstance(clock, GammaSub):
        a, b = mpmath.mpf(clock.a), mpmath.mpf(clock.b)
        return lambda s: b * mpmath.log(1 + s / a)
    if isinstance(clock, InverseGaussian):
        d, g = mpmath.mpf(clock.delta), mpmath.mpf(clock.gamma)
        return lambda s: d * (mpmath.sqrt(2 * s + g**2) - g)
    raise ValueError("no exponent for %r" % (clock,))


def _own_compositions(k, n):
    """(x_1, ..., x_k) with sum_j j x_j = n, every count tried in turn."""
    for xs in itertools.product(*(range(n // j + 1) for j in range(1, k + 1))):
        if sum(j * x for j, x in enumerate(xs, 1)) == n:
            yield xs


def mp_levy_density(mpmath, clock):
    """nu(s) of a Levy clock in mpmath, from its parameters."""
    if isinstance(clock, (Stable, TemperedStable)):
        a, th = mpmath.mpf(clock.alpha), mpmath.mpf(clock.theta)
        return lambda s: a / mpmath.gamma(1 - a) * s ** (-1 - a) * mpmath.exp(-th * s)
    if isinstance(clock, GammaSub):
        a, b = mpmath.mpf(clock.a), mpmath.mpf(clock.b)
        return lambda s: b / s * mpmath.exp(-a * s)
    if isinstance(clock, InverseGaussian):
        d, g = mpmath.mpf(clock.delta), mpmath.mpf(clock.gamma)
        return lambda s: d / mpmath.sqrt(2 * mpmath.pi * s**3) * mpmath.exp(-(g**2) * s / 2)
    raise ValueError("no Levy density for %r" % (clock,))


def mp_levy_measure(mpmath, clock, rates, nbar):
    """Pi(nbar) = int_0^inf P{N(s) = nbar} nu(s) ds at the caller's precision.

    P{N(s) = nbar} = e^(-Lambda s) sum_Z c[Z] s^Z, c[Z] the sum of
    prod lambda^x / x! over the joint compositions with Z jumps.  The
    integrand is singular at s = 0 like s^(Z - 1 - rho), so the quadrature
    splits at 1e-6, 1e-3 and 0.1 as well as at 1 and 10: at 30 digits
    the split moves Pi(1, 0) of the stable clock by 6e-11 of its value.
    The integrand peaks near s = Z / Lambda, so five more splits span
    [Z_min / (2 Lambda), 2 Z_max / Lambda] beyond 10: without them one
    interval to infinity missed the peak of a deep state, and Pi(200, 400)
    of the stable clock at 30 digits read 4.2e-43 for 3.2e-11.
    """
    rows = [[mpmath.mpf(lam) for lam in row] for row in rates.rows]
    lam = mpmath.fsum(x for row in rows for x in row)
    c = {}
    per = [list(_own_compositions(len(row), n)) for row, n in zip(rows, nbar)]
    for joint in itertools.product(*per):
        w = mpmath.mpf(1)
        for row, xs in zip(rows, joint):
            for rate, x in zip(row, xs):
                w *= rate**x / mpmath.factorial(x)
        z = sum(map(sum, joint))
        c[z] = c.get(z, 0) + w
    density = mp_levy_density(mpmath, clock)

    def integrand(s):
        return mpmath.exp(-lam * s) * mpmath.fsum(cz * s**z for z, cz in c.items()) * density(s)

    lo, hi = min(c) / (2 * lam), 2 * max(c) / lam
    peak = [lo + (hi - lo) * k / 4 for k in range(5)]
    splits = [0, 1e-6, 1e-3, 0.1, 1, 10] + [s for s in peak if s > 10] + [mpmath.inf]
    return mpmath.quad(integrand, splits)
