"""Exact simulation of every variant and estimators that close the loop.

Sampling is compound Poisson per component, run at a random clock value
for the time-changed variants.  Estimators compare empirical statistics
against the analytic layer in SE units and report pass/fail at a chosen
sigma level.

Every estimator draws through the same sampler: a clock value from
subordinators.sample_many, then per component a count.  On a row
whose sizes of positive rate are at most _INVERT_DEPTH, a count whose
mean is at most _INVERT_UP_TO is read off one uniform by inverting its
compound Poisson law, stepped by Panjer's recursion; any other count
splits a numpy Poisson jump total over the k sizes of positive rate by
k - 1 binomials, the last size taking the remainder.  The pmf estimator
splits its draws into chunks of a fixed size and draws chunk k on its
own Philox stream stream_rng(seed, k), so the aggregate counts are a
pure function of (seed, n_samples): one worker runs the chunks in
order in the calling thread, and more run them on a thread pool.
Operational times are capped at 2^62 over the largest jump size and row
total, so every count fits in int64.  The pmf estimator moves a clock
draw past the cap onto it, since such a draw lies far outside any box;
every other sampler raises ValueError for it rather than print a wrong
count.
"""

import cmath
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import subordinators as subs
from .variants import clock_spec, codifference, covariance, variant_pmf

_TAIL_MASS = 1e-6
_MIN_EXPECTED = 5.0
_CHUNK = 1 << 15
# the mean count T sum_j j lambda_ij up to which a count is drawn by
# inversion, on rows whose sizes of positive rate are at most
# _INVERT_DEPTH: inversion takes about one step per unit of the mean,
# each a vector operation per size, and holds one array per size, so
# the two bound its time and memory; numpy's own Poisson sampler
# switches method at mean 10 in the same way
_INVERT_UP_TO = 16.0
_INVERT_DEPTH = 4
# the codifference estimator reads cos and sin of counts below this size
# from a table: numpy's float64 sin and cos run element by element on
# some hosts, where a table read is a gather
_TRIG_SIZE = 1024
_COS = np.cos(np.arange(_TRIG_SIZE, dtype=float))
_SIN = np.sin(np.arange(_TRIG_SIZE, dtype=float))


def __getattr__(name):
    # montecarlo.stats (scipy.stats) is loaded only on first access: no
    # sampler or estimator calls it, and it stays reachable only until
    # the benchmark tracer stops probing its ppf functions (ROADMAP item 8)
    if name == "stats":
        from scipy import stats

        return stats
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


@dataclass(frozen=True)
class EstimateReport:
    """Analytic-vs-empirical comparison with binomial or delta-method SEs.

    cells holds (label, analytic, estimate, se, z) rows; max_abs_z and
    passed summarize them at sigma_level.
    """

    kind: str
    sample_count: int
    seed: int
    sigma_level: float
    max_abs_z: float
    passed: bool
    cells: tuple

    def to_dict(self):
        return {
            "kind": self.kind,
            "sample_count": self.sample_count,
            "seed": self.seed,
            "sigma_level": self.sigma_level,
            "max_abs_z": self.max_abs_z,
            "passed": self.passed,
            "cells": [
                {
                    "label": label,
                    "analytic": analytic,
                    "estimate": estimate,
                    "se": se,
                    "z": z,
                }
                for label, analytic, estimate, se, z in self.cells
            ],
        }


def _report(kind, n, seed, sigma, cells):
    """The EstimateReport of cells, max_abs_z and passed read off their z."""
    max_z = max(abs(cell[4]) for cell in cells)
    return EstimateReport(
        kind=kind,
        sample_count=n,
        seed=seed,
        sigma_level=sigma,
        max_abs_z=max_z,
        passed=max_z <= sigma,
        cells=tuple(cells),
    )


def _sample_count(n_samples, least):
    """n_samples as an int, read through operator.index, or ValueError.

    Anything but an integer of at least least raises, as a state entry
    does in gcp._check_state.
    """
    try:
        n_samples = operator.index(n_samples)
    except TypeError:
        raise ValueError("the sample count must be an integer") from None
    if n_samples < least:
        raise ValueError("need at least %d samples" % least)
    return n_samples


def _component_counts(row, operational, rng):
    """Vector of component counts, one per operational time T.

    On a row whose largest size of positive rate is at most
    _INVERT_DEPTH, each count is read off one uniform of a block the
    row draws for all its draws: a draw whose mean count
    T sum_j j lambda_ij is at most _INVERT_UP_TO inverts its count's
    law at that uniform (_inverted_counts).  Past the switch, and at
    every draw of a row with a larger size, the uniform goes unused (or
    is never drawn) and a numpy Poisson jump total is thinned by size:
    the sizes with positive rate share it by k - 1 binomials, each on
    what the sizes before it left, at its rate over the rates of the
    sizes from it on; the last size takes the remainder.
    """
    total = math.fsum(row)
    depth = max(j for j, lam in enumerate(row, start=1) if lam > 0.0)
    if depth > _INVERT_DEPTH:
        return _thinned_counts(row, total, operational, rng)
    mean_rate = math.fsum(j * lam for j, lam in enumerate(row, start=1))
    u = rng.random(operational.size)
    heavy = np.flatnonzero(operational * mean_rate > _INVERT_UP_TO)
    # a zero uniform settles at count 0 on the first step
    u[heavy] = 0.0
    counts = _inverted_counts(row, total, operational, u)
    if heavy.size:
        counts[heavy] = _thinned_counts(row, total, operational[heavy], rng)
    return counts


def _inverted_counts(row, total, operational, u):
    """The least n with Pr{N <= n} >= u, N the row's count at each T.

    N is compound Poisson, and Panjer's recursion gives its pmf:
    p_0 = exp(-Lambda_i T), p_n = (T/n) sum_j j lambda_ij p_(n-j).  Each
    step adds p_n to every unsettled draw's cdf; once at most a quarter
    of the draws stepped are unsettled, the steps go on over those only.
    A u above every cdf value the doubles reach, which needs u within
    rounding of 1, settles where the cdf has stopped growing: at the
    first n of 16, 32, 64, ... at or past the draw's mean count
    T sum_j j lambda_ij, less one, at which adding the largest of the
    last k terms leaves its cdf unchanged.  Past the mean no later term
    exceeds that largest one, so no later step could settle the draw.
    u is overwritten.
    """
    weights = [(j, j * lam) for j, lam in enumerate(row, start=1) if lam > 0.0]
    depth = weights[-1][0]
    mean_rate = math.fsum(w for _, w in weights)
    p = np.exp(-total * operational)
    recent = [p]
    cdf = p.copy()
    below = cdf < u
    count = below.astype(np.int64)
    index, stepped = None, count
    n = 0
    while (active := np.count_nonzero(below)) > 0:
        if 4 * active <= below.size:
            keep = np.flatnonzero(below)
            if index is None:
                index = keep
            else:
                count[index] = stepped
                index = index[keep]
            operational, u, cdf, stepped = (
                a[keep] for a in (operational, u, cdf, stepped)
            )
            recent = [r[keep] for r in recent]
            below = np.ones(keep.size, dtype=bool)
        n += 1
        p = _panjer_term(weights, recent, operational, n)
        recent = [p, *recent[: depth - 1]]
        cdf += p
        np.less(cdf, u, out=below)
        if n >= 16 and n & (n - 1) == 0:
            stalled = below & (operational * mean_rate <= n + 1)
            stalled &= cdf + np.maximum.reduce(recent) == cdf
            below &= ~stalled
            u[stalled] = 0.0
        stepped += below
    if index is not None:
        count[index] = stepped
    return count


def _panjer_term(weights, recent, operational, n):
    """p_n = (T/n) sum_j j lambda_ij p_(n-j), recent holding p_(n-1), p_(n-2), ..."""
    term = None
    for j, w in weights:
        if j <= len(recent):
            part = recent[j - 1] * (w / n)
            term = part if term is None else np.add(term, part, out=term)
    if term is None:
        return np.zeros_like(operational)
    term *= operational
    return term


def _thinned_counts(row, total, operational, rng):
    """Counts from a Poisson jump total and k - 1 binomials by size."""
    sizes = [(j, lam) for j, lam in enumerate(row, start=1) if lam > 0.0]
    remaining = rng.poisson(total * operational)
    *thinned, (last, _) = sizes
    parts = []
    for idx, (j, lam) in enumerate(thinned):
        taken = rng.binomial(remaining, lam / math.fsum(r for _, r in sizes[idx:]))
        remaining -= taken
        parts.append(j * taken)
    return sum(parts, last * remaining)


def sample_mgcp(rates, t, rng):
    """One draw of the base process state at time t."""
    return tuple(
        int(x) for x in sample_mgcp_many(rates, np.asarray([float(t)]), rng)[0]
    )


def _operational_cap(rates):
    """2^62 / (max k * max row total): the largest operational time drawn.

    A count is at most k times its row's Poisson jump total, whose mean
    is the row total times the operational time, so under this cap no
    count can reach 2^63 and no mean passes numpy's Poisson limit.
    """
    return 2.0**62 / max(rates.ks) / max(rates.row_totals)


def sample_mgcp_many(rates, operational, rng):
    """(len(operational), q) array of draws, one per operational time.

    An operational time past _operational_cap raises ValueError: its
    counts would not fit in int64.
    """
    operational = np.asarray(operational, dtype=float)
    if np.any(operational < 0):
        raise ValueError("t must be non-negative")
    cap = _operational_cap(rates)
    if not np.all(operational <= cap):
        raise ValueError(
            "clock draw %.6g: its jump counts would not fit in int64 "
            "(limit 2^63); at these rates the largest drawable clock "
            "value is %.6g" % (np.max(operational), cap)
        )
    cols = [_component_counts(row, operational, rng) for row in rates.rows]
    return np.stack(cols, axis=1)


def sample_variant(v, rates, t, rng):
    """One draw of the variant state at time t (clock then base draw)."""
    return tuple(int(x) for x in sample_variant_many(v, rates, t, rng, 1)[0])


def sample_variant_many(v, rates, t, rng, size):
    if not t >= 0:
        raise ValueError("t must be non-negative")
    return sample_mgcp_many(rates, subs.sample_many(clock_spec(v), t, rng, size), rng)


def _pmf_counts(v, rates, t, seed, k, n_samples, dims):
    """Box cell counts and outside count of chunk k, drawn on stream k."""
    rng = subs.stream_rng(seed, k)
    # clock values past the int64 cap go to the cap: a draw there has
    # about 2^62 / max k jumps on its busiest row, past any box bincount
    # can hold, so it lands in the tail as the uncapped draw would; a NaN
    # or infinite clock value goes to the cap too
    operational = np.fmin(
        subs.sample_many(clock_spec(v), t, rng, min(_CHUNK, n_samples - k * _CHUNK)),
        _operational_cap(rates),
    )
    samples = sample_mgcp_many(rates, operational, rng)
    # the row-major cell index, built column by column; a draw outside
    # the box goes to one extra bin past the cells, whatever its index
    # wrapped to
    size = int(dims.prod())
    flat = np.zeros(samples.shape[0], dtype=np.int64)
    outside = np.zeros(samples.shape[0], dtype=bool)
    for column, dim in zip(samples.T, dims.tolist()):
        flat *= dim
        flat += column
        outside |= column >= dim
    flat[outside] = size
    counts = np.bincount(flat, minlength=size + 1)
    return counts[:size], int(counts[size])


def estimate_pmf(v, rates, t, box, n_samples, seed, workers=1, sigma=4.0):
    """Empirical pmf over the box vs variant_pmf, z-scored per cell.

    Cells with analytic mass below 1e-6, or fewer than 5 expected draws,
    are pooled with the outside-box mass into one tail bucket, so no
    z-score divides by a vanishing SE or leans on a normal approximation
    to a near-empty cell.
    Draw k*_CHUNK + j is draw j of stream_rng(seed, k), so the counts,
    and hence the report, are identical for any workers value at a fixed
    seed: one worker runs the chunks in order in this thread, and more
    run them on a thread pool of that size.  n_samples must be an
    integer of at least 1000.
    """
    n_samples = _sample_count(n_samples, 1000)
    if len(box) != rates.q or any(b < 0 for b in box):
        raise ValueError("box must be a state vector")
    if workers < 1:
        raise ValueError("workers must be positive")
    dims = np.asarray(box, dtype=np.int64) + 1

    def chunk(k):
        return _pmf_counts(v, rates, t, seed, k, n_samples, dims)

    chunks = range(-(-n_samples // _CHUNK))
    if workers == 1:
        parts = list(map(chunk, chunks))
    else:
        # loaded here only: a one-worker run needs no pool
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(chunk, chunks))
    counts = sum(p[0] for p in parts)
    outside = sum(p[1] for p in parts)

    cells = []
    tail_mass = 0.0
    tail_count = outside
    for idx in np.ndindex(*dims):
        p = variant_pmf(v, rates, idx, t)
        c = int(counts[np.ravel_multi_index(idx, tuple(dims))])
        if p < _TAIL_MASS or n_samples * p < _MIN_EXPECTED:
            tail_mass += p
            tail_count += c
            continue
        se = math.sqrt(p * (1.0 - p) / n_samples)
        est = c / n_samples
        cells.append((",".join(map(str, idx)), p, est, se, (est - p) / se))
    tail_p = tail_mass + max(0.0, 1.0 - tail_mass - sum(r[1] for r in cells))
    se = math.sqrt(tail_p * (1.0 - tail_p) / n_samples)
    est = tail_count / n_samples
    cells.append(("tail", tail_p, est, se, (est - tail_p) / se if se > 0 else 0.0))

    return _report("pmf", n_samples, seed, sigma, cells)


def estimate_covariance(v, rates, i, l, t, n_samples, seed, sigma=3.0):
    """Sample covariance of (N_i, N_l) vs the closed form."""
    n_samples = _sample_count(n_samples, 10**4)
    analytic = covariance(v, rates, i, l, t)
    rng = subs.stream_rng(seed, 0)
    samples = sample_variant_many(v, rates, t, rng, n_samples)
    x = samples[:, i].astype(float)
    y = samples[:, l].astype(float)
    dx = x - x.mean()
    dy = y - y.mean()
    est = float(np.dot(dx, dy) / (n_samples - 1))
    m22 = float(np.mean(dx * dx * dy * dy))
    se = math.sqrt(max(m22 - est * est, 0.0) / n_samples)
    if se == 0.0:
        raise RuntimeError("degenerate sample; covariance SE vanishes")
    z = (est - analytic) / se
    cells = [("covariance", analytic, est, se, z)]
    return _report("covariance", n_samples, seed, sigma, cells)


def _ecf_moments(x, y):
    """(means, cov6) of the draws of exp(i(x - y)), exp(ix) and exp(-iy).

    cov6 is the 6x6 covariance of the means' real parts then imaginary
    parts.  Both come from real rows, the cos and sin of x and y and
    their products: one mean and one Gram matrix of the centred rows.
    """
    n = len(x)
    (cx, sx), (cy, sy) = _cos_sin(x), _cos_sin(y)
    rows = np.stack([cx * cy + sx * sy, cx, cy, sx * cy - cx * sy, sx, -sy])
    mean6 = rows.mean(axis=1)
    rows -= mean6[:, None]
    cov6 = (rows @ rows.T) / ((n - 1) * n)
    return mean6[:3] + 1j * mean6[3:], cov6


def _cos_sin(counts):
    """np.cos and np.sin of integer counts, read from a table below _TRIG_SIZE.

    The table holds np.cos and np.sin of 0 .. _TRIG_SIZE - 1, and counts
    past it take them directly, so every value is bit-identical to the
    direct call.
    """
    past = np.flatnonzero(counts >= _TRIG_SIZE)
    if not past.size:
        return _COS[counts], _SIN[counts]
    inside = counts.copy()
    inside[past] = 0
    cos, sin = _COS[inside], _SIN[inside]
    cos[past] = np.cos(counts[past])
    sin[past] = np.sin(counts[past])
    return cos, sin


def estimate_codifference(v, rates, i, l, t, n_samples, seed, sigma=3.0):
    """Plug-in log-ECF codifference vs the closed form.

    tau_hat = ln A - ln B - ln C with A, B, C the empirical
    characteristic values of (N_i - N_l), N_i and -N_l at frequency 1.
    SEs come from the delta method: d tau = dA/A - dB/B - dC/C, with
    the 6-dimensional real covariance of (A, B, C) estimated from the
    same draws.
    """
    n_samples = _sample_count(n_samples, 10**4)
    analytic = codifference(v, rates, i, l, t)
    rng = subs.stream_rng(seed, 0)
    samples = sample_variant_many(v, rates, t, rng, n_samples)
    means, cov6 = _ecf_moments(samples[:, i], samples[:, l])
    if np.min(np.abs(means)) < 1e-3:
        raise RuntimeError("empirical characteristic value too small for a log")
    est = cmath.log(means[0]) - cmath.log(means[1]) - cmath.log(means[2])

    grads = [1.0 / means[0], -1.0 / means[1], -1.0 / means[2]]
    jac = np.zeros((2, 6))
    for k, g in enumerate(grads):
        jac[0, k], jac[0, k + 3] = g.real, -g.imag
        jac[1, k], jac[1, k + 3] = g.imag, g.real
    cov2 = jac @ cov6 @ jac.T
    se_re = math.sqrt(max(cov2[0, 0], 0.0))
    se_im = math.sqrt(max(cov2[1, 1], 0.0))
    z_re = (est.real - analytic.real) / se_re
    z_im = (est.imag - analytic.imag) / se_im if se_im > 0 else 0.0
    cells = [
        ("codifference.re", analytic.real, est.real, se_re, z_re),
        ("codifference.im", analytic.imag, est.imag, se_im, z_im),
    ]
    return _report("codifference", n_samples, seed, sigma, cells)
