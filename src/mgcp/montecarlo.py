"""Exact simulation of every variant and estimators that close the loop.

Sampling is compound Poisson per component, run at a random clock value
for the time-changed variants.  Estimators compare empirical statistics
against the analytic layer in SE units and report pass/fail at a chosen
sigma level.

The pmf estimator assigns every sample index its own fixed window of
Philox counter-indexed uniforms and maps draws through inverse CDFs, so
the aggregate counts are a pure function of (seed, n_samples) and the
report does not depend on how many workers split the range.  Poisson
jump totals are inverted exactly against the cdf and capped one past the
box: a total that large already leaves the box, so every in-box draw is
the uncapped inverse and no heavy-tailed clock value can stall the map.
"""

import cmath
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import stats
from scipy.special import ndtri, pdtr

from . import subordinators as subs
from .variants import clock_spec, codifference, covariance, variant_pmf

_TAIL_MASS = 1e-6
_MIN_EXPECTED = 5.0
_WINDOW_DOUBLES = 4_000_000


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


def _component_counts(row, operational, rng):
    """Vector of component counts from Poisson totals and size thinning."""
    total = math.fsum(row)
    n_jumps = rng.poisson(total * operational)
    out = np.zeros(len(operational), dtype=np.int64)
    remaining = n_jumps
    rest = 1.0
    for j, lam in enumerate(row, start=1):
        p = lam / total
        if p <= 0.0:
            continue
        share = min(p / rest, 1.0) if rest > 0 else 1.0
        taken = rng.binomial(remaining, share)
        out += j * taken
        remaining -= taken
        rest -= p
    return out


def sample_mgcp(rates, t, rng):
    """One draw of the base process state at time t."""
    return tuple(
        int(x) for x in sample_mgcp_many(rates, np.asarray([float(t)]), rng)[0]
    )


def sample_mgcp_many(rates, operational, rng):
    """(len(operational), q) array of draws, one per operational time."""
    operational = np.asarray(operational, dtype=float)
    if np.any(operational < 0):
        raise ValueError("t must be non-negative")
    cols = [_component_counts(row, operational, rng) for row in rates.rows]
    return np.stack(cols, axis=1)


def sample_variant(v, rates, t, rng):
    """One draw of the variant state at time t (clock then base draw)."""
    return tuple(int(x) for x in sample_variant_many(v, rates, t, rng, 1)[0])


def sample_variant_many(v, rates, t, rng, size):
    if t < 0:
        raise ValueError("t must be non-negative")
    spec = clock_spec(v)
    if spec is None:
        operational = np.full(size, float(t))
    else:
        operational = subs.sample_many(spec, t, rng, size)
    return sample_mgcp_many(rates, operational, rng)


def _uniform_budget(v, rates, t):
    """Unit uniforms reserved per sample, fixed by (variant, rates, t)."""
    spec = clock_spec(v)
    m = 0 if spec is None else subs.clock_budget(spec, t)
    m += sum(rates.ks)
    # Philox advance moves in blocks of four outputs; pad to a boundary
    return -(-m // 4) * 4


def _uniform_window(seed, lo, hi, m):
    """Rows lo..hi-1 of the implicit (n_samples, m) uniform table."""
    bit = np.random.Philox(key=seed)
    bit.advance(lo * m // 4)
    return np.random.Generator(bit).random((hi - lo) * m).reshape(hi - lo, m)


def _poisson_inverse(u, mu, cap):
    """Elementwise min(cap, smallest k with pdtr(k, mu) >= u).

    Starts from the Cornish-Fisher quantile clipped to [0, cap] and steps
    with the exact cdf over the draws not yet settled, so each loop runs
    at most cap times.  A NaN, infinite or huge mean guesses cap and
    settles with one cdf call.
    """
    z = ndtri(u)
    with np.errstate(invalid="ignore"):
        guess = np.floor(mu + np.sqrt(mu) * z + (z * z - 1.0) / 6.0)
    k = np.maximum(np.fmin(guess, cap), 0.0)
    reached = pdtr(k, mu) >= u
    down = np.flatnonzero(reached & (k > 0))
    while down.size:
        down = down[pdtr(k[down] - 1.0, mu[down]) >= u[down]]
        k[down] -= 1.0
        down = down[k[down] > 0]
    up = np.flatnonzero(~reached & (k < cap))
    while up.size:
        k[up] += 1.0
        up = up[(pdtr(k[up], mu[up]) < u[up]) & (k[up] < cap)]
    return k.astype(np.int64)


def _states_from_uniforms(v, rates, t, u, box):
    """(rows, q) state draws as a pure function of the uniform window.

    Jump totals are capped at box + 1 per component; every jump adds at
    least 1, so a capped draw is outside the box either way.
    """
    spec = clock_spec(v)
    if spec is None:
        operational = np.full(u.shape[0], float(t))
        col = 0
    else:
        col = subs.clock_budget(spec, t)
        operational = subs.clock_from_uniforms(spec, t, u[:, :col])
    out = np.empty((u.shape[0], rates.q), dtype=np.int64)
    for i, row in enumerate(rates.rows):
        total = math.fsum(row)
        remaining = _poisson_inverse(
            subs._interior(u[:, col]), total * operational, box[i] + 1
        )
        col += 1
        counts = np.zeros(u.shape[0], dtype=np.int64)
        rest = total
        live = [j for j, lam in enumerate(row, start=1) if lam > 0.0]
        for j in live[:-1]:
            lam = row[j - 1]
            taken = stats.binom.ppf(
                subs._interior(u[:, col]), remaining, lam / rest
            ).astype(np.int64)
            col += 1
            counts += j * taken
            remaining -= taken
            rest -= lam
        if live:
            counts += live[-1] * remaining
        out[:, i] = counts
    return out


def _pmf_counts(v, rates, t, seed, lo, hi, m, dims):
    box = dims - 1
    samples = _states_from_uniforms(
        v, rates, t, _uniform_window(seed, lo, hi, m), box
    )
    inside = np.all(samples <= box, axis=1)
    flat = np.ravel_multi_index(tuple(samples[inside].T), tuple(dims))
    counts = np.bincount(flat, minlength=int(dims.prod()))
    return counts, int(hi - lo - inside.sum())


def estimate_pmf(v, rates, t, box, n_samples, seed, workers=1, sigma=4.0):
    """Empirical pmf over the box vs variant_pmf, z-scored per cell.

    Cells with analytic mass below 1e-6, or fewer than 5 expected draws,
    are pooled with the outside-box mass into one tail bucket, so no
    z-score divides by a vanishing SE or leans on a normal approximation
    to a near-empty cell.
    The worker count only sizes the thread pool; the counts, and hence
    the report, are identical for any workers value at a fixed seed.
    """
    if n_samples < 1000:
        raise ValueError("need at least 1000 samples")
    if len(box) != rates.q or any(b < 0 for b in box):
        raise ValueError("box must be a state vector")
    if workers < 1:
        raise ValueError("workers must be positive")
    dims = np.asarray(box, dtype=np.int64) + 1
    m = _uniform_budget(v, rates, t)
    chunk = max(256, _WINDOW_DOUBLES // m)
    ranges = [(lo, min(lo + chunk, n_samples)) for lo in range(0, n_samples, chunk)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = list(
            pool.map(
                lambda r: _pmf_counts(v, rates, t, seed, r[0], r[1], m, dims),
                ranges,
            )
        )
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

    max_z = max(abs(r[4]) for r in cells)
    return EstimateReport(
        kind="pmf",
        sample_count=n_samples,
        seed=seed,
        sigma_level=sigma,
        max_abs_z=max_z,
        passed=max_z <= sigma,
        cells=tuple(cells),
    )


def estimate_covariance(v, rates, i, l, t, n_samples, seed, sigma=3.0):
    """Sample covariance of (N_i, N_l) vs the closed form."""
    if n_samples < 10**4:
        raise ValueError("need at least 10^4 samples")
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
    report_cells = (("covariance", analytic, est, se, z),)
    return EstimateReport(
        kind="covariance",
        sample_count=n_samples,
        seed=seed,
        sigma_level=sigma,
        max_abs_z=abs(z),
        passed=abs(z) <= sigma,
        cells=report_cells,
    )


def estimate_codifference(v, rates, i, l, t, n_samples, seed, sigma=3.0):
    """Plug-in log-ECF codifference vs the closed form.

    tau_hat = ln A - ln B - ln C with A, B, C the empirical
    characteristic values of (N_i - N_l), N_i and -N_l at frequency 1.
    SEs come from the delta method: d tau = dA/A - dB/B - dC/C, with
    the 6-dimensional real covariance of (A, B, C) estimated from the
    same draws.
    """
    if n_samples < 10**4:
        raise ValueError("need at least 10^4 samples")
    analytic = codifference(v, rates, i, l, t)
    rng = subs.stream_rng(seed, 0)
    samples = sample_variant_many(v, rates, t, rng, n_samples)
    x = samples[:, i].astype(float)
    y = samples[:, l].astype(float)
    obs = np.stack(
        [np.exp(1j * (x - y)), np.exp(1j * x), np.exp(-1j * y)], axis=1
    )
    means = obs.mean(axis=0)
    if np.min(np.abs(means)) < 1e-3:
        raise RuntimeError("empirical characteristic value too small for a log")
    est = cmath.log(means[0]) - cmath.log(means[1]) - cmath.log(means[2])

    real6 = np.concatenate([obs.real, obs.imag], axis=1)
    cov6 = np.cov(real6, rowvar=False) / n_samples
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
    report_cells = (
        ("codifference.re", analytic.real, est.real, se_re, z_re),
        ("codifference.im", analytic.imag, est.imag, se_im, z_im),
    )
    max_z = max(abs(z_re), abs(z_im))
    return EstimateReport(
        kind="codifference",
        sample_count=n_samples,
        seed=seed,
        sigma_level=sigma,
        max_abs_z=max_z,
        passed=max_z <= sigma,
        cells=report_cells,
    )
