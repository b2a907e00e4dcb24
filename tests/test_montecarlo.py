"""Simulation layer: exact samplers and deterministic estimators.

Estimator determinism is a hard contract (same seed means the same
bytes out, whatever the worker count); statistical checks run at fixed
seeds so the suite stays reproducible.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import mgcp
from mgcp.gcp import RateMatrix, mgcp_mean, mgcp_pmf
from mgcp.montecarlo import (
    _CHUNK,
    EstimateReport,
    _pmf_counts,
    estimate_codifference,
    estimate_covariance,
    estimate_pmf,
    sample_mgcp,
    sample_mgcp_many,
    sample_variant,
    sample_variant_many,
)
from mgcp.subordinators import stream_rng
from mgcp.variants import (
    GammaTC,
    IgTC,
    Mgcp,
    Mgfcp,
    Mgsfcp,
    Mgstfcp,
    Tempered,
    codifference,
    covariance,
    variant_pgf,
)

FIG1 = RateMatrix([[0.5], [0.5, 0.5]])
ONE = RateMatrix([[1.0]])


class TestBaseSampler:
    def test_single_draw_shape(self):
        draw = sample_mgcp(FIG1, 1.0, stream_rng(1))
        assert isinstance(draw, tuple) and len(draw) == 2
        assert all(isinstance(x, int) and x >= 0 for x in draw)

    def test_poisson_gof(self):
        """q=1, k=1 is plain Poisson; chi-square on the histogram."""
        rng = stream_rng(11)
        draws = sample_mgcp_many(ONE, np.full(20000, 1.3), rng)[:, 0]
        kmax = 8
        obs = np.bincount(np.minimum(draws, kmax), minlength=kmax + 1)
        probs = stats.poisson.pmf(np.arange(kmax), 1.3)
        probs = np.append(probs, 1.0 - probs.sum())
        chi2 = ((obs - 20000 * probs) ** 2 / (20000 * probs)).sum()
        assert stats.chi2.sf(chi2, kmax) > 0.01

    def test_mean_of_mixed_sizes(self):
        rng = stream_rng(12)
        draws = sample_mgcp_many(FIG1, np.full(40000, 2.0), rng)
        for i in range(2):
            want = mgcp_mean(FIG1, i, 2.0)
            se = draws[:, i].std(ddof=1) / math.sqrt(len(draws))
            assert abs(draws[:, i].mean() - want) < 5 * se

    def test_zero_time(self):
        assert sample_mgcp(FIG1, 0.0, stream_rng(1)) == (0, 0)
        with pytest.raises(ValueError):
            sample_mgcp(FIG1, -1.0, stream_rng(1))

    def test_clock_draw_past_int64_raises_naming_it(self):
        # at fig1 a count is at most 2 jumps of a Poisson total of mean
        # 1.0 * t, so t = 2^61 is the last drawable value; numpy's own
        # limit (~9.2e18) is further out, and its counts would wrap
        cap = 2.0**61
        draws = sample_mgcp_many(FIG1, np.full(3, cap), stream_rng(1))
        assert draws.dtype == np.int64 and draws.min() > 0
        for bad in (np.nextafter(cap, math.inf), 1e19, math.inf, math.nan):
            with pytest.raises(ValueError, match=r"clock draw .*int64.* 2\.30584e\+18"):
                sample_mgcp_many(FIG1, np.array([1.0, bad]), stream_rng(1))

    def test_heavy_clock_draw_past_int64_raises(self):
        # 10^4 stable(0.2) clock values at t = 1 reach 5.9e19; simulate,
        # covariance and codifference draw through this sampler
        with pytest.raises(ValueError, match=r"clock draw 5\.86166e\+19"):
            sample_variant_many(Mgsfcp(0.2), FIG1, 1.0, stream_rng(1, 0), 10**4)


class TestVariantSampler:
    def test_zero_time_and_domain(self):
        assert sample_variant(Mgsfcp(0.7), FIG1, 0.0, stream_rng(2)) == (0, 0)
        with pytest.raises(ValueError):
            sample_variant_many(Mgsfcp(0.7), FIG1, -0.1, stream_rng(2), 4)

    def test_pgf_against_samples(self):
        """E[prod u^N] from draws matches the closed form for each clock."""
        variants = [
            Mgcp(),
            Mgsfcp(0.7),
            Mgfcp(0.6),
            Mgstfcp(0.7, 0.6),
            Tempered(0.6, 0.9),
            GammaTC(1.2, 0.8),
            IgTC(1.1, 0.7),
        ]
        ubar = (0.6, 0.4)
        for k, v in enumerate(variants):
            draws = sample_variant_many(v, FIG1, 1.0, stream_rng(300 + k), 30000)
            vals = ubar[0] ** draws[:, 0] * ubar[1] ** draws[:, 1]
            want = variant_pgf(v, FIG1, ubar, 1.0)
            se = vals.std(ddof=1) / math.sqrt(len(vals))
            assert abs(vals.mean() - want) < 5 * se, type(v).__name__


class TestEstimatePmf:
    def test_workers_do_not_change_the_report(self):
        # one partial chunk, then three full chunks and a one-draw fourth
        for n_samples, pools in ((5000, (4,)), (3 * _CHUNK + 1, (2, 3))):
            kwargs = dict(t=0.8, box=(3, 4), n_samples=n_samples, seed=42)
            one = estimate_pmf(Mgsfcp(0.7), FIG1, workers=1, **kwargs)
            for workers in pools:
                assert estimate_pmf(Mgsfcp(0.7), FIG1, workers=workers, **kwargs) == one

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_chunk_k_is_a_direct_draw_on_stream_k(self, k):
        n, dims = 3 * _CHUNK + 1, np.array([4, 5])
        size = min(_CHUNK, n - k * _CHUNK)
        draws = sample_variant_many(Mgsfcp(0.7), FIG1, 0.8, stream_rng(42, k), size)
        inside = np.all(draws < dims, axis=1)
        want = np.bincount(
            np.ravel_multi_index(tuple(draws[inside].T), tuple(dims)),
            minlength=int(dims.prod()),
        )
        counts, outside = _pmf_counts(Mgsfcp(0.7), FIG1, 0.8, 42, k, n, dims)
        np.testing.assert_array_equal(counts, want)
        assert outside == size - inside.sum()

    def test_rerun_is_identical(self):
        kwargs = dict(t=0.8, box=(3, 3), n_samples=4000, seed=7, workers=2)
        assert estimate_pmf(Mgfcp(0.6), FIG1, **kwargs) == estimate_pmf(
            Mgfcp(0.6), FIG1, **kwargs
        )

    def test_base_process_cells(self):
        report = estimate_pmf(Mgcp(), FIG1, 1.0, (4, 5), 20000, seed=5, sigma=5.0)
        assert report.kind == "pmf"
        assert report.passed
        assert report.cells[-1][0] == "tail"
        # analytic masses over cells plus tail account for everything
        total = sum(c[1] for c in report.cells)
        assert total == pytest.approx(1.0, abs=1e-12)
        for label, analytic, est, se, z in report.cells[:-1]:
            assert analytic >= 1e-6
            assert se > 0
            assert z == pytest.approx((est - analytic) / se)

    def test_heavy_tail_variant_passes(self):
        report = estimate_pmf(
            Mgsfcp(0.7), FIG1, 1.0, (3, 3), 20000, seed=9, sigma=5.0
        )
        assert report.passed
        # heavy tails leave real mass in the bucket
        assert report.cells[-1][1] > 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_pmf(Mgcp(), FIG1, 1.0, (3, 3), 999, seed=1)
        with pytest.raises(ValueError):
            estimate_pmf(Mgcp(), FIG1, 1.0, (3,), 2000, seed=1)
        with pytest.raises(ValueError):
            estimate_pmf(Mgcp(), FIG1, 1.0, (3, -1), 2000, seed=1)
        with pytest.raises(ValueError):
            estimate_pmf(Mgcp(), FIG1, 1.0, (3, 3), 2000, seed=1, workers=0)

    def test_near_empty_cells_pool_into_tail(self):
        # cell (6,1) expects 0.6 draws, too few for a normal z-score
        report = estimate_pmf(Tempered(0.6, 1.0), FIG1, 1.0, (6, 6), 10**5, seed=41)
        assert report.passed
        for label, analytic, est, se, z in report.cells[:-1]:
            assert 10**5 * analytic >= 5.0

    def test_huge_mean_lands_in_tail(self):
        # at a Poisson mean of 1e12 every draw leaves the box; 1e19 is past
        # numpy's Poisson limit, so only the mean cap keeps it drawable
        for t in (1e12, 1e19):
            report = estimate_pmf(Mgcp(), ONE, t, (3,), 1000, seed=1)
            assert report.cells == (("tail", 1.0, 1.0, 0.0, 0.0),)
            assert report.passed

    @pytest.mark.parametrize("size", [8, 16])
    def test_capped_means_keep_large_jumps_in_range(self, size):
        # a size-k jump adds k per jump, so a mean cap that ignored k would
        # wrap k times a ~2^60 jump total past the int64 range
        rates = RateMatrix([[0.0] * (size - 1) + [1.0]])
        report = estimate_pmf(Mgcp(), rates, 1e19, (3,), 1000, seed=1)
        assert report.cells == (("tail", 1.0, 1.0, 0.0, 0.0),)
        report = estimate_pmf(Mgsfcp(0.2), rates, 1.0, (3,), 10**4, seed=1)
        assert report.passed, report.max_abs_z

    def test_heavy_stable_clock_finishes(self):
        # alpha=0.2 clock values reach Poisson means near 1e18; a stall
        # there must fail the suite, not hang it, so the call runs in a
        # child under a timeout
        code = (
            "from mgcp import Mgsfcp, RateMatrix, estimate_pmf\n"
            "r = estimate_pmf(Mgsfcp(0.2), RateMatrix([[0.5], [0.5, 0.5]]),"
            " 1.0, (3, 3), 10**4, seed=1)\n"
            "assert r.passed, r.max_abs_z\n"
        )
        src = str(Path(mgcp.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, timeout=60, capture_output=True
        )
        assert done.returncode == 0, done.stderr.decode()

    def test_report_to_dict(self):
        report = estimate_pmf(Mgcp(), ONE, 0.5, (3,), 2000, seed=3)
        doc = report.to_dict()
        assert doc["kind"] == "pmf"
        assert doc["sample_count"] == 2000
        assert "workers" not in doc
        assert {"label", "analytic", "estimate", "se", "z"} == set(
            doc["cells"][0]
        )


class TestEstimateCovariance:
    def test_mgfcp_matches(self):
        report = estimate_covariance(
            Mgfcp(0.8), FIG1, 0, 1, 1.0, n_samples=60000, seed=21
        )
        assert report.kind == "covariance"
        assert report.passed

    def test_tempered_adjudication(self):
        """The i=l tempered covariance: conditional-moment route vs the
        variant with squared rates and an extra (at + 1 - a) factor.

        At q=1, k=1, lam=1, a=0.5, th=2, t=2 the routes give 0.88388
        vs 0.70711; the sampler sides with the first.
        """
        v = Tempered(0.5, 2.0)
        t = 2.0
        derived = covariance(v, ONE, 0, 0, t)
        assert derived == pytest.approx(0.88388, abs=5e-5)
        report = estimate_covariance(v, ONE, 0, 0, t, n_samples=200000, seed=33)
        assert report.passed
        (_, _, est, se, _) = report.cells[0]
        printed = t * 0.5 * 2.0 ** (0.5 - 1.0)
        assert printed == pytest.approx(0.70711, abs=5e-5)
        assert (est - printed) / se > 4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_covariance(Mgfcp(0.8), FIG1, 0, 1, 1.0, 5000, seed=1)
        with pytest.raises(ValueError):
            estimate_covariance(Mgsfcp(0.7), FIG1, 0, 1, 1.0, 20000, seed=1)


class TestEstimateCodifference:
    def test_mgfcp_cross(self):
        report = estimate_codifference(
            Mgfcp(0.8), FIG1, 0, 1, 0.7, n_samples=100000, seed=55
        )
        assert report.kind == "codifference"
        assert len(report.cells) == 2
        assert report.passed

    def test_mgstfcp_same_component(self):
        report = estimate_codifference(
            Mgstfcp(0.7, 0.6), FIG1, 1, 1, 0.9, n_samples=100000, seed=56
        )
        assert report.passed

    @pytest.mark.filterwarnings("ignore")
    def test_degenerate_ecf_raises(self):
        # huge t: |E exp(i N)| collapses under the 1e-3 floor once the
        # sample count pushes the noise level below it
        with pytest.raises(RuntimeError):
            estimate_codifference(
                Mgfcp(0.9), FIG1, 0, 1, 400.0, n_samples=2000000, seed=8
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_codifference(Mgfcp(0.8), FIG1, 0, 1, 1.0, 500, seed=1)
        with pytest.raises(ValueError):
            codifference(Mgfcp(0.8), FIG1, 0, 9, 1.0)


def test_min_of_uniforms_representation():
    """The space-fractional pgf as a Poisson-many minimum of uniforms:
    G(u) = Pr{min of K draws of X^(1/alpha) >= 1 - S/lam} with
    K ~ Poisson(lam^alpha t) and S the u-weighted rate sum.
    """
    alpha, t = 0.7, 1.0
    ubar = (0.6, 0.4)
    lam = FIG1.total
    s = sum(
        lam_ij * u ** j
        for row, u in zip(FIG1.rows, ubar)
        for j, lam_ij in enumerate(row, start=1)
    )
    cut = 1.0 - s / lam
    rng = stream_rng(77)
    n = 100000
    ks = rng.poisson(lam**alpha * t, n)
    hits = np.ones(n, dtype=bool)
    for idx in range(n):
        k = ks[idx]
        if k:
            hits[idx] = rng.random(k).min() ** (1.0 / alpha) >= cut
    est = hits.mean()
    want = variant_pgf(Mgsfcp(alpha), FIG1, ubar, t)
    se = math.sqrt(est * (1.0 - est) / n)
    assert abs(est - want) < 3.0 * se


def test_report_equality_is_by_value():
    a = EstimateReport("pmf", 10, 1, 4.0, 0.5, True, ((("0", 0.1, 0.1, 0.01, 0.0)),))
    b = EstimateReport("pmf", 10, 1, 4.0, 0.5, True, ((("0", 0.1, 0.1, 0.01, 0.0)),))
    assert a == b


def test_nan_time_is_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        sample_variant_many(Mgsfcp(0.7), FIG1, math.nan, stream_rng(1, 0), 10)
