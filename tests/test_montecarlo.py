"""Simulation layer: exact samplers and deterministic estimators.

Estimator determinism is a hard contract (same seed means the same
bytes out, whatever the worker count); statistical checks run at fixed
seeds so the suite stays reproducible.
"""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import mgcp
from mgcp import montecarlo
from oracles import complex_ecf_moments
from mgcp.gcp import RateMatrix, mgcp_mean, mgcp_pmf
from mgcp.montecarlo import (
    _CHUNK,
    _INVERT_DEPTH,
    _INVERT_UP_TO,
    _TRIG_SIZE,
    EstimateReport,
    _component_counts,
    _cos_sin,
    _ecf_moments,
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
# Q3's three-size row beside a row whose only positive rate is size 3
THINNED = RateMatrix([[0.3, 0.3, 0.1], [0.0, 0.0, 1.0]])
Q3 = RateMatrix([[0.4, 0.2], [0.3, 0.3, 0.1], [0.5]])


class RecordingRng:
    """A Generator whose random, poisson and binomial calls are logged.

    random is logged as ("random", size), poisson as ("poisson", the
    number of means) and binomial as ("binomial", p).
    """

    def __init__(self, rng):
        self.rng = rng
        self.calls = []

    def random(self, size):
        self.calls.append(("random", size))
        return self.rng.random(size)

    def poisson(self, lam):
        self.calls.append(("poisson", np.size(lam)))
        return self.rng.poisson(lam)

    def binomial(self, n, p):
        self.calls.append(("binomial", p))
        return self.rng.binomial(n, p)


class FixedUniforms:
    """A generator stand-in whose random(size) returns size copies of u."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        return np.full(size, self.u)


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
        # 10^4 stable(0.2) clock values at t = 1 reach 5.9e19 on this
        # generator; simulate, covariance and codifference draw through
        # this sampler
        rng = np.random.Generator(np.random.Philox(key=1))
        with pytest.raises(ValueError, match=r"clock draw 5\.86166e\+19"):
            sample_variant_many(Mgsfcp(0.2), FIG1, 1.0, rng, 10**4)


class TestSizeThinning:
    def test_one_random_block_per_row_and_poisson_only_past_the_switch(self):
        # 8 draws at T = 1.5 lie below the switch on every row; 4 more at
        # T = 40 pass it on every row (mean counts 40 to 120, switch 16)
        light, mixed = np.full(8, 1.5), np.concatenate([np.full(8, 1.5), np.full(4, 40.0)])
        for rates, ops, want in (
            (FIG1, light, [("random", 8), ("random", 8)]),
            (THINNED, light, [("random", 8), ("random", 8)]),
            (
                FIG1,
                mixed,
                [("random", 12), ("poisson", 4), ("random", 12), ("poisson", 4),
                 ("binomial", 0.5)],
            ),
            (
                THINNED,
                mixed,
                [
                    ("random", 12),
                    ("poisson", 4),
                    ("binomial", pytest.approx(0.3 / 0.7, rel=1e-15)),
                    ("binomial", pytest.approx(0.3 / 0.4, rel=1e-15)),
                    ("random", 12),
                    ("poisson", 4),
                ],
            ),
        ):
            rng = RecordingRng(stream_rng(3))
            draws = sample_mgcp_many(rates, ops, rng)
            assert draws.shape == (ops.size, rates.q) and draws.dtype == np.int64
            assert rng.calls == want
            assert all(p < 1.0 for name, p in rng.calls if name == "binomial")

    @pytest.mark.parametrize("where", ["below", "at", "above"])
    @pytest.mark.parametrize(
        "rates, i",
        [(FIG1, 0), (FIG1, 1), (THINNED, 0), (THINNED, 1)],
        ids=["fig1-0", "fig1-1", "thinned-0", "thinned-1"],
    )
    def test_counts_across_the_switch_match_the_pmf(self, rates, i, where):
        """Chi-square of one component's counts against mgcp_pmf at a
        mean count just below, at and just past the inversion switch."""
        row = RateMatrix([rates.rows[i]])
        mean_rate = mgcp_mean(row, 0, 1.0)
        t = {"below": 1.0 - 1e-9, "at": 1.0, "above": 1.0 + 1e-9}[where] * _INVERT_UP_TO / mean_rate
        n = 40000
        rng = RecordingRng(stream_rng(23, i))
        draws = sample_mgcp_many(row, np.full(n, t), rng)[:, 0]
        thinned = any(name == "poisson" for name, _ in rng.calls)
        assert thinned == (where == "above")
        top = int(draws.max())
        probs = np.array([mgcp_pmf(row, (k,), t) for k in range(top + 1)])
        expected = n * probs
        obs = np.bincount(draws, minlength=top + 1)
        cells = expected >= 5.0
        # the cells with fewer than 5 expected draws pool with the law's
        # mass past the largest draw
        obs = np.append(obs[cells], obs[~cells].sum())
        expected = np.append(expected[cells], n - expected[cells].sum())
        chi2 = ((obs - expected) ** 2 / expected).sum()
        assert stats.chi2.sf(chi2, cells.sum()) > 1e-3
        if rates is THINNED and i == 1:
            assert np.all(draws % 3 == 0)

    def test_a_uniform_next_to_one_settles(self):
        """u = 1 - 2^-53: the cdf reaches u at a small mean, and at the
        switch it stops short, so the draw settles at 64, the first of
        16, 32, 64 past where the cdf stopped growing."""
        top = 1.0 - 2.0**-53
        (small,) = _component_counts((1.0,), np.array([1.0]), FixedUniforms(top))
        assert small == stats.poisson.isf(2.0**-53, 1.0) == 17
        stalled = _component_counts((1.0,), np.full(3, 16.0), FixedUniforms(top))
        assert stalled.tolist() == [64, 64, 64]
        # the law leaves less than 2^-53 of its mass at or past that count
        assert stats.poisson.sf(63, 16.0) < 2.0**-53
        # at the switch on THINNED's rows (mean counts 1.2 T and 3 T) the
        # count lies past all but 2^-45 of the law (the summed pmf rounds
        # near 1e-15), and the loop ends within 256 steps
        for row, t in (((0.3, 0.3, 0.1), _INVERT_UP_TO / 1.2), ((0.0, 0.0, 1.0), _INVERT_UP_TO / 3)):
            (count,) = _component_counts(row, np.array([t]), FixedUniforms(top))
            assert count <= 256, (row, count)
            mass = math.fsum(mgcp_pmf(RateMatrix([row]), (k,), t) for k in range(count))
            assert mass > 1.0 - 2.0**-45, (row, count)

    def test_a_uniform_next_to_one_settles_alone_or_in_a_block(self):
        # a draw's count depends on its own T and u only, not on the
        # draws stepped beside it
        # mean counts up to 15, below the switch
        ops = np.concatenate([stream_rng(4).random(999) * 10.0, [10.0]])
        u = stream_rng(5).random(1000)
        u[-1] = 1.0 - 2.0**-53

        class Block:
            def random(self, size):
                return u[:size].copy() if size == 1000 else u[-1:].copy()

        block = _component_counts((0.5, 0.5), ops, Block())
        (alone,) = _component_counts((0.5, 0.5), ops[-1:], Block())
        assert block[-1] == alone

    def test_a_row_as_deep_as_the_depth_inverts_and_one_deeper_does_not(self):
        ops = np.full(8, 1.0)
        for depth, want in (
            (_INVERT_DEPTH, [("random", 8)]),
            (_INVERT_DEPTH + 1, [("poisson", 8)]),
        ):
            rng = RecordingRng(stream_rng(3))
            sample_mgcp_many(RateMatrix([[0.0] * (depth - 1) + [0.5]]), ops, rng)
            assert rng.calls == want, depth

    @pytest.mark.parametrize(
        "t", [0.02, 20.0], ids=["mean-count-10", "row-mean-10"]
    )
    def test_a_row_of_one_large_size_draws_one_poisson_in_linear_memory(self, t):
        """Size 1000 alone at 10^5 draws: one Poisson block, as every row
        drew before inversion, and a peak of a few arrays of the draws.
        Inverted, the row mean 10 took 11.6 s and 2000 such arrays."""
        n, row = 10**5, RateMatrix([[0.0] * 999 + [0.5]])
        rng = RecordingRng(stream_rng(8))
        tracemalloc.start()
        try:
            draws = sample_mgcp_many(row, np.full(n, t), rng)[:, 0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rng.calls == [("poisson", n)]
        assert peak <= 4 * 8 * n, peak
        assert np.all(draws % 1000 == 0)
        jumps = draws // 1000
        assert abs(jumps.mean() - 0.5 * t) < 5 * math.sqrt(0.5 * t / n)

    def test_a_wide_row_draws_k_minus_1_binomials(self):
        # twelve sizes at mean count 7.8: past the depth, not the switch
        rng = RecordingRng(stream_rng(9))
        draws = sample_mgcp_many(RateMatrix([[0.1] * 12]), np.full(1000, 1.0), rng)
        assert rng.calls[0] == ("poisson", 1000)
        assert [name for name, _ in rng.calls[1:]] == ["binomial"] * 11
        assert abs(draws.mean() - 7.8) < 5 * math.sqrt(0.1 * 650 / 1000)

    def test_three_sizes_and_zero_rates_match_the_pmf(self):
        """Cell by cell against mgcp_pmf at a fixed operational time."""
        n, t, dims = 100000, 1.5, (6, 10)
        draws = sample_mgcp_many(THINNED, np.full(n, t), stream_rng(17))
        assert np.all(draws[:, 1] % 3 == 0)
        inside = np.all(draws < dims, axis=1)
        counts = np.bincount(
            np.ravel_multi_index(tuple(draws[inside].T), dims),
            minlength=math.prod(dims),
        ).reshape(dims)
        tested = 0
        for idx in np.ndindex(*dims):
            p = mgcp_pmf(THINNED, idx, t)
            if p == 0.0:
                assert counts[idx] == 0, idx
            if n * p < 20.0:
                continue
            z = (counts[idx] / n - p) / math.sqrt(p * (1.0 - p) / n)
            assert abs(z) < 4.0, (idx, z)
            tested += 1
        assert tested >= 20


class TestBoundedStepping:
    """The pmf estimator's cap: counts at or past it read cap, and the
    generator sees the same calls as without one."""

    @pytest.mark.parametrize("cap", [1, 2, 7, 20])
    @pytest.mark.parametrize("rates", [FIG1, THINNED, Q3], ids=["fig1", "thinned", "q3"])
    def test_capped_counts_are_the_clipped_counts_on_the_same_calls(self, rates, cap):
        # light draws at T = 1.5 and 10 invert on every row but THINNED's
        # second at T = 10 (mean count 30); those at T = 40 pass the switch
        ops = np.concatenate([np.full(32, 1.5), np.full(32, 10.0), np.full(8, 40.0)])
        clipped = False
        for i, row in enumerate(rates.rows):
            plain = RecordingRng(stream_rng(3, i))
            want = _component_counts(row, ops, plain)
            capped = RecordingRng(stream_rng(3, i))
            got = _component_counts(row, ops, capped, cap)
            assert got.dtype == want.dtype == np.int64
            np.testing.assert_array_equal(got, np.minimum(want, cap))
            assert capped.calls == plain.calls
            clipped |= bool(np.any(want > cap))
        assert clipped

    def test_a_uniform_next_to_one_stops_at_the_cap(self, monkeypatch):
        """At T = 16 the uncapped draw settles at 64 after the stall
        checks at 16, 32 and 64; capped at 7 it steps to n = 6 only."""
        steps = []
        term = montecarlo._panjer_term

        def counted(weights, recent, operational, n):
            steps.append(n)
            return term(weights, recent, operational, n)

        monkeypatch.setattr(montecarlo, "_panjer_term", counted)
        top = FixedUniforms(1.0 - 2.0**-53)
        counts = _component_counts((1.0,), np.full(3, 16.0), top, 7)
        assert counts.tolist() == [7, 7, 7]
        assert steps == list(range(1, 7))


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

    @pytest.mark.parametrize(
        "v, rates, box",
        [
            (Mgsfcp(0.7), FIG1, (6, 6)),
            (Mgfcp(0.6), FIG1, (2, 9)),
            (Mgsfcp(0.7), RateMatrix([[0.4, 0.2], [0.3, 0.3, 0.1], [0.5]]), (3, 2, 4)),
        ],
    )
    def test_binning_matches_the_gather_and_ravel(self, v, rates, box):
        # the box test per draw, a gather of the draws inside and
        # ravel_multi_index, as estimate_pmf once binned them
        def binned(draws, dims):
            inside = np.all(draws < dims, axis=1)
            flat = np.ravel_multi_index(tuple(draws[inside].T), tuple(dims))
            return np.bincount(flat, minlength=int(dims.prod())), int(len(draws) - inside.sum())

        n, dims = 2 * _CHUNK + 7, np.array(box) + 1
        outside_total = 0
        for k in range(3):
            size = min(_CHUNK, n - k * _CHUNK)
            draws = sample_variant_many(v, rates, 0.8, stream_rng(11, k), size)
            counts, outside = _pmf_counts(v, rates, 0.8, 11, k, n, dims)
            want, want_outside = binned(draws, dims)
            np.testing.assert_array_equal(counts, want)
            assert outside == want_outside
            outside_total += outside
        # the heavy tails put draws outside every box
        assert outside_total > 0

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

    @pytest.mark.parametrize("box", [(2.5, 3), (2.0, 3), (2, "3"), (np.float64(2.0), 3)], ids=repr)
    def test_box_entries_must_be_integers(self, box):
        # a float entry was truncated, so (2.5, 3) binned on (2, 3)
        with pytest.raises(ValueError, match="entries must be integers"):
            estimate_pmf(Mgsfcp(0.7), FIG1, 1.0, box, 2000, 1)

    def test_integer_box_entries_of_any_type(self):
        want = estimate_pmf(Mgsfcp(0.7), FIG1, 1.0, (2, 3), 2000, 1)
        assert estimate_pmf(Mgsfcp(0.7), FIG1, 1.0, (np.int64(2), np.uint8(3)), 2000, 1) == want

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

    @pytest.mark.parametrize("seed", [11, 12])
    @pytest.mark.parametrize("v", [Mgcp(), GammaTC(1.0, 2.0), IgTC(1.0, 1.5)], ids=repr)
    def test_finite_mean_clocks(self, v, seed):
        for i, l in [(0, 1), (1, 1)]:
            assert estimate_covariance(v, FIG1, i, l, 1.0, 200_000, seed).passed

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

    @pytest.mark.parametrize("seed", [11, 12])
    @pytest.mark.parametrize(
        "v", [Mgcp(), Mgsfcp(0.7), GammaTC(1.0, 2.0), IgTC(1.0, 1.5)], ids=repr
    )
    def test_every_clock(self, v, seed):
        for i, l in [(0, 1), (1, 1)]:
            assert estimate_codifference(v, FIG1, i, l, 1.0, 200_000, seed).passed

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


@pytest.mark.parametrize(
    "v, seed",
    [(Mgfcp(0.8), 61), (Mgstfcp(0.7, 0.8), 62), (Tempered(0.6, 1.0), 63)],
    ids=["mgfcp", "mgstfcp", "tempered"],
)
def test_ecf_moments_match_the_complex_oracle(v, seed):
    """The real cos/sin rows and one Gram matrix give the complex-exp statistics."""
    draws = sample_variant_many(v, FIG1, 1.0, stream_rng(seed, 0), 10**5)
    means, cov6 = _ecf_moments(draws[:, 0], draws[:, 1])
    want_means, want_cov6 = complex_ecf_moments(draws[:, 0], draws[:, 1])
    np.testing.assert_allclose(means, want_means, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(cov6, want_cov6, rtol=1e-12, atol=0.0)


def test_ecf_moments_read_the_table_bit_for_bit():
    """Counts below and past the trig table give the bits of direct np.cos
    and np.sin, and so do the moments built on them."""
    rng = stream_rng(64)
    x = rng.integers(0, 2 * _TRIG_SIZE, 5000)
    y = rng.integers(0, _TRIG_SIZE, 5000)
    x[:4] = [0, _TRIG_SIZE - 1, _TRIG_SIZE, 2**62]
    assert (x >= _TRIG_SIZE).any() and (y < _TRIG_SIZE).all()
    for counts in (x, y):
        cos, sin = _cos_sin(counts)
        assert np.array_equal(cos, np.cos(counts)) and np.array_equal(sin, np.sin(counts))

    def direct(x, y):
        # _ecf_moments as written before the table, on direct trig calls
        n = len(x)
        cx, sx, cy, sy = np.cos(x), np.sin(x), np.cos(y), np.sin(y)
        rows = np.stack([cx * cy + sx * sy, cx, cy, sx * cy - cx * sy, sx, -sy])
        mean6 = rows.mean(axis=1)
        rows -= mean6[:, None]
        return mean6[:3] + 1j * mean6[3:], (rows @ rows.T) / ((n - 1) * n)

    for a, b in ((x, y), (y, x), (y, y)):
        means, cov6 = _ecf_moments(a, b)
        want_means, want_cov6 = direct(a, b)
        assert np.array_equal(means, want_means) and np.array_equal(cov6, want_cov6)


@pytest.mark.parametrize(
    "call",
    [
        lambda n: estimate_pmf(Mgsfcp(0.7), FIG1, 1.0, (3, 3), n, 1),
        lambda n: estimate_covariance(Mgfcp(0.8), FIG1, 0, 1, 1.0, n, 1),
        lambda n: estimate_codifference(Mgfcp(0.8), FIG1, 0, 1, 1.0, n, 1),
    ],
    ids=["pmf", "covariance", "codifference"],
)
def test_sample_count_must_be_an_integer(call):
    # 1e4 raised a TypeError from range() in the pmf estimator
    for bad in (1e4, 20000.0, "20000"):
        with pytest.raises(ValueError, match="must be an integer"):
            call(bad)
    assert call(np.int64(20000)) == call(20000)


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
