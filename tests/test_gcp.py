"""Base process layer: rate matrices, pmf, recurrence, pgf, moments."""

import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from mgcp.gcp import (
    RateMatrix,
    component_symbol,
    default_box,
    gcp_pmf,
    mgcp_component_variance,
    mgcp_levy_measure,
    mgcp_mean,
    mgcp_pgf,
    mgcp_pmf,
    mgcp_pmf_recurrence,
    pgf_symbol,
    preset_rates,
)

FIG1 = RateMatrix([[0.5], [0.5, 0.5]])


def random_rates(rng, q):
    rows = []
    for _ in range(q):
        k = int(rng.integers(1, 4))
        rows.append(list(rng.uniform(0.1, 1.2, k)))
    return RateMatrix(rows)


class TestRateMatrix:
    def test_basic_fields(self):
        assert FIG1.q == 2
        assert FIG1.ks == (1, 2)
        assert FIG1.total == 1.5
        assert FIG1.rate(1, 2) == 0.5

    def test_rate_out_of_range(self):
        with pytest.raises(ValueError):
            FIG1.rate(0, 2)
        with pytest.raises(ValueError):
            FIG1.rate(2, 1)
        with pytest.raises(ValueError):
            FIG1.rate(0, 0)

    def test_rate_indices_of_any_integer_type(self):
        assert FIG1.rate(True, np.int64(2)) == FIG1.rate(1, 2)
        with pytest.raises(ValueError, match="component index must be an integer"):
            FIG1.rate(1.0, 2)
        with pytest.raises(ValueError, match="jump size must be an integer"):
            FIG1.rate(1, 2.0)

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            RateMatrix([[0.5, -0.1]])

    def test_rejects_zero_component(self):
        with pytest.raises(ValueError):
            RateMatrix([[0.0, 0.0], [1.0]])

    def test_dict_round_trip(self):
        doc = FIG1.to_dict()
        assert RateMatrix.from_dict(doc) == FIG1

    def test_from_dict_ks_mismatch(self):
        with pytest.raises(ValueError):
            RateMatrix.from_dict({"rates": [[0.5], [0.5, 0.5]], "ks": [1, 3]})

    def test_hashable(self):
        assert len({FIG1, RateMatrix([[0.5], [0.5, 0.5]])}) == 1

    def test_moment_rates(self):
        # second component: sizes 1 and 2 at rate 0.5 each
        assert FIG1.mean_rate(1) == 0.5 + 2 * 0.5
        assert FIG1.second_moment_rate(1) == 0.5 + 4 * 0.5


def test_gcp_poisson_reduction():
    for n in range(12):
        assert_allclose(
            gcp_pmf([0.7], n, 1.3), stats.poisson.pmf(n, 0.7 * 1.3), rtol=1e-12
        )


def test_gcp_zero_time_indicator():
    assert gcp_pmf([0.7, 0.2], 0, 0.0) == 1.0
    assert gcp_pmf([0.7, 0.2], 3, 0.0) == 0.0


def test_mgcp_factorizes_over_components():
    t = 0.8
    for nbar in itertools.product(range(4), range(4)):
        want = gcp_pmf([0.5], nbar[0], t) * gcp_pmf([0.5, 0.5], nbar[1], t)
        assert_allclose(mgcp_pmf(FIG1, nbar, t), want, rtol=1e-14)


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_recurrence_matches_direct(q, t):
    rng = np.random.default_rng(100 + q)
    rates = random_rates(rng, q)
    # the recurrence is stated for interior states (every count >= 1)
    for nbar in itertools.product(range(1, 5), repeat=q):
        direct = mgcp_pmf(rates, nbar, t)
        rec = mgcp_pmf_recurrence(rates, nbar, t)
        assert_allclose(rec, direct, rtol=1e-12, atol=1e-300)


def test_recurrence_rejects_boundary_state():
    with pytest.raises(ValueError):
        mgcp_pmf_recurrence(FIG1, (0, 1), 1.0)


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_normalization_over_default_box(q, t):
    rng = np.random.default_rng(17 + q)
    rates = random_rates(rng, q)
    box = default_box(rates, t)
    total = sum(
        mgcp_pmf(rates, nbar, t)
        for nbar in itertools.product(*[range(b + 1) for b in box])
    )
    assert total <= 1.0 + 1e-12
    assert total >= 1.0 - 1e-6


def test_pgf_matches_pmf_series():
    t = 0.9
    ubar = (0.6, -0.3)
    series = sum(
        mgcp_pmf(FIG1, (n1, n2), t) * ubar[0] ** n1 * ubar[1] ** n2
        for n1 in range(40)
        for n2 in range(40)
    )
    assert_allclose(mgcp_pgf(FIG1, ubar, t), series, rtol=1e-12)


def test_pgf_time_derivative_identity():
    """d/dt log pgf = -sum_ij lambda_ij (1 - u_i^j), constant in t."""
    ubar = (0.4, 0.7)
    h = 1e-6
    for t in (0.5, 1.0, 2.0):
        num = (
            math.log(mgcp_pgf(FIG1, ubar, t + h))
            - math.log(mgcp_pgf(FIG1, ubar, t - h))
        ) / (2 * h)
        assert_allclose(num, -pgf_symbol(FIG1, ubar), rtol=1e-8)


def test_pgf_rejects_u_outside_disk():
    with pytest.raises(ValueError):
        mgcp_pgf(FIG1, (1.2, 0.5), 1.0)


def test_mgcp_pgf_at_infinite_time_is_its_limit():
    assert mgcp_pgf(FIG1, (1.0, 1.0), math.inf) == 1.0
    assert mgcp_pgf(FIG1, (0.5, 0.5), math.inf) == 0.0


def test_component_symbol_at_one_is_zero():
    assert component_symbol([0.5, 0.5], 1.0) == 0.0


def test_moments_against_brute_sums():
    t = 0.7
    box = 60
    for i in range(2):
        mean = sum(
            n * gcp_pmf(FIG1.rows[i], n, t) for n in range(box)
        )
        second = sum(n * n * gcp_pmf(FIG1.rows[i], n, t) for n in range(box))
        assert_allclose(mgcp_mean(FIG1, i, t), mean, rtol=1e-10)
        assert_allclose(
            mgcp_component_variance(FIG1, i, t), second - mean**2, rtol=1e-10
        )


@pytest.mark.parametrize("t", [math.nan, -1.0])
def test_moments_reject_bad_time(t):
    with pytest.raises(ValueError, match="non-negative"):
        mgcp_mean(FIG1, 0, t)
    with pytest.raises(ValueError, match="non-negative"):
        mgcp_component_variance(FIG1, 1, t)


def test_levy_measure_atoms_and_total():
    atoms = mgcp_levy_measure(FIG1)
    assert atoms == {(0, 1): 0.5, (1, 1): 0.5, (1, 2): 0.5}
    assert_allclose(sum(atoms.values()), FIG1.total, rtol=1e-15)
    sparse = RateMatrix([[0.3, 0.0, 0.2]])
    assert (0, 2) not in mgcp_levy_measure(sparse)


def test_preset_order_k():
    rates = preset_rates("order_k", 2, (2, 2), (1.0, 1.0))
    assert rates.rows == ((1.0, 1.0), (1.0, 1.0))


def test_preset_polya_aeppli_weights():
    rates = preset_rates("polya_aeppli", 1, (3,), (2.0,), nu=0.5)
    row = rates.rows[0]
    # geometric profile: proportional to nu^(j-1), total = base
    assert_allclose(sum(row), 2.0, rtol=1e-12)
    assert_allclose(row[0] / row[1], 2.0, rtol=1e-12)
    with pytest.raises(ValueError):
        preset_rates("polya_aeppli", 1, (3,), (2.0,), nu=1.0)


def test_preset_unknown_kind():
    with pytest.raises(ValueError):
        preset_rates("nope", 1, (1,), (1.0,))


def test_default_box_covers_mass():
    box = default_box(FIG1, 1.0)
    assert all(b >= 1 for b in box)
    # twelve sigmas leave far less than 1e-6 outside
    total = sum(
        mgcp_pmf(FIG1, nbar, 1.0)
        for nbar in itertools.product(*[range(b + 1) for b in box])
    )
    assert total >= 1.0 - 1e-9


@pytest.mark.parametrize("t", [math.inf, math.nan, -math.inf, -1.0])
def test_default_box_needs_a_finite_time(t):
    # int(math.ceil(inf)) raised OverflowError, not ValueError
    with pytest.raises(ValueError, match="finite|non-negative"):
        default_box(FIG1, t)


def test_default_box_at_a_huge_time_is_finite():
    box = default_box(FIG1, 1e300)
    assert all(isinstance(b, int) and b > 10**299 for b in box)


def test_nan_time_is_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        mgcp_pmf(FIG1, (1, 1), math.nan)
    with pytest.raises(ValueError, match="non-negative"):
        mgcp_pgf(FIG1, (0.5, 0.5), math.nan)
    with pytest.raises(ValueError, match="positive"):
        mgcp_pmf_recurrence(FIG1, (1, 1), math.nan)


def test_nan_pgf_argument_is_rejected():
    with pytest.raises(ValueError, match=r"\|u_i\| <= 1"):
        mgcp_pgf(FIG1, (0.5, math.nan), 1.0)


def test_state_entries_of_any_integer_type():
    want = mgcp_pmf(FIG1, (2, 1), 1.0)
    assert mgcp_pmf(FIG1, (np.int64(2), np.int32(1)), 1.0) == want
    assert mgcp_pmf(FIG1, np.array([2, 1]), 1.0) == want
    assert mgcp_pmf_recurrence(FIG1, (np.int64(2), np.int64(1)), 1.0) == mgcp_pmf_recurrence(
        FIG1, (2, 1), 1.0
    )
    for state in ((2.0, 1.0), (2, 1.5), (np.float64(2.0), 1)):
        with pytest.raises(ValueError, match="state entries must be integers"):
            mgcp_pmf(FIG1, state, 1.0)
        with pytest.raises(ValueError, match="state entries must be integers"):
            mgcp_pmf_recurrence(FIG1, state, 1.0)
