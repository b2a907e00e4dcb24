"""Weighted compositions Omega(k, n): x_1..x_k >= 0 with sum j*x_j = n,
and the jump-count profile that collapses sums over them."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgcp import compositions
from mgcp.compositions import enumerate_compositions, jump_profile, joint_compositions
from mgcp.gcp import RateMatrix, mgcp_pmf


def brute_force(k, n):
    ranges = [range(n // j + 1) for j in range(1, k + 1)]
    return {
        x
        for x in itertools.product(*ranges)
        if sum(j * xj for j, xj in enumerate(x, start=1)) == n
    }


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("n", range(0, 21))
def test_matches_brute_force(k, n):
    got = set(enumerate_compositions(k, n))
    assert got == brute_force(k, n)


def test_no_duplicates_and_tuple_shape():
    out = list(enumerate_compositions(3, 7))
    assert len(out) == len(set(out))
    assert all(isinstance(x, tuple) and len(x) == 3 for x in out)


def test_zero_n_single_empty_composition():
    assert list(enumerate_compositions(4, 0)) == [(0, 0, 0, 0)]


def test_k_two_count_closed_form():
    # with parts of size 1 and 2 the count is floor(n/2) + 1
    for n in range(0, 15):
        assert len(list(enumerate_compositions(2, n))) == n // 2 + 1


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=14))
@settings(max_examples=80, deadline=None)
def test_every_element_satisfies_weight_identity(k, n):
    for x in enumerate_compositions(k, n):
        assert sum(j * xj for j, xj in enumerate(x, start=1)) == n


def test_joint_compositions_is_cartesian_product():
    ks = (2, 3)
    ns = (3, 4)
    got = list(joint_compositions(ks, ns))
    singles = [list(enumerate_compositions(k, n)) for k, n in zip(ks, ns)]
    want = [tuple(p) for p in itertools.product(*singles)]
    assert got == want


def test_joint_compositions_length_mismatch():
    with pytest.raises(ValueError):
        list(joint_compositions((2, 2), (1,)))


PROFILE_BOXES = {
    "fig1": (RateMatrix([[0.5], [0.5, 0.5]]), (12, 12)),
    "q3": (RateMatrix([[0.4, 0.2], [0.3, 0.3, 0.1], [0.5]]), (7, 7, 7)),
    "zero-rate": (RateMatrix([[0.0, 0.7], [0.3]]), (12, 12)),
}


def brute_profile(rates, nbar):
    """{z: z! * sum prod (lam_ij/Lambda)^x / x!} straight from the enumeration."""
    terms = {}
    per = [list(enumerate_compositions(k, n)) for k, n in zip(rates.ks, nbar)]
    for joint in itertools.product(*per):
        counts = [(lam, x) for row, comp in zip(rates.rows, joint) for lam, x in zip(row, comp)]
        if any(x and lam == 0.0 for lam, x in counts):
            continue
        z = sum(x for _, x in counts)
        multinomial = math.factorial(z)
        for _, x in counts:
            multinomial //= math.factorial(x)
        weight = float(multinomial)
        for lam, x in counts:
            weight *= (lam / rates.total) ** x
        terms.setdefault(z, []).append(weight)
    return {z: math.fsum(ws) for z, ws in terms.items()}


def profile_dict(rates, nbar):
    z0, s = jump_profile(rates, nbar)
    return {z0 + m: v for m, v in enumerate(s)}


@pytest.mark.parametrize("box", sorted(PROFILE_BOXES))
def test_profile_matches_enumeration(box):
    rates, top = PROFILE_BOXES[box]
    for nbar in itertools.product(*(range(b + 1) for b in top)):
        got = profile_dict(rates, nbar)
        want = brute_profile(rates, nbar)
        for z in set(got) | set(want):
            g, w = got.get(z, 0.0), want.get(z, 0.0)
            assert abs(g - w) <= 1e-14 * w, (nbar, z, g, w)


@pytest.mark.parametrize("box", sorted(PROFILE_BOXES))
@pytest.mark.parametrize("t", [0.4, 2.5])
def test_profile_poisson_mixture_is_mgcp_pmf(box, t):
    # a Poisson(Lambda t) number of jumps spread by the profile is the MGCP
    rates, top = PROFILE_BOXES[box]
    lt = rates.total * t
    for nbar in itertools.product(*(range(b + 1) for b in top)):
        got = math.exp(-lt) * math.fsum(
            v * lt**z / math.factorial(z) for z, v in profile_dict(rates, nbar).items()
        )
        want = mgcp_pmf(rates, nbar, t)
        assert abs(got - want) <= 1e-13 * want, (nbar, got, want)


def test_profile_column_sums_to_one():
    # every draw of z jumps lands somewhere: sum over n of S[n, z] is 1
    rates = RateMatrix([[0.2, 0.0, 0.5, 0.3]])
    for z in (1, 7, 40):
        total = math.fsum(profile_dict(rates, (n,)).get(z, 0.0) for n in range(4 * z + 1))
        assert abs(total - 1.0) < 1e-13


def test_profile_deep_single_size_row_is_cheap():
    # one jump size: one composition, so the profile of (n,) is the
    # single atom S[n] = 1 however deep n is
    z0, s = jump_profile(RateMatrix([[0.7]]), (100000,))
    assert (z0, list(s)) == (100000, [1.0])


@pytest.mark.parametrize("box", sorted(PROFILE_BOXES))
def test_profile_is_a_tuple(box):
    # the profile is memoised, so a caller must not be able to change it
    rates, top = PROFILE_BOXES[box]
    for nbar in itertools.product(*(range(b + 1) for b in top)):
        z0, s = jump_profile(rates, nbar)
        assert isinstance(z0, int) and isinstance(s, tuple), nbar


def test_profile_memo_is_bounded():
    memo = compositions._profile
    assert memo.cache_info().maxsize == compositions._PROFILE_ENTRIES
    rates = RateMatrix([[0.7], [0.3]])
    before = jump_profile(rates, (3, 4))
    for n in range(compositions._PROFILE_ENTRIES // 2 + 1):
        jump_profile(rates, (n, n))
    # each state also keeps its one-row prefix, so the memo is full and
    # (3, 4), read first, has been evicted
    assert memo.cache_info().currsize == compositions._PROFILE_ENTRIES
    again = jump_profile(rates, (3, 4))
    assert again == before and again is not before
