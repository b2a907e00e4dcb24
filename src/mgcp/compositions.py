"""Weighted-composition index sets and the jump-count profile.

Omega(k, n) = {(x_1, ..., x_k) : sum_j j*x_j = n}: x_j counts jumps of
size j.  Every pmf, Levy atom and shock-model series in this package is
a sum over joint compositions that depends on them only through
prod (c lambda_ij)^x / x! and the total jump count Z; jump_profile
collapses that sum to a sum over Z.  Its profile is the law of the
state given Z jumps, so a pmf is also sum_z S[z] P{Z_t = z} wherever
the law of Z_t is known.  The profile depends on the rates and the
state only, so it is memoised, at most _PROFILE_ENTRIES states and
single components, each state joined from the memoised profiles of its
leading components and of its last one: a box joins each prefix once,
and every variant and time shares one profile per state.
enumerate_compositions and joint_compositions list the sets themselves,
for tests and callers that need them.
"""

import itertools
import math
from functools import lru_cache

import numpy as np


def enumerate_compositions(k, n):
    """Yield all (x_1, ..., x_k) with sum over j of j*x_j == n.

    Order is canonical and byte-stable: counts of the largest jump size
    increase first, so (k=2, n=2) yields (2, 0) then (0, 1).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if n < 0:
        raise ValueError("n must be non-negative")
    if k == 1:
        yield (n,)
        return
    for xk in range(n // k + 1):
        for head in enumerate_compositions(k - 1, n - k * xk):
            yield head + (xk,)


def joint_compositions(ks, ns):
    """Stream the cartesian product of Omega(k_i, n_i) over components.

    Per-component sets are materialized (they are the small factors);
    the joint product, which grows multiplicatively, is generated
    lazily.
    """
    if len(ks) != len(ns):
        raise ValueError("ks and ns must have equal length")
    per = [tuple(enumerate_compositions(k, n)) for k, n in zip(ks, ns)]
    return itertools.product(*per)


def _table_size(z):
    """Tables come in powers of two, from 32 up, so deeper states reuse them."""
    # a conditional, not max(): every warm pmf cell reads one size
    return 32 if z <= 32 else 1 << (z - 1).bit_length()


@lru_cache(maxsize=32)
def _powers(probs, zmax):
    """(lo, hi, P) with P[z][m] = S[z * lo + m, z] for one row of jump probabilities.

    S[n, z] = sum_j probs[j-1] * S[n-j, z-1], S[0, 0] = 1, is the chance
    that z jumps drawn from probs add up to n: the coefficient of s^n in
    (sum_j probs[j-1] s^j)^z.  Power z, z <= zmax, is kept on its support
    n = z*lo .. z*hi, lo and hi the smallest and largest sizes with
    positive probability, so a row with one jump size costs O(zmax).
    Power z does not depend on zmax: every table size agrees bit for bit.
    """
    sizes = [j for j, p in enumerate(probs, start=1) if p > 0.0]
    lo, hi = sizes[0], sizes[-1]
    step = np.array(probs[lo - 1 : hi])
    powers = [np.ones(1)]
    for _ in range(zmax):
        powers.append(np.convolve(powers[-1], step))
    for power in powers:
        power.flags.writeable = False
    return lo, hi, tuple(powers)


# at most this many profiles are kept (_profile)
_PROFILE_ENTRIES = 2048


def jump_profile(rates, nbar):
    """The scaled jump-count profile of the state nbar, as (z0, S).

    S[m] = z! * sum over the joint compositions of nbar with z = z0 + m
    jumps of prod (lambda_ij / Lambda)^x / x!, Lambda the total rate: the
    chance that z jumps drawn with probabilities lambda_ij / Lambda land
    on nbar.  It lies in [0, 1] and forms no factorial, so deep states
    neither overflow nor underflow to a spurious zero.  Any composition
    sum of prod (c lambda_ij)^x / x! * K(Z) equals
    sum_z S[z] * (c Lambda)^z K(z) / z!; at c = 1 / Lambda and
    K(z) = z! P{Z_t = z} that is the pmf sum_z S[z] P{Z_t = z}.

    The profile depends on the rates and the state only, never on a
    clock or a time, so it is memoised (_profile) and S is a tuple: every
    variant, time and route that reads a state shares one profile.
    """
    return _profile(rates.rows, tuple(nbar))


@lru_cache(maxsize=_PROFILE_ENTRIES)
def _profile(rows, nbar):
    """jump_profile of the state nbar under the rate rows, memoised.

    One row's profile is a column of its table (_powers), the row's own
    rates as probabilities.  More rows join the last row's profile to
    that of the leading ones, both read from this memo, so a box joins
    each prefix once and one memo holds every profile.  Profiles join by
    the binomial convolution
    S[z] = sum_y C(z, y) p^(z-y) (1-p)^y S_a[z-y] S_b[y], p the rate share
    of the leading rows, whose weights are the table of the two-size row
    (p, 1-p).  An entry holds at most 1 + n_1 + ... + n_q floats at 32
    bytes each, so the memo's worst case is _PROFILE_ENTRIES * 32 * (N + 1)
    bytes for states of total N: 11 MB at N = 170.
    """
    if len(rows) == 1:
        (row,), (n,) = rows, nbar
        total = math.fsum(row)
        lo, hi, powers = _powers(tuple(x / total for x in row), _table_size(n))
        z0, z1 = -(-n // hi), n // lo
        return z0, tuple(powers[z].item(n - z * lo) for z in range(z0, z1 + 1))
    c0, col = _profile(rows[-1:], nbar[-1:])
    z0, out = _profile(rows[:-1], nbar[:-1])
    mass = 0.0
    for row in rows[:-1]:
        mass += math.fsum(row)
    total = math.fsum(rows[-1])
    shares = (mass / (mass + total), total / (mass + total))
    _, _, binom = _powers(shares, _table_size(z0 + c0 + len(out) + len(col)))
    joined = [0.0] * max(0, len(out) + len(col) - 1)
    for m, a in enumerate(out):
        for k, b in enumerate(col):
            joined[m + k] += binom[z0 + m + c0 + k].item(c0 + k) * a * b
    return z0 + c0, tuple(joined)
