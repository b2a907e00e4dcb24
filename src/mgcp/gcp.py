"""Base layer: univariate GCP and multivariate MGCP analytics.

A GCP performs jumps of sizes 1..k at rates lambda_1..lambda_k; the
MGCP runs q independent GCP components.  Everything downstream (the
time-changed variants, the Bernstein layer, the shock model) reduces
to these formulas when the clock is deterministic.
"""

import itertools
import math
import operator

from .compositions import enumerate_compositions


class RateMatrix:
    """Immutable ragged matrix of jump rates.

    rows[i][j-1] is the rate of size-j jumps of component i (0-based
    component index, 1-based jump size).  Zero entries are allowed and
    mean the jump size is absent; each component needs positive total
    rate.  The hash is computed once, since every memo keyed by the
    rates reads it; pickling and copying rebuild the matrix from rows.
    """

    __slots__ = ("rows", "q", "ks", "row_totals", "total", "_hash")

    def __init__(self, rows):
        rows = tuple(tuple(float(x) for x in row) for row in rows)
        if not rows:
            raise ValueError("need at least one component")
        for row in rows:
            if not row:
                raise ValueError("each component needs at least one jump size")
            if any(x < 0 or not math.isfinite(x) for x in row):
                raise ValueError("rates must be finite and non-negative")
            if not any(x > 0 for x in row):
                raise ValueError("each component needs positive total rate")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "q", len(rows))
        object.__setattr__(self, "ks", tuple(len(row) for row in rows))
        object.__setattr__(
            self, "row_totals", tuple(math.fsum(row) for row in rows)
        )
        object.__setattr__(self, "total", math.fsum(r for row in rows for r in row))
        object.__setattr__(self, "_hash", hash(rows))

    def __setattr__(self, name, value):
        raise AttributeError("RateMatrix is immutable")

    def __eq__(self, other):
        return isinstance(other, RateMatrix) and self.rows == other.rows

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return RateMatrix, (self.rows,)

    def __repr__(self):
        return "RateMatrix(%r)" % (self.rows,)

    def rate(self, i, j):
        """Rate of size-j jumps of component i."""
        i = _check_index(i, 0, self.q - 1, "component index")
        j = _check_index(j, 1, self.ks[i], "jump size")
        return self.rows[i][j - 1]

    def mean_rate(self, i):
        """sum_j j * lambda_{ij} (mean increment per unit operational time)."""
        return math.fsum(j * lam for j, lam in enumerate(self.rows[i], start=1))

    def second_moment_rate(self, i):
        """sum_j j^2 * lambda_{ij}."""
        return math.fsum(j * j * lam for j, lam in enumerate(self.rows[i], start=1))

    def to_dict(self):
        return {"ks": list(self.ks), "rates": [list(row) for row in self.rows]}

    @classmethod
    def from_dict(cls, d):
        rates = d["rates"]
        if "ks" in d:
            ks = list(d["ks"])
            if ks != [len(row) for row in rates]:
                raise ValueError("ks does not match the rate rows")
        return cls(rates)


def _check_index(k, lo, hi, what):
    """The index k as an int in lo..hi, read through operator.index.

    Any integer type (int, bool, numpy integers) is accepted; anything
    else, or an index out of range, raises ValueError naming what.
    """
    try:
        k = operator.index(k)
    except TypeError:
        raise ValueError("%s must be an integer" % what) from None
    if not lo <= k <= hi:
        raise ValueError("%s out of range" % what)
    return k


def _check_state(rates, nbar):
    """The state nbar as a tuple of ints, checked against the rates.

    Entries of any integer type (int, bool, numpy integers) are read
    through operator.index; anything else raises ValueError, so whether
    a state is accepted never depends on what a memo holds.
    """
    if len(nbar) != rates.q:
        raise ValueError("state vector length must equal q")
    try:
        nbar = tuple(map(operator.index, nbar))
    except TypeError:
        raise ValueError("state entries must be integers") from None
    if min(nbar) < 0:
        raise ValueError("state entries must be non-negative")
    return nbar


def component_symbol(row, u):
    """sum_j lambda_j (1 - u^j) for one component; accepts complex u."""
    return sum(lam * (1.0 - u**j) for j, lam in enumerate(row, start=1))


def pgf_symbol(rates, ubar):
    """The pgf exponent rate sum_i sum_j lambda_{ij} (1 - u_i^j)."""
    if len(ubar) != rates.q:
        raise ValueError("u vector length must equal q")
    return sum(component_symbol(row, u) for row, u in zip(rates.rows, ubar))


def _pgf_exponent(rates, ubar):
    """pgf_symbol at ubar, each |u_i| allowed past 1 by a 1e-12 slack.

    The slack is clamped away, so the symbol stays nonnegative and no
    pgf built on it exceeds 1.
    """
    if not all(abs(u) <= 1.0 + 1e-12 for u in ubar):
        raise ValueError("need |u_i| <= 1")
    return pgf_symbol(rates, [min(max(u, -1.0), 1.0) for u in ubar])


def gcp_pmf(rates_row, n, t):
    """P{GCP(t) = n} = sum over Omega(k, n) of prod_j Poisson factors.

    The composition sum of the paper, the independent side of
    variants.variant_pmf's base-process route.  Each term is formed as
    exp(-lambda t + sum_j (x_j log(lambda_j t) - log x_j!)), so a deep
    state neither overflows nor underflows where its value lies in
    double range.  The exponent's rounding, about 1e-16 of its largest
    part n log(lambda t), is the relative error: 4e-13 at n = 1050,
    lambda t = 1050.
    """
    if n < 0:
        return 0.0
    if not t >= 0:
        raise ValueError("t must be non-negative")
    row = [float(x) for x in rates_row]
    lam = math.fsum(row)
    if t == 0.0:
        return 1.0 if n == 0 else 0.0
    terms = []
    for comp in enumerate_compositions(len(row), n):
        logp = -lam * t
        ok = True
        for lam_j, x in zip(row, comp):
            if x == 0:
                continue
            if lam_j == 0.0:
                ok = False
                break
            logp += x * math.log(lam_j * t) - math.lgamma(x + 1.0)
        if ok:
            terms.append(math.exp(logp))
    return math.fsum(terms)


def mgcp_pmf(rates, nbar, t):
    """Joint pmf of the MGCP: product of independent component GCPs."""
    nbar = _check_state(rates, nbar)
    out = 1.0
    for row, n in zip(rates.rows, nbar):
        out *= gcp_pmf(row, n, t)
        if out == 0.0:
            break
    return out


def mgcp_pmf_recurrence(rates, nbar, t):
    """pmf via the multi-index recurrence; testing route only.

    p(nbar, t) = t^q prod_i (1/n_i) sum_{j_i=1}^{min(n_i, k_i)}
    j_i lambda_{i j_i} p(nbar - jbar, t), expanded over all joint jump
    choices (j_1, ..., j_q).  Requires every n_i >= 1; interior states
    with exhausted components recurse over the active components only.
    """
    nbar = _check_state(rates, nbar)
    if min(nbar) < 1:
        raise ValueError("recurrence needs every n_i >= 1")
    if not t > 0:
        raise ValueError("t must be positive")
    lam = rates.total
    memo = {}

    def rec(state):
        val = memo.get(state)
        if val is not None:
            return val
        active = [i for i, n in enumerate(state) if n > 0]
        if not active:
            val = math.exp(-lam * t)
        else:
            choices = []
            for i in active:
                n_i = state[i]
                k_i = rates.ks[i]
                choices.append(
                    [
                        (i, j, j * rates.rows[i][j - 1])
                        for j in range(1, min(n_i, k_i) + 1)
                        if rates.rows[i][j - 1] > 0.0
                    ]
                )
            total = 0.0
            for combo in itertools.product(*choices):
                w = 1.0
                nxt = list(state)
                for i, j, wj in combo:
                    w *= wj
                    nxt[i] -= j
                total += w * rec(tuple(nxt))
            denom = 1.0
            for i in active:
                denom *= state[i]
            val = t ** len(active) * total / denom
        memo[state] = val
        return val

    return rec(nbar)


def mgcp_pgf(rates, ubar, t):
    """E[prod u_i^{N_i(t)}] = exp(-t sum_ij lambda_ij (1 - u_i^j))."""
    w = _pgf_exponent(rates, ubar)
    if not t >= 0:
        raise ValueError("t must be non-negative")
    if t == math.inf:
        return 1.0 if w == 0 else 0.0
    return math.exp(-t * w)


def mgcp_mean(rates, i, t):
    """E[N_i(t)] = t * sum_j j lambda_ij."""
    if not t >= 0:
        raise ValueError("t must be non-negative")
    return t * rates.mean_rate(i)


def mgcp_component_variance(rates, i, t):
    """Var[N_i(t)] = t * sum_j j^2 lambda_ij."""
    if not t >= 0:
        raise ValueError("t must be non-negative")
    return t * rates.second_moment_rate(i)


def mgcp_levy_measure(rates):
    """Atoms {(i, j) -> lambda_ij} of the MGCP Levy measure.

    Keys are (component index, jump size); only positive rates appear.
    Total mass equals rates.total.
    """
    out = {}
    for i, row in enumerate(rates.rows):
        for j, lam in enumerate(row, start=1):
            if lam > 0.0:
                out[(i, j)] = lam
    return out


def preset_rates(kind, q, ks, base, nu=0.0):
    """Named rate layouts.

    order_k: lambda_ij = base_i for every size j (order-k_i Poisson).
    polya_aeppli: lambda_ij = base_i (1-nu) nu^(j-1) / (1-nu^k_i);
        nu = 0 puts all weight on size 1.
    """
    if len(ks) != q or len(base) != q:
        raise ValueError("ks and base must have length q")
    if kind == "order_k":
        rows = [[float(base[i])] * ks[i] for i in range(q)]
    elif kind == "polya_aeppli":
        if not 0.0 <= nu < 1.0:
            raise ValueError("nu must lie in [0, 1)")
        rows = []
        for i in range(q):
            k = ks[i]
            if nu == 0.0:
                row = [float(base[i])] + [0.0] * (k - 1)
            else:
                norm = (1.0 - nu) / (1.0 - nu**k)
                row = [base[i] * norm * nu ** (j - 1) for j in range(1, k + 1)]
            rows.append(row)
    else:
        raise ValueError("unknown preset kind %r" % (kind,))
    return RateMatrix(rows)


# default_box reaches this many standard deviations past each mean
_BOX_SIGMAS = 12.0


def default_box(rates, t):
    """Per-component truncation bound: mean + _BOX_SIGMAS * stddev."""
    if not t < math.inf:
        raise ValueError("t must be finite for a default box")
    box = []
    for i in range(rates.q):
        m = mgcp_mean(rates, i, t)
        s = math.sqrt(max(mgcp_component_variance(rates, i, t), 0.0))
        box.append(int(math.ceil(m + _BOX_SIGMAS * s)) + 1)
    return tuple(box)
