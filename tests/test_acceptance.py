"""Acceptance gate: one printed PASS/FAIL line per criterion.

Run `pytest tests/test_acceptance.py -s -v` to see the lines.  Every
criterion passes at its stated tolerance and runtime bound except two
clauses of the shock-model criterion, which fail honestly and are
marked strict-xfail with the measured numbers printed:

- the per-type failure probabilities do not sum to 1 for alpha < 1
  (the split misses multi-level bursts of the stable clock), and
- the survival curve at the first figure's parameters increases with
  alpha only for the geometric threshold; the other three laws order
  the opposite way, confirmed by an independent Monte Carlo route.
"""

import itertools
import math
import time
import warnings

import numpy as np
import pytest
from scipy import integrate

from oracles import caputo_derivative_numeric
from mgcp import (
    GammaSub,
    GammaTC,
    Geometric,
    IgTC,
    IncGamma,
    Identity,
    InverseGaussian,
    InverseStableTime,
    Logarithmic,
    Mgcp,
    Mgfcp,
    Mgsfcp,
    Mgstfcp,
    Named,
    RateMatrix,
    ShockModel,
    SineIntegral,
    Stable,
    Tempered,
    TemperedStable,
    default_box,
    enumerate_compositions,
    estimate_codifference,
    estimate_covariance,
    estimate_pmf,
    failure_density,
    figure_rates,
    gamma_density,
    gcp_pmf,
    ig_density,
    inverse_stable_moment,
    mgcp_pgf,
    mgcp_pmf,
    mgcp_pmf_recurrence,
    mittag_leffler,
    pgf_symbol,
    prob_failure_type,
    reliability,
    reliability_curve,
    sample_many,
    sample_variant_many,
    stream_rng,
    tcgcp_transition_rate,
    threshold_tail,
    variant_levy_measure,
    variant_pgf,
    variant_pmf,
    variant_pmf_wright,
    variant_transition_rate,
    wright_1_1,
)
from mgcp.cli import main

FIG1 = RateMatrix([[0.5], [0.5, 0.5]])


def report(label, ok, detail, elapsed, limit=None):
    print(
        "ACCEPTANCE %s: %s (%s; %.2fs)"
        % (label, "PASS" if ok else "FAIL", detail, elapsed)
    )
    if limit is not None:
        assert elapsed < limit, "over the %.0fs budget" % limit
    assert ok, detail


def states(box):
    return itertools.product(*(range(b + 1) for b in box))


def test_criterion_01_special_function_floor():
    start = time.perf_counter()
    exp_gap = max(
        abs(mittag_leffler(1.0, 1.0, 1.0, float(x)) - math.exp(x))
        for x in np.linspace(-5.0, 5.0, 101)
    )
    wright_gap = 0.0
    for a in (0.5, 0.7, 0.9):
        for b in (0.6, 1.0, 1.4):
            for g in (0.5, 1.0, 2.0):
                for x in (-2.0, -0.5, 0.1, 0.5, 2.0):
                    w = wright_1_1(g, 1.0, b, a, x)
                    m = math.gamma(g) * mittag_leffler(a, b, g, x)
                    wright_gap = max(wright_gap, abs(w - m) / max(1.0, abs(m)))
    elapsed = time.perf_counter() - start
    report(
        "1 (special functions)",
        exp_gap < 1e-12 and wright_gap < 1e-10,
        "exp max abs %.1e; wright identity max rel %.1e" % (exp_gap, wright_gap),
        elapsed,
        limit=1.0,
    )


def test_criterion_02_composition_oracle():
    start = time.perf_counter()
    checked = 0
    for k in range(1, 5):
        for n in range(0, 21):
            brute = set()
            ranges = (range(n // j + 1) for j in range(1, k + 1))
            for xs in itertools.product(*ranges):
                if sum(j * x for j, x in zip(range(1, k + 1), xs)) == n:
                    brute.add(xs)
            assert set(enumerate_compositions(k, n)) == brute, (k, n)
            checked += 1
    elapsed = time.perf_counter() - start
    report(
        "2 (compositions)",
        True,
        "exact set equality on %d (k, n) pairs" % checked,
        elapsed,
        limit=1.0,
    )


def test_criterion_03_mgcp_layer():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = {"fact": 0.0, "rec": 0.0, "norm": 0.0, "dual": 0.0, "ode": 0.0}
    for q in (1, 2, 3):
        ks = [int(k) for k in rng.integers(1, 4, size=q)]
        rates = RateMatrix(
            [[rng.uniform(0.1, 1.0) for _ in range(k)] for k in ks]
        )
        for t in (0.5, 1.0, 2.0):
            for n in states((2,) * q):
                direct = mgcp_pmf(rates, n, t)
                split = math.prod(
                    gcp_pmf(rates.rows[i], n[i], t) for i in range(q)
                )
                worst["fact"] = max(worst["fact"], abs(direct - split) / direct)
            for n in itertools.product(*(range(1, 4) for _ in range(q))):
                rec = mgcp_pmf_recurrence(rates, n, t)
                direct = mgcp_pmf(rates, n, t)
                worst["rec"] = max(worst["rec"], abs(rec - direct) / direct)
            box = default_box(rates, t)
            mass = sum(mgcp_pmf(rates, n, t) for n in states(box))
            worst["norm"] = max(worst["norm"], 1.0 - mass)
            u = (0.6, 0.45, 0.3)[:q]
            series = sum(
                mgcp_pmf(rates, n, t)
                * math.prod(ui**ni for ui, ni in zip(u, n))
                for n in states(box)
            )
            pg = mgcp_pgf(rates, u, t)
            worst["dual"] = max(worst["dual"], abs(series - pg) / pg)
            h = 1e-6
            lhs = (mgcp_pgf(rates, u, t + h) - mgcp_pgf(rates, u, t - h)) / (
                2.0 * h
            )
            rhs = -pgf_symbol(rates, u) * pg
            worst["ode"] = max(worst["ode"], abs(lhs - rhs) / abs(rhs))
    elapsed = time.perf_counter() - start
    ok = (
        worst["fact"] < 1e-12
        and worst["rec"] < 1e-12
        and worst["norm"] < 1e-6
        and worst["dual"] < 1e-9
        and worst["ode"] < 1e-7
    )
    report(
        "3 (mgcp layer)",
        ok,
        "factorization %.1e; recurrence %.1e; deficit %.1e; duality %.1e; "
        "ode %.1e" % tuple(worst[k] for k in ("fact", "rec", "norm", "dual", "ode")),
        elapsed,
        limit=10.0,
    )


def test_criterion_04_series_vs_wright():
    start = time.perf_counter()
    worst = 0.0
    for alpha in (0.5, 0.7, 0.9):
        for v in (Mgsfcp(alpha), Tempered(alpha, 0.9)):
            for n in states((4, 4)):
                a = variant_pmf(v, FIG1, n, 1.0)
                b = variant_pmf_wright(v, FIG1, n, 1.0)
                worst = max(worst, abs(a - b) / max(a, 1e-300))
    elapsed = time.perf_counter() - start
    report(
        "4 (series vs Wright)",
        worst < 1e-10,
        "max rel gap %.1e over both families" % worst,
        elapsed,
        limit=30.0,
    )


def test_criterion_05_quadrature_oracles():
    start = time.perf_counter()
    cases = [
        (GammaTC(1.2, 0.8), lambda x: gamma_density(1.2, 0.8, x, 1.0), 100.0),
        (GammaTC(2.0, 1.5), lambda x: gamma_density(2.0, 1.5, x, 1.0), 100.0),
        (IgTC(1.1, 0.7), lambda x: ig_density(1.1, 0.7, x, 1.0), 150.0),
        (IgTC(0.8, 1.3), lambda x: ig_density(0.8, 1.3, x, 1.0), 150.0),
    ]
    worst = 0.0
    for v, dens, upper in cases:
        for n in states((3, 3)):
            direct = variant_pmf(v, FIG1, n, 1.0)
            mix, _ = integrate.quad(
                lambda x: mgcp_pmf(FIG1, n, x) * dens(x), 0.0, upper, limit=200
            )
            worst = max(worst, abs(direct - mix) / direct)
    elapsed = time.perf_counter() - start
    report(
        "5 (mixture quadrature)",
        worst < 1e-8,
        "max rel gap %.1e over four parameter sets" % worst,
        elapsed,
        limit=30.0,
    )


def test_criterion_06_levy_mass_identities():
    start = time.perf_counter()
    gaps = {}

    # heavy tail: one component, atoms ~ n^(-1-alpha), so the box grows
    # adaptively until the integral tail bound drops under 5e-6
    r1 = RateMatrix([[0.7]])
    for alpha in (0.8, 0.9):
        v = Mgsfcp(alpha)
        target = 0.7**alpha
        partial, n, nmax, term = 0.0, 1, 2000, 1.0
        while True:
            while n <= nmax:
                term = variant_levy_measure(v, r1, (n,))
                partial += term
                n += 1
            if term * nmax / alpha < 5e-6 or nmax >= 1 << 17:
                break
            nmax *= 2
        gaps["stable a=%.1f (N=%d)" % (alpha, nmax)] = abs(partial - target)

    lam = FIG1.total
    light = [
        (Tempered(0.6, 0.9), (lam + 0.9) ** 0.6 - 0.9**0.6),
        (GammaTC(1.2, 0.8), 0.8 * math.log(1.0 + lam / 1.2)),
        (IgTC(1.1, 0.7), 1.1 * (math.sqrt(2.0 * lam + 0.7**2) - 0.7)),
    ]
    for v, target in light:
        total = sum(
            variant_levy_measure(v, FIG1, n)
            for n in states((40, 40))
            if any(n)
        )
        gaps[type(v).__name__] = abs(total - target)

    elapsed = time.perf_counter() - start
    worst = max(gaps.values())
    report(
        "6 (Levy mass = clock exponent)",
        worst < 1e-4,
        "; ".join("%s %.1e" % kv for kv in gaps.items()),
        elapsed,
        limit=30.0,
    )


def test_criterion_07_bernstein_unification():
    start = time.perf_counter()
    pairs = [
        (Mgsfcp(0.7), Named(Stable(0.7))),
        (Tempered(0.6, 0.9), Named(TemperedStable(0.6, 0.9))),
        (GammaTC(1.2, 0.8), Named(GammaSub(1.2, 0.8))),
        (IgTC(1.1, 0.7), Named(InverseGaussian(1.1, 0.7))),
    ]
    worst = 0.0
    for v, clock in pairs:
        for l in states((4, 4)):
            if not any(l):
                continue
            a = variant_transition_rate(v, FIG1, l)
            b = tcgcp_transition_rate(FIG1, clock, l)
            worst = max(worst, abs(a - b) / a)
    elapsed = time.perf_counter() - start
    report(
        "7 (measure-driven rates)",
        worst < 1e-7,
        "max rel gap %.1e over four clocks" % worst,
        elapsed,
        limit=60.0,
    )


@pytest.mark.filterwarnings("ignore")
def test_criterion_08_monte_carlo_concordance():
    start = time.perf_counter()
    variants = [
        Mgcp(),
        Mgsfcp(0.7),
        Mgfcp(0.6),
        Mgstfcp(0.7, 0.6),
        Tempered(0.6, 0.9),
        GammaTC(1.2, 0.8),
        IgTC(1.1, 0.7),
    ]
    max_z = 0.0
    for v in variants:
        rep = estimate_pmf(
            v, FIG1, 1.0, (4, 4), 100_000, seed=41, workers=4, sigma=4.0
        )
        assert rep.passed, type(v).__name__
        max_z = max(max_z, rep.max_abs_z)

    cov = estimate_covariance(Mgfcp(0.8), FIG1, 0, 1, 1.0, 100_000, seed=7)
    assert cov.passed
    cod = estimate_codifference(
        Mgfcp(0.8), FIG1, 0, 1, 0.7, 1_000_000, seed=5
    )
    assert cod.passed

    rng = stream_rng(314, 0)
    draws = sample_many(InverseStableTime(Identity(), 0.7), 1.0, rng, 100_000)
    moment_rel = max(
        abs(float(np.mean(draws**n)) - inverse_stable_moment(0.7, n, 1.0))
        / inverse_stable_moment(0.7, n, 1.0)
        for n in (1, 2)
    )
    elapsed = time.perf_counter() - start
    report(
        "8 (Monte Carlo)",
        moment_rel < 0.02,
        "pmf max |z| %.2f over 7 variants at 4 SE; covariance z %.2f and "
        "codifference z %.2f at 3 SE; inverse-stable moments rel %.4f"
        % (max_z, cov.max_abs_z, cod.max_abs_z, moment_rel),
        elapsed,
        limit=300.0,
    )


def test_criterion_09_caputo_residual():
    start = time.perf_counter()
    v = Mgfcp(0.5)
    u = (0.5, 0.5)
    step = 1e-3
    ts = np.round(np.arange(0.0, 1.0 + step / 2.0, step), 12)
    samples = [(float(t), variant_pgf(v, FIG1, u, float(t))) for t in ts]
    lhs = caputo_derivative_numeric(samples, 0.5, 1.0, step)
    rhs = -pgf_symbol(FIG1, u) * variant_pgf(v, FIG1, u, 1.0)
    residual = abs(lhs - rhs)
    elapsed = time.perf_counter() - start
    report(
        "9 (fractional pgf equation)",
        residual < 5e-2,
        "Caputo residual %.1e at step %.0e" % (residual, step),
        elapsed,
        limit=10.0,
    )


LAWS = [
    Geometric(0.5),
    Logarithmic(0.5),
    IncGamma(0.0, 0.5),
    SineIntegral(0.0, 0.5),
]


def test_criterion_10_failure_split_integrals():
    start = time.perf_counter()
    worst = 0.0
    for law in LAWS:
        model = ShockModel(figure_rates(1), 0.9, law)
        for i in range(2):
            val, _ = integrate.quad(
                lambda t: failure_density(model, i, t), 0.0, np.inf, limit=100
            )
            worst = max(worst, abs(val - prob_failure_type(model, i)))
    elapsed = time.perf_counter() - start
    report(
        "10 (failure-density integrals)",
        worst < 1e-6,
        "max |int h_i - Pr{sigma=i}| %.1e over four laws" % worst,
        elapsed,
        limit=180.0,
    )


@pytest.mark.xfail(
    strict=True,
    reason="the failure split misses multi-level bursts of the stable clock",
)
def test_criterion_10_completeness():
    start = time.perf_counter()
    sums = {}
    for law in LAWS:
        model = ShockModel(figure_rates(1), 0.9, law)
        sums[type(law).__name__] = sum(
            prob_failure_type(model, i) for i in range(2)
        )
    trend = [
        sum(
            prob_failure_type(ShockModel(figure_rates(1), a, Geometric(0.5)), i)
            for i in range(2)
        )
        for a in (0.5, 0.9, 0.999)
    ]
    elapsed = time.perf_counter() - start
    detail = ", ".join("%s %.6f" % kv for kv in sums.items())
    print(
        "  analysis: the split only counts crossings by a single"
        " component jump, but the stable clock crosses several levels in"
        " one burst with positive probability; the deficit vanishes as"
        " alpha -> 1 (geometric sums %.6f, %.6f, %.6f at alpha 0.5, 0.9,"
        " 0.999) while the per-type densities stay consistent with their"
        " own integrals to 1e-11" % tuple(trend)
    )
    report(
        "10 (failure-split completeness)",
        all(abs(s - 1.0) < 1e-6 for s in sums.values()),
        "sum_i Pr{sigma=i} at alpha=0.9: %s; all short of 1" % detail,
        elapsed,
    )


def test_criterion_10_reliability_monte_carlo():
    start = time.perf_counter()
    law = Geometric(0.5)
    model = ShockModel(figure_rates(1), 0.6, law)
    want = reliability(model, 1.0)
    rng = stream_rng(1, 0)
    draws = sample_variant_many(Mgsfcp(0.6), figure_rates(1), 1.0, rng, 100_000)
    levels = draws.sum(axis=1)
    uniq, inv = np.unique(levels, return_inverse=True)
    tails = np.array([threshold_tail(law, int(n)) for n in uniq])
    vals = tails[inv]
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(len(vals)))
    z = (est - want) / se
    elapsed = time.perf_counter() - start
    report(
        "10 (reliability Monte Carlo)",
        abs(z) < 3.0,
        "analytic %.5f vs empirical %.5f, z %+.2f at 1e5 draws" % (want, est, z),
        elapsed,
        limit=180.0,
    )


GRID = [0.5 * k for k in range(11)]
CASE_OF = {
    "Geometric": "fig1",
    "Logarithmic": "fig2",
    "IncGamma": "fig3",
    "SineIntegral": "fig4",
}


def _curves(rates, law):
    out = []
    for alpha in (0.3, 0.6, 0.9):
        model = ShockModel(rates, alpha, law)
        case = CASE_OF[type(law).__name__]
        out.append([v for _, v in reliability_curve(model, GRID, case)])
    return out


def _ordered(curves, increasing):
    lo, mid, hi = curves
    pairs = zip(lo[1:], mid[1:]) if increasing else zip(mid[1:], lo[1:])
    first = all(a < b for a, b in pairs)
    pairs = zip(mid[1:], hi[1:]) if increasing else zip(hi[1:], mid[1:])
    return first and all(a < b for a, b in pairs)


def test_criterion_10_figure2_decreasing():
    start = time.perf_counter()
    ok = {
        type(law).__name__: _ordered(_curves(figure_rates(2), law), False)
        for law in LAWS
    }
    elapsed = time.perf_counter() - start
    report(
        "10 (figure 2, decreasing in alpha)",
        all(ok.values()),
        "pointwise on t in (0, 5] for %s" % ", ".join(ok),
        elapsed,
        limit=180.0,
    )


def test_criterion_10_figure1_geometric_increasing():
    start = time.perf_counter()
    ok = _ordered(_curves(figure_rates(1), Geometric(0.5)), True)
    elapsed = time.perf_counter() - start
    report(
        "10 (figure 1, geometric increasing in alpha)",
        ok,
        "pointwise on t in (0, 5]",
        elapsed,
        limit=180.0,
    )


@pytest.mark.xfail(
    strict=True,
    reason="the increasing-in-alpha claim holds only for the geometric law "
    "at these parameters",
)
def test_criterion_10_figure1_other_laws():
    start = time.perf_counter()
    results = {}
    for law in LAWS[1:]:
        curves = _curves(figure_rates(1), law)
        results[type(law).__name__] = (
            _ordered(curves, True),
            curves[0][2],
            curves[2][2],
        )
    elapsed = time.perf_counter() - start
    detail = "; ".join(
        "%s L(1)=%.5f at a=0.3 vs %.5f at a=0.9" % (name, lo, hi)
        for name, (_, lo, hi) in results.items()
    )
    report(
        "10 (figure 1, remaining laws increasing in alpha)",
        all(flag for flag, _, _ in results.values()),
        detail
        + "; every law decreases pointwise, the opposite order, and an"
        " independent Monte Carlo route (exact sampling plus direct tail"
        " averaging, 2e5 draws) matches these values within one sigma",
        elapsed,
    )


def test_criterion_11_determinism(capsys):
    argvs = [
        [
            "simulate", "--model", '{"rates": [[0.5], [0.5, 0.5]]}',
            "--variant", "tempered", "--alpha", "0.6", "--theta", "0.9",
            "--samples", "25", "--seed", "12",
        ],
        [
            "estimate", "--model", '{"rates": [[0.5], [0.5, 0.5]]}',
            "--stat", "pmf", "--box", "3,3", "--samples", "5000",
            "--seed", "12", "--workers", "4",
        ],
        [
            "estimate", "--model", '{"rates": [[0.5], [0.5, 0.5]]}',
            "--stat", "codifference", "--variant", "mgfcp", "--beta", "0.8",
            "--t", "0.7", "--samples", "20000", "--seed", "3", "--i", "0",
            "--l", "1", "--format", "json",
        ],
    ]
    start = time.perf_counter()
    same = True
    for argv in argvs:
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        same = same and capsys.readouterr().out == first
    elapsed = time.perf_counter() - start
    report(
        "11 (determinism)",
        same,
        "simulate and both estimate commands byte-identical on rerun",
        elapsed,
    )
