"""Command-line front end: tables in, CSV or JSON out.

Exit codes: 0 success, 2 validation problem, 3 success with numerical
quality warnings (which are also embedded in the output, never
dropped).  Floats are written with repr() so every value round-trips.
"""

import argparse
import itertools
import json
import math
import os
import sys
import warnings

from . import shock, variants
from .gcp import (
    RateMatrix,
    default_box,
    mgcp_component_variance,
    mgcp_mean,
    preset_rates,
)
from .specfun import NumericsWarning
from .subordinators import stream_rng


def _parse_model(text):
    """RateMatrix from inline JSON or a file path."""
    if text.lstrip().startswith("{"):
        raw = text
    else:
        with open(text, "r", encoding="utf-8") as fh:
            raw = fh.read()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError("model: invalid JSON (%s)" % exc) from exc
    if not isinstance(doc, dict):
        raise ValueError("model: expected an object")
    if "rates" not in doc:
        raise ValueError("model.rates: missing")
    rates = doc["rates"]
    if not isinstance(rates, list) or not all(isinstance(r, list) for r in rates):
        raise ValueError("model.rates: expected a list of rows")
    for i, row in enumerate(rates):
        for j, x in enumerate(row):
            if not isinstance(x, (int, float)) or isinstance(x, bool):
                raise ValueError("model.rates[%d][%d]: not a number" % (i, j))
    try:
        return RateMatrix.from_dict(doc)
    except ValueError as exc:
        raise ValueError("model: %s" % exc) from exc


# --variant name -> (its parameter flags in constructor order, constructor)
_VARIANTS = {
    "mgcp": ((), variants.Mgcp),
    "mgsfcp": (("alpha",), variants.Mgsfcp),
    "mgfcp": (("beta",), variants.Mgfcp),
    "mgstfcp": (("alpha", "beta"), variants.Mgstfcp),
    "tempered": (("alpha", "theta"), variants.Tempered),
    "gamma": (("a", "b"), variants.GammaTC),
    "ig": (("delta", "gamma"), variants.IgTC),
}


def _build_variant(args):
    name = args.variant
    flags, make = _VARIANTS[name]
    try:
        return make(*[_req(args, flag) for flag in flags])
    except ValueError as exc:
        raise ValueError("variant %s: %s" % (name, exc)) from exc


def _req(args, name):
    val = getattr(args, name, None)
    if val is None:
        raise ValueError("--%s is required" % name)
    return val


_THRESHOLD_LAWS = {
    "geometric": (shock.Geometric, 1),
    "logarithmic": (shock.Logarithmic, 1),
    "incgamma": (shock.IncGamma, 2),
    "sineintegral": (shock.SineIntegral, 2),
}


def _parse_threshold(text):
    """name:params, e.g. geometric:0.5, incgamma:0,0.5, custom:1,0.6,0.2."""
    name, sep, rest = text.partition(":")
    if not sep:
        raise ValueError("threshold: expected name:params")
    try:
        params = [float(x) for x in rest.split(",") if x != ""]
    except ValueError as exc:
        raise ValueError("threshold: %s" % exc) from exc
    if name == "custom":
        return shock.CustomThreshold(tuple(params))
    if name not in _THRESHOLD_LAWS:
        raise ValueError("threshold: unknown law %r" % name)
    cls, arity = _THRESHOLD_LAWS[name]
    if len(params) != arity:
        raise ValueError("threshold %s: takes %d parameter(s)" % (name, arity))
    return cls(*params)


def _threshold_echo(d):
    doc = {"law": type(d).__name__.replace("Threshold", "").lower()}
    doc.update({k: getattr(d, k) for k in d.__dataclass_fields__})
    if "q" in doc:
        doc["q"] = list(doc["q"])
    return doc


# The largest --box state count and --tgrid point count, checked before
# anything is built: each state or point is one model evaluation and one
# output row of about 160 bytes, so 10^6 of them stay near 160 MB, while
# rows3's default box at t = 60 holds 35316 states.
_MAX_BOX_STATES = 10**6
_MAX_GRID_POINTS = 10**6


def _parse_grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("tgrid: expected start:stop:step")
    start, stop, step = (float(p) for p in parts)
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise ValueError("tgrid: need finite numbers")
    if step <= 0 or stop < start:
        raise ValueError("tgrid: need stop >= start and step > 0")
    if (stop - start) / step > _MAX_GRID_POINTS:
        raise ValueError("tgrid: more than %d points" % _MAX_GRID_POINTS)
    out = []
    k = 0
    while True:
        t = start + k * step
        if t > stop + 1e-12:
            break
        out.append(round(t, 12))
        k += 1
    return out


def _parse_ints(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ValueError("expected comma-separated integers: %s" % text) from exc


def _parse_floats(text):
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise ValueError("expected comma-separated numbers: %s" % text) from exc


def _fmt(value):
    if isinstance(value, float):
        # repr of a plain float round-trips; numpy scalars repr as
        # np.float64(...) so strip the wrapper first
        return repr(float(value))
    return str(value)


def _open_output(path):
    if path is None:
        return sys.stdout, False
    base = os.environ.get("MGCP_OUTPUT_DIR")
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return open(path, "w", encoding="utf-8"), True


def _emit(args, header, rows, extra, quality):
    out, close = _open_output(args.output)
    try:
        if args.format == "json":
            doc = dict(extra or {})
            doc["command"] = args.command
            doc["rows"] = [
                {h: r[idx] for idx, h in enumerate(header)} for r in rows
            ]
            doc["warnings"] = quality
            json.dump(doc, out, indent=2)
            out.write("\n")
        else:
            out.write(",".join(header) + "\n")
            for r in rows:
                out.write(",".join(_fmt(v) for v in r) + "\n")
            for key, val in (extra or {}).items():
                if key in ("model", "threshold"):
                    val = json.dumps(val)
                out.write("# %s: %s\n" % (key, val))
            for msg in quality:
                out.write("# warning: %s\n" % msg)
    finally:
        if close:
            out.close()


def _box(args, rates, default=None):
    """The --box maxima, else default, else default_box at --t; checked."""
    box = _parse_ints(args.box) if args.box else default or default_box(rates, args.t)
    if len(box) != rates.q:
        raise ValueError("box length must equal the number of components")
    if any(b < 0 for b in box):
        raise ValueError("box entries must be non-negative")
    if math.prod(b + 1 for b in box) > _MAX_BOX_STATES:
        raise ValueError("box spans more than %d states" % _MAX_BOX_STATES)
    return box


def _box_states(box):
    """Every state n with 0 <= n_i <= box[i], the last component fastest."""
    return itertools.product(*(range(b + 1) for b in box))


def _cmd_pmf(args):
    rates = _parse_model(_req(args, "model"))
    v = _build_variant(args)
    box = _box(args, rates)
    header = ["n%d" % (i + 1) for i in range(rates.q)] + ["p"]
    rows = [
        list(n) + [variants.variant_pmf(v, rates, n, args.t)]
        for n in _box_states(box)
    ]
    return header, rows, {"model": rates.to_dict(), "t": args.t}


def _cmd_pgf(args):
    rates = _parse_model(_req(args, "model"))
    v = _build_variant(args)
    u = _parse_floats(_req(args, "u"))
    if len(u) != rates.q:
        raise ValueError("u length must equal the number of components")
    value = variants.variant_pgf(v, rates, u, args.t)
    header = ["u%d" % (i + 1) for i in range(rates.q)] + ["pgf"]
    return header, [list(u) + [value]], {"model": rates.to_dict(), "t": args.t}


def _cmd_levy(args):
    rates = _parse_model(_req(args, "model"))
    v = _build_variant(args)
    box = _box(args, rates, (4,) * rates.q)
    header = ["n%d" % (i + 1) for i in range(rates.q)] + ["mass"]
    rows = []
    for n in _box_states(box):
        if not any(n):
            continue
        mass = variants.variant_levy_measure(v, rates, n)
        if mass != 0.0:
            rows.append(list(n) + [mass])
    extra = {
        "model": rates.to_dict(),
        "holding_rate": variants.holding_rate(v, rates),
    }
    return header, rows, extra


def _cmd_moments(args):
    rates = _parse_model(_req(args, "model"))
    if args.variant == "mgcp":
        header = ["component", "mean", "variance"]
        rows = [
            [i, mgcp_mean(rates, i, args.t), mgcp_component_variance(rates, i, args.t)]
            for i in range(rates.q)
        ]
    else:
        v = _build_variant(args)
        header = ["i", "l", "covariance"]
        rows = [
            [i, l, variants.covariance(v, rates, i, l, args.t)]
            for i in range(rates.q)
            for l in range(rates.q)
        ]
    return header, rows, {"model": rates.to_dict(), "t": args.t}


def _cmd_simulate(args):
    from . import montecarlo

    rates = _parse_model(_req(args, "model"))
    v = _build_variant(args)
    rng = stream_rng(args.seed, 0)
    draws = montecarlo.sample_variant_many(v, rates, args.t, rng, args.samples)
    header = ["draw"] + ["n%d" % (i + 1) for i in range(rates.q)]
    rows = [[idx] + [int(x) for x in row] for idx, row in enumerate(draws)]
    return header, rows, {"model": rates.to_dict(), "t": args.t, "seed": args.seed}


def _cmd_estimate(args):
    from . import montecarlo

    rates = _parse_model(_req(args, "model"))
    v = _build_variant(args)
    if args.stat == "pmf":
        box = _box(args, rates)
        report = montecarlo.estimate_pmf(
            v, rates, args.t, box, args.samples, args.seed, args.workers
        )
    elif args.stat == "covariance":
        report = montecarlo.estimate_covariance(
            v, rates, args.i, args.l, args.t, args.samples, args.seed
        )
    else:
        report = montecarlo.estimate_codifference(
            v, rates, args.i, args.l, args.t, args.samples, args.seed
        )
    header = ["label", "analytic", "estimate", "se", "z"]
    rows = [list(cell) for cell in report.cells]
    extra = report.to_dict()
    del extra["cells"]
    extra["workers"] = args.workers
    extra["model"] = rates.to_dict()
    return header, rows, extra


def _cmd_reliability(args):
    if args.model:
        rates = _parse_model(args.model)
    elif args.case != "general":
        rates = shock.figure_rates(1)
    else:
        raise ValueError("--model is required for the general case")
    threshold = _parse_threshold(_req(args, "threshold"))
    model = shock.ShockModel(rates, _req(args, "alpha"), threshold)
    grid = _parse_grid(_req(args, "tgrid"))
    curve = shock.reliability_curve(model, grid, args.case)
    extra = {
        "model": rates.to_dict(),
        "alpha": args.alpha,
        "threshold": _threshold_echo(threshold),
        "case": args.case,
    }
    return ["t", "L_T"], [[t, val] for t, val in curve], extra


def _cmd_presets(args):
    presets = [
        ("figure1", shock.figure_rates(1)),
        ("figure2", shock.figure_rates(2)),
        ("order2", preset_rates("order_k", 2, (2, 2), (1.0, 1.0))),
        ("polya_aeppli", preset_rates("polya_aeppli", 2, (2, 2), (1.0, 1.0), nu=0.5)),
    ]
    header = ["name", "model"]
    rows = [[name, json.dumps(rates.to_dict())] for name, rates in presets]
    return header, rows, {}


_COMMANDS = {
    "pmf": _cmd_pmf,
    "pgf": _cmd_pgf,
    "levy": _cmd_levy,
    "moments": _cmd_moments,
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "reliability": _cmd_reliability,
    "presets": _cmd_presets,
}


def _add_common(p, t_default=1.0):
    p.add_argument("--model", help="rate matrix as JSON file path or inline JSON")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", help="output path (stdout when absent)")
    p.add_argument("--t", type=float, default=t_default)


def _add_variant_flags(p):
    p.add_argument("--variant", choices=tuple(_VARIANTS), default="mgcp")
    # each parameter flag once, in order of first use
    for flag in dict.fromkeys(f for flags, _ in _VARIANTS.values() for f in flags):
        p.add_argument("--" + flag, type=float)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="mgcp",
        description="Multivariate generalized counting processes: "
        "distributions, simulation and reliability curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pmf", help="pmf table over a state box")
    _add_common(p)
    _add_variant_flags(p)
    p.add_argument("--box", help="per-component maxima, e.g. 8,8")

    p = sub.add_parser("pgf", help="pgf value at a point")
    _add_common(p)
    _add_variant_flags(p)
    p.add_argument("--u", help="pgf argument, e.g. 0.5,0.5")

    p = sub.add_parser("levy", help="Levy measure atoms in a box")
    _add_common(p)
    _add_variant_flags(p)
    p.add_argument("--box", help="per-component maxima for the atoms")

    p = sub.add_parser("moments", help="means and covariances")
    _add_common(p)
    _add_variant_flags(p)

    p = sub.add_parser("simulate", help="raw draws of the variant state")
    _add_common(p)
    _add_variant_flags(p)
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("estimate", help="Monte Carlo vs analytic report")
    _add_common(p)
    _add_variant_flags(p)
    p.add_argument("--stat", choices=("pmf", "covariance", "codifference"),
                   default="pmf")
    p.add_argument("--box", help="pmf comparison box")
    p.add_argument("--samples", type=int, default=10**5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--i", type=int, default=0)
    p.add_argument("--l", type=int, default=0)

    p = sub.add_parser("reliability", help="shock-model survival curve")
    p.add_argument("--model", help="rate matrix (defaults to the Figure-1 "
                   "rates for fig cases)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output")
    p.add_argument("--case", choices=("general", "fig1", "fig2", "fig3", "fig4"),
                   default="general")
    p.add_argument("--alpha", type=float)
    p.add_argument("--threshold", help="law:params, e.g. geometric:0.5")
    p.add_argument("--tgrid", help="start:stop:step")

    p = sub.add_parser("presets", help="built-in rate matrices as JSON")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output")

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            header, rows, extra = _COMMANDS[args.command](args)
        except (ValueError, OSError, RuntimeError) as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        quality = [
            str(w.message) for w in caught
            if issubclass(w.category, NumericsWarning)
        ]
    _emit(args, header, rows, extra, quality)
    return 3 if quality else 0


if __name__ == "__main__":
    sys.exit(main())
