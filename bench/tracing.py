"""Spans and counters around the public functions of each mgcp layer.

The wrappers live here, in the benchmark, and are installed by
replacing module attributes: every mgcp module that bound the original
function (the defining module, the importing modules and the package
namespace) gets the wrapper, so calls across layers are seen wherever
they come from.  `uninstall` puts every original back.

Per-term helpers (`falling_factorial`, `_joint_weight`, `threshold_tail`,
the Levy densities fed to quadrature) stay unwrapped; their time stays in
the caller's self time.  `enumerate_compositions` is a recursive
generator whose work happens while its consumer iterates, so it is left
unwrapped too; `joint_compositions` is wrapped and its joints counted.

This module imports nothing from mgcp, numpy or scipy at import time, so
the traced CLI child can load it before timing `import mgcp`.
"""

import importlib
import itertools
import threading
import warnings
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from types import SimpleNamespace

LAYERS = (
    "specfun",
    "compositions",
    "gcp",
    "variants",
    "bernstein",
    "subordinators",
    "montecarlo",
    "shock",
    "cli",
)

# layer -> public functions wrapped in a span
SPANNED = {
    "specfun": (
        "mittag_leffler",
        "wright_1_1",
        "incomplete_beta",
        "generalized_incomplete_gamma",
        "generalized_sine_integral",
    ),
    "compositions": ("joint_compositions",),
    "gcp": (
        "mgcp_pmf",
        "gcp_pmf",
        "mgcp_pmf_recurrence",
        "mgcp_pgf",
        "pgf_symbol",
        "mgcp_mean",
        "mgcp_component_variance",
        "mgcp_levy_measure",
        "default_box",
        "preset_rates",
    ),
    "variants": (
        "variant_pmf",
        "variant_pmf_wright",
        "variant_pgf",
        "variant_transition_rate",
        "variant_levy_measure",
        "holding_rate",
        "covariance",
        "codifference",
        "clock_spec",
    ),
    "bernstein": (
        "tcgcp_transition_rate",
        "bernstein_f",
        "g_lambda_u",
        "tcgcp_pgf",
        "tcgcp_pgf_fractional",
    ),
    "subordinators": (
        "sample_many",
        "sample",
        "clock_from_uniforms",
        "clock_budget",
        "stream_rng",
        "laplace_exponent",
    ),
    "montecarlo": (
        "estimate_pmf",
        "estimate_covariance",
        "estimate_codifference",
        "sample_variant_many",
        "sample_variant",
        "sample_mgcp_many",
        "sample_mgcp",
    ),
    "shock": (
        "reliability_curve",
        "reliability",
        "failure_density",
        "prob_failure_type",
        "hazard_rate",
        "threshold_pmf",
    ),
    "cli": ("main",),
}

MODULES = ("mgcp",) + tuple("mgcp." + layer for layer in LAYERS)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Spans with parent links plus named counters and timers, in memory.

    A span is (id, parent id or None, layer, function, thread id, start,
    end).  A worker thread has no open span of its own when the thread
    pool hands it a task, so its root spans adopt the innermost open
    span of the installing thread (the estimator that started the pool).
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.timers = defaultdict(float)
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home_stack = None
        self._saved = []

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key, n=1):
        with self._lock:
            self.counts[key] += n

    def add_time(self, key, seconds):
        with self._lock:
            self.timers[key] += seconds

    def spanned(self, layer, name, fn, after=None):
        """fn wrapped in a span; after(args, kwargs, result) feeds counters."""
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                home = tracer._home_stack
                parent = home[-1] if home and home is not stack else None
            sid = next(tracer._ids)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans.append(
                    (sid, parent, layer, name, threading.get_ident(), t0, t1)
                )
            if after is not None:
                result = after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def probed(self, fn, count_key=None, time_key=None):
        """fn counted or timed without a span: its time stays with the caller."""
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                if time_key is not None:
                    tracer.add_time(time_key, perf_counter() - t0)
                if count_key is not None:
                    tracer.add(count_key)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters fed by results ---------------------------------------------

    def _count_joints(self, args, kwargs, result):
        tracer = self

        def counted():
            n = 0
            try:
                for joint in result:
                    n += 1
                    yield joint
            finally:
                tracer.add("compositions.joints", n)

        return counted()

    def _count_clock_window(self, args, kwargs, result):
        u = _arg(args, kwargs, 2, "u")
        self.add("subordinators.draws", int(u.shape[0]))
        self.add("subordinators.window_draws", int(u.shape[0]))
        self.add("subordinators.window_uniforms", int(u.shape[0] * u.shape[1]))
        return result

    def _count_clock_live(self, args, kwargs, result):
        self.add("subordinators.draws", int(_arg(args, kwargs, 3, "size")))
        return result

    def _count_estimate(self, args, kwargs, result):
        if result.kind == "pmf":
            self.add("montecarlo.draws", int(_arg(args, kwargs, 4, "n_samples")))
        if not result.passed:
            self.add("montecarlo.report_fails")
        return result

    def _count_sampled(self, args, kwargs, result):
        self.add("montecarlo.draws", int(result.shape[0]))
        return result

    # -- installation --------------------------------------------------------

    def _replace(self, wrappers):
        """Point every mgcp module attribute bound to an original at its wrapper."""
        for modname in MODULES:
            mod = importlib.import_module(modname)
            for attr, value in list(vars(mod).items()):
                new = wrappers.get(id(value))
                if new is not None and new.__wrapped__ is value:
                    self._swap(mod, attr, new)

    def install(self):
        import mgcp.bernstein
        import mgcp.montecarlo
        import mgcp.specfun

        if self._saved:
            raise RuntimeError("tracer already installed")
        self._home_stack = self._stack()
        hooks = {
            "joint_compositions": self._count_joints,
            "clock_from_uniforms": self._count_clock_window,
            "sample_many": self._count_clock_live,
            "estimate_pmf": self._count_estimate,
            "estimate_covariance": self._count_estimate,
            "estimate_codifference": self._count_estimate,
            "sample_variant_many": self._count_sampled,
        }
        wrappers = {}
        for layer, names in SPANNED.items():
            mod = importlib.import_module("mgcp." + layer)
            for name in names:
                fn = getattr(mod, name)
                wrappers[id(fn)] = self.spanned(layer, name, fn, hooks.get(name))
        self._replace(wrappers)

        # scipy entry points as the layers reach them: counted and timed,
        # their time left in the calling layer's self time
        self._swap(
            mgcp.bernstein,
            "quad",
            self.probed(mgcp.bernstein.quad, count_key="bernstein.quad_calls"),
        )
        stats = mgcp.montecarlo.stats
        self._swap(
            mgcp.montecarlo,
            "stats",
            SimpleNamespace(
                poisson=SimpleNamespace(
                    ppf=self.probed(stats.poisson.ppf, time_key="montecarlo.ppf_s")
                ),
                binom=SimpleNamespace(
                    ppf=self.probed(stats.binom.ppf, time_key="montecarlo.ppf_s")
                ),
            ),
        )
        self._swap(mgcp.specfun, "warnings", _CountingWarnings(self, mgcp.specfun.NumericsWarning))

    def _swap(self, mod, attr, new):
        self._saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, new)

    def uninstall(self):
        while self._saved:
            mod, attr, value = self._saved.pop()
            setattr(mod, attr, value)
        self._home_stack = None

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reduction ------------------------------------------------------------

    def layer_totals(self):
        """{layer: (calls, self seconds)} from the recorded spans.

        Self time is a span's duration minus the part of its interval
        that its child spans cover (a union, so overlapping children on
        pool threads are not subtracted twice).
        """
        children = defaultdict(list)
        for span in self.spans:
            if span[1] is not None:
                children[span[1]].append((span[5], span[6]))
        calls = Counter()
        self_s = defaultdict(float)
        for sid, _, layer, _, _, t0, t1 in self.spans:
            covered = 0.0
            lo = hi = None
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, t0), min(c1, t1)
                if c1 <= c0:
                    continue
                if hi is None or c0 > hi:
                    if hi is not None:
                        covered += hi - lo
                    lo, hi = c0, c1
                else:
                    hi = max(hi, c1)
            if hi is not None:
                covered += hi - lo
            calls[layer] += 1
            self_s[layer] += (t1 - t0) - covered
        return {layer: (calls[layer], self_s[layer]) for layer in LAYERS}

    def name_counts(self):
        return Counter(span[3] for span in self.spans)

    def reset(self):
        self.spans = []
        self.counts = Counter()
        self.timers = defaultdict(float)


class _CountingWarnings:
    """Stands in for the `warnings` module inside specfun to count numerics flags."""

    def __init__(self, tracer, category):
        self._tracer = tracer
        self._category = category

    def warn(self, message, category=None, stacklevel=1, **kwargs):
        if category is not None and issubclass(category, self._category):
            self._tracer.add("specfun.numerics_warnings")
        warnings.warn(message, category, stacklevel=stacklevel + 1, **kwargs)

    def __getattr__(self, name):
        return getattr(warnings, name)
