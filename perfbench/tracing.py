"""Spans recorded from outside the package, around calls into its modules.

Each public function is wrapped at the name its caller looks it up by (cli
imports load_csv by name, bootstrap reaches the kernels through the
`_kernels` module), so the package's own files stay untouched.  Spans are
kept in memory; a span's self time is its duration minus the durations of
the spans it directly encloses.
"""

import collections
import importlib
import time

# (module the caller looks the name up in, attribute, span name).
TARGETS = [
    ("tailasym.cli", "load_csv", "pipeline.load_csv"),
    ("tailasym.cli", "run_pair_analysis", "pipeline.run_pair_analysis"),
    ("tailasym.cli", "emit_report", "pipeline.emit_report"),
    ("tailasym.pipeline", "render_report", "pipeline.render_report"),
    ("tailasym.pipeline", "make_sample", "ranks.make_sample"),
    ("tailasym.copulas", "make_sample", "ranks.make_sample"),
    ("tailasym.estimators", "concomitant_ranks", "ranks.concomitant_ranks"),
    ("tailasym.pipeline", "delta_sweep", "estimators.delta_sweep"),
    ("tailasym.estimators", "eta_sweep", "estimators.eta_sweep"),
    ("tailasym.bootstrap", "eta_sweep", "estimators.eta_sweep"),
    ("tailasym.pipeline", "test_eta_zero", "bootstrap.test_eta_zero"),
    ("tailasym.pipeline", "test_delta_zero", "bootstrap.test_delta_zero"),
    ("tailasym.pipeline", "summarize_rejection", "bootstrap.summarize_rejection"),
    ("tailasym.bootstrap", "test_delta_zero", "bootstrap.test_delta_zero"),
    ("tailasym.bootstrap", "summarize_rejection", "bootstrap.summarize_rejection"),
    ("tailasym._kernels", "eta_grid_sums", "kernels.eta_grid_sums"),
    ("tailasym._kernels", "weighted_eta_grid_sums", "kernels.weighted_eta_grid_sums"),
    ("tailasym.copulas", "sample", "copulas.sample"),
    ("tailasym.copulas", "population_values", "copulas.population_values"),
]

# Per-layer time metrics: the summed self time of the listed spans.
# The `_kernels` module's metrics are named kernels.* because metric names
# must start with a letter.
SELF_TIME = {
    "cli.self_s": ("cli.main",),
    "pipeline.load_csv_s": ("pipeline.load_csv",),
    "pipeline.render_s": ("pipeline.render_report",),
    "pipeline.self_s": ("pipeline.run_pair_analysis", "pipeline.emit_report"),
    "ranks.make_sample_s": ("ranks.make_sample",),
    "ranks.concomitant_ranks_s": ("ranks.concomitant_ranks",),
    "estimators.self_s": ("estimators.delta_sweep", "estimators.eta_sweep"),
    "bootstrap.self_s": (
        "bootstrap.test_eta_zero",
        "bootstrap.test_delta_zero",
        "bootstrap.summarize_rejection",
    ),
    "kernels.weighted_s": ("kernels.weighted_eta_grid_sums",),
    "kernels.int_s": ("kernels.eta_grid_sums",),
    "copulas.sample_s": ("copulas.sample",),
    "copulas.population_values_s": ("copulas.population_values",),
}

# Per-layer counts: span name -> {metric: count taken from the call's positional arguments}.
COUNTS = {
    "bootstrap.test_eta_zero": {"bootstrap.test_calls": lambda a: 1},
    "bootstrap.test_delta_zero": {"bootstrap.test_calls": lambda a: 1},
    "kernels.weighted_eta_grid_sums": {
        "kernels.weighted_calls": lambda a: 1,
        "kernels.weighted_grid_points": lambda a: len(a[4]),
        "kernels.weighted_input_elems": lambda a: len(a[0]),
    },
    "kernels.eta_grid_sums": {
        "kernels.int_calls": lambda a: 1,
        "kernels.int_grid_points": lambda a: len(a[1]),
    },
}

COUNT_METRICS = sorted({m for per in COUNTS.values() for m in per})


class Tracer:
    """Records nested spans and argument-derived counts for one traced pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self._open = []
        self.counts = collections.Counter()
        self.uncountable = set()

    def call(self, name, fn, *args, **kwargs):
        for metric, count in COUNTS.get(name, {}).items():
            try:
                self.counts[metric] += count(args)
            except (IndexError, TypeError):  # the callee's signature changed
                self.uncountable.add(metric)
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent])
        self._open.append(index)
        self.spans[index][1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def self_times(self):
        """Self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = collections.Counter()
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name] += (end - start) - inner
        return out


class Installed:
    """Context manager that wraps every reachable target and restores it on exit.

    A target whose module or attribute no longer exists is skipped; the
    metrics that only it feeds are then reported absent.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.saved = []
        self.present = set()

    def __enter__(self):
        for module_name, attr, span in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                continue
            self.saved.append((module, attr, original))
            self.present.add(span)
            setattr(module, attr, _wrapper(self.tracer, span, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self.saved):
            setattr(module, attr, original)
        self.saved.clear()
        return False


def _wrapper(tracer, span, fn):
    def traced(*args, **kwargs):
        return tracer.call(span, fn, *args, **kwargs)

    traced.__wrapped__ = fn
    return traced


def layer_metrics(tracer, present):
    """Per-layer metrics of one traced pass; metrics with no installed span are left out."""
    selfs = tracer.self_times()
    out = {}
    for metric, spans in SELF_TIME.items():
        if any(s in present or s == "cli.main" for s in spans):
            out[metric] = sum(selfs.get(s, 0.0) for s in spans)
    for span, per in COUNTS.items():
        if span in present:
            for metric in per:
                if metric not in tracer.uncountable:
                    out[metric] = tracer.counts.get(metric, 0)
    return out
