"""Measuring process: runs one workload's passes in-process and writes a JSON result.

Started by run.py with the BLAS thread pins already in its environment and a
JSON spec as its only argument; imports tailasym from the checkout's `src`.
It times passes and checks what only it can see (power-study statistics
against the reference estimator); golden digests are compared by run.py.
"""

import contextlib
import json
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import common  # noqa: E402
import tracing  # noqa: E402


def _import_package(root):
    sys.path.insert(0, os.path.join(root, "src"))
    from tailasym import bootstrap, cli, copulas, pipeline  # noqa: F401

    return {"cli": cli, "pipeline": pipeline, "bootstrap": bootstrap, "copulas": copulas}


def environment():
    import numpy
    import scipy

    try:
        from tailasym._kernels import backend_name

        backend = backend_name()
    except ImportError:  # the dispatch module is gone: a single backend remains
        backend = "unknown"
    return {
        "kernel_backend": backend,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v) for v in common.BLAS_PIN},
    }


class Pass:
    """One timed pass: its time and per-operation latencies, failures, output digest.

    `spans` holds the pass's (start, end) and then each operation's, as
    time.perf_counter readings; `settle` turns them into times once the
    probe that ends the pass has run.
    """

    def __init__(self, traced):
        self.traced = traced
        self.spans = []
        self.wall_s = self.raw_s = 0.0
        self.op_ms = []
        self.failed = 0
        self.errors = []
        self.digest = None
        self.layers = None

    def settle(self, clock):
        """wall_s and op_ms at the reference speed, raw_s as measured (probes left out)."""
        (self.raw_s, self.wall_s), *ops = [clock.seconds(a, b) for a, b in self.spans]
        self.op_ms = [scaled * 1e3 for _, scaled in ops]

    def as_dict(self):
        return {
            "traced": self.traced,
            "wall_s": self.wall_s,
            "raw_s": self.raw_s,
            "op_ms": self.op_ms,
            "failed": self.failed,
            "errors": self.errors[:5],
            "digest": self.digest,
            "layers": self.layers,
        }


def analyze_pass(mods, workload, job, tracer, clock):
    cfg = common.WORKLOADS[workload][job["size"]]
    out = job["report"]
    if os.path.exists(out):
        os.remove(out)
    argv = [
        "analyze", job["input"], "--x-col", "x", "--y-col", "y", "--key-col", "t",
        *cfg["args"], "--seed", str(job["seed"]), "--out", out,
    ]
    cli = mods["cli"]
    p = Pass(tracer is not None)
    clock.probe()
    t0 = time.perf_counter()
    try:
        code = tracer.call("cli.main", cli.main, argv) if tracer else cli.main(argv)
    except Exception as exc:  # a raising operation is counted, not fatal
        code = f"raised {exc!r}"
    t1 = time.perf_counter()
    clock.probe()
    p.spans = [(t0, t1), (t0, t1)]  # the pass and its one operation
    p.settle(clock)
    if code == 0 and os.path.exists(out):
        p.digest = common.sha256_file(out)
    else:
        p.failed = 1
        p.errors.append(f"analyze returned {code}")
    return p


def power_pass(mods, workload, job, tracer, clock):
    cfg = common.WORKLOADS[workload][job["size"]]
    copulas, pipeline, bootstrap = mods["copulas"], mods["pipeline"], mods["bootstrap"]
    n, B = cfg["n"], cfg["B"]
    model = copulas.KhoudrajiGumbelCopula(*common.KGUMBEL)
    seeds = common.study_seeds(job["seed"], cfg["reps"])
    p = Pass(tracer is not None)
    kept = []
    ops = []
    clock.probe()
    t0 = time.perf_counter()
    try:
        pv = copulas.population_values(model)
        population = [pv.eta_xy, pv.eta_yx, pv.delta]
    except Exception as exc:
        population = None
        p.errors.append(f"population_values raised {exc!r}")
    for seed in seeds:
        r0 = time.perf_counter()
        try:
            sample = copulas.sample(model, n, seed)
            kgrid = pipeline.default_kgrid(n)
            results = bootstrap.test_delta_zero(sample, kgrid, B=B, alpha=common.ALPHA, seed=seed)
            verdict = bootstrap.summarize_rejection(results, common.REJECTION_FRACTION)
            kept.append((sample, results, verdict))
        except Exception as exc:
            kept.append(None)
            p.errors.append(f"replication {seed} raised {exc!r}")
        ops.append((r0, time.perf_counter()))
    t1 = time.perf_counter()
    clock.probe()
    p.spans = [(t0, t1), *ops]
    p.settle(clock)

    # Checks, outside the timed interval.
    expected_grid = common.default_kgrid(n)
    p_values = []
    rejections = 0
    for rep in kept:
        if rep is None:
            p.failed += 1
            continue
        sample, results, verdict = rep
        problem = _check_replication(sample, results, verdict, expected_grid, B)
        if problem:
            p.failed += 1
            p.errors.append(problem)
        p_values.append([r.p_value for r in results])
        rejections += bool(verdict.reject)
    if population is None:
        p.failed = len(seeds)
    else:
        p.digest = common.canonical_digest(
            {"population": population, "p_values": p_values, "rejections": rejections}
        )
    return p


def _check_replication(sample, results, verdict, grid, B):
    ks = [r.k for r in results]
    if ks != grid:
        return f"grid {ks[:3]}... differs from the default grid"
    ref = common.reference_table(sample.x, sample.y, ks)["delta"]
    if [r.statistic for r in results] != ref:
        return "delta statistic differs from the reference estimator"
    for r in results:
        if not (0.0 <= r.p_value <= 1.0) or abs(r.p_value * B - round(r.p_value * B)) > 1e-6:
            return f"p-value {r.p_value!r} is not a multiple of 1/B in [0, 1]"
    frac = sum(r.p_value < r.alpha for r in results) / len(results)
    if verdict.fraction_below_alpha != frac or verdict.reject != (frac >= common.REJECTION_FRACTION):
        return "verdict disagrees with the p-values"
    return None


PASSES = {"analyze": analyze_pass, "power": power_pass}


@contextlib.contextmanager
def sliced(clock):
    """Lets the clock probe between kernel calls, so that no stretch of timed
    work much longer than calibrate.SLICE_S goes unprobed.

    The kernels are wrapped at the `_kernels` module attributes, the names
    bootstrap and estimators call them by.  If they are gone, passes are
    probed only at their ends.
    """
    try:
        from tailasym import _kernels
    except ImportError:
        _kernels = None
    saved = {n: getattr(_kernels, n) for n in ("eta_grid_sums", "weighted_eta_grid_sums") if hasattr(_kernels, n)}

    def probed(fn):
        def call(*args, **kwargs):
            clock.maybe_probe()
            return fn(*args, **kwargs)

        return call

    for name, fn in saved.items():
        setattr(_kernels, name, probed(fn))
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(_kernels, name, fn)


def run_pass(mods, workload, job, traced, clock):
    """One pass.  Untraced passes are probed between kernel calls; traced
    passes only at their ends, so no probe falls inside a traced span."""
    run = PASSES[common.WORKLOADS[workload]["kind"]]
    if not traced:
        with sliced(clock):
            return run(mods, workload, job, None, clock)
    tracer = tracing.Tracer()
    with tracing.Installed(tracer) as installed:
        p = run(mods, workload, job, tracer, clock)
    p.layers = tracing.layer_metrics(tracer, installed.present)
    return p


def kernel_parity(mods, workload, job):
    """Compare the numpy and compiled kernels on arguments captured from a smoke pass.

    Returns None when the compiled extension does not import (nothing to
    compare), otherwise a list of disagreements.
    """
    try:
        from tailasym import _kernels_py, _speedups
    except ImportError:
        return None
    from tailasym import _kernels

    captured = {"eta_grid_sums": [], "weighted_eta_grid_sums": []}
    saved = {name: getattr(_kernels, name) for name in captured}

    def capture(name):
        def wrapped(*args):
            if len(captured[name]) < 4:
                captured[name].append(args)
            return saved[name](*args)

        return wrapped

    try:
        for name in captured:
            setattr(_kernels, name, capture(name))
        run_pass(mods, workload, job, False, calibrate.Clock())
    finally:
        for name, fn in saved.items():
            setattr(_kernels, name, fn)
    import numpy as np

    problems = []
    for args in captured["eta_grid_sums"]:
        if not np.array_equal(_kernels_py.eta_grid_sums(*args), _speedups.eta_grid_sums(*args)):
            problems.append("integer kernels disagree")
    for args in captured["weighted_eta_grid_sums"]:
        a = _kernels_py.weighted_eta_grid_sums(*args)
        b = _speedups.weighted_eta_grid_sums(*args)
        if float(np.max(np.abs(a - b) / np.maximum(np.abs(a), 1e-300))) >= 1e-12:
            problems.append("weighted kernels disagree")
    return problems


def main():
    spec = json.loads(sys.argv[1])
    mods = _import_package(spec["root"])
    result = {"env": environment()}

    workload = spec["workload"]
    # The warm-up pass at smoke size on a fixed seed fills caches and is golden-checked.
    clock = calibrate.Clock()
    result["warmup"] = run_pass(mods, workload, spec["warmup"], False, clock).as_dict()
    result["parity"] = kernel_parity(mods, workload, spec["warmup"])

    # Passes run until the next one would overrun the budget; a traced run
    # alternates untraced and traced passes so both see the same conditions.
    plan = [False, True] if spec["trace"] else [False]
    passes = []
    start = time.perf_counter()
    while True:
        for traced in plan:
            passes.append(run_pass(mods, workload, spec["measured"], traced, clock))
        elapsed = time.perf_counter() - start
        per_round = elapsed / (len(passes) / len(plan))
        if spec["once"] or elapsed + per_round > spec["seconds"]:
            break
    result["passes"] = [p.as_dict() for p in passes]
    result["probes_s"] = [e - s for s, e in clock.probes]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
