"""End-to-end and per-layer benchmark of tailasym.

Run from the root of a checkout:

    python3 perfbench/run.py --workload analyze_large --seed 1 --seconds 15 --trace 0

Inputs are drawn from --seed before anything is timed and cached under
.bench_cache/.  One worker process (perfbench/worker.py) runs the workload in
closed loop, one caller, BLAS pinned to one thread, until the next pass would
overrun --seconds.  Gated times are scaled to a reference machine speed
by a fixed probe run between short slices of the work (calibrate.py), so
that the host's drifting speed does not read as a change in the program.
Every output is checked: reports against the benchmark's
own reference estimator, each pass against the others, and against the
golden digests in perfbench/golden.json recorded from the unmodified
package.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 gives the end-to-end metrics, --trace 1 the per-layer metrics of
traced passes (spans recorded around calls into each module) plus the
tracing overhead.  --smoke runs one pass of the workload at its tiny size.
"""

import argparse
import csv
import io
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import common  # noqa: E402
import tracing  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rep_p50_ms": "ms",
    "rep_p90_ms": "ms",
}
# Printed and recorded, not in the result line: the unscaled times, and the
# median probe behind the scaling.
REPORTED_ONLY = {"raw_wall_s": "s", "raw_setup_s": "s", "probe_s": "s"}
# Blocks of fixed work per speed probe around an import, whose run cannot be sliced.
IMPORT_PROBE_BLOCKS = 3
PER_LAYER = {
    **{m: "s" for m in tracing.SELF_TIME},
    **{m: "count" for m in tracing.COUNT_METRICS},
    "trace.overhead_s": "s",
}
# Import probes run before and after the worker, so their median spans the run.
SETUP_SAMPLES_BEFORE = 3
SETUP_SAMPLES_AFTER = 4
# The worker must end by then, leaving time for the later import probes and checks.
WORKER_DEADLINE_S = 160.0
GOLDEN_PATH = os.path.join(HERE, "golden.json")

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, 'src'); t0 = time.perf_counter(); "
    "import tailasym; print(time.perf_counter() - t0)"
)


def pinned_env():
    env = dict(os.environ)
    env.update({v: "1" for v in common.BLAS_PIN})
    env.pop("PYTHONPATH", None)
    return env


def import_seconds(samples):
    """(seconds, probe seconds) of importing tailasym (numpy and scipy included)
    in a fresh process, the probe being the mean of the machine-speed probes
    run just before and just after the import."""
    times = []
    before = calibrate.probe(IMPORT_PROBE_BLOCKS)
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE], env=pinned_env(), capture_output=True,
            text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"importing tailasym failed:\n{proc.stderr}")
        after = calibrate.probe(IMPORT_PROBE_BLOCKS)
        times.append((float(proc.stdout.strip().splitlines()[-1]), (before + after) / 2))
        before = after
    return times


def make_job(workload, size, seed):
    """Inputs of one job (generated now, outside any timed region) and where its report goes."""
    cfg = common.WORKLOADS[workload]
    job = {"size": size, "seed": seed}
    arrays = None
    if cfg["kind"] == "analyze":
        n = cfg[size]["n"]
        x, y = common.generate_pairs(cfg["data"], n, seed)
        arrays = (x, y)
        job["input"] = common.cached_csv(workload, size, seed, x, y)
        fmt = "csv" if "csv" in cfg[size]["args"] else "json"
        job["report"] = os.path.join(common.OUT_DIR, f"{workload}-{size}-s{seed}-report.{fmt}")
    return job, arrays


def run_worker(workload, seed, seconds, trace, smoke, timeout):
    """Generate inputs, run the worker, and return (spec, arrays per job, worker result)."""
    warm, warm_arrays = make_job(workload, "smoke", common.SMOKE_SEED)
    measured, measured_arrays = make_job(workload, "smoke" if smoke else "full", seed)
    os.makedirs(common.OUT_DIR, exist_ok=True)
    result_path = os.path.join(common.OUT_DIR, f"{workload}-worker.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    spec = {
        "root": os.getcwd(),
        "workload": workload,
        "trace": bool(trace),
        "seconds": float(seconds),
        "once": bool(smoke),
        "warmup": warm,
        "measured": measured,
        "result": result_path,
    }
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
        env=pinned_env(), stdout=sys.stderr.fileno(), timeout=timeout,
    )
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    return spec, {"warmup": warm_arrays, "measured": measured_arrays}, result


# --- checks --------------------------------------------------------------------------


def load_golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _near_multiple(p, B):
    return 0.0 <= p <= 1.0 and abs(p * B - round(p * B)) < 1e-6


def check_report(workload, job, arrays):
    """Problems found in an analyze report against the reference estimator."""
    cfg = common.WORKLOADS[workload][job["size"]]
    x, y = arrays
    grid = common.kgrid_from_args(x.size, cfg["args"])
    expected = common.reference_table(x, y, grid)
    with open(job["report"], encoding="utf-8") as fh:
        text = fh.read()
    problems = []
    if job["report"].endswith(".csv"):
        rows = list(csv.DictReader(io.StringIO(text)))
        got = {c: [row[c] for row in rows] for c in expected}
        want = {c: [f"{v:.12g}" if c != "k" else str(v) for v in expected[c]] for c in expected}
    else:
        per_k = json.loads(text)["per_k"]
        got = {c: per_k[c] for c in expected}
        want = {c: [float(f"{v:.12g}") if c != "k" else v for v in expected[c]] for c in expected}
        B = int(cfg["args"][cfg["args"].index("--B") + 1])
        for c in ("p_eta_xy", "p_eta_yx", "p_delta"):
            if any(p is not None and not _near_multiple(p, B) for p in per_k[c]):
                problems.append(f"{c} holds a value that is not a multiple of 1/B in [0, 1]")
    for c in expected:
        if got[c] != want[c]:
            problems.append(f"report column {c} differs from the reference estimator")
    return problems


def tally(workload, spec, arrays, result, golden):
    """(attempted, failed, problems) over every operation the worker ran."""
    attempted = failed = 0
    problems = []
    known = golden.get(workload, {})

    def account(pass_, expected_digest, reference):
        nonlocal attempted, failed
        ops = len(pass_["op_ms"])
        attempted += ops
        bad = pass_["failed"]
        problems.extend(pass_["errors"])
        wrong = None
        if expected_digest is None:
            wrong = "no golden digest recorded for this pass"
        elif pass_["digest"] is not None and pass_["digest"] != expected_digest:
            wrong = "output digest differs from the expected digest"
        elif reference:
            wrong = reference[0]
        if wrong:
            problems.append(wrong)
            bad = ops
        failed += bad

    warm = spec["warmup"]
    warm_golden = known.get("smoke", {}).get(str(warm["seed"]))
    account(result["warmup"], warm_golden, check_reference(workload, warm, arrays["warmup"]))

    measured = spec["measured"]
    # Without a recorded digest for this seed, every pass must match the first.
    first = result["passes"][0]["digest"]
    expected = known.get(measured["size"], {}).get(str(measured["seed"]), first) or ""
    reference = check_reference(workload, measured, arrays["measured"])
    for p in result["passes"]:
        account(p, expected, reference)

    if result["parity"] is not None:
        attempted += 1
        if result["parity"]:
            failed += 1
            problems.extend(result["parity"])
    return attempted, failed, problems


def check_reference(workload, job, arrays):
    """Problems in the job's analyze report; none to find for power_study."""
    if arrays is None or not os.path.exists(job.get("report", "")):
        return []
    return check_report(workload, job, arrays)


# --- metrics -------------------------------------------------------------------------


def p90(values):
    """90th percentile once at least ten samples lie beyond it, else the median.

    Only power_study has that many operations (100 replications per pass);
    an analyze pass is one operation, and a tail estimate from a handful of
    them would be noise, so there the median stands in.
    """
    if len(values) < 100:
        return statistics.median(values)
    return statistics.quantiles(values, n=10)[8]


def end_to_end(result, imports):
    """Gated metrics; the worker has already scaled pass and operation times."""
    passes = [p for p in result["passes"] if not p["traced"]]
    ops = [ms for p in passes for ms in p["op_ms"]]
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(t * calibrate.REFERENCE_S / probe for t, probe in imports),
        "peak_rss_mb": result["peak_rss_mb"],
        "rep_p50_ms": statistics.median(ops),
        "rep_p90_ms": p90(ops),
    }


def reported_only(result, imports):
    """Figures printed and recorded but not gated: the unscaled times and the median probe."""
    passes = [p for p in result["passes"] if not p["traced"]]
    return {
        "raw_wall_s": statistics.median(p["raw_s"] for p in passes),
        "raw_setup_s": statistics.median(t for t, _ in imports),
        "probe_s": statistics.median(result["probes_s"]),
    }


def per_layer(result):
    traced = [p for p in result["passes"] if p["traced"]]
    plain = [p for p in result["passes"] if not p["traced"]]
    out = {}
    for name in PER_LAYER:
        values = [p["layers"][name] for p in traced if name in p["layers"]]
        if values:
            out[name] = statistics.median(values)
    # Unscaled: traced passes are probed only at their ends (see worker.run_pass).
    out["trace.overhead_s"] = statistics.median(p["raw_s"] for p in traced) - statistics.median(
        p["raw_s"] for p in plain
    )
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(common.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one pass at the tiny size")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "tailasym", "__init__.py")):
        print("error: run from the root of a tailasym checkout (no src/tailasym here)", file=sys.stderr)
        return 2
    started = time.monotonic()
    imports = import_seconds(SETUP_SAMPLES_BEFORE)
    spec, arrays, result = run_worker(
        args.workload, args.seed, args.seconds, args.trace, args.smoke,
        timeout=WORKER_DEADLINE_S - (time.monotonic() - started),
    )
    imports += import_seconds(SETUP_SAMPLES_AFTER)
    attempted, failed, problems = tally(args.workload, spec, arrays, result, load_golden())
    values = per_layer(result) if args.trace else end_to_end(result, imports)
    units = PER_LAYER if args.trace else END_TO_END
    missing = sorted(set(units) - set(values))
    extra = {} if args.trace else reported_only(result, imports)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": result["env"],
        "pass_wall_s": [p["wall_s"] for p in result["passes"]],
        "pass_raw_s": [p["raw_s"] for p in result["passes"]],
        "failed_frac": failed / attempted,
        "metrics": {**values, **extra},
        "absent": missing,
        "problems": problems,
    }
    with open(os.path.join(common.OUT_DIR, f"{args.workload}-s{args.seed}-t{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=2)

    print("env " + " ".join(f"{k}={v}" for k, v in result["env"].items()))
    print(f"{args.workload} seed={args.seed} passes={len(result['passes'])} attempted={attempted}"
          f" failed={failed} failed_frac={failed / attempted:g}")
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for name, value in extra.items():
        print(f"  {name} = {value:.6g} {REPORTED_ONLY[name]} (not in the result line)")
    for name in missing:
        print(f"  {name} absent: the code it wraps is gone", file=sys.stderr)
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
