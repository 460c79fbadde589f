"""Record golden output digests into perfbench/golden.json.

    python3 perfbench/record_golden.py --seeds 0-12 [--workloads analyze_large,...]

For each workload this runs one pass per seed at full size (plus the
warm-up pass at smoke size) and stores the SHA-256 of the rendered report
or, for power_study, of the per-replication p-values and rejection count.
A pass is recorded only if it passes every other check (reference
estimator, p-value structure), so run this only on a commit whose reports
are the accepted ones: later commits are judged against what it writes.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402
import run  # noqa: E402


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-12")
    ap.add_argument("--workloads", default=",".join(common.WORKLOADS))
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "tailasym", "__init__.py")):
        sys.exit("run from the root of a tailasym checkout")

    digests = run.load_golden()
    for workload in args.workloads.split(","):
        entry = digests.setdefault(workload, {"smoke": {}, "full": {}})
        for seed in parse_seeds(args.seeds):
            spec, arrays, result = run.run_worker(workload, seed, 0, 0, False, timeout=900)
            passes = [result["warmup"], *result["passes"]]
            problems = [e for p in passes for e in p["errors"]]
            problems += [f"{p['failed']} failed operations" for p in passes if p["failed"]]
            for role in ("warmup", "measured"):
                problems += run.check_reference(workload, spec[role], arrays[role])
            if problems:
                sys.exit(f"{workload} seed {seed}: not recording, {problems}")
            smoke = entry["smoke"].setdefault(str(common.SMOKE_SEED), result["warmup"]["digest"])
            if smoke != result["warmup"]["digest"]:
                sys.exit(f"{workload}: warm-up digest changed between runs")
            entry["full"][str(seed)] = result["passes"][0]["digest"]
            print(f"{workload} seed {seed}: {entry['full'][str(seed)]}", flush=True)
        write(digests)


def write(digests):
    with open(run.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
