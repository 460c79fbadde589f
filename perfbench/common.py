"""Workload table, seeded input generation with a digest-checked cache, and
the reference estimator the benchmark checks reports against.

Shared by the driver process (run.py) and the measuring process (worker.py).
Nothing here imports tailasym: inputs are made by the benchmark's own
generators, so a change to the package's samplers cannot change them.
"""

import hashlib
import json
import os

import numpy as np

CACHE_DIR = ".bench_cache"
OUT_DIR = ".bench_out"
GEN_VERSION = 1
SMOKE_SEED = 0
BLAS_PIN = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Each analyze workload names its data generator, its size and the CLI flags
# after the input columns; power_study names its Monte Carlo design.  "smoke"
# is the same workload shrunk so that one pass takes well under a second:
# it runs as the warm-up and golden check of every measured run, and alone
# under --smoke.
WORKLOADS = {
    "analyze_large": {
        "kind": "analyze",
        "data": "kgumbel",
        "full": {"n": 200_000, "args": ["--B", "100"]},
        "smoke": {"n": 3_000, "args": ["--B", "20"]},
    },
    "analyze_dense_grid": {
        "kind": "analyze",
        "data": "normal",
        "full": {
            "n": 20_000,
            "args": [
                "--k-min", "20", "--k-max", "4000", "--k-step", "10", "--B", "100", "--no-eta-gate",
            ],
        },
        "smoke": {
            "n": 2_000,
            "args": [
                "--k-min", "20", "--k-max", "400", "--k-step", "10", "--B", "20", "--no-eta-gate",
            ],
        },
    },
    "estimate_only": {
        "kind": "analyze",
        "data": "kgumbel",
        "full": {"n": 50_000, "args": ["--skip-tests", "--format", "csv"]},
        "smoke": {"n": 5_000, "args": ["--skip-tests", "--format", "csv"]},
    },
    "power_study": {
        "kind": "power",
        "full": {"n": 2_000, "reps": 100, "B": 100},
        "smoke": {"n": 500, "reps": 5, "B": 20},
    },
}

#: Model of the power study and of the kgumbel CSVs: KhoudrajiGumbelCopula(1, 0.5, 2).
KGUMBEL = (1.0, 0.5, 2.0)
ALPHA = 0.05
REJECTION_FRACTION = 0.75


def sha256_bytes(data):
    return hashlib.sha256(data).hexdigest()


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def canonical_digest(obj):
    """SHA-256 of a JSON document with sorted keys and repr floats."""
    return sha256_bytes(json.dumps(obj, sort_keys=True).encode("utf-8"))


# --- input generation ------------------------------------------------------------


def _positive_stable(rng, a, n):
    """Positive stable draws with Laplace transform exp(-t**a) (Kanter's form)."""
    theta = rng.random(n) * np.pi
    e = rng.standard_exponential(n)
    return (
        np.sin(a * theta)
        * (np.sin((1.0 - a) * theta) / e) ** ((1.0 - a) / a)
        / np.sin(theta) ** (1.0 / a)
    )


def _log_mix(log_w, log_u, weight):
    """log of max(W^(1/weight), U^(1/(1-weight))), Khoudraji's coupling."""
    if weight == 1.0:
        return log_w
    if weight == 0.0:
        return log_u
    return np.maximum(log_w / weight, log_u / (1.0 - weight))


def kgumbel_pairs(rng, n, alpha, beta, delta):
    """Khoudraji-Gumbel pairs on the log-uniform scale.

    The analysis only sees ranks, so the logs of the copula draws carry the
    same information as the draws; unlike the draws they cannot round to 1.0
    and tie in the far upper tail.
    """
    a = 1.0 / delta
    s = _positive_stable(rng, a, n)
    log_w1 = -((rng.standard_exponential(n) / s) ** a)
    log_w2 = -((rng.standard_exponential(n) / s) ** a)
    log_u1 = np.log1p(-rng.random(n))
    log_u2 = np.log1p(-rng.random(n))
    return _log_mix(log_w1, log_u1, alpha), _log_mix(log_w2, log_u2, beta)


def normal_pairs(rng, n):
    return rng.standard_normal(n), rng.standard_normal(n)


def _usable(x, y):
    return all(np.all(np.isfinite(v)) and np.unique(v).size == v.size for v in (x, y))


def generate_pairs(kind, n, seed):
    """Tie-free finite pairs drawn from the seed; deterministic in (kind, n, seed).

    A draw that happens to contain a tie or a non-finite value is replaced by
    the next attempt's, so every seed yields an input that analyze accepts.
    """
    for attempt in range(100):
        rng = np.random.default_rng([seed, attempt])
        if kind == "kgumbel":
            x, y = kgumbel_pairs(rng, n, *KGUMBEL)
        elif kind == "normal":
            x, y = normal_pairs(rng, n)
        else:
            raise ValueError(f"unknown data kind {kind!r}")
        if _usable(x, y):
            return x, y
    raise RuntimeError(f"no tie-free draw for seed {seed}")


def csv_bytes(x, y):
    lines = ["t,x,y"]
    lines.extend(
        f"{t},{xv!r},{yv!r}" for t, (xv, yv) in enumerate(zip(x.tolist(), y.tolist()), 1)
    )
    return ("\n".join(lines) + "\n").encode("utf-8")


def cached_csv(workload, size, seed, x, y):
    """Relative path of the workload's CSV, written once and digest-checked on reuse.

    The path is relative to the checkout root and depends only on the
    workload, size and seed, because reports echo it.
    """
    name = f"{workload}-{size}-g{GEN_VERSION}-s{seed}.csv"
    path = os.path.join(CACHE_DIR, name)
    digest_path = path + ".sha256"
    if os.path.exists(path) and os.path.exists(digest_path):
        with open(digest_path, encoding="ascii") as fh:
            if fh.read().strip() == sha256_file(path):
                return path
    os.makedirs(CACHE_DIR, exist_ok=True)
    data = csv_bytes(x, y)
    for target, payload in ((path, data), (digest_path, sha256_bytes(data).encode("ascii"))):
        tmp = target + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, target)
    return path


def study_seeds(seed, reps):
    """Per-replication seeds of the power study, derived from the run seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(reps)]


# --- reference estimator -----------------------------------------------------------


def reference_etas(x, y, ks):
    """eta_kn(x | y) over ks from its definition, in exact integer arithmetic.

    S(k) sums (k + 1 - max(r_i, r_j))_+ over pairs of the first k - 1
    concomitants, r being reverse ranks of x taken in decreasing y order; only
    ranks r <= k contribute, and with those sorted the a-th one adds
    (2a - 1)(k + 1 - r).  eta = 3 S(k) / k^3.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.size
    xs = x[np.argsort(-y, kind="stable")]
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(xs, kind="stable")] = np.arange(n, 0, -1, dtype=np.int64)
    out = []
    for k in ks:
        k = int(k)
        top = rank[: k - 1]
        kept = np.sort(top[top <= k])
        a = np.arange(1, kept.size + 1, dtype=np.int64)
        s = int(np.dot(2 * a - 1, (k + 1) - kept))  # < k^3, exact in int64 here
        out.append(3 * s / k**3)
    return out


def reference_table(x, y, ks):
    """Plain (k, eta_xy, eta_yx, delta) columns as analyze reports them."""
    exy = reference_etas(x, y, ks)
    eyx = reference_etas(y, x, ks)
    return {
        "k": [int(k) for k in ks],
        "eta_xy": exy,
        "eta_yx": eyx,
        "delta": [a - b for a, b in zip(exy, eyx)],
    }


def default_kgrid(n):
    """analyze's default grid: 100..500 step 10 from n = 2500, else up to 20 points in [5%, 20%] of n."""
    if n >= 2500:
        return list(range(100, 501, 10))
    lo, hi = max(2, -(-n // 20)), n // 5
    if hi - lo + 1 <= 20:
        return list(range(lo, hi + 1))
    return [int(g) for g in np.unique(np.round(np.linspace(lo, hi, 20)).astype(np.int64))]


def kgrid_from_args(n, args):
    if "--k-min" in args:
        k_min, k_max, k_step = (int(args[args.index(f) + 1]) for f in ("--k-min", "--k-max", "--k-step"))
        return list(range(k_min, k_max + 1, k_step))
    return [k for k in default_kgrid(n) if k <= n - 1]
