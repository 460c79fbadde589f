"""Timing comparison of the compiled and numpy kernel backends.

Usage:
    python3 benchmarks/bench_kernels.py [--sizes 1000,10000,100000] [--repeats 5]

For each sample size this times the integer rank-scan kernel (the plain
estimator sweep) and the weighted scan kernel (one bootstrap replicate, fed
the same tail-truncated inputs the bootstrap engine prepares) on a grid of
~40 tail sizes, reports the best of --repeats runs per backend, and checks
that both backends agree on the outputs they produce.  Run it from the
repository root with the package importable, e.g. PYTHONPATH=src.
"""

import argparse
import time

import numpy as np

from tailasym import _kernels_py
from tailasym.bootstrap import _normalized_weights, _replicate_inputs
from tailasym.ranks import concomitant_ranks, make_sample

try:
    from tailasym import _speedups
except ImportError:
    _speedups = None


def _grid(n):
    lo, hi = max(2, n // 100), max(4, n // 5)
    ks = np.unique(np.linspace(lo, hi, 40).astype(np.int64))
    return ks


def _best_of(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def bench_one(n, repeats, rng):
    s = make_sample(rng.standard_normal(n), rng.standard_normal(n))
    ks = _grid(n)

    ranks = concomitant_ranks(s)
    pos = ranks.pos
    wo = _normalized_weights(rng.standard_exponential(n), n)
    rx_s, ypos_s, w_s, taus = _replicate_inputs(ranks, wo, ks.astype(np.float64))

    rows = []
    backends = [("numpy", _kernels_py)]
    if _speedups is not None:
        backends.append(("compiled", _speedups))

    outs = {}
    for name, mod in backends:
        t_int, out_int = _best_of(lambda m=mod: m.eta_grid_sums(pos, ks), repeats)
        t_w, out_w = _best_of(
            lambda m=mod: m.weighted_eta_grid_sums(rx_s, ypos_s, w_s, taus, ks),
            repeats,
        )
        outs[name] = (out_int, out_w)
        rows.append((name, t_int, t_w))

    if len(outs) == 2:
        a, b = outs["numpy"], outs["compiled"]
        assert np.array_equal(a[0], b[0]), "integer kernels disagree"
        worst = float(np.max(np.abs(a[1] - b[1]) / np.maximum(np.abs(a[1]), 1e-300)))
        assert worst < 1e-12, f"weighted kernels disagree (rel {worst:.2e})"

    return ks.size, rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="1000,10000,100000")
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()
    sizes = [int(t) for t in args.sizes.split(",")]

    rng = np.random.default_rng(0)
    print(f"{'n':>8}  {'grid':>4}  {'backend':>8}  {'rank scan':>12}  {'weighted scan':>14}")
    for n in sizes:
        n_k, rows = bench_one(n, args.repeats, rng)
        base = {}
        for name, t_int, t_w in rows:
            base[name] = (t_int, t_w)
            print(f"{n:>8}  {n_k:>4}  {name:>8}  {t_int * 1e3:>10.3f} ms  {t_w * 1e3:>12.3f} ms")
        if "compiled" in base and "numpy" in base:
            si = base["numpy"][0] / base["compiled"][0]
            sw = base["numpy"][1] / base["compiled"][1]
            print(f"{'':>8}  {'':>4}  {'speedup':>8}  {si:>10.2f} x   {sw:>12.2f} x")


if __name__ == "__main__":
    main()
