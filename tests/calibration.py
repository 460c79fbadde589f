"""Seeded calibration sweeps of the bootstrap tests, shared by the release gates.

A helper module, not a test file: pytest does not collect it.  Every gate
that judges the bootstrap over many samples takes its results from
``pair_tests``, which runs ``test_pair`` on one seeded sample and keeps the
result for the rest of the process, so gates that share a sample draw and
test it once.  ``test_pair``'s delta results equal ``test_delta_zero``'s for
the same arguments.

Run as a script (``PYTHONPATH=src python tests/calibration.py``), it prints
the rows of README's ``boot_sd`` table from ``boot_sd_ratios``.  It runs no
test and writes no file; the whole table takes about half a minute.
"""

import functools
import math

import numpy as np

from tailasym.bootstrap import test_pair
from tailasym.copulas import KhoudrajiGumbelCopula, sample

# README's boot_sd protocol: sample i = 0..199 is drawn from seed 7000 + i and
# tested with seed i, B = 100, at these tail sizes.
BOOT_SD_KS = (50, 100, 200, 400)


@functools.cache
def pair_tests(model, n, grid, B, sample_seed, test_seed):
    """test_pair(sample(model, n, sample_seed), grid, B=B, seed=test_seed), run once.

    grid is a tuple, so that the arguments can key the cache.
    """
    return test_pair(sample(model, n, sample_seed), grid, B=B, seed=test_seed)


def boot_sd_ratios(model, n):
    """README's boot_sd ratios: eta_xy and delta, one per k in BOOT_SD_KS.

    At each k, the RMS of boot_sd / sqrt(k) over the SD (ddof = 1) of the
    statistic across the 200 samples.
    """
    runs = [pair_tests(model, n, BOOT_SD_KS, 100, 7000 + i, i) for i in range(200)]
    ratios = {}
    for name in ("eta_xy", "delta"):
        stat = np.array([[r.statistic for r in getattr(p, name)] for p in runs])
        se = np.array(
            [[r.boot_sd / math.sqrt(r.k) for r in getattr(p, name)] for p in runs]
        )
        rms = np.sqrt(np.mean(se**2, axis=0))
        ratios[name] = (rms / np.std(stat, axis=0, ddof=1)).tolist()
    return ratios


def _table_row(alpha, beta, delta, n):
    ratios = boot_sd_ratios(KhoudrajiGumbelCopula(alpha, beta, delta), n)
    xy, d = (" / ".join(f"{r:.3f}" for r in ratios[name]) for name in ("eta_xy", "delta"))
    return f"| ({alpha:g}, {beta:g}, {delta:g}), {n:,} | {xy} | {d} |"


if __name__ == "__main__":
    print("| model (α, β, δ), n | eta_xy | delta |")
    print("|---|---|---|")
    for args in ((1, 0.5, 2, 5_000), (1, 0.5, 2, 50_000), (1, 1, 2, 50_000)):
        print(_table_row(*args), flush=True)
