"""Exactness of the integer kernel, checked against closed-form oracles.

The integer kernel is exact integer arithmetic: it must give zero where no
rank contributes, the closed-form sum (k - 1)(2k^2 + 5k - 6)/6 at full
concordance, and stay exact past the int64 range.
"""

import numpy as np

from tailasym import _kernels
from tailasym.estimators import eta_upper_bound


def test_integer_kernel_empty_contribution():
    # every rank value beyond k: sums must be zero
    n = 12
    rho = np.arange(n, 0, -1)  # rank n first
    pos = np.empty(n, dtype=np.int64)
    pos[rho - 1] = np.arange(n, dtype=np.int64)
    ks = np.array([2, 3, 6], dtype=np.int64)
    out = _kernels.eta_grid_sums(pos, ks)
    assert out.tolist() == [0, 0, 0]


def test_integer_kernel_full_concordance_closed_form():
    n = 40
    pos = np.arange(n, dtype=np.int64)  # identity permutation
    ks = np.arange(2, 41, dtype=np.int64)
    out = _kernels.eta_grid_sums(pos, ks)
    for s, k in zip(out, ks):
        k = int(k)
        assert int(s) == (k - 1) * (2 * k * k + 5 * k - 6) // 6


def test_integer_kernel_exact_just_above_the_int64_bound():
    # S(k) at full concordance is the largest sum at tail size k; one step
    # past k = 3,024,616 it no longer fits in int64 and must still come out exact
    def max_sum(j):
        return (j - 1) * (2 * j * j + 5 * j - 6) // 6

    k = 3_024_617
    limit = int(np.iinfo(np.int64).max)
    assert max_sum(k - 1) <= limit < max_sum(k)
    pos = np.arange(k, dtype=np.int64)
    ks = np.array([k - 1, k], dtype=np.int64)
    want = [max_sum(j) for j in (k - 1, k)]
    got = _kernels.eta_grid_sums(pos, ks)
    assert [int(v) for v in got] == want
    assert 3 * int(got[1]) / k**3 == eta_upper_bound(k)
