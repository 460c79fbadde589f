"""Backend agreement: the compiled kernels and the numpy fallback must match.

The integer kernel must agree bit for bit (it is exact integer arithmetic);
the weighted kernel may differ by summation order only, so a few ulps.  The
integer kernel must also stay exact past the int64 range.
"""

import numpy as np
import pytest

from tailasym import _kernels, _kernels_py
from tailasym.estimators import eta_upper_bound


requires_compiled = pytest.mark.skipif(
    not _kernels.HAVE_COMPILED, reason="compiled extension not built"
)


def _random_case(rng, n):
    rho = rng.permutation(n) + 1
    pos = np.empty(n, dtype=np.int64)
    pos[rho - 1] = np.arange(n, dtype=np.int64)
    return pos


@requires_compiled
def test_integer_kernel_backends_identical():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(2, 400))
        pos = _random_case(rng, n)
        ks = np.unique(rng.integers(2, n + 1, size=6)).astype(np.int64)
        a = _kernels.eta_grid_sums(pos, ks)
        b = _kernels_py.eta_grid_sums(pos, ks)
        assert np.array_equal(a, b)


@requires_compiled
def test_weighted_kernel_backends_agree():
    rng = np.random.default_rng(22)
    for _ in range(50):
        n = int(rng.integers(3, 300))
        rx = np.sort(rng.random(n) * n)
        ypos = rng.permutation(n).astype(np.int64)
        w = rng.random(n) + 0.05
        ks = np.unique(rng.integers(2, n + 1, size=5)).astype(np.int64)
        taus = rng.integers(1, n + 1, size=ks.size).astype(np.int64)
        a = _kernels.weighted_eta_grid_sums(rx, ypos, w, taus, ks)
        b = _kernels_py.weighted_eta_grid_sums(rx, ypos, w, taus, ks)
        assert np.allclose(a, b, rtol=2e-13, atol=1e-300)


@requires_compiled
def test_weighted_kernel_identical_on_integer_weights():
    # with integer-valued inputs every partial sum is exact, so the two
    # backends cannot drift even in the last ulp
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(3, 200))
        rx = np.sort(rng.permutation(n).astype(np.float64))
        ypos = rng.permutation(n).astype(np.int64)
        w = np.ones(n)
        ks = np.unique(rng.integers(2, n + 1, size=4)).astype(np.int64)
        taus = ks.copy()
        a = _kernels.weighted_eta_grid_sums(rx, ypos, w, taus, ks)
        b = _kernels_py.weighted_eta_grid_sums(rx, ypos, w, taus, ks)
        assert np.array_equal(a, b)


def test_integer_kernel_empty_contribution():
    # every rank value beyond k: sums must be zero
    n = 12
    rho = np.arange(n, 0, -1)  # rank n first
    pos = np.empty(n, dtype=np.int64)
    pos[rho - 1] = np.arange(n, dtype=np.int64)
    ks = np.array([2, 3, 6], dtype=np.int64)
    out = _kernels_py.eta_grid_sums(pos, ks)
    assert out.tolist() == [0, 0, 0]


def test_integer_kernel_full_concordance_closed_form():
    n = 40
    pos = np.arange(n, dtype=np.int64)  # identity permutation
    ks = np.arange(2, 41, dtype=np.int64)
    out = _kernels_py.eta_grid_sums(pos, ks)
    for s, k in zip(out, ks):
        k = int(k)
        assert int(s) == (k - 1) * (2 * k * k + 5 * k - 6) // 6


def test_integer_kernel_exact_just_above_the_int64_bound():
    # S(k) at full concordance is the largest sum at tail size k; one step
    # past MAX_INT64_K it no longer fits in int64 and must still come out exact
    k = _kernels.MAX_INT64_K + 1
    limit = int(np.iinfo(np.int64).max)
    assert _kernels._max_sum(k - 1) <= limit < _kernels._max_sum(k)
    pos = np.arange(k, dtype=np.int64)
    ks = np.array([k - 1, k], dtype=np.int64)
    want = [(j - 1) * (2 * j * j + 5 * j - 6) // 6 for j in (k - 1, k)]
    assert [int(v) for v in _kernels_py.eta_grid_sums(pos, ks)] == want
    got = _kernels.eta_grid_sums(pos, ks)
    assert [int(v) for v in got] == want
    assert 3 * int(got[1]) / k**3 == eta_upper_bound(k)
