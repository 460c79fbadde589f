"""The two kernels against their oracles.

The integer kernel is exact integer arithmetic: it must give zero where no
rank contributes, ``concordant_sum`` at full concordance, and stay exact past
the int64 range.

The weighted kernel evaluates a stack of replicates over a run of grid rows
at once, and must give, for every row of the stack, bit for bit what the
literal loop over k, ``per_k_weighted_sums``, gives.  Both oracles are in
tests/oracles.py.  The runs the kernel cuts a
grid into must cover each grid row once, within the block budget, and its
width at each k must be the largest count of a row's ranks below k.  The
columns a run's block spans must hold every entry kept in the run and be
kept by some row at the run's last k.  These tests are
derandomized; CI runs them a second time with two BLAS threads, where
``np.dot`` splits every sum of more than 10,000 terms between the threads.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import concordant_sum, per_k_weighted_sums
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
        assert int(s) == concordant_sum(int(k))


def test_integer_kernel_exact_just_above_the_int64_bound():
    # S(k) at full concordance is the largest sum at tail size k; one step
    # past k = 3,024,616 it no longer fits in int64 and must still come out exact
    k = 3_024_617
    limit = int(np.iinfo(np.int64).max)
    assert concordant_sum(k - 1) <= limit < concordant_sum(k)
    pos = np.arange(k, dtype=np.int64)
    ks = np.array([k - 1, k], dtype=np.int64)
    want = [concordant_sum(j) for j in (k - 1, k)]
    got = _kernels.eta_grid_sums(pos, ks)
    assert [int(v) for v in got] == want
    assert 3 * int(got[1]) / k**3 == eta_upper_bound(k)


# --- weighted kernel -----------------------------------------------------------


def _weighted_inputs(size, finite, m, seed, halves=False, rows=1, cut=1):
    """The kernel's arguments but out: rows replicates of size elements each.

    The grid is m strictly increasing tail sizes from 1 to size + 2.  Each
    row's ranks are sorted, below k_max + 1 for its first few elements (finite
    of them in row 0, a random count in later rows) and +inf, a rank no k
    keeps, past them; with halves they are multiples of 0.5, so that some
    equal a k.  The conditioning ranks come as in the engine, from each
    element's position in the conditioning order, a permutation of
    0..size-1 that every row shares, and each row's counts of positions
    that pass, nondecreasing in 0..size along the grid (divided by cut).
    """
    rng = np.random.default_rng(seed)
    ks = np.sort(rng.choice(np.arange(1, size + 3), min(m, size + 2), replace=False))
    stack = []
    for r in range(rows):
        rx = rng.uniform(0.0, ks[-1] + 1.0, size)
        if halves:
            rx = np.round(2.0 * rx) / 2.0
        rx = np.sort(rx)
        rx[finite if r == 0 else rng.integers(0, size + 1) :] = np.inf
        w = rng.exponential(size=size)
        counts = np.sort(rng.integers(0, size + 1, ks.size)).astype(np.int64)
        stack.append((rx, w, counts))
    rx, w, counts = (np.array(a) for a in zip(*stack))
    ypos = rng.permutation(size).astype(np.int64)
    ry = _conditioning_ranks(ypos, counts // cut, ks, halves)
    return rx, ry, w, ks.astype(np.int64)


def _conditioning_ranks(ypos, counts, ks, whole=False):
    """Conditioning ranks that put position ypos[j] among the first counts[r, t] at ks[t].

    ry[r, j] lies in (ks[t - 1], ks[t]) for the first t at which ypos[j] <
    counts[r, t], or, with whole, equals ks[t] - 1, which may equal ks[t - 1];
    it is +inf if there is no such t.  counts[r] is nondecreasing.
    """
    top = np.append(ks - (1.0 if whole else 0.5), np.inf)
    return np.array([top[np.searchsorted(row, ypos, side="right")] for row in counts])


def _one_row(rx, ry, w, ks):
    return rx[None, :], ry[None, :], w[None, :], ks


def _check_weighted(args, block):
    """The kernel on a stack equals the per-k loop on each row, bit for bit."""
    rx, ry, w, ks = args
    out = np.full((len(rx), len(ks)), np.nan)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_BLOCK", block)
        got = _kernels.weighted_eta_grid_sums(rx, ry, w, out, ks)
    assert got is out
    kf = ks.astype(np.float64)
    for r in range(len(rx)):
        want = per_k_weighted_sums(rx[r], ry[r], w[r], ks)
        assert np.array_equal(got[r], want)
        # nothing kept at k: no entry with both ranks below k
        empty = ~((rx[r] < kf[:, None]) & (ry[r] < kf[:, None])).any(axis=1)
        assert np.all(got[r][empty] == 0.0)
    return got


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    size=st.integers(0, 300),
    finite=st.integers(0, 300),
    m=st.sampled_from([1, 2]) | st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    halves=st.booleans(),
    block=st.sampled_from([1, 5, 64, 700, _kernels._BLOCK]),
    rows=st.integers(1, 6),
)
@example(size=0, finite=0, m=1, seed=0, halves=False, block=1, rows=1)
@example(size=20, finite=20, m=1, seed=1, halves=False, block=_kernels._BLOCK, rows=1)
@example(size=0, finite=0, m=2, seed=2, halves=False, block=5, rows=6)
@example(size=60, finite=45, m=12, seed=3, halves=True, block=700, rows=6)
def test_weighted_kernel_is_the_per_k_loop_bit_for_bit(
    size, finite, m, seed, halves, block, rows
):
    args = _weighted_inputs(size, min(finite, size), m, seed, halves, rows)
    _check_weighted(args, block)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    rows=st.integers(1, 12),
    m=st.integers(1, 30),
    top=st.integers(0, 400),
    seed=st.integers(0, 2**32 - 1),
    block=st.sampled_from([1, 7, 64, 500, _kernels._BLOCK]),
)
@example(rows=12, m=30, top=400, seed=0, block=1)
@example(rows=12, m=30, top=0, seed=1, block=7)
def test_runs_cover_every_grid_row_once_within_the_block(rows, m, top, seed, block):
    rng = np.random.default_rng(seed)
    widest = np.sort(rng.integers(0, top + 1, m))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_BLOCK", block)
        runs = list(_kernels._runs(rows, widest))
    covered = np.zeros(m, dtype=np.int64)
    for t0, t1 in runs:
        assert 0 <= t0 < t1 <= m
        covered[t0:t1] += 1
        size = rows * (t1 - t0) * widest[t1 - 1]
        assert t1 - t0 == 1 or size <= block
        # as many grid rows as fit: one more would not
        assert t1 == m or rows * (t1 - t0 + 1) * widest[t1] > block
    assert np.all(covered == 1)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    size=st.integers(0, 300),
    finite=st.integers(0, 300),
    m=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    halves=st.booleans(),
    rows=st.integers(1, 8),
    shift=st.sampled_from([0.0, 50.0]),
)
@example(size=0, finite=0, m=3, seed=0, halves=False, rows=3, shift=0.0)
@example(size=40, finite=0, m=5, seed=1, halves=True, rows=1, shift=0.0)
@example(size=60, finite=45, m=12, seed=3, halves=True, rows=6, shift=0.0)
@example(size=60, finite=45, m=12, seed=3, halves=True, rows=6, shift=50.0)
def test_widest_is_the_largest_count_of_a_rows_ranks_below_k(
    size, finite, m, seed, halves, rows, shift
):
    # +inf tails, ranks equal to a k (halves) and rows with no rank below
    # the low k's (shift) or none at all (size 0, or finite 0 in one row)
    rx, ry, w, ks = _weighted_inputs(size, min(finite, size), m, seed, halves, rows)
    rx = rx + shift
    with pytest.MonkeyPatch.context() as mp:
        seen = _record_columns(mp)
        _kernels.weighted_eta_grid_sums(rx, ry, w, np.empty((rows, ks.size)), ks)
    kf = ks.astype(np.float64)
    want = np.max([np.searchsorted(row, kf, "left") for row in rx], axis=0)
    assert len(seen) == 1 and np.array_equal(seen[0][0], want)


def _record_columns(monkeypatch):
    """Record each kernel call's runs, each paired with the columns its block spans."""
    seen = []
    real_runs, real_columns = _kernels._runs, _kernels._columns

    def runs(R, widest):
        seen.append((widest.copy(), list(real_runs(R, widest)), []))
        return seen[-1][1]

    def columns(larger_min, k, width):
        cols = real_columns(larger_min, k, width)
        seen[-1][2].append(cols.copy())
        return cols

    monkeypatch.setattr(_kernels, "_runs", runs)
    monkeypatch.setattr(_kernels, "_columns", columns)
    return seen


@pytest.mark.parametrize("block", [40, _kernels._BLOCK])
def test_shared_position_row_with_unkeepable_columns_is_the_per_k_loop_bit_for_bit(
    monkeypatch, block
):
    # conditioning ranks below k for at most a quarter of the row: most
    # columns are masked in every row at every tail size, and the blocks
    # leave them out
    args = _weighted_inputs(400, 300, 25, seed=5, rows=6, cut=4)
    seen = _record_columns(monkeypatch)
    _check_weighted(args, block)
    ((widest, runs, cols),) = seen
    assert len(runs) == len(cols) > (1 if block == 40 else 0)
    spanned = sum(c.size for c in cols)
    assert spanned <= sum(int(widest[t1 - 1]) for _, t1 in runs) // 2


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    size=st.integers(0, 300),
    finite=st.integers(0, 300),
    m=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 8),
    cut=st.sampled_from([1, 4, 50]),
    block=st.sampled_from([1, 64, _kernels._BLOCK]),
)
@example(size=0, finite=0, m=3, seed=0, rows=3, cut=1, block=1)
@example(size=60, finite=45, m=12, seed=3, rows=6, cut=4, block=64)
def test_columns_hold_every_kept_entry_and_only_keepable_ones(
    size, finite, m, seed, rows, cut, block
):
    # cut raises the conditioning ranks, so that more columns keep none
    # below any k
    rx, ry, w, ks = _weighted_inputs(size, min(finite, size), m, seed, rows=rows, cut=cut)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_BLOCK", block)
        seen = _record_columns(mp)
        _kernels.weighted_eta_grid_sums(rx, ry, w, np.empty((rows, ks.size)), ks)
    ((widest, runs, columns),) = seen
    assert len(columns) == len(runs)
    kf = ks.astype(np.float64)
    for (t0, t1), cols in zip(runs, columns):
        # in order, within the run's width
        assert np.all(np.diff(cols) > 0)
        assert cols.size == 0 or 0 <= cols[0] and cols[-1] < widest[t1 - 1]
        # every entry any row keeps at any grid row of the run
        for t in range(t0, t1):
            for r in range(rows):
                kept = np.flatnonzero((rx[r] < kf[t]) & (ry[r] < kf[t]))
                assert np.isin(kept, cols).all()
        # each column is kept by some row at the run's last grid row
        k = kf[t1 - 1]
        assert np.all(((rx[:, cols] < k) & (ry[:, cols] < k)).any(axis=0))


def test_weighted_kernel_rows_with_nothing_kept_are_zero():
    rx = np.array([0.5, 1.5, 2.5, np.inf])
    ry = np.array([3.5, 2.0, 2.5, 0.5])
    w = np.array([1.0, 0.75, 1.25, 2.0])
    ks = np.array([1, 2, 3, 4], dtype=np.int64)
    # k = 1: only the first entry ranks below 1, and its conditioning rank
    # 3.5 excludes it; k = 2: the second's conditioning rank equals 2
    (got,) = _check_weighted(_one_row(rx, ry, w, ks), 2)
    assert got[0] == 0.0 and got[1] == 0.0 and got[2] > 0.0
    no_rank = _check_weighted(_one_row(rx + 5.0, ry, w, ks), _kernels._BLOCK)
    assert np.all(no_rank == 0.0)


def test_weighted_kernel_matches_past_the_threaded_dot_length():
    # more than 10,000 kept terms at the larger tail sizes: the length above
    # which a threaded OpenBLAS ddot splits the sum between threads
    rng = np.random.default_rng(7)
    size = 30_000
    rx = np.sort(rng.uniform(0.0, 26_000.0, size))
    rx[25_000:] = np.inf
    ypos = rng.permutation(size).astype(np.int64)
    w = rng.exponential(size=size)
    ks = np.array([100, 9_000, 15_000, 20_000, 25_000], dtype=np.int64)
    counts = np.array([[150, 12_000, 20_000, 28_000, 30_000]], dtype=np.int64)
    (ry,) = _conditioning_ranks(ypos, counts, ks)
    kf = ks.astype(np.float64)
    kept = np.count_nonzero((rx < kf[:, None]) & (ry < kf[:, None]), axis=1)
    assert kept.max() > 10_000
    for block in (1, 3 * 25_000, _kernels._BLOCK):
        _check_weighted(_one_row(rx, ry, w, ks), block)
