"""The two kernels against their oracles.

The integer kernel is exact integer arithmetic: it must give zero where no
rank contributes, the closed-form sum (k - 1)(2k^2 + 5k - 6)/6 at full
concordance, and stay exact past the int64 range.

The weighted kernel evaluates a stack of replicates over a run of grid rows
at once, and must give, for every row of the stack, bit for bit what the
literal loop over k, ``per_k_weighted_sums`` below, gives: same terms, same
running sums and the same ``np.dot`` call per k.  The runs the kernel cuts a
grid into must cover each grid row once, within the block budget, and its
width at each k must be the largest count of a row's ranks below k.  The
columns a run's block spans must hold every entry kept in the run and pass
some row's position test.  These tests are derandomized; CI runs them a
second time with two BLAS threads, where ``np.dot`` splits every sum of
more than 10,000 terms between the threads.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


# --- weighted kernel -----------------------------------------------------------


def per_k_weighted_sums(rx_sorted, ypos_sorted, w_sorted, taus, ks):
    """The weighted kernel as a loop over k: one prefix, one mask, one dot each."""
    out = np.empty(len(ks), dtype=np.float64)
    for t, k in enumerate(ks):
        kf = float(k)
        hi = int(np.searchsorted(rx_sorted, kf, side="left"))
        keep = ypos_sorted[:hi] < taus[t]
        rx = rx_sorted[:hi][keep]
        w = w_sorted[:hi][keep]
        cw = np.cumsum(w)
        out[t] = float(np.dot((kf - rx) * w, 2.0 * cw - w))
    return out


def _weighted_inputs(size, finite, m, seed, halves=False, rows=1):
    """Kernel arguments: a stack of rows replicates of size elements each.

    The grid is m strictly increasing tail sizes from 1 to size + 2.  Each
    row's ranks are sorted, below k_max + 1 for its first few elements (finite
    of them in row 0, a random count in later rows) and +inf past them; its
    cutoffs are nondecreasing in 0..size, and with halves the ranks are
    multiples of 0.5, so that some equal a k.
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
        ypos = rng.permutation(size).astype(np.int64)
        w = rng.exponential(size=size)
        taus = np.sort(rng.integers(0, size + 1, ks.size)).astype(np.int64)
        stack.append((rx, ypos, w, taus))
    rx, ypos, w, taus = (np.array(a) for a in zip(*stack))
    return rx, ypos, w, taus, ks.astype(np.int64)


def _one_row(rx, ypos, w, taus, ks):
    return rx[None, :], ypos[None, :], w[None, :], taus[None, :], ks


def _check_weighted(args, block):
    """The kernel on a stack equals the per-k loop on each row, bit for bit."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_BLOCK", block)
        got = _kernels.weighted_eta_grid_sums(*args)
    rx, ypos, w, taus, ks = args
    assert got.dtype == np.float64 and got.shape == taus.shape
    for r in range(len(rx)):
        want = per_k_weighted_sums(rx[r], ypos[r], w[r], taus[r], ks)
        assert np.array_equal(got[r], want)
        # nothing kept at k: no cutoff, or no rank below k
        empty = (taus[r] == 0) | (np.searchsorted(rx[r], ks.astype(np.float64)) == 0)
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
    rx, ypos, w, taus, ks = _weighted_inputs(size, min(finite, size), m, seed, halves, rows)
    rx = rx + shift
    seen = []
    real = _kernels._runs

    def recorded(R, widest):
        seen.append(widest.copy())
        return real(R, widest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_runs", recorded)
        _kernels.weighted_eta_grid_sums(rx, ypos, w, taus, ks)
    kf = ks.astype(np.float64)
    want = np.max([np.searchsorted(row, kf, "left") for row in rx], axis=0)
    assert len(seen) == 1 and np.array_equal(seen[0], want)


def _record_columns(monkeypatch):
    """Record each kernel call's runs, each paired with the columns its block spans."""
    seen = []
    real_runs, real_columns = _kernels._runs, _kernels._columns

    def runs(R, widest):
        seen.append((widest.copy(), list(real_runs(R, widest)), []))
        return seen[-1][1]

    def columns(ymin, tmax, width):
        cols = real_columns(ymin, tmax, width)
        seen[-1][2].append(cols.copy())
        return cols

    monkeypatch.setattr(_kernels, "_runs", runs)
    monkeypatch.setattr(_kernels, "_columns", columns)
    return seen


def _shared_positions(ypos):
    """One read-only position row broadcast over the stack, as the bootstrap passes it."""
    return np.broadcast_to(ypos[0], ypos.shape)


@pytest.mark.parametrize("block", [40, _kernels._BLOCK])
def test_shared_position_row_with_unkeepable_columns_is_the_per_k_loop_bit_for_bit(
    monkeypatch, block
):
    # cutoffs of at most a quarter of the row: most columns are masked in
    # every row at every tail size, and the blocks leave them out
    rx, ypos, w, taus, ks = _weighted_inputs(400, 300, 25, seed=5, rows=6)
    ypos = _shared_positions(ypos)
    assert not ypos.flags.writeable
    taus = taus // 4
    seen = _record_columns(monkeypatch)
    _check_weighted((rx, ypos, w, taus, ks), block)
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
    shared=st.booleans(),
    cut=st.sampled_from([1, 4, 50]),
    block=st.sampled_from([1, 64, _kernels._BLOCK]),
)
@example(size=0, finite=0, m=3, seed=0, rows=3, shared=True, cut=1, block=1)
@example(size=60, finite=45, m=12, seed=3, rows=6, shared=True, cut=4, block=64)
@example(size=60, finite=45, m=12, seed=3, rows=6, shared=False, cut=4, block=64)
def test_columns_hold_every_kept_entry_and_only_keepable_ones(
    size, finite, m, seed, rows, shared, cut, block
):
    # a shared broadcast row, as the bootstrap passes, or one position row
    # per replicate, as its lexsort fallback does; cut shrinks the cutoffs
    rx, ypos, w, taus, ks = _weighted_inputs(size, min(finite, size), m, seed, rows=rows)
    if shared:
        ypos = _shared_positions(ypos)
    taus = taus // cut
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_BLOCK", block)
        seen = _record_columns(mp)
        _kernels.weighted_eta_grid_sums(rx, ypos, w, taus, ks)
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
                kept = np.flatnonzero((rx[r] < kf[t]) & (ypos[r] < taus[r, t]))
                assert np.isin(kept, cols).all()
        # each column passes some row's position test at the run's last grid row
        assert np.all(ypos[:, cols].min(axis=0) < taus[:, t1 - 1].max())


def test_weighted_kernel_rows_with_nothing_kept_are_zero():
    rx = np.array([0.5, 1.5, 2.5, np.inf])
    ypos = np.array([3, 0, 1, 2], dtype=np.int64)
    w = np.array([1.0, 0.75, 1.25, 2.0])
    ks = np.array([1, 2, 3, 4], dtype=np.int64)
    # k = 1: only ypos 3 ranks below 1, and tau = 3 excludes it; k = 2: tau = 0
    taus = np.array([3, 0, 2, 4], dtype=np.int64)
    (got,) = _check_weighted(_one_row(rx, ypos, w, taus, ks), 2)
    assert got[0] == 0.0 and got[1] == 0.0 and got[2] > 0.0
    no_rank = _check_weighted(_one_row(rx + 5.0, ypos, w, taus, ks), _kernels._BLOCK)
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
    taus = np.array([150, 12_000, 20_000, 28_000, 30_000], dtype=np.int64)
    hi = np.searchsorted(rx, ks.astype(np.float64))
    kept = [int(np.count_nonzero(ypos[:h] < tau)) for h, tau in zip(hi, taus)]
    assert max(kept) > 10_000
    for block in (1, 3 * 25_000, _kernels._BLOCK):
        _check_weighted(_one_row(rx, ypos, w, taus, ks), block)
