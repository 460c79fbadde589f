"""Evaluation kernels: the two array primitives behind every estimate.

* ``eta_grid_sums`` -- integer double sums of the plain rank statistic over a k-grid,
* ``weighted_eta_grid_sums`` -- the multiplier-weighted double sums over a k-grid.

Callers own all validation and scaling; the kernels are pure array crunching,
and the rest of the package calls them as ``_kernels.<name>``.  The integer
kernel must stay in exact integer arithmetic: several tests assert bit-level
agreement with literal double-sum evaluation.  S(k) grows like k^3/3 and
leaves the int64 range once k is above about 3.03e6, so the sum is taken as
int64 partial dots over chunks short enough not to overflow, added up as
Python integers.

The weighted kernel takes a stack of replicates: each 2-D input holds one
replicate per row, the cutoffs one row of tau(k) per replicate, and the
result one row of sums per replicate.  It works on 3-D blocks, a run of grid
rows over every replicate of the stack at a time; a mask keeps row k's
entries with a weighted rank below k whose conditioning position is below
tau(k).  Each row of ranks is sorted, so the entries with a rank below k are
a prefix of the row, and the stack's widest such prefix at k is the count of
the column-wise minimum below k: that minimum of sorted rows is itself
sorted.  ``width`` is that count at the run's last grid row, the widest of
the run, since the count never decreases along the grid.  Of the first
``width`` columns, the block spans only those that some row can keep: the
columns whose smallest position is below the largest cutoff up to the run's
last grid row, taken in their order.  A run is sized by ``width``, so it
holds as many grid rows as keep each temporary within ``_BLOCK`` elements,
and at least one; a single grid row is at most the size of the kernel's own
input.  The running included weight is a cumsum along each row of the
weights with the dropped entries set to 0.0; the two factors of each term
are formed on the whole block and compressed with the mask, row after row,
so that the kept terms of each (replicate, k) sit in one contiguous slice.

Summation contract: S(k) is the dot product of the kept terms (k - R_a) w_a
and 2 W_a - w_a, W_a being the included weight up to and including a, in
ascending weighted rank, as contiguous float64 vectors of exactly the kept
length.  That is bit for bit the result of a loop over replicates and k that
masks, cumsums and dots each prefix on its own: every factor comes from the
same IEEE operations on the same operands, cumsum adds left to right and
adding +0.0 leaves a positive running sum unchanged, and the dot receives
the same values with the same length and stride, so it makes the same BLAS
call.  ``a.dot(b)`` and ``np.dot(a, b)`` reach the same ``ddot`` on the same
operands; the method form skips the ``__array_function__`` dispatch.
How grid rows are grouped into runs changes none of this, nor do the
columns a block leaves out: each is masked in every row at every grid row
of its run, so in the block it would only add +0.0 to a running sum and
never reach the compressed terms, and the columns kept stay in order.
Padding the vectors with zeros would move terms between the BLAS
accumulator lanes and change the last bits.  The BLAS ``ddot`` order itself
depends on the thread count (OpenBLAS splits sums above 10,000 terms
between its threads), so S(k) repeats bit for bit only under the same BLAS
build and thread count (ROADMAP Open item 1).
"""

import numpy as np

_INT64_MAX = int(np.iinfo(np.int64).max)
# Elements per temporary of the weighted kernel, unless one grid row of the
# stack alone has more.
_BLOCK = 1 << 16


def eta_grid_sums(pos, ks):
    """Integer sums S(k) = sum_{i,j <= k-1} (k+1 - max(rank_i, rank_j))_+.

    ``pos`` is the 0-based inverse of the concomitant rank permutation:
    pos[v-1] = i  <=>  the (i+1)-th concomitant has rank v.  For each k, the
    rank values v <= k sitting among the first k-1 concomitants are visited in
    ascending order; the a-th smallest contributes (2a-1)(k+1-v), the sorted
    form of the double sum.  Returns exact Python integers in an object array.
    """
    out = np.empty(len(ks), dtype=object)
    for t, k in enumerate(ks):
        k = int(k)
        # k + 1 - v for each kept rank value v, in ascending v; coef is 2a - 1.
        tail = k - np.flatnonzero(pos[:k] < k - 1).astype(np.int64, copy=False)
        coef = np.arange(1, 2 * tail.size, 2, dtype=np.int64)
        # Each term is below 2k^2, so a chunk of this many terms fits in int64.
        step = max(1, _INT64_MAX // (2 * k * k))
        out[t] = sum(
            int(np.dot(coef[i : i + step], tail[i : i + step]))
            for i in range(0, coef.size, step)
        )
    return out


def weighted_eta_grid_sums(rx_sorted, ypos_sorted, w_sorted, taus, ks):
    """Weighted sums S(k) = sum_{i,j <= tau(k)} w_i w_j (k - max(R_i, R_j))_+.

    Each row of the three 2-D inputs is one replicate, pre-sorted by
    ascending weighted rank ``rx_sorted``; ``ypos_sorted`` holds each
    element's 0-based position in the ordering by decreasing second
    coordinate, and row r of ``taus`` replicate r's cutoff at each tail size
    in ``ks``.  ``ypos_sorted`` may be one read-only row broadcast over the
    stack, when every replicate shares the order.  Only elements with
    ypos < tau(k) and R < k contribute; with W the running included weight,
    the a-th included element adds (k - R_a) w_a (2W + w_a).  Entries of
    ``rx_sorted`` at or above the largest k may be ``+inf``, which the
    bootstrap passes only for ranks past its weight prefix, at the end of a
    row: the mask drops every rank that is not below k.
    ``ks`` is increasing, as every caller's grid is.
    Returns the sums in the shape of ``taus``, one row per replicate.  Each
    block spans only the columns that some row can keep in its run, chosen
    by ``_columns``; the dropped ones would add only +0.0.  The module
    docstring gives the block layout and the summation contract.
    """
    kf = np.asarray(ks, dtype=np.float64)
    out = np.empty(taus.shape, dtype=np.float64)
    # The largest count of a row's ranks below each k, nondecreasing along the
    # increasing grid, so a run's last grid row is its widest.
    widest = np.searchsorted(rx_sorted.min(axis=0), kf, side="left")
    ymin = ypos_sorted.min(axis=0)
    tmax = np.maximum.accumulate(taus.max(axis=0))
    for t0, t1 in _runs(len(rx_sorted), widest):
        cols = _columns(ymin, tmax[t1 - 1], int(widest[t1 - 1]))
        # take() keeps each block C-ordered; rx_sorted[:, None, cols] would
        # put the gathered axis outermost in memory.
        rx = rx_sorted.take(cols, axis=1)[:, None]
        w = w_sorted.take(cols, axis=1)[:, None]
        keep = rx < kf[t0:t1, None]
        keep &= ypos_sorted.take(cols, axis=1)[:, None] < taus[:, t0:t1, None]
        cw = np.where(keep, w, 0.0)
        np.cumsum(cw, axis=2, out=cw)
        cw *= 2.0
        cw -= w
        tail = kf[t0:t1, None] - rx
        tail *= w
        # Boolean indexing is row-major: the kept terms of each (replicate,
        # k) cell land end to end, replicate by replicate in grid order.
        tail, cw = tail[keep], cw[keep]
        ends = np.cumsum(keep.sum(axis=2)).tolist()
        out[:, t0:t1].flat = [
            tail[a:b].dot(cw[a:b]) for a, b in zip([0] + ends, ends)
        ]
    return out


def _columns(ymin, tmax, width):
    """The columns below ``width`` whose smallest position is below ``tmax``.

    ``ymin`` is the column-wise minimum of the positions and ``tmax`` the
    largest cutoff of any row at or before the run's last grid row: every
    other column is masked in every row of the run.
    """
    return np.flatnonzero(ymin[:width] < tmax)


def _runs(R, widest):
    """Runs (t0, t1) of grid rows over R replicates, each within _BLOCK.

    A run is as wide as ``widest`` at its last row and holds as many rows as
    fit, and at least one.  Every grid row is in exactly one run.
    """
    G = len(widest)
    t0 = 0
    while t0 < G:
        # Nondecreasing in the run's length: rows times the last row's width.
        size = R * widest[t0:] * np.arange(1, G - t0 + 1)
        t1 = t0 + max(1, int(np.searchsorted(size, _BLOCK, side="right")))
        yield t0, t1
        t0 = t1
