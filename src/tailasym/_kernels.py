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

The weighted kernel works on a chunk of grid rows at a time.  With hi(k)
the count of weighted ranks below k, every row of the 2-D block covers the
first hi(k) sorted elements for the chunk's largest k, and a mask keeps
row k's entries below hi(k) whose conditioning position is below tau(k).
The running included weight is a cumsum along each row of the weights with
the dropped entries set to 0.0; the two factors of each term are formed on
the whole block and compressed with the mask, row after row, so that row
k's kept terms sit in one contiguous slice.  A chunk holds as many rows as
keep each 2-D temporary within ``_BLOCK`` elements, and at least one.

Summation contract: S(k) is ``np.dot`` of the kept terms (k - R_a) w_a and
2 W_a - w_a, W_a being the included weight up to and including a, in
ascending weighted rank, as contiguous float64 vectors of exactly the kept
length.  That is bit for bit the result of a loop over k that masks,
cumsums and dots each prefix on its own: every factor comes from the same
IEEE operations on the same operands, cumsum adds left to right and adding
+0.0 leaves a positive running sum unchanged, and np.dot receives the same
values with the same length and stride, so it makes the same BLAS call.
Padding the vectors with zeros would move terms between the BLAS
accumulator lanes and change the last bits.  The BLAS ``ddot`` order itself
depends on the thread count (OpenBLAS splits sums above 10,000 terms
between its threads), so S(k) repeats bit for bit only under the same BLAS
build and thread count (ROADMAP Open item 1).
"""

import numpy as np

_INT64_MAX = int(np.iinfo(np.int64).max)
# Elements per 2-D temporary of the weighted kernel (at least one grid row).
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

    Inputs are pre-sorted by ascending weighted rank ``rx_sorted``;
    ``ypos_sorted`` holds each element's 0-based position in the ordering by
    decreasing second coordinate, and ``taus`` the per-k cutoffs.  Only
    elements with ypos < tau(k) and R < k contribute; with W the running
    included weight, the a-th included element adds (k - R_a) w_a (2W + w_a).
    Entries of ``rx_sorted`` at or above the largest k may be ``+inf``: the
    kernel never reads past the first rank that is not below k.  ``ks`` is
    increasing, as every caller's grid is.  The module docstring gives the
    block layout and the summation contract.
    """
    kf = np.asarray(ks, dtype=np.float64)
    out = np.empty(kf.size, dtype=np.float64)
    # Nondecreasing along the increasing grid, so a chunk's last row is its
    # widest, and the block size of rows t0..t1-1 grows with t1.
    hi = np.searchsorted(rx_sorted, kf, side="left")
    t0 = 0
    while t0 < kf.size:
        size = hi[t0:] * np.arange(1, kf.size - t0 + 1)
        t1 = t0 + max(1, int(np.searchsorted(size, _BLOCK, side="right")))
        width = int(hi[t1 - 1])
        rx, w = rx_sorted[:width], w_sorted[:width]
        keep = np.arange(width) < hi[t0:t1, None]
        keep &= ypos_sorted[:width] < taus[t0:t1, None]
        cw = np.where(keep, w, 0.0)
        np.cumsum(cw, axis=1, out=cw)
        cw *= 2.0
        cw -= w
        tail = kf[t0:t1, None] - rx
        tail *= w
        # Boolean indexing is row-major: the kept terms of each row land end
        # to end, in grid order.
        tail, cw = tail[keep], cw[keep]
        ends = np.cumsum(keep.sum(axis=1)).tolist()
        for t, a, b in zip(range(t0, t1), [0] + ends, ends):
            out[t] = np.dot(tail[a:b], cw[a:b])
        t0 = t1
    return out
