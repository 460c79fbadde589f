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
result one row of sums per replicate.  With hi(k) the count of a row's
weighted ranks below k, the kernel works on 3-D blocks, a rectangle of
replicates x grid rows at a time, each row covering the first hi(k) sorted
elements for the rectangle's largest hi; a mask keeps row k's entries below
its own replicate's hi(k) whose conditioning position is below tau(k).  The
running included weight is a cumsum along each row of the weights with the
dropped entries set to 0.0; the two factors of each term are formed on the
whole block and compressed with the mask, row after row, so that the kept
terms of each (replicate, k) sit in one contiguous slice.  A rectangle holds
as many whole replicates as keep each temporary within ``_BLOCK`` elements;
a replicate whose own block is larger is split, as a run of grid rows at a
time, into rectangles of one replicate, each at least one grid row.

Summation contract: S(k) is ``np.dot`` of the kept terms (k - R_a) w_a and
2 W_a - w_a, W_a being the included weight up to and including a, in
ascending weighted rank, as contiguous float64 vectors of exactly the kept
length.  That is bit for bit the result of a loop over replicates and k that
masks, cumsums and dots each prefix on its own: every factor comes from the
same IEEE operations on the same operands, cumsum adds left to right and
adding +0.0 leaves a positive running sum unchanged, and np.dot receives the
same values with the same length and stride, so it makes the same BLAS call.
How replicates and grid rows are grouped into rectangles changes none of
this.  Padding the vectors with zeros would move terms between the BLAS
accumulator lanes and change the last bits.  The BLAS ``ddot`` order itself
depends on the thread count (OpenBLAS splits sums above 10,000 terms
between its threads), so S(k) repeats bit for bit only under the same BLAS
build and thread count (ROADMAP Open item 1).
"""

import numpy as np

_INT64_MAX = int(np.iinfo(np.int64).max)
# Elements per temporary of the weighted kernel (at least one grid row).
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
    in ``ks``.  Only elements with ypos < tau(k) and R < k contribute; with W
    the running included weight, the a-th included element adds
    (k - R_a) w_a (2W + w_a).  Entries of ``rx_sorted`` at or above the
    largest k may be ``+inf``: the kernel never reads past the first rank
    that is not below k.  ``ks`` is increasing, as every caller's grid is.
    Returns the sums in the shape of ``taus``, one row per replicate.  The
    module docstring gives the block layout and the summation contract.
    """
    kf = np.asarray(ks, dtype=np.float64)
    out = np.empty(taus.shape, dtype=np.float64)
    # Nondecreasing along each row of the increasing grid, so a rectangle's
    # last grid row is its widest.
    hi = np.stack([np.searchsorted(row, kf, side="left") for row in rx_sorted])
    for r0, r1, t0, t1, width in _rectangles(hi):
        rx = rx_sorted[r0:r1, None, :width]
        w = w_sorted[r0:r1, None, :width]
        keep = np.arange(width) < hi[r0:r1, t0:t1, None]
        keep &= ypos_sorted[r0:r1, None, :width] < taus[r0:r1, t0:t1, None]
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
        out[r0:r1, t0:t1].flat = [
            np.dot(tail[a:b], cw[a:b]) for a, b in zip([0] + ends, ends)
        ]
    return out


def _rectangles(hi):
    """Chunks (r0, r1, t0, t1, width) of replicates x grid rows within _BLOCK.

    A chunk takes as many whole replicates as fit; a replicate whose own
    block is larger is split into runs of grid rows, each holding at least
    one row.  width is the chunk's largest hi.
    """
    R, G = hi.shape
    last = hi[:, -1].tolist()
    r0 = 0
    while r0 < R:
        r1, width = r0, 0
        while r1 < R and (r1 + 1 - r0) * G * max(width, last[r1]) <= _BLOCK:
            width = max(width, last[r1])
            r1 += 1
        if r1 > r0:
            yield r0, r1, 0, G, width
        else:
            r1, t0 = r0 + 1, 0
            while t0 < G:
                size = hi[r0, t0:] * np.arange(1, G - t0 + 1)
                t1 = t0 + max(1, int(np.searchsorted(size, _BLOCK, side="right")))
                yield r0, r1, t0, t1, int(hi[r0, t1 - 1])
                t0 = t1
        r0 = r1
