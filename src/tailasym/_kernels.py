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
"""

import numpy as np

_INT64_MAX = int(np.iinfo(np.int64).max)


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
    kernel never reads past the first rank that is not below k.
    """
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
