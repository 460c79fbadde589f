"""Validated paired samples and concomitant reverse ranks.

Sorting the pairs by decreasing second coordinate and ranking the first
coordinates in reverse (rank 1 = largest) is the combinatorial backbone of
every statistic in this package: all of them are functions of those ranks
alone, which is what buys invariance under strictly increasing transforms of
either margin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidN, LengthMismatch, NonFinite, TiesPresent


def _as_checked_array(values, name):
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise DomainError(f"{name} must be one-dimensional, got shape {arr.shape}")
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise NonFinite(f"{name}[{bad[0]}] is not finite: {arr[bad[0]]!r}")
    return arr


def _tied_pair(arr, order=None):
    """Original indices of one tied pair, or None if all values are distinct.

    order, when given, is the stable ascending argsort of arr.
    """
    if order is None:
        order = np.argsort(arr, kind="stable")
    ascending = arr[order]
    eq = np.flatnonzero(ascending[1:] == ascending[:-1])
    if eq.size == 0:
        return None
    return int(order[eq[0]]), int(order[eq[0] + 1])


def _jitter(arr, rng):
    """Replace a tied series by its ranks 1..n, ties broken in a seeded random order.

    Distinct values keep their relative order and tied entries are ordered by
    one seeded permutation, so every statistic (all of them are functions of
    the ranks) sees a tie-free series however small the gaps in the data are.
    """
    n = arr.size
    out = np.empty(n, dtype=np.float64)
    out[np.lexsort((rng.permutation(n), arr))] = np.arange(1, n + 1)
    return out


@dataclass(frozen=True, eq=False)
class PairedSample:
    """Immutable, validated pair of equal-length tie-free series."""

    x: np.ndarray
    y: np.ndarray
    jittered: bool = False

    @property
    def n(self) -> int:
        return int(self.x.size)

    def swapped(self) -> "PairedSample":
        """The same sample with the roles of the two series exchanged."""
        return PairedSample(x=self.y, y=self.x, jittered=self.jittered)


def make_sample(x, y, tie_policy="reject", seed=None):
    """Validate a pair of series into a PairedSample.

    tie_policy 'reject' raises TiesPresent on any within-series tie;
    'jitter' replaces a series that actually contains ties by its ranks 1..n,
    ties broken in an order drawn from the seed, and records that it did so.
    """
    xa = _as_checked_array(x, "x")
    ya = _as_checked_array(y, "y")
    if xa.size != ya.size:
        raise LengthMismatch(f"series lengths differ: {xa.size} vs {ya.size}")
    if xa.size < 2:
        raise InvalidN(f"need at least 2 paired observations, got {xa.size}")

    if tie_policy not in ("reject", "jitter"):
        raise DomainError(f"unknown tie policy: {tie_policy!r}")

    jittered = False
    if tie_policy == "jitter":
        if seed is None:
            raise DomainError("tie policy 'jitter' requires a seed")
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
        )
        # x first, then y, so the random stream layout is data-independent.
        if _tied_pair(xa) is not None:
            xa = _jitter(xa, rng)
            jittered = True
        if _tied_pair(ya) is not None:
            ya = _jitter(ya, rng)
            jittered = True

    for name, arr in (("x", xa), ("y", ya)):
        t = _tied_pair(arr)
        if t is not None:
            raise TiesPresent(f"{name} has equal values at indices {t[0]} and {t[1]}")

    xa = xa.copy()
    ya = ya.copy()
    xa.flags.writeable = False
    ya.flags.writeable = False
    return PairedSample(x=xa, y=ya, jittered=jittered)


def reverse_ranks(values):
    """Ranks in decreasing order: 1 for the largest value, n for the smallest.

    Equivalently, entry i counts how many values are >= values[i].  Input must
    be tie-free; output is a permutation of 1..n as an int64 array.
    """
    arr = _as_checked_array(values, "values")
    if arr.size == 0:
        raise InvalidN("cannot rank an empty sequence")
    t = _tied_pair(arr)
    if t is not None:
        raise TiesPresent(f"values has equal entries at indices {t[0]} and {t[1]}")
    order = np.argsort(arr, kind="stable")
    out = np.empty(arr.size, dtype=np.int64)
    out[order] = np.arange(arr.size, 0, -1, dtype=np.int64)
    return out


@dataclass(frozen=True, eq=False)
class ConcomitantRanks:
    """Reverse ranks of one series ordered by decreasing values of the other.

    rho[i] is the reverse rank (among all n first-coordinate values) of the
    first coordinate paired with the (i+1)-th largest second coordinate; rho is
    a permutation of 1..n.  y_order[i] is the original index of that pair.
    value_order is the ascending order of the first coordinates, and pos the
    inverse of rho: pos[v-1] is the 0-based position of rank value v.
    """

    rho: np.ndarray
    y_order: np.ndarray
    value_order: np.ndarray
    pos: np.ndarray

    @property
    def n(self) -> int:
        return int(self.rho.size)


def _frozen(arr):
    arr.flags.writeable = False
    return arr


def concomitant_ranks(sample: PairedSample) -> ConcomitantRanks:
    """Concomitant reverse ranks of sample.x along decreasing sample.y.

    Also returns the two sorts they come from and the inverse permutation,
    so one call gives every rank-derived array the estimators and the
    bootstrap need for this orientation.
    """
    n = sample.n
    value_order = np.argsort(sample.x, kind="stable").astype(np.int64, copy=False)
    t = _tied_pair(sample.x, value_order)
    if t is not None:
        raise TiesPresent(f"x has equal values at indices {t[0]} and {t[1]}")
    reverse = np.empty(n, dtype=np.int64)
    reverse[value_order] = np.arange(n, 0, -1, dtype=np.int64)
    y_order = np.argsort(-sample.y, kind="stable").astype(np.int64, copy=False)
    rho = reverse[y_order]
    # Invert rho in the buffer it was gathered from: rho - 1 is a permutation,
    # so every entry is overwritten.  Shifting rho in place saves a temporary.
    pos = reverse
    rho -= 1
    pos[rho] = np.arange(n, dtype=np.int64)
    rho += 1
    return ConcomitantRanks(
        rho=_frozen(rho),
        y_order=_frozen(y_order),
        value_order=_frozen(value_order),
        pos=_frozen(pos),
    )
