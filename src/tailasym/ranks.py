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

from .errors import (
    DomainError,
    InvalidN,
    LengthMismatch,
    NonFinite,
    TiesPresent,
    check_choice,
    check_int,
)

__all__ = [
    "PairedSample", "ConcomitantRanks", "make_sample", "reverse_ranks",
    "concomitant_ranks",
]

_TIE_POLICIES = ("reject", "jitter")


def _as_checked_array(values, name):
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise DomainError(f"{name} must be one-dimensional, got shape {arr.shape}")
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise NonFinite(f"{name}[{bad[0]}] is not finite: {float(arr[bad[0]])!r}")
    return arr


def _reject_ties(arr, name, ordered=None):
    """Raise TiesPresent naming one tied pair of arr, if it has one.

    ordered, when given, is arr sorted in either direction, in any order
    among equal values; by default np.sort gives it.  Only once a tie is
    found does a stable argsort name the pair: the two lowest indices holding
    the smallest tied value.
    """
    if ordered is None:
        ordered = np.sort(arr)
    if np.any(ordered[1:] == ordered[:-1]):
        order = np.argsort(arr, kind="stable")
        ascending = arr[order]
        i = np.flatnonzero(ascending[1:] == ascending[:-1])[0]
        raise TiesPresent(f"{name} has equal values at indices {order[i]} and {order[i + 1]}")


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


def _checked_pair(x, y):
    """x and y as float64 arrays, each one-dimensional and finite, of one length >= 2.

    Checks x, then y, then their lengths, and copies only what np.asarray
    must convert.
    """
    xa = _as_checked_array(x, "x")
    ya = _as_checked_array(y, "y")
    if xa.size != ya.size:
        raise LengthMismatch(f"series lengths differ: {xa.size} vs {ya.size}")
    if xa.size < 2:
        raise InvalidN(f"need at least 2 paired observations, got {xa.size}")
    return xa, ya


@dataclass(frozen=True, eq=False)
class PairedSample:
    """Immutable, validated pair of equal-length tie-free series.

    Construction runs make_sample's checks on the pair and holds each series
    as a float64 array; ties are checked where ranks are formed, by
    concomitant_ranks.
    """

    x: np.ndarray
    y: np.ndarray
    jittered: bool = False

    def __post_init__(self):
        x, y = _checked_pair(self.x, self.y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

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
    xa, ya = _checked_pair(x, y)
    check_choice(tie_policy, "tie_policy", _TIE_POLICIES)

    rng = None
    if tie_policy == "jitter":
        if seed is None:
            raise DomainError("tie policy 'jitter' requires a seed")
        seed = check_int(seed, "seed", 0)
        seq = np.random.SeedSequence(entropy=seed, spawn_key=(1,))
        rng = np.random.Generator(np.random.Philox(seq))

    # One tie check per series, x first, then y, so the random stream layout
    # is data-independent.
    jittered = False
    series = []
    for name, arr in (("x", xa), ("y", ya)):
        try:
            _reject_ties(arr, name)
        except TiesPresent:
            if rng is None:
                raise
            arr = _jitter(arr, rng)
            jittered = True
        else:
            arr = arr.copy()
        series.append(_frozen(arr))
    return PairedSample(*series, jittered=jittered)


def reverse_ranks(values):
    """Ranks in decreasing order: 1 for the largest value, n for the smallest.

    Equivalently, entry i counts how many values are >= values[i].  Input must
    be tie-free; output is a permutation of 1..n as an int64 array.
    """
    arr = _as_checked_array(values, "values")
    if arr.size == 0:
        raise InvalidN("cannot rank an empty sequence")
    # On tie-free values every sort gives the one ascending permutation.
    order = np.argsort(arr)
    _reject_ties(arr, "values", arr[order])
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

    def swapped(self) -> "ConcomitantRanks":
        """The ranks of the swapped sample, with no sort of its own.

        On tie-free series its two orders are these two reversed, its rho is
        pos + 1 and its pos is rho - 1.
        """
        return ConcomitantRanks(
            rho=_frozen(self.pos + 1),
            y_order=self.value_order[::-1],
            value_order=self.y_order[::-1],
            pos=_frozen(self.rho - 1),
        )


def _frozen(arr):
    arr.flags.writeable = False
    return arr


def concomitant_ranks(sample: PairedSample) -> ConcomitantRanks:
    """Concomitant reverse ranks of sample.x along decreasing sample.y.

    Also returns the two sorts they come from and the inverse permutation,
    so one call gives every rank-derived array the estimators and the
    bootstrap need for this orientation.  Raises TiesPresent if either
    series holds two equal values.
    """
    n = sample.n
    # Both series must be tie-free, and then every sort gives the one
    # permutation a stable sort would; a tie raises whatever the order.
    value_order = np.argsort(sample.x).astype(np.int64, copy=False)
    _reject_ties(sample.x, "x", sample.x[value_order])
    y_order = np.argsort(-sample.y).astype(np.int64, copy=False)
    _reject_ties(sample.y, "y", sample.y[y_order])
    reverse = np.empty(n, dtype=np.int64)
    reverse[value_order] = np.arange(n, 0, -1, dtype=np.int64)
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
