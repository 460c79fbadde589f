"""Rank-based tail association estimators.

The central quantity is eta_kn, a directional coefficient built from the top-k
concomitant reverse ranks: it is 0 when the k largest values of the
conditioning series pair with uniformly small values of the other series, and
attains a closed-form maximum (eta_upper_bound) exactly when the top ranks
match perfectly.  delta_kn is the difference between the two directions and
measures asymmetry of extreme-tail dependence.

Heavy lifting happens in exact integer arithmetic inside the kernel, so the
estimator value is a single correctly-rounded division of exact integers: the
"exact equality" guarantees in the tests are meaningful, not wishful.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DomainError, KOutOfRange, check_int
from .ranks import ConcomitantRanks, PairedSample, concomitant_ranks

__all__ = [
    "Direction", "EtaEstimate", "DeltaEstimate", "eta_kn", "eta_sweep", "delta_kn",
    "delta_sweep", "eta_upper_bound",
]


class Direction(enum.Enum):
    """Which series is conditioned on: X_GIVEN_Y ranks x along the top of y."""

    X_GIVEN_Y = "x_given_y"
    Y_GIVEN_X = "y_given_x"


def _coerce_direction(direction) -> Direction:
    if isinstance(direction, Direction):
        return direction
    try:
        return Direction(direction)
    except ValueError:
        raise DomainError(f"unknown direction: {direction!r}") from None


def _directed_ranks(sample: PairedSample, directions) -> dict:
    """Concomitant ranks of each direction, all from one pair of sorts.

    X_GIVEN_Y gets concomitant_ranks(sample) and Y_GIVEN_X its swapped(),
    which sorts nothing again.
    """
    xy = concomitant_ranks(sample)
    return {d: xy if d is Direction.X_GIVEN_Y else xy.swapped() for d in directions}


def _check_k(k, n) -> int:
    k = check_int(k, "k", 2, KOutOfRange)
    if k > n:
        raise KOutOfRange(f"k must not exceed the sample size {n}, got {k}")
    return k


def _check_kgrid(kgrid, n) -> np.ndarray:
    ks = [_check_k(k, n) for k in kgrid]
    if not ks:
        raise KOutOfRange("k grid is empty")
    arr = np.asarray(ks, dtype=np.int64)
    if np.any(np.diff(arr) <= 0):
        raise KOutOfRange("k grid must be strictly increasing")
    return arr


@dataclass(frozen=True)
class EtaEstimate:
    """One directional tail-association estimate."""

    value: float
    k: int
    n: int
    direction: Direction


@dataclass(frozen=True)
class DeltaEstimate:
    """Tail-asymmetry estimate: eta in direction x|y minus eta in y|x."""

    value: float
    k: int
    n: int
    eta_xy: float
    eta_yx: float


def eta_upper_bound(k) -> float:
    """Largest attainable value of the eta statistic at tail size k.

    Equals (1 - 1/k)(1 + 5/(2k) - 3/k^2); computed here as one division of
    exact integers so that a perfectly concordant sample reproduces it bit for
    bit.  The bound is below 9/8 for every k and tends to 1 from above.
    """
    k = check_int(k, "k", 2, KOutOfRange)
    return (k - 1) * (2 * k * k + 5 * k - 6) / (2 * k**3)


def _eta_values(ranks: ConcomitantRanks, ks: np.ndarray):
    sums = _kernels.eta_grid_sums(ranks.pos, ks)
    return [3 * int(s) / int(k) ** 3 for s, k in zip(sums, ks)]


def eta_kn(sample: PairedSample, k, direction=Direction.X_GIVEN_Y) -> EtaEstimate:
    """Directional tail-association coefficient at tail size k.

    Requires 2 <= k <= n.  The value lies in [0, eta_upper_bound(k)]; it is a
    function of the concomitant reverse ranks only.
    """
    return eta_sweep(sample, [k], direction)[0]


def eta_sweep(sample: PairedSample, kgrid, direction=Direction.X_GIVEN_Y):
    """eta_kn over a strictly increasing grid of tail sizes (one rank pass)."""
    direction = _coerce_direction(direction)
    ks = _check_kgrid(kgrid, sample.n)
    values = _eta_values(_directed_ranks(sample, (direction,))[direction], ks)
    return [
        EtaEstimate(value=v, k=int(k), n=sample.n, direction=direction)
        for v, k in zip(values, ks)
    ]


def delta_kn(sample: PairedSample, k) -> DeltaEstimate:
    """Tail-asymmetry statistic: eta_kn(x|y) - eta_kn(y|x)."""
    return delta_sweep(sample, [k])[0]


def delta_sweep(sample: PairedSample, kgrid):
    """delta_kn over a strictly increasing grid of tail sizes (one pair of sorts)."""
    ks = _check_kgrid(kgrid, sample.n)
    ranks = _directed_ranks(sample, tuple(Direction))
    exy, eyx = (_eta_values(r, ks) for r in ranks.values())
    return [
        DeltaEstimate(value=a - b, k=int(k), n=sample.n, eta_xy=a, eta_yx=b)
        for a, b, k in zip(exy, eyx, ks)
    ]
