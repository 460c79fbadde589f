"""Multiplier bootstrap tests and confidence intervals for the tail statistics.

Each replicate perturbs every observation with an i.i.d. unit exponential
multiplier (mean 1, variance 1) and recomputes the statistic with weighted
ranks throughout: weighted reverse ranks, a weighted cutoff in place of the
literal top k, and multiplier products in the double sum.  Centered replicate
deviations emulate the sampling fluctuation of the statistic itself, which
yields p-values for "eta = 0" (one-sided) and "delta = 0" (two-sided) without
any variance formula, plus normal-style confidence intervals from the
replicate spread.

One engine serves every test.  Replicate b draws its multipliers once, as
standard_exponential(n) from Philox((seed, (0, b))) -- the generator of the
SeedSequence with entropy seed and spawn key (0, b) -- and evaluates every
direction the caller asks for on that one batch.  test_pair runs both eta
tests and the delta test from a single pass; test_eta_zero and
test_delta_zero are the same engine asked for one or both directions.  Tests
that share a seed and replicate count therefore see identical weights -- in
particular the eta and delta tests are coupled.  Results repeat bit for bit
from run to run with the same BLAS build and thread count, not across them:
the weighted kernel reduces each tail size with np.dot, whose summation order
follows the BLAS threads (ROADMAP Open item 1).  The ``_kernels`` module
docstring states that summation contract and why evaluating the whole grid at
once leaves it unchanged.

Each evaluation only touches the top of the two orders.  The element at
position i of the conditioning order (by decreasing conditioning value) can
enter the sum at tail size k only if i < tau(k), the weighted cutoff, and
every tau(k) on the grid is at most T = tau(k_max); it also needs a weighted
rank below k.  The cutoffs come from the running sum of the normalized
weights along the conditioning order, and the weighted rank of reverse rank
r is the running sum along decreasing values up to r minus its own weight.
Each running sum is taken over a prefix whose sum must reach a bound, k_max
(cutoffs) or 2 k_max (ranks).  The first prefix has bound + 6 sqrt(bound)
entries, six standard deviations of a sum of unit-mean multipliers past the
bound, and is doubled until every sum reaches the bound or it covers all n.
Every prefix entry is bit-identical to the same entry over the full sample:
np.cumsum adds left to right, and normalizing divides each weight by the
mean of all n.  What lies past a prefix cannot matter.  The running sums
never decrease, so no cutoff lies past a sum of k_max, and a rank past a sum
of 2 k_max stays at or above k_max even after the one rounding in "sum
minus own weight", so it is set to +inf, which the kernel never reads.

The kernel takes the first T conditioning positions in ascending weighted
rank, and no replicate is sorted to get them.  Every weight is positive, so
a weighted rank can only stay level or rise as the unweighted reverse rank
rises: one order serves every replicate, the T positions sorted by their
reverse rank.  The full computation sorts all n weighted ranks stably, by
weighted rank and then by conditioning position.  On a row whose finite
weighted ranks strictly increase along the shared order, the two orders are
the same, so the kernel adds the same terms in the same order and the sums
are bit-identical to the full computation.  Rounding can break the strict
increase: a weight too small to move a running sum gives two elements the
same weighted rank.  One comparison per stack checks every row, and a stack
where it fails sorts each row by weighted rank, ties by conditioning
position, which is the full computation's tie rule.

Replicates are drawn and evaluated in stacks: R replicates at a time fill
the rows of one (R, n) array, each drawn in place from its own stream, and
each direction makes one kernel call per stack.  R is sized by the
multipliers alone: the largest count, and at least 1, with R <= B and
R * n <= 2**17 elements (1 MB of multipliers).  So a sample of more than
2**16 gets one replicate per stack, and smaller ones pay a few array calls
per stack in place of a few per replicate; the kernel cuts the grid into
runs of rows over the whole stack and never splits a grid row, so each of
its temporaries stays within its own budget or, for a single grid row past
that budget, within the size of the stack.  Each block spans only the
columns whose position is below some replicate's largest cutoff in the run;
every other column would add only +0.0.  A stack changes no replicate's
value.  Each row's mean is the same pairwise sum as that replicate's own.  The stack's prefixes run to the first length at which
every row's sum reaches the bound, which may be longer than one row needs;
that changes none of the row's earlier entries and only turns +inf ranks
into finite ones at or above k_max, which the kernel drops as well.  The
kernel input is as wide as the stack's largest tau(k_max); a row's entries
at or past its own tau(k_max) keep their finite ranks and their place in
the rank order, and the kernel drops them, since their position is at or
past every tau(k) of that row.

Each direction is ranked once per test call (ranks.concomitant_ranks returns
the value order, conditioning order and rank positions together), and the
plain statistics and every replicate read those arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels
from .errors import (
    DomainError,
    InvalidB,
    LengthMismatch,
    NonFinite,
    check_int,
    check_real,
)
from .estimators import (
    Direction,
    _check_k,
    _check_kgrid,
    _coerce_direction,
    _eta_values,
    _oriented_ranks,
)


def _draw(seed, b, out):
    """Fill out with replicate b's multipliers: unit exponentials from Philox((seed, (0, b)))."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(0, b))
    np.random.Generator(np.random.Philox(seq)).standard_exponential(out=out)
    # The ziggurat sampler can return an exact 0.0, which would break the
    # positivity of the weights, so nudge it to the smallest normal.
    out[out == 0.0] = np.finfo(np.float64).tiny


def _checked_weights(weights, n):
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size != n:
        raise LengthMismatch(f"need {n} weights, got shape {w.shape}")
    if np.any(~np.isfinite(w)):
        raise NonFinite("multiplier weights must be finite")
    if np.any(w <= 0.0):
        raise DomainError("multiplier weights must be strictly positive")
    return w


def _prefix_weights(order, W, means, bound):
    """Normalized weights along order, cut to a prefix whose running sums reach bound.

    W holds one replicate's multipliers per row and means their row means.
    Returns W[:, order[:m]] / means and its cumulative sum along each row for
    the first m of m0, 2 * m0, 4 * m0, ... at which every row's sum reaches
    bound, or m = n.  m0 = bound + 6 sqrt(bound) lies six standard deviations
    of a sum of unit-mean multipliers above bound, so it rarely has to grow.
    """
    n = order.size
    m = min(n, int(bound + 6.0 * math.sqrt(bound)))
    while True:
        part = W.take(order[:m], axis=1)
        part /= means[:, None]
        run = np.cumsum(part, axis=1)
        if m == n or run[:, -1].min() >= bound:
            return part, run
        m = min(n, 2 * m)


def _replicate_inputs(ranks, W, means, kf):
    """Kernel arguments of a stack of weighted evaluations in one direction.

    ranks is the direction's ConcomitantRanks, W the stack of multipliers
    (one replicate per row), means their row means over all n and kf the
    increasing float k-grid.  Returns the weighted ranks of the first T
    conditioning positions, T the stack's largest tau(k_max), with their
    positions and weights, each row in ascending weighted rank; plus the
    cutoffs tau(k) of every row.  A rank past its row's prefix reads +inf.

    The rows share one order, the T positions by unweighted reverse rank,
    and the positions come back as one read-only row broadcast over the
    stack.  A stack in which some row's finite weighted ranks do not strictly
    increase along it sorts each row by weighted rank, ties by position.
    """
    k_max = float(kf[-1])
    # The margin of 2 * k_max keeps every rank past the prefix at or above
    # k_max after the rounding of "running sum minus own weight".
    wd, above = _prefix_weights(ranks.value_order[::-1], W, means, 2.0 * k_max)
    greater = np.full((len(W), wd.shape[1] + 1), np.inf)
    np.subtract(above, wd, out=greater[:, :-1])
    wy, upto = _prefix_weights(ranks.y_order, W, means, k_max)
    excl = np.concatenate((np.zeros((len(W), 1)), upto[:, :-1]), axis=1)
    taus = np.stack([np.searchsorted(row, kf, side="left") for row in excl])
    taus = taus.astype(np.int64, copy=False)
    top = int(taus[:, -1].max())
    rho = ranks.rho[:top]
    p = np.argsort(rho)
    rx = greater.take(np.minimum(rho[p] - 1, wd.shape[1]), axis=1)
    ypos = np.broadcast_to(p, rx.shape)
    wy = wy.take(p, axis=1)
    # Along p the finite ranks come first; +inf (past the prefix) ends a row.
    if not np.all((rx[:, 1:] > rx[:, :-1]) | (rx[:, 1:] == np.inf)):
        order = np.lexsort((ypos, rx))
        rx = np.take_along_axis(rx, order, axis=1)
        ypos = p.take(order)
        wy = np.take_along_axis(wy, order, axis=1)
    return rx, ypos, wy, taus


def _weighted_values(ranks, W, means, ks):
    """(rows of W, grid) replicate values in one direction."""
    kf = ks.astype(np.float64)
    rx_s, ypos_s, w_s, taus = _replicate_inputs(ranks, W, means, kf)
    sums = _kernels.weighted_eta_grid_sums(rx_s, ypos_s, w_s, taus, ks)
    return (3.0 * sums) / kf**3


def bootstrap_eta(sample, k, weights, direction=Direction.X_GIVEN_Y) -> float:
    """One multiplier-weighted eta replicate at tail size k."""
    direction = _coerce_direction(direction)
    k = _check_k(k, sample.n)
    w = _checked_weights(weights, sample.n)
    ks = np.asarray([k], dtype=np.int64)
    ranks = _oriented_ranks(sample, direction)
    W = w[None, :]
    return float(_weighted_values(ranks, W, W.mean(axis=1), ks)[0, 0])


def bootstrap_delta(sample, k, weights) -> float:
    """One multiplier-weighted delta replicate at tail size k (shared weights)."""
    return bootstrap_eta(sample, k, weights, Direction.X_GIVEN_Y) - bootstrap_eta(
        sample, k, weights, Direction.Y_GIVEN_X
    )


@dataclass(frozen=True)
class TestResult:
    """Bootstrap test outcome at one tail size."""

    k: int
    statistic: float
    p_value: float
    boot_sd: float
    ci_low: float
    ci_high: float
    B: int
    alpha: float


@dataclass(frozen=True)
class SweepVerdict:
    """Aggregate decision over a k-grid of bootstrap tests."""

    fraction_below_alpha: float
    reject: bool
    threshold: float
    n_k: int


_BOTH = (Direction.X_GIVEN_Y, Direction.Y_GIVEN_X)
# Multipliers per stack (1 MB of float64), unless one replicate alone has more.
_STACK_ELEMS = 1 << 17


def _replicate_matrices(ranks, n, ks, B, seed):
    """(B, grid) replicate values for each direction in ranks, one draw per replicate.

    Replicates are drawn and evaluated in stacks of rows; see the module
    docstring for the stack size.
    """
    R = max(1, min(B, _STACK_ELEMS // n))
    out = {d: np.empty((B, ks.size), dtype=np.float64) for d in ranks}
    stack = np.empty((R, n), dtype=np.float64)
    for b0 in range(0, B, R):
        W = stack[: min(R, B - b0)]
        for i, row in enumerate(W):
            _draw(seed, b0 + i + 1, row)
        means = W.mean(axis=1)
        for d, r in ranks.items():
            out[d][b0 : b0 + len(W)] = _weighted_values(r, W, means, ks)
    return out


def _engine(sample, kgrid, B, alpha, seed, directions):
    """The one replicate pass behind every test.

    Validates the arguments and ranks each requested direction once, then
    returns the grid, B, alpha and, per direction, the plain eta values and
    the (B, grid) matrix of replicate values.
    """
    ks = _check_kgrid(kgrid, sample.n)
    B = check_int(B, "B", 1, InvalidB)
    seed = check_int(seed, "seed", 0)
    alpha = check_real(alpha, "alpha", "(0, 1)")
    ranks = {d: _oriented_ranks(sample, d) for d in directions}
    plain = {d: np.array(_eta_values(r, ks)) for d, r in ranks.items()}
    boot = _replicate_matrices(ranks, sample.n, ks, B, seed)
    return ks, B, alpha, plain, boot


def _delta_results(ks, B, alpha, plain, boot):
    xy, yx = _BOTH
    return _assemble(
        plain[xy] - plain[yx], boot[xy] - boot[yx], ks, B, alpha, two_sided=True
    )


def _assemble(plain, boot, ks, B, alpha, two_sided):
    z = normal_quantile(alpha / 2.0)
    results = []
    for j, k in enumerate(ks):
        stat = float(plain[j])
        col = boot[:, j]
        if two_sided:
            exceed = int(np.count_nonzero(np.abs(col - stat) > abs(stat)))
        else:
            exceed = int(np.count_nonzero(col - stat > stat))
        # boot_sd estimates the SD of the limit normal of sqrt(k) * (replicate
        # - statistic); the replicate values themselves fluctuate at scale
        # 1/sqrt(k), hence the sqrt(k) rescaling here and the matching /sqrt(k)
        # in the interval half-width.
        root_k = math.sqrt(int(k))
        sd = root_k * float(np.std(col, ddof=1)) if B > 1 else 0.0
        half = z * sd / root_k
        results.append(
            TestResult(
                k=int(k),
                statistic=stat,
                p_value=exceed / B,
                boot_sd=sd,
                ci_low=stat - half,
                ci_high=stat + half,
                B=B,
                alpha=alpha,
            )
        )
    return results


def test_eta_zero(
    sample,
    kgrid,
    B=100,
    alpha=0.05,
    seed=0,
    direction=Direction.X_GIVEN_Y,
):
    """One-sided multiplier test of 'no extreme-tail association' over a k-grid.

    At each k the p-value is the fraction of replicates whose centered value
    exceeds the observed statistic; under tail independence the statistic
    concentrates near zero, so large observed values are rarely exceeded.
    Returns one TestResult per k, in grid order.
    """
    direction = _coerce_direction(direction)
    ks, B, alpha, plain, boot = _engine(sample, kgrid, B, alpha, seed, (direction,))
    return _assemble(plain[direction], boot[direction], ks, B, alpha, two_sided=False)


def test_delta_zero(sample, kgrid, B=100, alpha=0.05, seed=0):
    """Two-sided multiplier test of 'both tails equally dependent' over a k-grid.

    Each replicate uses one shared multiplier batch for both directions, so
    the replicate delta is the difference of coupled weighted statistics.  The
    p-value at k is the fraction of replicates with |centered delta| above the
    observed |delta|.
    """
    return _delta_results(*_engine(sample, kgrid, B, alpha, seed, _BOTH))


class PairTests(NamedTuple):
    """Both directional eta tests and the delta test of one sample."""

    eta_xy: list
    eta_yx: list
    delta: list


def test_pair(sample, kgrid, B=100, alpha=0.05, seed=0) -> PairTests:
    """test_eta_zero in both directions and test_delta_zero from one replicate pass.

    Each result list equals what the single test returns for the same
    arguments, at the cost of one multiplier draw and two weighted
    evaluations per replicate.
    """
    ks, B, alpha, plain, boot = _engine(sample, kgrid, B, alpha, seed, _BOTH)
    xy, yx = _BOTH
    return PairTests(
        eta_xy=_assemble(plain[xy], boot[xy], ks, B, alpha, two_sided=False),
        eta_yx=_assemble(plain[yx], boot[yx], ks, B, alpha, two_sided=False),
        delta=_delta_results(ks, B, alpha, plain, boot),
    )


def summarize_rejection(results, threshold=0.75) -> SweepVerdict:
    """Fraction of grid points with p < alpha, and the reject/accept verdict."""
    if not results:
        raise DomainError("cannot summarize an empty result list")
    threshold = check_real(threshold, "threshold", "(0, 1]")
    frac = sum(1 for r in results if r.p_value < r.alpha) / len(results)
    return SweepVerdict(
        fraction_below_alpha=frac,
        reject=frac >= threshold,
        threshold=threshold,
        n_k=len(results),
    )


def normal_quantile(p) -> float:
    """Upper-tail standard normal quantile: the z with P(Z > z) = p.

    normal_quantile(0.5) is 0; normal_quantile(0.025) is 1.95996...;
    p must lie strictly in (0, 1).
    """
    p = check_real(p, "p", "(0, 1)")
    # Imported on first use, so that importing tailasym does not load scipy.
    from scipy.special import ndtri

    return 0.0 - float(ndtri(p))
