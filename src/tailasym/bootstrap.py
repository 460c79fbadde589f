"""Multiplier bootstrap tests and confidence intervals for the tail statistics.

Each replicate perturbs every observation with an iid positive multiplier and
recomputes the statistic with weighted ranks throughout: weighted reverse
ranks, a weighted cutoff in place of the literal top k, and multiplier
products in the double sum.  Centered replicate deviations emulate the
sampling fluctuation of the statistic itself, which yields p-values for
"eta = 0" (one-sided) and "delta = 0" (two-sided) without any variance
formula, plus normal-style confidence intervals from the replicate spread.

One engine serves every test.  Replicate b draws its multipliers once, from a
stream derived from (seed, b), and evaluates every direction the caller asks
for on that one batch.  test_pair runs both eta tests and the delta test from
a single pass; test_eta_zero and test_delta_zero are the same engine asked
for one or both directions.  Tests that share a seed and replicate count
therefore see identical weights -- in particular the eta and delta tests are
coupled -- and results are reproducible bit for bit across runs and platforms.

Each evaluation only touches the top of the two orders.  The element at
position i of the conditioning order (by decreasing conditioning value) can
enter the sum at tail size k only if i < tau(k), the weighted cutoff, and
every tau(k) on the grid is at most T = tau(k_max); it also needs a weighted
rank below k.  The cutoffs come from the running sum of the normalized
weights along the conditioning order, and the weighted rank of reverse rank
r is the running sum along decreasing values up to r minus its own weight.
Each running sum is taken over a prefix, doubled until its sum reaches k_max
(cutoffs) or 2 k_max (ranks) or it covers all n.  Every prefix entry is
bit-identical to the same entry over the full sample: np.cumsum adds left to
right, and normalizing divides each weight by the mean of all n.  What lies
past a prefix cannot matter.  The running sums never decrease, so no cutoff
lies past a sum of k_max, and a rank past a sum of 2 k_max stays at or above
k_max even after the one rounding in "sum minus own weight", so it is set to
+inf, which the kernel never reads.  Only the first T weighted ranks (about
k_max of them) are sorted.  A stable sort of that prefix keeps the relative
order a stable sort of all n gives the elements whose rank is below k_max,
and the kernel drops every other element, so it adds the same terms in the
same order: the sums are bit-identical to the full computation.

Each direction is ranked once per test call (ranks.concomitant_ranks returns
the value order, conditioning order and rank positions together), and the
plain statistics and every replicate read those arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import ndtri

from . import _kernels
from .errors import DomainError, InvalidB, LengthMismatch, NonFinite, TiesPresent
from .estimators import (
    Direction,
    _check_k,
    _check_kgrid,
    _coerce_direction,
    _eta_values,
    _oriented_ranks,
)


@dataclass(frozen=True)
class MultiplierScheme:
    """A named distribution of positive iid bootstrap multipliers."""

    name: str
    draw: Callable


def unit_exponential_scheme() -> MultiplierScheme:
    """Standard exponential multipliers (mean 1, variance 1) -- the default."""
    return MultiplierScheme(
        name="unit_exponential", draw=lambda rng, n: rng.standard_exponential(n)
    )


def draw_multipliers(scheme: MultiplierScheme, n, seed) -> np.ndarray:
    """One batch of n multipliers from the scheme, seeded and reproducible."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise DomainError(f"need n >= 1 multipliers, got {n!r}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed)))
    return _checked_draw(scheme, rng, int(n))


def _replicate_rng(seed, b):
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(0, b))
    return np.random.Generator(np.random.Philox(seq))


def _checked_draw(scheme, rng, n):
    w = np.asarray(scheme.draw(rng, n), dtype=np.float64)
    if w.shape != (n,):
        raise DomainError(
            f"multiplier scheme {scheme.name!r} returned shape {w.shape}, wanted ({n},)"
        )
    if np.any(~np.isfinite(w)):
        raise NonFinite(f"multiplier scheme {scheme.name!r} produced non-finite draws")
    # An exact floating-point zero is astronomically unlikely but would break
    # the positivity contract, so nudge it to the smallest normal instead.
    w[w == 0.0] = np.finfo(np.float64).tiny
    if np.any(w < 0.0):
        raise DomainError(f"multiplier scheme {scheme.name!r} produced negative draws")
    return w


def _checked_weights(weights, n):
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size != n:
        raise LengthMismatch(f"need {n} weights, got shape {w.shape}")
    if np.any(~np.isfinite(w)):
        raise NonFinite("multiplier weights must be finite")
    if np.any(w <= 0.0):
        raise DomainError("multiplier weights must be strictly positive")
    return w


def weighted_reverse_rank(values, weights) -> np.ndarray:
    """Weight-smoothed reverse ranks: entry i sums normalized weights of values > values[i].

    With equal weights this is exactly reverse_ranks(values) - 1.  Values must
    be tie-free; weights strictly positive (they are normalized to mean one
    internally).
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise DomainError("values must be a nonempty one-dimensional array")
    if np.any(~np.isfinite(v)):
        raise NonFinite("values must be finite")
    w = _checked_weights(weights, v.size)
    wo = w / w.mean()
    order = np.argsort(v, kind="stable")
    if np.any(v[order][1:] == v[order][:-1]):
        raise TiesPresent("values contain ties")
    ws = wo[order]
    greater = np.cumsum(ws[::-1])[::-1] - ws
    out = np.empty(v.size, dtype=np.float64)
    out[order] = greater
    return out


def _prefix_weights(order, w, mean, bound):
    """Normalized weights along order, cut to a prefix whose running sum reaches bound.

    Returns w[order[:m]] / mean and its cumulative sum for the first m of
    2 * bound, 4 * bound, ... whose sum reaches bound, or m = n.
    """
    n = order.size
    m = min(n, int(2 * bound))
    while True:
        part = w[order[:m]] / mean
        run = np.cumsum(part)
        if m == n or run[-1] >= bound:
            return part, run
        m = min(n, 2 * m)


def _replicate_inputs(ranks, w, mean, kf):
    """Kernel arguments of one weighted evaluation in one direction.

    ranks is the direction's ConcomitantRanks, w the multipliers, mean their
    mean over all n and kf the increasing float k-grid.  Returns the first
    tau(k_max) weighted ranks in conditioning order sorted ascending (a rank
    past its prefix reads +inf), their conditioning positions, their weights,
    and the cutoffs tau(k).
    """
    k_max = float(kf[-1])
    # The margin of 2 * k_max keeps every rank past the prefix at or above
    # k_max after the rounding of "running sum minus own weight".
    wd, above = _prefix_weights(ranks.value_order[::-1], w, mean, 2.0 * k_max)
    greater = np.concatenate((above - wd, [np.inf]))
    wy, upto = _prefix_weights(ranks.y_order, w, mean, k_max)
    excl = np.concatenate(([0.0], upto[:-1]))
    taus = np.searchsorted(excl, kf, side="left").astype(np.int64)
    top = int(taus[-1])
    rx = greater[np.minimum(ranks.rho[:top] - 1, wd.size)]
    order = np.argsort(rx, kind="stable").astype(np.int64, copy=False)
    return rx[order], order, wy[:top][order], taus


def _weighted_values(ranks, w, mean, ks):
    kf = ks.astype(np.float64)
    rx_s, ypos_s, w_s, taus = _replicate_inputs(ranks, w, mean, kf)
    sums = _kernels.weighted_eta_grid_sums(rx_s, ypos_s, w_s, taus, ks)
    return (3.0 * sums) / kf**3


def bootstrap_eta(sample, k, weights, direction=Direction.X_GIVEN_Y) -> float:
    """One multiplier-weighted eta replicate at tail size k."""
    direction = _coerce_direction(direction)
    k = _check_k(k, sample.n)
    w = _checked_weights(weights, sample.n)
    ks = np.asarray([k], dtype=np.int64)
    ranks = _oriented_ranks(sample, direction)
    return float(_weighted_values(ranks, w, w.mean(), ks)[0])


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


def _check_B(B):
    if isinstance(B, bool) or not isinstance(B, (int, np.integer)) or B < 1:
        raise InvalidB(f"B must be a positive integer, got {B!r}")
    return int(B)


def _check_alpha(alpha):
    if not (isinstance(alpha, (int, float)) and 0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie strictly between 0 and 1, got {alpha!r}")
    return float(alpha)


_BOTH = (Direction.X_GIVEN_Y, Direction.Y_GIVEN_X)


def _replicate_matrices(ranks, n, ks, B, scheme, seed):
    """(B, grid) replicate values for each direction in ranks, one draw per replicate."""
    out = {d: np.empty((B, ks.size), dtype=np.float64) for d in ranks}
    for b in range(1, B + 1):
        rng = _replicate_rng(seed, b)
        w = _checked_draw(scheme, rng, n)
        mean = w.mean()
        for d, r in ranks.items():
            out[d][b - 1, :] = _weighted_values(r, w, mean, ks)
    return out


def _engine(sample, kgrid, B, alpha, seed, scheme, directions):
    """The one replicate pass behind every test.

    Validates the arguments and ranks each requested direction once, then
    returns the grid, B, alpha and, per direction, the plain eta values and
    the (B, grid) matrix of replicate values.
    """
    ks = _check_kgrid(kgrid, sample.n)
    B = _check_B(B)
    alpha = _check_alpha(alpha)
    scheme = scheme if scheme is not None else unit_exponential_scheme()
    ranks = {d: _oriented_ranks(sample, d) for d in directions}
    plain = {d: np.array(_eta_values(r, ks)) for d, r in ranks.items()}
    boot = _replicate_matrices(ranks, sample.n, ks, B, scheme, seed)
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
    scheme=None,
):
    """One-sided multiplier test of 'no extreme-tail association' over a k-grid.

    At each k the p-value is the fraction of replicates whose centered value
    exceeds the observed statistic; under tail independence the statistic
    concentrates near zero, so large observed values are rarely exceeded.
    Returns one TestResult per k, in grid order.
    """
    direction = _coerce_direction(direction)
    ks, B, alpha, plain, boot = _engine(
        sample, kgrid, B, alpha, seed, scheme, (direction,)
    )
    return _assemble(plain[direction], boot[direction], ks, B, alpha, two_sided=False)


def test_delta_zero(sample, kgrid, B=100, alpha=0.05, seed=0, scheme=None):
    """Two-sided multiplier test of 'both tails equally dependent' over a k-grid.

    Each replicate uses one shared multiplier batch for both directions, so
    the replicate delta is the difference of coupled weighted statistics.  The
    p-value at k is the fraction of replicates with |centered delta| above the
    observed |delta|.
    """
    return _delta_results(*_engine(sample, kgrid, B, alpha, seed, scheme, _BOTH))


class PairTests(NamedTuple):
    """Both directional eta tests and the delta test of one sample."""

    eta_xy: list
    eta_yx: list
    delta: list


def test_pair(sample, kgrid, B=100, alpha=0.05, seed=0, scheme=None) -> PairTests:
    """test_eta_zero in both directions and test_delta_zero from one replicate pass.

    Each result list equals what the single test returns for the same
    arguments, at the cost of one multiplier draw and two weighted
    evaluations per replicate.
    """
    ks, B, alpha, plain, boot = _engine(sample, kgrid, B, alpha, seed, scheme, _BOTH)
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
    if not (isinstance(threshold, (int, float)) and 0.0 < threshold <= 1.0):
        raise DomainError(f"threshold must lie in (0, 1], got {threshold!r}")
    frac = sum(1 for r in results if r.p_value < r.alpha) / len(results)
    return SweepVerdict(
        fraction_below_alpha=frac,
        reject=frac >= threshold,
        threshold=float(threshold),
        n_k=len(results),
    )


def normal_quantile(p) -> float:
    """Upper-tail standard normal quantile: the z with P(Z > z) = p.

    normal_quantile(0.5) is 0; normal_quantile(0.025) is 1.95996...;
    p must lie strictly in (0, 1).
    """
    if not (isinstance(p, (int, float)) and 0.0 < p < 1.0):
        raise DomainError(f"p must lie strictly between 0 and 1, got {p!r}")
    return 0.0 - float(ndtri(p))
