"""Multiplier bootstrap tests and confidence intervals for the tail statistics.

Each replicate perturbs every observation with an i.i.d. unit exponential
multiplier (mean 1, variance 1) and recomputes the statistic with weighted
ranks throughout: an observation counts at tail size k when both of its
weighted ranks, one in each margin, are below k, in place of the literal top k
of both, and its terms carry multiplier products in the double sum.  Centered
replicate deviations emulate the sampling fluctuation of the statistic itself,
which yields p-values for "eta = 0" (one-sided) and "delta = 0" (two-sided)
without any variance formula, plus normal-style confidence intervals from the
replicate spread.

One path serves every replicate, drawn or given.  _replicate_matrices takes
draw(b, row), which fills row with replicate b's multipliers, and evaluates
every direction the caller asks for on that one batch.  The tests draw
replicate b's multipliers once, as standard_exponential(n) from
Philox((seed, (0, b))) -- the generator of the SeedSequence with entropy
seed and spawn key (0, b).  bootstrap_eta and bootstrap_delta are the same
path at B = 1, with a draw that copies the caller's weights, so given
weights reach the kernel by the prefix and input steps of a drawn replicate.
test_pair runs both eta tests and the delta test from a single pass;
test_eta_zero and test_delta_zero are the same engine asked for one or both
directions.  Tests that share a seed and replicate count therefore see
identical weights -- in particular the eta and delta tests are coupled.
Results repeat bit for bit from run to run with the same BLAS build and
thread count, not across them: the weighted kernel reduces each tail size
with np.dot, whose summation order follows the BLAS threads (ROADMAP Open
item 1).  The ``_kernels`` module docstring states that summation contract
and why evaluating the whole grid at once leaves it unchanged.

A draw rebuilds replicate b's generator from its key alone, with no
SeedSequence.  Philox is counter-based (Salmon et al. 2011, "Parallel Random
Numbers: As Easy as 1, 2, 3"): a 128-bit key and a counter fix its whole
stream, and a Philox built from a seed sequence starts at counter 0, with an
empty buffer and the sequence's generate_state(2, np.uint64) as its key.
_spawn_keys ports that hash from numpy's SeedSequence and computes the keys
of 128 consecutive replicates at once in uint64 arrays; each thread keeps
one Generator on one Philox and sets the Philox to counter 0, the key and an
empty buffer before every draw.  So the stream contract
Philox((seed, (0, b))) is unchanged, bit for bit, and the tests pin the keys
to numpy's own.

Each evaluation only touches the top of the two orders.  An element enters
the sum at tail size k when both of its weighted ranks are below k: its rank
and its conditioning rank.  Each is an exclusive running sum of the
normalized weights along decreasing values of its series, the total weight
of the larger values.  So one running sum per order serves both directions:
the one along decreasing x gives X|Y's ranks and Y|X's conditioning ranks,
the one along decreasing y the other two.  The conditioning ranks never
decrease along the conditioning order (by decreasing conditioning value), so
only its first T positions can count, T the number of conditioning ranks
below k_max.  One prefix pass covers both orders, over one length whose
totals along each order must reach k_max.  The first prefix has k_max + 6
sqrt(k_max) entries, six standard deviations of a sum of unit-mean
multipliers past k_max, and is doubled until every total along both orders
reaches k_max or it covers all n.  Every prefix entry is bit-identical to
the same entry over the full sample: np.cumsum adds left to right, and
normalizing divides each weight by the mean of all n.  What lies past a
prefix cannot matter.  The running sums never decrease, so no rank past a
total of k_max is below k_max, and a rank past the prefix is at least its
total, so it reads the total, which the kernel drops like every rank not
below k.  An order whose totals reach k_max first gains only running sums
of at least k_max from the longer prefix, and the kernel drops those too.

The kernel takes the first T conditioning positions in ascending weighted
rank, and no replicate is sorted to get them.  A running sum of positive
weights never decreases in floating point, so along the unweighted reverse
rank every row's weighted ranks never decrease: one order serves every
replicate, the T positions sorted by their reverse rank, and each row's
ranks, conditioning ranks and weights reach the kernel in it.  So does the
smallest rank over the rows, and the kernel input stops at the last position
with a rank below k_max in some row: the kernel would drop every later one
at every k.  The full computation sorts all n weighted ranks by weighted
rank, ties by unweighted reverse rank, which is that same order, so the
kernel adds the same terms in the same order and the sums are bit-identical
to the full computation.  Ties occur: a weight too small to move a running
sum gives the next element the same weighted rank.

Replicates are drawn in stacks and evaluated in batches.  A draw stack is R
replicates filling the rows of one (R, n) array, each drawn in place from
its own stream.  R is sized by the multipliers alone: the largest count, and
at least 1, with R <= B and R * n <= 2**17 elements (1 MB of multipliers),
so a sample of more than 2**16 gets one replicate per stack.  As soon as a
stack is drawn, the calling thread reads its prefixes along both orders into
the current batch in one pass (the prefix step), and the stack's buffer is
done with.  A batch holds as many whole stacks as keep their first
prefixes, 4 m0 + 2 floats a replicate with m0 = k_max + 6 sqrt(k_max),
within the same 2**17 elements, and at least one stack.  Once it is full,
the kernel inputs of all its rows are formed at once (the input step), and
each direction makes one kernel call on the whole batch.  At n = 200,000 on
the default grid (m0 = 634) a batch holds 51 replicates, so B = 100 takes 4
kernel calls; a stack that fills the budget by itself, as at n = 2,000 or
on a grid of 399 tail sizes at n = 20,000, is a batch of its own.  The
kernel cuts the grid into runs of rows over the whole batch and never
splits a grid row, so each of its temporaries stays within its own budget
or, for a single grid row past that budget, within the size of its input.
Each block spans only the columns that some replicate keeps at the run's
last k; every other column would add only +0.0.

A batch changes no replicate's value.  Each row's mean is the same pairwise
sum as that replicate's own.  A stack's prefixes run to the first length at
which every row's total along both orders reaches k_max, which may be longer
than one row or one order needs; that changes none of the row's earlier
entries, and the ranks it adds are at or above k_max, which the kernel drops
as well.  The stacks of one batch may stop at different lengths.  A row
shorter than the batch's longest is padded: its running sums with its own
total, which is at least k_max, and its weights with 1.0.  A rank of either
kind read past that prefix then reads the total, as it does there.  The
kernel input is at most as wide as the batch's largest count of conditioning
ranks below k_max; a row's entries past its own count, padded weights
included, keep their ranks and their place in the rank order, and the kernel
drops them, since their conditioning ranks are at least k_max.

When each stack holds one replicate and more follow (R = 1 < B, so n >
2**16), two helper threads draw the next replicates into a ring of three
buffers, one for each helper and one whose prefixes the calling thread
reads before it evaluates batches, and the buffer whose prefixes were just
read takes the replicate three on.  The draw and the row mean release the
GIL, the prefix steps and the batches stay on the calling thread in
replicate order, and every replicate still comes from its own stream, so no
value changes.  At n = 200,000 a draw and its mean take about 2 ms of a
core, several times the calling thread's work on a batched replicate, so
the draws set the pace.  Stacks of several replicates stay sequential:
their short draws each take the GIL twice, and drawing them ahead slowed
100 tests on samples of 2,000 by 8%.  Drawing only the O(k_max) weights a
replicate reads (ROADMAP Open item 4) would leave nothing worth hiding, and
the helpers could go.

Both directions are ranked once per call, a test's or bootstrap_delta's,
from one pair of sorts: ranks.concomitant_ranks returns the value order,
conditioning order and rank positions together, and ConcomitantRanks.swapped
gives the other direction's from them.  The plain statistics and every
replicate read those arrays.
"""

from __future__ import annotations

import collections
import functools
import math
import operator
import threading
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
    _directed_ranks,
    _eta_values,
)

__all__ = [
    "bootstrap_eta", "bootstrap_delta", "TestResult", "SweepVerdict",
    "test_eta_zero", "test_delta_zero", "PairTests", "test_pair",
    "summarize_rejection", "normal_quantile",
]


# SeedSequence's entropy hash, from numpy/random/bit_generator.pyx: its pool
# size, the hashmix constants, the mix multipliers, and generate_state's.
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
# Replicates b >> _KEY_BLOCK_BITS share a block of keys, hashed together.
_KEY_BLOCK_BITS = 7


def _uint32_words(value):
    """value's 32-bit words, least significant first; [0] for 0."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


@functools.lru_cache(maxsize=8)
def _spawn_keys(seed, block):
    """Philox keys of SeedSequence(entropy=seed, spawn_key=(0, b)), b in block.

    The keys of b = block << _KEY_BLOCK_BITS onwards, one [low, high] pair of
    Python ints each: SeedSequence(...).generate_state(2, np.uint64), the key
    that Philox takes from that seed sequence.  The hash runs in uint64
    arithmetic masked to 32 bits.  A block starts at a multiple of its
    2**_KEY_BLOCK_BITS replicates, so only b's low word varies within it:
    that word is the one array in the entropy, and the run entropy and b's
    higher words are Python ints shared by the whole block.
    """
    b0 = block << _KEY_BLOCK_BITS
    run = _uint32_words(seed)
    # With a spawn key, the run entropy is zero-padded to the pool size.
    low = np.arange(1 << _KEY_BLOCK_BITS, dtype=np.uint64) + (b0 & _MASK32)
    entropy = run + [0] * (_POOL_SIZE - len(run)) + [0, low] + _uint32_words(b0)[1:]
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    state = []
    for word in pool:
        word = word ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        word = word * hash_const & _MASK32
        state.append(word ^ (word >> 16))
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], 1).tolist()


def _spawn_key(seed, b):
    """The Philox key of SeedSequence(entropy=seed, spawn_key=(0, b))."""
    seed, b = operator.index(seed), operator.index(b)
    return _spawn_keys(seed, b >> _KEY_BLOCK_BITS)[b & ((1 << _KEY_BLOCK_BITS) - 1)]


_per_thread = threading.local()


def _draw(seed, b, out):
    """Fill out with replicate b's multipliers: unit exponentials from Philox((seed, (0, b)))."""
    try:
        generator = _per_thread.generator
    except AttributeError:
        generator = _per_thread.generator = np.random.Generator(np.random.Philox(0))
    # Counter 0 and an empty buffer: the state of a Philox freshly built from
    # the seed sequence, whose key sets the whole stream.  The Generator keeps
    # no state of its own, so it draws from that state as a new one would.
    generator.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": _spawn_key(seed, b)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    generator.standard_exponential(out=out)
    # The ziggurat sampler can return an exact 0.0, which would break the
    # positivity of the weights, so nudge any, found by the minimum without a
    # mask, to the smallest normal.
    if out.min() == 0.0:
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


def _first_prefix(n, bound):
    """The first prefix length tried, m0 = bound + 6 sqrt(bound), and at most n.

    m0 lies six standard deviations of a sum of unit-mean multipliers above
    bound.
    """
    return min(n, int(bound + 6.0 * math.sqrt(bound)))


class _Batch:
    """Both orders' weight prefixes for a batch of replicates, one row each.

    The orders are the two that every direction in ranks reads: the first
    direction's value order, whose running sums give its ranks and the second
    direction's conditioning ranks, and its conditioning order, which gives
    the other two.  w[o] holds each row's normalized weights along order o and
    sums[o] their exclusive running sums, over the prefix of the row's stack.
    Both are as wide as the batch's longest prefix, and past its own a row's
    weights read 1.0 and its sums its total.  The arrays are order-major, so
    each order's rows are one contiguous block for the input step's takes.
    """

    def __init__(self, ranks, rows, bound):
        first = next(iter(ranks.values()))
        self.orders = (first.value_order[::-1], first.y_order)
        self.bound = bound
        m0 = _first_prefix(first.n, bound)
        self.w = np.empty((2, rows, m0))
        self.sums = np.empty((2, rows, m0 + 1))
        self.filled = 0

    def add(self, W, means):
        """Fill the next rows with the prefixes of the stack W, row means means.

        The prefix is the first m of m0, 2 * m0, ... at which every row's
        total along both orders reaches bound, or m = n; m0 is
        _first_prefix(n, bound).  Returns m.
        """
        rows = slice(self.filled, self.filled + len(W))
        self.filled = rows.stop
        n = W.shape[1]
        m = _first_prefix(n, self.bound)
        while True:
            if m > self.w.shape[2]:
                # The rows filled so far are padded like any short row; the
                # others are written over.
                grow = ((0, 0), (0, 0), (0, m - self.w.shape[2]))
                self.w = np.pad(self.w, grow, constant_values=1.0)
                self.sums = np.pad(self.sums, grow, mode="edge")
            w, sums = self.w[:, rows, :m], self.sums[:, rows, : m + 1]
            for part, order in zip(w, self.orders):
                # order holds valid positions only; mode="raise" would gather
                # into a buffer and copy it into part.
                W.take(order[:m], axis=1, out=part, mode="clip")
            w /= means[:, None]
            sums[:, :, 0] = 0.0
            np.cumsum(w, axis=2, out=sums[:, :, 1:])
            if m == n or sums[:, :, -1].min() >= self.bound:
                break
            m = min(n, 2 * m)
        self.w[:, rows, m:] = 1.0
        self.sums[:, rows, m + 1 :] = sums[:, :, -1:]
        return m

    def inputs(self, ranks):
        """Kernel arguments of the filled batch, for each direction in ranks.

        Returns, per direction, the weighted ranks, the weighted conditioning
        ranks and the weights of the first T conditioning positions, T the
        largest count of a row's conditioning ranks below bound, in
        unweighted reverse-rank order, up to the last with a rank below bound
        in some row.
        """
        out = {}
        # The first direction reads its ranks along order 0 and its
        # conditioning ranks and weights along order 1; the second the other
        # way round.
        for (d, r), (o, c) in zip(ranks.items(), ((0, 1), (1, 0))):
            greater, excl = self.sums[o], self.sums[c]
            T = np.count_nonzero(excl[:, :-1] < self.bound, axis=1).max()
            rho = r.rho[: int(T)]
            p = np.argsort(rho)
            # A rank past a row's prefix reads its total, at least k_max.
            at = np.minimum(rho[p] - 1, greater.shape[1] - 1)
            # Each row's ranks never decrease along p, nor does their minimum,
            # so the columns with a rank below bound in some row come first.
            width = np.count_nonzero(greater.min(axis=0)[at] < self.bound)
            p, at = p[:width], at[:width]
            rx = greater.take(at, axis=1)
            out[d] = rx, excl.take(p, axis=1), self.w[c].take(p, axis=1)
        return out


def _replicate_values(sample, k, weights, directions):
    """One replicate at tail size k on the given weights, per direction.

    The engine at B = 1 with a draw that copies the checked weights.
    """
    k = _check_k(k, sample.n)
    w = _checked_weights(weights, sample.n)
    ranks = _directed_ranks(sample, directions)
    ks = np.asarray([k], dtype=np.int64)
    boot = _replicate_matrices(ranks, sample.n, ks, 1, lambda b, row: np.copyto(row, w))
    return {d: float(values[0, 0]) for d, values in boot.items()}


def bootstrap_eta(sample, k, weights, direction=Direction.X_GIVEN_Y) -> float:
    """One multiplier-weighted eta replicate at tail size k."""
    direction = _coerce_direction(direction)
    return _replicate_values(sample, k, weights, (direction,))[direction]


def bootstrap_delta(sample, k, weights) -> float:
    """One multiplier-weighted delta replicate at tail size k (shared weights)."""
    xy, yx = _BOTH
    values = _replicate_values(sample, k, weights, _BOTH)
    return values[xy] - values[yx]


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
# One-replicate stacks drawn ahead of the one being evaluated, a ring buffer each.
_AHEAD = 3


def _replicate_matrices(ranks, n, ks, B, draw):
    """(B, grid) replicate values for each direction in ranks, one draw per replicate.

    draw(b, row) fills row with replicate b's multipliers, b = 1, ..., B.
    Replicates are drawn in stacks of rows and evaluated in batches of whole
    stacks; see the module docstring for their sizes and for when stacks are
    drawn ahead.
    """
    R = max(1, min(B, _STACK_ELEMS // n))
    k_max = float(ks[-1])
    # Whole stacks per batch: as many as keep their first prefixes, 4 m0 + 2
    # floats a replicate, within _STACK_ELEMS, and at least one.
    m0 = _first_prefix(n, k_max)
    rows = R * max(1, _STACK_ELEMS // (R * (4 * m0 + 2)))
    out = {d: np.empty((B, ks.size), dtype=np.float64) for d in ranks}
    # One replicate per stack and more to come: two helper threads draw the
    # next replicates into a ring of _AHEAD buffers while the calling thread
    # reads prefixes and evaluates batches (buffers they allocated themselves
    # would stay in their own malloc arenas).  Otherwise each stack gets a
    # buffer of its own, drawn when it is due.
    ahead = R == 1 < B
    ring = np.empty((_AHEAD, 1, n), dtype=np.float64) if ahead else None

    def fill(b0):
        W = ring[b0 % _AHEAD] if ahead else np.empty((min(R, B - b0), n))
        for i, row in enumerate(W):
            draw(b0 + i + 1, row)
        return W, W.mean(axis=1)

    if ahead:
        # Imported here, so that importing tailasym does not load it.
        from concurrent.futures import ThreadPoolExecutor

        helpers = ThreadPoolExecutor(max_workers=2)
        submit = lambda b0: helpers.submit(fill, b0).result  # noqa: E731
    else:
        submit = lambda b0: functools.partial(fill, b0)  # noqa: E731
    try:
        queued = collections.deque(map(submit, range(0, min(B, _AHEAD * R), R)))
        for c0 in range(0, B, rows):
            c1 = min(c0 + rows, B)
            batch = _Batch(ranks, c1 - c0, k_max)
            for b0 in range(c0, c1, R):
                W, means = queued.popleft()()
                batch.add(W, means)
                # A ring buffer goes to the replicate _AHEAD stacks on as soon
                # as its prefixes are read.  A stack's own buffer is freed
                # before the next is drawn, and the batch's last one once the
                # batch's inputs are formed, so that, as for a stack evaluated
                # alone, preparation and not the kernel's data-dependent
                # blocks sets the batch's peak memory.
                if b0 + R < c1:
                    del W
                if b0 + _AHEAD * R < B:
                    queued.append(submit(b0 + _AHEAD * R))
            inputs = batch.inputs(ranks)
            # The kernel's blocks get the memory of the batch's prefixes, of
            # its last stack's own buffer and, once a direction is evaluated,
            # of its arguments.
            del batch, W
            for d in ranks:
                values = out[d][c0:c1]
                _kernels.weighted_eta_grid_sums(*inputs.pop(d), values, ks)
                values *= 3.0
                values /= ks.astype(np.float64) ** 3
    finally:
        if ahead:
            # On an error, drop the draws not yet started and wait for the rest.
            helpers.shutdown(cancel_futures=True)
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
    ranks = _directed_ranks(sample, directions)
    plain = {d: np.array(_eta_values(r, ks)) for d, r in ranks.items()}
    boot = _replicate_matrices(ranks, sample.n, ks, B, functools.partial(_draw, seed))
    return ks, B, alpha, plain, boot


def _delta_results(ks, B, alpha, plain, boot):
    xy, yx = _BOTH
    return _assemble(
        plain[xy] - plain[yx], boot[xy] - boot[yx], ks, B, alpha, two_sided=True
    )


def _assemble(plain, boot, ks, B, alpha, two_sided):
    z = normal_quantile(alpha / 2.0)
    dev = boot - plain
    if two_sided:
        exceed = np.count_nonzero(np.abs(dev) > np.abs(plain), axis=0)
    else:
        exceed = np.count_nonzero(dev > plain, axis=0)
    # One replicate spread per grid point, 0.0 for a single replicate; each
    # column taken as one contiguous row gets the same pairwise sums as
    # np.std of that column alone.
    if B > 1:
        spread = np.std(np.ascontiguousarray(boot.T), axis=1, ddof=1)
    else:
        spread = np.zeros(ks.size)
    rows = zip(ks.tolist(), plain.tolist(), exceed.tolist(), spread.tolist())
    results = []
    for k, stat, count, sd_k in rows:
        # boot_sd estimates the SD of the limit normal of sqrt(k) * (replicate
        # - statistic); the replicate values themselves fluctuate at scale
        # 1/sqrt(k), hence the sqrt(k) rescaling here and the matching /sqrt(k)
        # in the interval half-width.
        root_k = math.sqrt(k)
        sd = root_k * sd_k
        half = z * sd / root_k
        results.append(
            TestResult(
                k=k,
                statistic=stat,
                p_value=count / B,
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
    p must lie strictly in (0, 1).  The lower-tail quantile is Cephes'
    ndtri (S. L. Moshier, Cephes Math Library), the routine that
    scipy.special.ndtri wraps, ported to Python floats; a test pins it to
    scipy's value bit for bit.
    """
    p = check_real(p, "p", "(0, 1)")
    return 0.0 - _ndtri(p)


# Cephes ndtri's rational approximations, numerators P and denominators Q
# (leading coefficient first): in y - 0.5 for exp(-2) < y < 1 - exp(-2), and
# in 1/x, x = sqrt(-2 log y), for 2 <= x < 8 and for x >= 8 in the tails.
_EXP_M2 = 0.13533528323661269189
_S2PI = 2.50662827463100050242
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
       -5.66762857469070293439e1, 1.39312609387279679503e1,
       -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0,
       8.63602421390890590575e1, -2.25462687854119370527e2,
       2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
       5.71628192246421288162e1, 4.40805073893200834700e1,
       1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2,
       -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1,
       4.13172038254672030440e1, 1.50425385692907503408e1,
       2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0,
       3.93881025292474443415e0, 1.33303460815807542389e0,
       2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6,
       6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0,
       1.37702099489081330271e0, 2.16236993594496635890e-1,
       1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _horner(x, coefs):
    # Cephes' polevl; a leading 1.0 gives its p1evl, since 1.0 * x == x.
    acc = coefs[0]
    for c in coefs[1:]:
        acc = acc * x + c
    return acc


def _ndtri(y):
    """Cephes ndtri: the lower-tail standard normal quantile, 0 < y < 1."""
    upper = y > 1.0 - _EXP_M2
    if upper:
        y = 1.0 - y
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        return (y + y * (y2 * _horner(y2, _P0) / _horner(y2, _Q0))) * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    p, q = (_P1, _Q1) if x < 8.0 else (_P2, _Q2)
    x = x - math.log(x) / x - z * _horner(z, p) / _horner(z, q)
    return x if upper else -x
