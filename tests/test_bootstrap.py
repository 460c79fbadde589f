"""Bootstrap machinery tests.

Single replicates, the stacked engine and whole test calls are held to the
oracles of ``tests/oracles.py``: the weighted replicate from its definition,
the full-sort reference replicate, the multiplier stream from numpy's own
seed sequences and the rule that assembles a TestResult from its replicates.
"""

import functools
import math
import re
import sys
import threading
import time
import tracemalloc
import weakref
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from oracles import (
    assembled, full_sort_replicate, literal_eta, naive_weighted_eta, replicate_weights, seed_sequence,
)
from tailasym import _kernels
from tailasym import bootstrap as bt
from tailasym import errors, estimators
from tailasym.estimators import Direction, _directed_ranks, delta_kn, eta_kn
from tailasym.pipeline import default_kgrid
from tailasym.ranks import make_sample


def _random_sample(rng, n):
    return make_sample(rng.random(n) * 10 - 5, rng.standard_normal(n))


def draw_replicate(seed, b, out):
    """Fill out with replicate b's multipliers, as a test call with this seed draws them."""
    bt._draw(bt._spawn_keys(seed, [b])[0], out)


# --- the engine recorder ------------------------------------------------------------


class KernelCall(NamedTuple):
    """One weighted kernel call of the engine."""

    rows: int
    width: int
    below: list  # each row's count of conditioning ranks below k_max
    ks: list
    tied: bool  # some row holds two equal weighted ranks below k_max
    rx: np.ndarray
    ry: np.ndarray


class EngineLog:
    """What the engine did, read at its four seams, in call order.

    Installed on mp, the monkeypatch fixture or pytest.MonkeyPatch.context()
    inside a hypothesis test.  It records
    * kernel: a KernelCall per _kernels.weighted_eta_grid_sums call, which
      takes five positional arguments, as perfbench's tracer reads them;
    * runs: (R, widest, runs) per _kernels._runs call inside those calls;
    * adds: (bound, rows, prefix length) per _Batch.add, one per stack,
      whose one length serves both orders;
    * draws: (b, thread ident) per draw of _replicate_matrices.
    The references of tests/oracles.py call the kernel as imported there, so
    every record is the engine's.

    stack sets _STACK_ELEMS, and block sets _BLOCK inside the engine's kernel
    calls alone.  before_draw(b) runs before each draw, on the thread that
    draws, before_add() and after_add() around each _Batch.add, and
    before_kernel() before each kernel call.  Every kernel call is
    checked: every row comes in one shared order of the conditioning
    positions, along which its weighted ranks never decrease; every column
    has a conditioning rank below k_max in some row, and the last one a rank
    below k_max too.  tie_free adds that both kinds of rank are distinct up
    to the ones past the weight prefix, which repeat the prefix total, at
    least k_max.  With record=False the log sets stack alone and installs
    no seam, so that a memory test measures the engine without the records.
    """

    def __init__(
        self, mp, stack=None, block=None, before_draw=None, before_add=None, after_add=None,
        before_kernel=None, tie_free=False, record=True,
    ):
        self.kernel, self.runs, self.adds, self.draws = [], [], [], []
        self._block, self._tie_free = block, tie_free
        self._before_draw, self._before_add = before_draw, before_add
        self._after_add, self._before_kernel = after_add, before_kernel
        self._real_kernel, self._real_runs = _kernels.weighted_eta_grid_sums, _kernels._runs
        self._real_add, self._real_matrices = bt._Batch.add, bt._replicate_matrices
        if stack is not None:
            mp.setattr(bt, "_STACK_ELEMS", stack)
        if not record:
            return
        mp.setattr(_kernels, "weighted_eta_grid_sums", self._kernel)
        # A function, not a bound method, so that it binds to the batch.
        mp.setattr(bt._Batch, "add", lambda batch, W, means: self._add(batch, W, means))
        mp.setattr(bt, "_replicate_matrices", self._replicate_matrices)

    def _kernel(self, rx, ry, w, out, ks, /):
        if self._before_kernel is not None:
            self._before_kernel()
        k_max = ks[-1]
        assert out.shape == (len(rx), len(ks))
        ties = []
        for ranks in (rx, np.sort(ry, axis=1)):
            assert np.all(np.isfinite(ranks))
            step = np.diff(ranks, axis=1)
            assert np.all(step >= 0.0)
            ties.append(bool(np.any((step == 0.0) & (ranks[:, 1:] < k_max))))
        assert not (self._tie_free and any(ties))
        assert np.all(ry.min(axis=0) < k_max)
        assert rx.shape[1] == 0 or rx[:, -1].min() < k_max
        below = np.count_nonzero(ry < k_max, axis=1).tolist()
        self.kernel.append(KernelCall(len(rx), rx.shape[1], below, ks.tolist(), ties[0], rx, ry))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "_runs", self._runs)
            if self._block is not None:
                mp.setattr(_kernels, "_BLOCK", self._block)
            return self._real_kernel(rx, ry, w, out, ks)

    def _runs(self, R, widest):
        runs = list(self._real_runs(R, widest))
        self.runs.append((R, widest.copy(), runs))
        return runs

    def _add(self, batch, W, means):
        if self._before_add is not None:
            self._before_add()
        m = self._real_add(batch, W, means)
        self.adds.append((batch.bound, len(W), m))
        if self._after_add is not None:
            self._after_add()
        return m

    def _replicate_matrices(self, ranks, n, ks, B, draw):
        def recorded(b, row):
            self.draws.append((b, threading.get_ident()))
            if self._before_draw is not None:
                self._before_draw(b)
            draw(b, row)

        return self._real_matrices(ranks, n, ks, B, recorded)


# --- single replicates vs the brute-force oracle --------------------------------


def test_bootstrap_eta_matches_naive_definition():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(8, 41))
        s = _random_sample(rng, n)
        w = rng.standard_exponential(n)
        for k in {2, 3, int(rng.integers(2, n + 1)), n}:
            got_xy = bt.bootstrap_eta(s, k, w, Direction.X_GIVEN_Y)
            got_yx = bt.bootstrap_eta(s, k, w, Direction.Y_GIVEN_X)
            want_xy = naive_weighted_eta(s.x, s.y, w, k)
            want_yx = naive_weighted_eta(s.y, s.x, w, k)
            assert got_xy == pytest.approx(want_xy, rel=2e-11, abs=1e-13)
            assert got_yx == pytest.approx(want_yx, rel=2e-11, abs=1e-13)
            assert bt.bootstrap_delta(s, k, w) == got_xy - got_yx


def test_bootstrap_eta_with_equal_weights_stays_within_six_over_k():
    # The gap is the k-th concomitant's terms: equal weights sum over the
    # top k concomitants, eta_kn over the top k - 1 (pinned below).
    rng = np.random.default_rng(8)
    for _ in range(100):
        n = int(rng.integers(20, 200))
        s = _random_sample(rng, n)
        k = int(rng.integers(2, n // 2 + 1))
        w = np.ones(n)
        for d in (Direction.X_GIVEN_Y, Direction.Y_GIVEN_X):
            plain = eta_kn(s, k, d).value
            boot = bt.bootstrap_eta(s, k, w, d)
            assert abs(boot - plain) <= 6.0 / k


def test_equal_weights_sum_over_the_top_k_and_eta_kn_over_the_top_k_minus_one():
    # The kernel keeps conditioning ranks Q < k, so equal weights give the
    # literal double sum over the top k concomitants; eta_kn keeps the first
    # k - 1 (pos[:k] < k - 1).  Every sum is an integer below 2**53, so
    # both paths are exact.
    rng = np.random.default_rng(1)
    x = rng.standard_normal(500)
    y = 0.6 * x + 0.8 * rng.standard_normal(500)
    s = make_sample(x, y)
    ones = np.ones(500)
    got = {}
    for d, (ranked, given) in zip(Direction, ((x, y), (y, x))):
        for k in (5, 10, 50, 100, 200):
            got[d, k] = (bt.bootstrap_eta(s, k, ones, d), eta_kn(s, k, d).value)
            assert got[d, k] == (literal_eta(ranked, given, k, top=k), literal_eta(ranked, given, k))
    xy = [got[Direction.X_GIVEN_Y, k] for k in (5, 10, 50, 100, 200)]
    assert [boot == plain for boot, plain in xy] == [True, True, True, False, False]
    assert [round(v, 6) for v in got[Direction.X_GIVEN_Y, 100]] == [0.258948, 0.251604]


def test_bootstrap_eta_scale_invariance_of_weights():
    rng = np.random.default_rng(9)
    s = _random_sample(rng, 80)
    w = rng.standard_exponential(80)
    base = bt.bootstrap_eta(s, 11, w)
    # powers of two rescale every intermediate exactly
    assert bt.bootstrap_eta(s, 11, 2.0 * w) == base
    assert bt.bootstrap_eta(s, 11, 0.25 * w) == base
    # a non-dyadic factor only perturbs rounding
    assert bt.bootstrap_eta(s, 11, 3.0 * w) == pytest.approx(base, rel=1e-12)


def test_bootstrap_eta_validates_like_the_plain_estimator():
    rng = np.random.default_rng(10)
    s = _random_sample(rng, 30)
    w = np.ones(30)
    with pytest.raises(errors.KOutOfRange):
        bt.bootstrap_eta(s, 1, w)
    with pytest.raises(errors.KOutOfRange):
        bt.bootstrap_eta(s, 31, w)
    with pytest.raises(errors.LengthMismatch):
        bt.bootstrap_eta(s, 5, np.ones(29))
    with pytest.raises(errors.DomainError):
        bt.bootstrap_eta(s, 5, w, direction="sideways")


@pytest.mark.parametrize(
    "bad, error",
    [(math.nan, errors.NonFinite), (math.inf, errors.NonFinite),
     (0.0, errors.DomainError), (-1.0, errors.DomainError)],
)
def test_bootstrap_eta_rejects_a_weight_that_is_not_a_positive_real(bad, error):
    s = _random_sample(np.random.default_rng(10), 30)
    w = np.ones(30)
    w[7] = bad
    with pytest.raises(error):
        bt.bootstrap_eta(s, 5, w)


def test_weights_whose_mean_overflows_raise():
    # Equal weights give the unit-weight value; an infinite mean would
    # normalize every weight to 0 and give 0.0 in its place.
    s = make_sample(*np.random.default_rng(0).standard_normal((2, 50)))
    w = np.full(50, 1e308)
    for replicate in (bt.bootstrap_eta, bt.bootstrap_delta):
        with pytest.raises(errors.DomainError, match="mean of the multiplier weights"):
            replicate(s, 10, w)


def test_bootstrap_delta_ranks_once_and_fills_one_batch(monkeypatch):
    rng = np.random.default_rng(65)
    s = _random_sample(rng, 200)
    ranked = []
    real = estimators.concomitant_ranks

    def counted(sample):
        ranked.append(sample)
        return real(sample)

    monkeypatch.setattr(estimators, "concomitant_ranks", counted)
    log = EngineLog(monkeypatch)
    bt.bootstrap_delta(s, 20, rng.standard_exponential(s.n))
    # one ranking serves both directions, and both read one batch of one row
    assert len(ranked) == 1
    assert [rows for _, rows, _ in log.adds] == [1]


@pytest.mark.parametrize("ties", [False, True], ids=["tie_free", "jittered_ties"])
def test_bootstrap_delta_is_the_difference_of_the_two_eta_replicates(ties):
    rng = np.random.default_rng(66)
    for n in (2, 30, 700, 3000):
        if ties:
            x, y = rng.integers(0, 20, size=(2, n)).astype(np.float64)
            s = make_sample(x, y, tie_policy="jitter", seed=n)
        else:
            s = _random_sample(rng, n)
        for k in sorted({2, min(n, 50), n}):
            # unit exponentials, and log-uniform weights that tie weighted ranks
            for w in (rng.standard_exponential(n), 10.0 ** rng.uniform(-20.0, 3.0, n)):
                xy = bt.bootstrap_eta(s, k, w, Direction.X_GIVEN_Y)
                yx = bt.bootstrap_eta(s, k, w, Direction.Y_GIVEN_X)
                assert bt.bootstrap_delta(s, k, w) == xy - yx


@pytest.mark.draw_ahead
def test_bootstrap_delta_above_two_to_the_16_rows_starts_no_thread(monkeypatch):
    # above 2**16 rows a stack holds one replicate, which draws ahead on
    # helper threads when more replicates follow; a single one does not
    rng = np.random.default_rng(67)
    n = 2**16 + 1
    s = _random_sample(rng, n)
    w = rng.standard_exponential(n)
    started = _record_thread_starts(monkeypatch)
    delta = bt.bootstrap_delta(s, 100, w)
    assert started == []
    xy = bt.bootstrap_eta(s, 100, w, Direction.X_GIVEN_Y)
    assert delta == xy - bt.bootstrap_eta(s, 100, w, Direction.Y_GIVEN_X)


# --- multiplier draws -----------------------------------------------------------


def test_zero_draws_of_either_sign_are_nudged(monkeypatch):
    tiny = np.finfo(np.float64).tiny

    class Zeros:
        bit_generator = np.random.Philox(0)

        def standard_exponential(self, out):
            out[:] = [0.0, 2.0, -0.0, 1.0]

    # In place of the Generator that _draw keeps for this thread.
    monkeypatch.setattr(bt._per_thread, "generator", Zeros(), raising=False)
    w = np.empty(4)
    bt._draw(bt._spawn_keys(0, [1])[0], w)
    assert w.tobytes() == np.array([tiny, 2.0, tiny, 1.0]).tobytes()


# Run seeds of one to seven 32-bit words, and a power-study replication
# seed, the first word of generate_state(100) of the seed sequence of 944.
_KEY_SEEDS = [
    0, 1, 7, 2**32 - 1, 2**32, 2**40 + 5, 2**64 + 3, 10**30, 2**128, 2**160 + 1, 2**200 + 9,
    2732714111,
]


# The top replicate numbers of one 32-bit word, the largest that B < 2**32 allows.
_TOP_BS = [2**31, 2**32 - 2, 2**32 - 1]


def _seed_sequence_keys(seed, bs):
    return [seed_sequence(seed, b).generate_state(2, np.uint64).tolist() for b in bs]


@pytest.mark.parametrize("seed", _KEY_SEEDS)
def test_spawn_keys_equal_the_seed_sequence_state(seed):
    # every b of a call, from a single replicate to a few hundred, either side
    # of a power of two, as _engine hashes them
    for B in (1, 127, 128, 129, 300):
        got = bt._spawn_keys(seed, np.arange(1, B + 1, dtype=np.uint64)).tolist()
        assert got == _seed_sequence_keys(seed, range(1, B + 1))
    assert bt._spawn_keys(seed, _TOP_BS).tolist() == _seed_sequence_keys(seed, _TOP_BS)
    # numpy's seed sequence rejects a negative seed with the same error
    with pytest.raises(ValueError, match="non-negative"):
        bt._spawn_keys(-1, [1])


def test_draws_of_any_size_on_the_reused_generator_equal_the_documented_stream():
    # Sizes up and down on the one Generator of this thread: a draw must not
    # depend on the draws before it.
    for seed, b, n in [(0, 1, 2000), (7, 3, 1), (7, 3, 2000), (2**40, 129, 33), (0, 1, 5)]:
        out = np.empty(n)
        draw_replicate(seed, b, out)
        assert out.tobytes() == replicate_weights(seed, b, n).tobytes()


def test_draws_equal_the_documented_stream_on_every_thread():
    n = 257
    cases = [(seed, b) for seed in _KEY_SEEDS for b in (1, 2, 128, 300, *_TOP_BS)]
    want = [replicate_weights(seed, b, n).tobytes() for seed, b in cases]
    keys = [bt._spawn_keys(seed, [b])[0] for seed, b in cases]

    def drawn():
        w = np.empty(n)
        got = []
        for key in keys:
            bt._draw(key, w)
            got.append(w.tobytes())
        return got

    assert drawn() == want
    # Four threads at once, each resetting its own generator, with frequent
    # switches between them.
    on_threads = []
    threads = [threading.Thread(target=lambda: on_threads.append(drawn())) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert on_threads == [want] * 4


@pytest.mark.parametrize("test", [bt.test_eta_zero, bt.test_delta_zero, bt.test_pair])
def test_B_of_two_to_the_32_raises_before_the_replicate_pass(monkeypatch, test):
    s = _random_sample(np.random.default_rng(19), 30)

    def no_work(*args):
        raise AssertionError("reached the replicate pass")

    # Past the check, B = 2**32 would hash 2**32 keys and allocate a (B, grid)
    # matrix: these fail first if the check does not.
    monkeypatch.setattr(bt, "_spawn_keys", no_work)
    monkeypatch.setattr(bt, "_replicate_matrices", no_work)
    tracemalloc.start()
    try:
        with pytest.raises(errors.InvalidB, match=re.escape("< 2**32, got 4294967296")):
            test(s, [5], B=2**32)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # replicate numbers up to 2**32 - 1 fill one 32-bit word
    assert bt._check_B(np.uint32(2**32 - 1)) == 2**32 - 1


# --- full tests against a reconstructed replicate loop ---------------------------


def test_delta_test_fields_reconstructed_exactly():
    rng = np.random.default_rng(12)
    s = _random_sample(rng, 60)
    kgrid = [5, 8, 13]
    B, alpha, seed = 16, 0.1, 7
    results = bt.test_delta_zero(s, kgrid, B=B, alpha=alpha, seed=seed)
    cols = np.empty((B, len(kgrid)))
    for b in range(1, B + 1):
        w = replicate_weights(seed, b, s.n)
        for j, k in enumerate(kgrid):
            cols[b - 1, j] = bt.bootstrap_delta(s, k, w)
    for j, (k, r) in enumerate(zip(kgrid, results)):
        stat = delta_kn(s, k).value
        assert (r.k, r.B, r.alpha) == (k, B, alpha)
        assert r.statistic == stat
        fields = (r.p_value, r.boot_sd, r.ci_low, r.ci_high)
        assert fields == assembled(stat, cols[:, j], k, B, alpha, True)
        assert r.ci_low <= r.statistic <= r.ci_high


def test_eta_test_fields_reconstructed_exactly():
    rng = np.random.default_rng(13)
    s = _random_sample(rng, 50)
    kgrid = [4, 10]
    B, alpha, seed = 12, 0.05, 21
    for d in (Direction.X_GIVEN_Y, Direction.Y_GIVEN_X):
        results = bt.test_eta_zero(s, kgrid, B=B, alpha=alpha, seed=seed, direction=d)
        for j, (k, r) in enumerate(zip(kgrid, results)):
            stat = eta_kn(s, k, d).value
            col = np.array(
                [
                    bt.bootstrap_eta(s, k, replicate_weights(seed, b, s.n), d)
                    for b in range(1, B + 1)
                ]
            )
            assert r.statistic == stat
            # one-sided: replicates whose centered value exceeds the statistic
            fields = (r.p_value, r.boot_sd, r.ci_low, r.ci_high)
            assert fields == assembled(stat, col, k, B, alpha, False)


@pytest.mark.parametrize("B", [1, 2, 7, 20, 129, 1000])
def test_assembled_grid_equals_the_per_column_fields(B):
    # the whole grid at once: every field bit for bit as from its own column
    rng = np.random.default_rng(B)
    ks = np.array([3, 10, 40, 41, 200, 300, 400], dtype=np.int64)
    plain = rng.standard_normal(5) / 10
    plain[2] = 0.0
    boot = rng.standard_normal((B, 5)) * rng.uniform(0.01, 3.0, 5)
    boot[:, 3] = plain[3]
    # Ties in both branches: 0 with every replicate 0, and every replicate
    # 2 * plain, whose centred value 2p - p is exactly p.
    plain = np.append(plain, [0.0, plain[0]])
    boot = np.column_stack((boot, np.zeros(B), np.full(B, 2.0 * plain[0])))
    for two_sided in (False, True):
        results = bt._assemble(plain, boot, ks, B, 0.05, two_sided)
        for j, r in enumerate(results):
            stat = float(plain[j])
            assert type(r.k) is int and r.k == ks[j] and r.statistic == stat
            fields = (r.p_value, r.boot_sd, r.ci_low, r.ci_high)
            assert fields == assembled(stat, boot[:, j], ks[j], B, 0.05, two_sided)


def test_eta_and_delta_tests_share_replicate_weights():
    # the delta replicates must equal the difference of the coupled eta
    # replicates drawn from the same (seed, b) streams; with B=1 the centered
    # matrices collapse and the identity is visible through boot_sd = 0 and
    # through reconstruction above -- here we check the coupling directly
    rng = np.random.default_rng(14)
    s = _random_sample(rng, 45)
    seed, B, k = 99, 10, 7
    w_by_b = [replicate_weights(seed, b, s.n) for b in range(1, B + 1)]
    delta_cols = np.array([bt.bootstrap_delta(s, k, w) for w in w_by_b])
    xy_cols = np.array(
        [bt.bootstrap_eta(s, k, w, Direction.X_GIVEN_Y) for w in w_by_b]
    )
    yx_cols = np.array(
        [bt.bootstrap_eta(s, k, w, Direction.Y_GIVEN_X) for w in w_by_b]
    )
    assert np.array_equal(delta_cols, xy_cols - yx_cols)
    res = bt.test_delta_zero(s, [k], B=B, seed=seed)[0]
    stat = delta_kn(s, k).value
    assert res.p_value == assembled(stat, delta_cols, k, B, 0.05, True)[0]


def test_identical_series_give_zero_delta_and_p_zero():
    rng = np.random.default_rng(15)
    x = rng.random(50)
    s = make_sample(x, x)
    results = bt.test_delta_zero(s, [5, 10, 20], B=25, seed=4)
    for r in results:
        assert r.statistic == 0.0
        assert r.p_value == 0.0
        assert r.boot_sd == 0.0
        assert r.ci_low == 0.0 and r.ci_high == 0.0


def test_single_replicate_collapses_the_interval():
    rng = np.random.default_rng(16)
    s = _random_sample(rng, 40)
    (r,) = bt.test_eta_zero(s, [8], B=1, seed=0)
    assert r.boot_sd == 0.0
    assert r.ci_low == r.statistic == r.ci_high
    assert r.p_value in (0.0, 1.0)


def test_results_are_deterministic_across_calls():
    rng = np.random.default_rng(17)
    s = _random_sample(rng, 70)
    a = bt.test_delta_zero(s, [6, 12], B=20, seed=5)
    b = bt.test_delta_zero(s, [6, 12], B=20, seed=5)
    assert a == b  # frozen dataclasses compare fieldwise
    c = bt.test_delta_zero(s, [6, 12], B=20, seed=6)
    assert any(ra.boot_sd != rc.boot_sd for ra, rc in zip(a, c))


def test_argument_validation():
    rng = np.random.default_rng(18)
    s = _random_sample(rng, 30)
    for bad_B in (0, -3, True, 2.5):
        with pytest.raises(errors.InvalidB):
            bt.test_eta_zero(s, [5], B=bad_B)
    for bad_alpha in (0.0, 1.0, -0.1, "a"):
        with pytest.raises(errors.DomainError):
            bt.test_eta_zero(s, [5], B=4, alpha=bad_alpha)
    for bad_seed in (-1, True, 1.5, "3", None):
        wording = f"seed must be an integer >= 0, got {bad_seed!r}"
        with pytest.raises(errors.DomainError, match=re.escape(wording)):
            bt.test_pair(s, [5], B=4, seed=bad_seed)
    assert bt.test_pair(s, [5], B=4, seed=np.int64(3)) == bt.test_pair(
        s, [5], B=4, seed=3
    )
    with pytest.raises(errors.KOutOfRange):
        bt.test_eta_zero(s, [], B=4)
    with pytest.raises(errors.KOutOfRange):
        bt.test_delta_zero(s, [5, 5], B=4)
    with pytest.raises(errors.KOutOfRange):
        bt.test_delta_zero(s, [10, 6], B=4)


# --- the shared, tail-truncated replicate engine ----------------------------------


def _batch_rows(n, kgrid, B):
    """Rows of a full batch: whole stacks whose first prefixes fit _STACK_ELEMS floats."""
    R = max(1, min(B, bt._STACK_ELEMS // n))
    k_max = kgrid[-1]
    m0 = min(n, int(k_max + 6 * math.sqrt(k_max)))
    return R * max(1, bt._STACK_ELEMS // (R * (4 * m0 + 2)))


def test_pair_makes_two_kernel_calls_per_stack(monkeypatch):
    rng = np.random.default_rng(40)
    s = _random_sample(rng, 300)
    # stacks of _STACK_ELEMS // n = 3 replicates: 3, 3 and 1, from the
    # largest budget that still gives 3
    log = EngineLog(monkeypatch, stack=4 * s.n - 1, tie_free=True)
    B = 7
    bt.test_pair(s, [5, 10, 20], B=B, seed=1)
    assert [b for b, _ in log.draws] == list(range(1, B + 1))
    assert [rows for _, rows, _ in log.adds] == [3, 3, 1]
    # two stacks' first prefixes, 3 * (4 * 46 + 2) floats each, fit the
    # budget, so the kernel is called once per direction and batch of two
    # stacks: 6 rows, then the last stack's 1
    assert _batch_rows(s.n, [5, 10, 20], B) == 6
    assert [call.rows for call in log.kernel] == [6, 6, 1, 1]
    # only the top of the conditioning order reaches the kernel: at most as
    # many entries as the batch's largest count of conditioning ranks below
    # k_max
    for call in log.kernel:
        assert 0 < call.width <= max(call.below) < s.n


def test_kernel_calls_pass_the_batch_rows_first_and_the_grid_last(monkeypatch):
    # perfbench's tracer counts len(args[0]) and len(args[4]) of every call;
    # the log's kernel takes the five arguments by position only
    rng = np.random.default_rng(64)
    s = _random_sample(rng, 300)
    log = EngineLog(monkeypatch, stack=4 * s.n - 1)
    kgrid = [5, 10, 20]
    bt.test_pair(s, kgrid, B=7, seed=1)
    # batches of two stacks of 3 replicates, then the last stack's 1
    assert [call.rows for call in log.kernel] == [6, 6, 1, 1]
    assert all(call.ks == kgrid for call in log.kernel)


def test_single_tests_use_the_same_engine(monkeypatch):
    rng = np.random.default_rng(41)
    s = _random_sample(rng, 120)
    log = EngineLog(monkeypatch, tie_free=True)
    # 5 replicates fit one stack: one call per direction, all 5 as rows
    bt.test_eta_zero(s, [6, 12], B=5, seed=2)
    assert [call.rows for call in log.kernel] == [5]
    bt.test_delta_zero(s, [6, 12], B=5, seed=2)
    assert [call.rows for call in log.kernel] == [5, 5, 5]
    assert [b for b, _ in log.draws] == [1, 2, 3, 4, 5] * 2
    assert all(0 < call.width <= max(call.below) < s.n for call in log.kernel)


def test_pair_equals_the_three_single_tests():
    rng = np.random.default_rng(42)
    for n in (2, 9, 40):
        s = _random_sample(rng, n)
        kgrid = sorted({2, max(2, n // 3), n})
        pair = bt.test_pair(s, kgrid, B=11, alpha=0.1, seed=6)
        xy = bt.test_eta_zero(s, kgrid, B=11, alpha=0.1, seed=6)
        yx = bt.test_eta_zero(
            s, kgrid, B=11, alpha=0.1, seed=6, direction=Direction.Y_GIVEN_X
        )
        delta = bt.test_delta_zero(s, kgrid, B=11, alpha=0.1, seed=6)
        assert pair == (xy, yx, delta)
        assert pair.eta_xy == xy and pair.eta_yx == yx and pair.delta == delta


def test_truncated_engine_equals_full_sort_reference():
    rng = np.random.default_rng(43)
    cases = [(2, [2])] + [(int(n), None) for n in rng.integers(3, 61, size=25)]
    for n, kgrid in cases:
        s = _random_sample(rng, n)
        if kgrid is None:
            kgrid = sorted({int(k) for k in rng.integers(2, n + 1, size=4)} | {n})
        _assert_engine_equals_full_sort(s, kgrid, B=4, seed=int(rng.integers(0, 1000)))


def _assert_engine_equals_full_sort(s, kgrid, B, seed, draw=draw_replicate):
    """The engine on the weights draw(seed, b, out) equals the reference on them."""
    ks = np.asarray(kgrid, dtype=np.int64)
    ranks = _directed_ranks(s, bt._BOTH)
    mats = bt._replicate_matrices(ranks, s.n, ks, B, functools.partial(draw, seed))
    w = np.empty(s.n)
    for b in range(1, B + 1):
        draw(seed, b, w)
        wo = w / w.mean()
        want_xy = full_sort_replicate(s.x, s.y, wo, ks)
        want_yx = full_sort_replicate(s.y, s.x, wo, ks)
        assert np.array_equal(mats[Direction.X_GIVEN_Y][b - 1], want_xy)
        assert np.array_equal(mats[Direction.Y_GIVEN_X][b - 1], want_yx)


def test_prefix_stops_well_short_of_a_large_sample(monkeypatch):
    rng = np.random.default_rng(44)
    s = _random_sample(rng, 5000)
    log = EngineLog(monkeypatch)
    _assert_engine_equals_full_sort(s, [20, 33, 47, 60], B=6, seed=8)
    # one stack of all 6 replicates: one prefix length for both orders,
    # bounded by k_max, read by both directions
    assert [(bound, rows) for bound, rows, _ in log.adds] == [(60.0, 6)]
    assert max(size for _, _, size in log.adds) <= 4 * 60 < s.n


def test_prefix_grows_when_the_top_ranks_carry_tiny_weights(monkeypatch):
    rng = np.random.default_rng(45)
    s = _random_sample(rng, 2000)
    # The 600 largest values of each series weigh almost nothing, so the
    # first prefix guess (bound + 6 sqrt(bound)) sums far below its bound.
    light = np.zeros(s.n, dtype=bool)
    light[np.argsort(-s.x)[:600]] = True
    light[np.argsort(-s.y)[:600]] = True

    def draw(seed, b, out):
        draw_replicate(seed, b, out)
        out[light] *= 1e-9

    log = EngineLog(monkeypatch)
    _assert_engine_equals_full_sort(s, [5, 12, 30], B=4, seed=9, draw=draw)
    # One stack of all 4 replicates, whose prefix is the first of m0, 2 m0,
    # 4 m0, ..., capped at n, at which every replicate's total along
    # decreasing x and along decreasing y reaches k_max.
    w = np.empty((4, s.n))
    for b, row in enumerate(w, 1):
        draw(9, b, row)
    w /= w.mean(axis=1, keepdims=True)
    orders = [np.argsort(-s.x), np.argsort(-s.y)]
    m = m0 = int(30 + 6 * math.sqrt(30))
    while min(np.cumsum(w[:, o[:m]], axis=1)[:, -1].min() for o in orders) < 30:
        m = min(s.n, 2 * m)
    assert log.adds == [(30.0, 4, m)]
    # it doubled at least twice but stopped before n
    assert 4 * m0 <= m < s.n


def test_prefix_covers_the_sample_when_k_max_is_n_minus_one(monkeypatch):
    rng = np.random.default_rng(46)
    n = 50
    s = _random_sample(rng, n)
    log = EngineLog(monkeypatch)
    _assert_engine_equals_full_sort(s, [2, 17, n - 1], B=5, seed=10)
    assert log.adds and all(size == n for _, _, size in log.adds)


# --- replicate stacks against the full-sort reference ------------------------------


def test_stacks_equal_the_full_sort_reference(monkeypatch):
    rng = np.random.default_rng(47)
    s = _random_sample(rng, 400)
    kgrid = [10, 25, 40, 60]
    # stacks of _STACK_ELEMS // n = 3 replicates, so B = 7 leaves a last
    # stack of one
    log = EngineLog(monkeypatch, stack=3 * s.n, tie_free=True)
    _assert_engine_equals_full_sort(s, kgrid, B=7, seed=11)
    assert [call.rows for call in log.kernel] == [3, 3, 3, 3, 1, 1]
    # rows of one stack count different numbers of conditioning ranks below
    # k_max, so the shorter rows carry finite ranks at positions past their
    # own count, which the kernel drops
    assert any(len(set(call.below)) > 1 for call in log.kernel)
    log.kernel.clear()
    _assert_engine_equals_full_sort(s, kgrid, B=1, seed=12)
    assert [call.rows for call in log.kernel] == [1, 1]


def _count_row_sorts(monkeypatch):
    """Record the name of every np.argsort or np.lexsort call on a 2-D array."""
    seen = []
    for name in ("argsort", "lexsort"):
        real = getattr(np, name)

        def counted(a, *args, _real=real, _name=name, **kwargs):
            keys = a if _name == "lexsort" else (a,)
            if any(np.ndim(key) > 1 for key in keys):
                seen.append(_name)
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np, name, counted)
    return seen


def test_a_tie_free_stack_sorts_no_rows(monkeypatch):
    rng = np.random.default_rng(52)
    s = _random_sample(rng, 500)
    sorts = _count_row_sorts(monkeypatch)
    # the log checks that every row is in the shared rank order
    log = EngineLog(monkeypatch, tie_free=True)
    bt.test_pair(s, [10, 25, 40, 60], B=30, seed=17)
    assert [call.rows for call in log.kernel] == [30, 30]
    assert sorts == []


def test_tied_weighted_ranks_keep_the_unweighted_rank_order_of_the_full_sort_reference(
    monkeypatch,
):
    # Elements 0..9 hold the largest x and the smallest y, so they never
    # enter the tail.  Element 10 (x reverse rank 11) weighs too little to
    # move a running sum of 10, so element 11 (reverse rank 12) gets the same
    # weighted rank, 10.  Element 11 comes first in the conditioning order:
    # the reverse of their reverse-rank order.
    n = 40
    x = -np.arange(n, dtype=np.float64)
    y = np.concatenate((-100.0 - np.arange(10), [99.0, 100.0], 50.0 - np.arange(n - 12)))
    s = make_sample(x, y)

    def draw(seed, b, out):
        # they sum to exactly n, so the normalized weights are these values
        out[:] = 1.0
        out[10] = 1e-20
        out[n - 1] = 2.0

    sorts = _count_row_sorts(monkeypatch)
    log = EngineLog(monkeypatch)
    _assert_engine_equals_full_sort(s, [12, 16, 20], B=3, seed=16, draw=draw)
    assert sorts == []
    # the engine's first call is the X_GIVEN_Y stack: both tied elements are
    # kept at k = 12 and reach the kernel in reverse-rank order, so their
    # conditioning ranks read 1.0 (position 1) and 0.0 (position 0); the
    # third column, position 2, reads 1.0 too, as element 10 weighs 1e-20
    rx, ry = log.kernel[0].rx, log.kernel[0].ry
    assert rx.shape[0] == 3
    assert np.all(rx[:, :3] == [10.0, 10.0, 11.0])
    assert np.all(ry[:, :3] == [1.0, 0.0, 1.0])


def log_uniform_draw(seed, b, out):
    """Weights spread over 23 decades, from a stream seeded by (seed, b)."""
    out[:] = 10.0 ** np.random.default_rng([seed, b]).uniform(-20.0, 3.0, out.size)


@pytest.mark.draw_ahead
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    n=st.integers(2, 150),
    B=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    stack=st.sampled_from([1, 3, bt._STACK_ELEMS]),
)
@example(n=150, B=5, seed=0, stack=bt._STACK_ELEMS)
def test_log_uniform_weights_tie_ranks_and_equal_the_full_sort_reference(n, B, seed, stack):
    # Weights spread over 23 decades: many are too small to move the running
    # sum of the larger ones before them, so weighted ranks tie by rounding.
    rng = np.random.default_rng(seed)
    s = _random_sample(rng, n)
    kgrid = sorted({int(k) for k in rng.integers(2, n + 1, size=3)})
    with pytest.MonkeyPatch.context() as mp:
        log = EngineLog(mp, stack=stack * n)
        _assert_engine_equals_full_sort(s, kgrid, B, seed, draw=log_uniform_draw)
    # Ties need room: a kernel input of 40 columns or more ties a rank below
    # k_max, while a narrow one, as when heavy weights come first, may not.
    widest = max(call.width for call in log.kernel)
    assert widest < 40 or any(call.tied for call in log.kernel)


@pytest.mark.draw_ahead
def test_replicate_wider_than_the_block_equals_the_full_sort_reference(monkeypatch):
    rng = np.random.default_rng(48)
    s = _random_sample(rng, 1500)
    kgrid = list(range(10, 1400, 10))
    # one replicate per stack, as a sample of more than _STACK_ELEMS / 2 gets
    log = EngineLog(monkeypatch, stack=s.n)
    _assert_engine_equals_full_sort(s, kgrid, B=2, seed=13)
    # a first prefix of all n, wider than the budget, so each batch holds one
    # stack; the replicate's grid split into runs of rows
    assert _batch_rows(s.n, kgrid, 2) == 1
    assert [(R, len(widest)) for R, widest, _ in log.runs] == [(1, len(kgrid))] * (2 * 2)
    assert all(len(runs) > 1 for _, _, runs in log.runs)


def test_batches_of_tied_stacks_with_unequal_prefixes_equal_the_full_sort_reference(
    monkeypatch,
):
    # Stacks of 3 replicates and first prefixes of 12 + 6 sqrt(12) = 32
    # entries, so three stacks, 3 * (4 * 32 + 2) floats each, fit a batch.
    # Log-uniform weights tie weighted ranks and stop the stacks' prefixes at
    # different lengths within a batch.
    rng = np.random.default_rng(63)
    s = _random_sample(rng, 400)
    kgrid = [3, 8, 12]
    B = 20

    log = EngineLog(monkeypatch, stack=3 * s.n)
    assert _batch_rows(s.n, kgrid, B) == 9
    _assert_engine_equals_full_sort(s, kgrid, B=B, seed=24, draw=log_uniform_draw)
    assert [call.rows for call in log.kernel] == [9, 9, 9, 9, 2, 2]
    assert any(call.tied for call in log.kernel)
    # the first batch's three stacks, one prefix length each
    assert [rows for _, rows, _ in log.adds[:3]] == [3] * 3
    assert len({size for _, _, size in log.adds[:3]}) > 1


def _record_thread_starts(monkeypatch):
    started = []
    real = threading.Thread.start

    def start(self):
        started.append(self.name)
        real(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


@pytest.mark.draw_ahead
def test_one_replicate_stacks_draw_ahead_on_two_helper_threads(monkeypatch):
    rng = np.random.default_rng(53)
    s = _random_sample(rng, 300)
    # one replicate per stack, as a sample of more than _STACK_ELEMS / 2 gets
    log = EngineLog(monkeypatch, stack=s.n)
    started = _record_thread_starts(monkeypatch)
    before = threading.active_count()
    B = 7
    _assert_engine_equals_full_sort(s, [5, 10, 20, 40], B=B, seed=18)
    # each replicate drawn once, none on the calling thread
    assert sorted(b for b, _ in log.draws) == list(range(1, B + 1))
    helpers = {ident for _, ident in log.draws}
    assert len(helpers) <= 2 and threading.get_ident() not in helpers
    # one pool, whose threads are named <pool>_<index>
    assert 1 <= len(started) <= 2
    assert len({name.rpartition("_")[0] for name in started}) == 1
    assert threading.active_count() == before


@pytest.mark.draw_ahead
def test_a_failed_draw_ahead_raises_and_leaves_no_thread(monkeypatch):
    rng = np.random.default_rng(54)
    s = _random_sample(rng, 300)
    fail_at = 3
    error = RuntimeError(f"draw {fail_at} failed")

    def fail(b):
        if b == fail_at:
            raise error

    log = EngineLog(monkeypatch, stack=s.n, before_draw=fail)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as exc:
        bt.test_pair(s, [5, 10, 20], B=7, seed=19)
    assert exc.value is error
    # each draw asked for at most once, and none past the two queued behind
    # the failed one
    asked = sorted(b for b, _ in log.draws)
    assert len(set(asked)) == len(asked)
    assert asked[:fail_at] == list(range(1, fail_at + 1))
    assert asked[-1] <= fail_at + 2
    assert threading.active_count() == before


@pytest.mark.draw_ahead
@pytest.mark.parametrize("seed", [57, 58, 59])
def test_draws_finishing_out_of_order_equal_the_full_sort_reference(monkeypatch, seed):
    # seeded sleeps of 0-2 ms around every draw and before every
    # _Batch.add, the one read of a replicate's buffer, so that a buffer
    # handed to the next draw while it is still being read would change a
    # value; draw 1 also waits for draw 2, which the other helper runs
    rng = np.random.default_rng(seed)
    s = _random_sample(rng, 300)
    B = 12
    around = rng.uniform(0.0, 0.002, size=(B + 1, 2))
    before_read = iter(rng.uniform(0.0, 0.002, size=B))
    finished = []
    second = threading.Event()

    def slow_draw(seed, b, out):
        if b == 1:
            assert second.wait(timeout=10)
        time.sleep(around[b, 0])
        draw_replicate(seed, b, out)
        time.sleep(around[b, 1])
        finished.append(b)
        if b == 2:
            second.set()

    EngineLog(monkeypatch, stack=s.n, before_add=lambda: time.sleep(next(before_read)))
    _assert_engine_equals_full_sort(s, [5, 10, 20, 40], B=B, seed=21, draw=slow_draw)
    assert finished.index(2) < finished.index(1)


@pytest.mark.draw_ahead
def test_a_ring_buffer_is_drawn_into_only_after_its_prefixes_are_read(monkeypatch):
    # one replicate per stack, drawn ahead into a ring of _AHEAD buffers; a
    # 2 ms wait before each _Batch.add, the one read of a buffer, gives a
    # helper time to draw into a buffer that is still to be read
    rng = np.random.default_rng(69)
    s = _random_sample(rng, 300)
    B = 9
    events = []
    EngineLog(
        monkeypatch, stack=s.n, before_draw=lambda b: events.append(("draw", b)),
        before_add=lambda: time.sleep(0.002), after_add=lambda: events.append(("read", None)),
    )
    _assert_engine_equals_full_sort(s, [5, 10, 20, 40], B=B, seed=27)
    read = [i for i, (kind, _) in enumerate(events) if kind == "read"]
    drawn = {b: i for i, (kind, b) in enumerate(events) if kind == "draw"}
    assert len(read) == B and sorted(drawn) == list(range(1, B + 1))
    # replicate b + _AHEAD takes replicate b's buffer once its prefixes are read
    for b in range(1, B - bt._AHEAD + 1):
        assert drawn[b + bt._AHEAD] > read[b - 1]


@pytest.mark.draw_ahead
def test_one_replicate_stacks_make_two_kernel_calls_per_batch(monkeypatch):
    rng = np.random.default_rng(60)
    s = _random_sample(rng, 2000)
    kgrid = [5, 10, 20]
    # one replicate per stack, as a sample of more than _STACK_ELEMS / 2 gets;
    # a first prefix of 20 + 6 sqrt(20) = 46 entries, so ten stacks, 4 * 46 + 2
    # floats each, fit a batch
    log = EngineLog(monkeypatch, stack=s.n, tie_free=True)
    B = 25
    batch = _batch_rows(s.n, kgrid, B)
    assert batch == 10
    bt.test_pair(s, kgrid, B=B, seed=23)
    # one call per direction and batch, not per replicate (2 * B)
    assert len(log.kernel) == 2 * math.ceil(B / batch)
    assert [call.rows for call in log.kernel] == [10, 10, 10, 10, 5, 5]
    assert sorted(b for b, _ in log.draws) == list(range(1, B + 1))


@pytest.mark.draw_ahead
def test_batch_rows_with_unequal_prefixes_equal_the_full_sort_reference(monkeypatch):
    rng = np.random.default_rng(61)
    s = _random_sample(rng, 2000)
    kgrid = [5, 12, 30]
    B = 7
    # one replicate per stack, and all 7 in one batch of first prefixes of
    # 30 + 6 sqrt(30) = 62 entries
    log = EngineLog(monkeypatch, stack=s.n, tie_free=True)
    assert _batch_rows(s.n, kgrid, B) == 8
    m0 = 62
    # In replicates 2 and 5 the 600 largest values of each series weigh
    # almost nothing, so only their prefixes outgrow the first guess, and the
    # batch pads the other rows out to them.
    light = np.zeros(s.n, dtype=bool)
    light[np.argsort(-s.x)[:600]] = True
    light[np.argsort(-s.y)[:600]] = True
    light_rows = (2, 5)

    def draw(seed, b, out):
        draw_replicate(seed, b, out)
        if b in light_rows:
            out[light] *= 1e-9

    _assert_engine_equals_full_sort(s, kgrid, B=B, seed=22, draw=draw)
    # one prefix length per replicate, for both orders, read in replicate
    # order
    grown = [size > m0 for _, rows, size in log.adds]
    assert all(rows == 1 for _, rows, _ in log.adds)
    assert grown == [b in light_rows for b in range(1, B + 1)]
    assert len({size for _, _, size in log.adds}) > 1
    assert [call.rows for call in log.kernel] == [B, B]


@pytest.mark.parametrize("light_series", ["x", "y"])
def test_one_order_outgrowing_its_first_prefix_equals_the_full_sort_reference(
    monkeypatch, light_series
):
    rng = np.random.default_rng(64)
    s = _random_sample(rng, 2000)
    kgrid = [5, 12, 30]
    B, seed = 4, 25
    m0 = 62
    # The 600 largest values of one series weigh almost nothing, so only the
    # prefix along that series' order outgrows the first guess of 30 +
    # 6 sqrt(30) = 62 entries, and the other order's prefix runs to the same
    # length: its extra running sums are at least k_max, which the kernel
    # drops.
    light = np.zeros(s.n, dtype=bool)
    light[np.argsort(-getattr(s, light_series))[:600]] = True

    def draw(seed, b, out):
        draw_replicate(seed, b, out)
        out[light] *= 1e-9

    # along the other series the first guess already reaches k_max
    other = s.y if light_series == "x" else s.x
    w = np.empty(s.n)
    for b in range(1, B + 1):
        draw(seed, b, w)
        assert (w / w.mean())[np.argsort(-other)[:m0]].sum() >= kgrid[-1]
    log = EngineLog(monkeypatch)
    _assert_engine_equals_full_sort(s, kgrid, B=B, seed=seed, draw=draw)
    # one stack of all B replicates, whose one prefix length outgrew m0
    assert [(bound, rows) for bound, rows, _ in log.adds] == [(30.0, B)]
    assert m0 < log.adds[0][2] < s.n


@pytest.mark.draw_ahead
def test_a_single_replicate_starts_no_thread(monkeypatch):
    rng = np.random.default_rng(55)
    s = _random_sample(rng, 300)
    log = EngineLog(monkeypatch, stack=s.n)
    started = _record_thread_starts(monkeypatch)
    _assert_engine_equals_full_sort(s, [5, 10, 20], B=1, seed=20)
    assert started == []
    assert log.draws == [(1, threading.get_ident())]


@pytest.mark.parametrize("block", [1, 50, 400, 1500])
def test_stacks_split_by_a_small_block_equal_the_full_sort_reference(monkeypatch, block):
    # stacks sized by _STACK_ELEMS, evaluated in runs of a smaller block:
    # several grid rows, or single grid rows past the block
    rng = np.random.default_rng(49)
    z = rng.standard_normal(300)
    s = make_sample(z, z + 0.5 * rng.standard_normal(300))
    log = EngineLog(monkeypatch, block=block)
    _assert_engine_equals_full_sort(s, [10, 20, 30, 45, 60], B=10, seed=14)
    # one stack of 10 replicates, one call per direction
    assert [(R, len(widest)) for R, widest, _ in log.runs] == [(10, 5), (10, 5)]
    assert all(len(runs) > 1 for _, _, runs in log.runs)


def test_grid_rows_past_the_block_run_alone_equal_the_full_sort_reference(monkeypatch):
    # one stack of 20 replicates whose low grid rows fit the block in runs
    # and whose high ones each exceed it, so each is a run of its own over
    # all 20 replicates
    rng = np.random.default_rng(50)
    z = rng.standard_normal(600)
    s = make_sample(z, z + 0.5 * rng.standard_normal(600))
    kgrid = [4, 8, 12, 20, 35, 50, 70]
    log = EngineLog(monkeypatch, block=1000)
    _assert_engine_equals_full_sort(s, kgrid, B=20, seed=15)
    assert [(R, len(widest)) for R, widest, _ in log.runs] == [(20, 7), (20, 7)]
    for R, widest, runs in log.runs:
        assert any(t1 - t0 > 1 for t0, t1 in runs)
        high = [t for t in range(len(kgrid)) if R * widest[t] > 1000]
        assert high and all((t, t + 1) in runs for t in high)


def test_stack_memory_is_bounded_by_the_stack_not_by_B():
    rng = np.random.default_rng(51)
    z = rng.standard_normal(2000)
    s = make_sample(z, z + rng.standard_normal(2000))
    kgrid = default_kgrid(s.n)
    bt.test_delta_zero(s, kgrid, B=2, seed=3)
    peaks = {}
    tracemalloc.start()
    try:
        for B in (100, 400):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            bt.test_delta_zero(s, kgrid, B=B, seed=3)
            peaks[B] = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # a few stack-sized temporaries at most
    assert peaks[100] <= 6 * bt._STACK_ELEMS * 8
    # four times the replicates add no more than the (B, grid) matrices: one
    # per direction and their difference
    assert peaks[400] - peaks[100] <= 3 * (400 - 100) * len(kgrid) * 8


def test_every_stack_buffer_is_freed_before_the_kernel_runs(monkeypatch):
    # stacks of 3 replicates, 3, 3 and 1, each drawn into a buffer of its own
    # and evaluated as a batch of its own: a buffer that outlived its batch's
    # prefix step would add to the kernel's peak memory
    rng = np.random.default_rng(70)
    s = _random_sample(rng, 300)
    buffers = []

    def draw(b, row):
        buffers.append(weakref.ref(row.base))
        draw_replicate(28, b, row)

    def all_freed():
        assert buffers and all(buffer() is None for buffer in buffers)

    log = EngineLog(monkeypatch, stack=3 * s.n, before_kernel=all_freed)
    ks = np.asarray([5, 10, 20, 40], dtype=np.int64)
    bt._replicate_matrices(_directed_ranks(s, bt._BOTH), s.n, ks, 7, draw)
    assert [rows for _, rows, _ in log.adds] == [3, 3, 1]
    assert [call.rows for call in log.kernel] == [3, 3, 3, 3, 1, 1]
    assert len(buffers) == 7


@pytest.mark.draw_ahead
def test_batch_memory_is_bounded_by_the_batch_not_by_B(monkeypatch):
    rng = np.random.default_rng(62)
    z = rng.standard_normal(4000)
    s = make_sample(z, z + rng.standard_normal(4000))
    kgrid = [10, 20, 30, 40]
    # one replicate per stack, drawn ahead, in batches of 12 first prefixes
    # of 40 + 6 sqrt(40) = 77 entries
    EngineLog(monkeypatch, stack=s.n, record=False)
    rows = _batch_rows(s.n, kgrid, 160)
    assert rows == 12
    bt.test_delta_zero(s, kgrid, B=2, seed=3)
    peaks = {}
    tracemalloc.start()
    try:
        for B in (40, 160):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            bt.test_delta_zero(s, kgrid, B=B, seed=3)
            peaks[B] = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # four times the replicates add the (B, grid) matrices, one per direction
    # and their difference, and less than one batch's prefixes besides; a
    # batch of every replicate would add 120 rows of prefixes
    matrices = 3 * (160 - 40) * len(kgrid) * 8
    batch = rows * (4 * 77 + 2) * 8
    assert peaks[160] - peaks[40] <= matrices + batch


# --- sweep summaries -------------------------------------------------------------


def _fake_result(p, alpha=0.05):
    return bt.TestResult(
        k=10, statistic=0.1, p_value=p, boot_sd=0.0,
        ci_low=0.0, ci_high=0.2, B=100, alpha=alpha,
    )


def test_summarize_rejection_counts_and_threshold():
    results = [_fake_result(p) for p in (0.01, 0.2, 0.04, 0.049, 0.05)]
    v = bt.summarize_rejection(results, threshold=0.6)
    assert v.fraction_below_alpha == pytest.approx(0.6)
    assert v.reject and v.n_k == 5 and v.threshold == 0.6
    # strict comparison against alpha: p == alpha does not count
    v2 = bt.summarize_rejection(results, threshold=0.75)
    assert not v2.reject
    with pytest.raises(errors.DomainError):
        bt.summarize_rejection([])
    with pytest.raises(errors.DomainError):
        bt.summarize_rejection(results, threshold=0.0)
    with pytest.raises(errors.DomainError):
        bt.summarize_rejection(results, threshold=1.5)
    # a bool is not a fraction, although True == 1
    with pytest.raises(errors.DomainError):
        bt.summarize_rejection(results, threshold=True)


def test_a_p_value_equal_to_alpha_is_not_below_it():
    # one exceedance in B = 20 replicates: p = 1/20 is alpha = 0.05 exactly
    at_alpha = bt.TestResult(
        k=10, statistic=0.1, p_value=1 / 20, boot_sd=0.0, ci_low=0.0, ci_high=0.2, B=20,
        alpha=0.05,
    )
    assert at_alpha.p_value == at_alpha.alpha
    verdict = bt.summarize_rejection([at_alpha])
    assert verdict.fraction_below_alpha == 0.0 and not verdict.reject


# --- normal quantile --------------------------------------------------------------


def _float_neighbours(points, width):
    """Each point and the `width` floats on either side of it."""
    bits = np.asarray(points, dtype=np.float64).view(np.int64)
    return (bits[:, None] + np.arange(-width, width + 1)).ravel().view(np.float64)


def test_normal_quantile_against_scipy():
    # Bit for bit against scipy's ndtri: both tails down to 1e-300, p within
    # 1e-16 of 1, and the branch points exp(-2), 1 - exp(-2) and the switch
    # at x = sqrt(-2 log p) = 8 (p = exp(-32)) with their float neighbours.
    rng = np.random.default_rng(20261019)
    edges = [math.exp(-2), 1 - math.exp(-2), math.exp(-32), 1.2664165549e-14, 0.5]
    ps = np.concatenate(
        [
            rng.random(40_000),
            10.0 ** rng.uniform(-300, 0, 30_000),
            1 - 10.0 ** rng.uniform(-16, 0, 20_000),
            1 - rng.integers(1, 2**30, 10_000) * 2.0**-53,
            _float_neighbours(edges, 64),
            [1e-12, 1e-9, 1e-6, 0.001, 0.024, 0.025, 0.026, 5e-324, 1 - 2**-53],
        ]
    )
    ps = ps[(ps > 0) & (ps < 1)]
    assert ps.size >= 100_000
    want = 0.0 - ndtri(ps)  # upper-tail convention
    got = np.array([bt.normal_quantile(float(p)) for p in ps])
    bad = np.flatnonzero(got != want)
    assert bad.size == 0, [float(p).hex() for p in ps[bad[:5]]]


def test_normal_quantile_known_points():
    assert bt.normal_quantile(0.5) == 0.0
    assert math.copysign(1.0, bt.normal_quantile(0.5)) == 1.0  # not -0.0
    # z_{alpha/2} of the reports' alpha = 0.01, 0.05, 0.1, 0.2, as scipy gives them
    for alpha, z in [
        (0.01, "0x1.49b4c64d69161p+1"),
        (0.05, "0x1.f5c0331eeff86p+0"),
        (0.1, "0x1.a515209676abep+0"),
        (0.2, "0x1.4813c36e26d32p+0"),
    ]:
        assert bt.normal_quantile(alpha / 2) == float.fromhex(z)
    assert bt.normal_quantile(0.975) == -1.959963984540054
    assert type(bt.normal_quantile(0.025)) is float
    for bad in (0.0, 1.0, -0.5, 1.5, float("nan"), "x", None):
        with pytest.raises(errors.DomainError):
            bt.normal_quantile(bad)
