"""Bootstrap machinery tests.

The heart of this module is a brute-force oracle: the weighted replicate
statistic is recomputed from its definition with quadratic loops (weighted
reverse ranks by pairwise comparison, the pair sum written out literally) and
compared against the production path.  The replicate stream protocol is pinned
by reconstructing the multiplier batches with raw numpy seed sequences, which
must reproduce every field of a TestResult exactly.
"""

import functools
import math
import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from tailasym import _kernels
from tailasym import bootstrap as bt
from tailasym import errors, estimators
from tailasym.estimators import Direction, _oriented_ranks, delta_kn, eta_kn
from tailasym.pipeline import default_kgrid
from tailasym.ranks import make_sample


def _random_sample(rng, n):
    return make_sample(rng.random(n) * 10 - 5, rng.standard_normal(n))


def replicate_weights(seed, b, n):
    """The documented multiplier stream for replicate b: Philox((seed, (0, b)))."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(0, b))
    rng = np.random.Generator(np.random.Philox(seq))
    return rng.standard_exponential(n)


def naive_weighted_eta(x, y, w, k):
    """Literal definition of the weighted replicate at tail size k.

    Weighted reverse ranks by pairwise comparison, inclusion of a point when
    the total weight of strictly larger conditioning values is below k, and
    the (k - max)_+ pair sum evaluated with two explicit loops.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    wo = np.asarray(w, dtype=float)
    wo = wo / wo.mean()
    rx = np.array([wo[x > xi].sum() for xi in x])
    ry = np.array([wo[y > yi].sum() for yi in y])
    idx = np.flatnonzero(ry < k)
    s = 0.0
    for i in idx:
        for j in idx:
            m = max(rx[i], rx[j])
            if m < k:
                s += wo[i] * wo[j] * (k - m)
    return 3.0 * s / k**3


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
        # reverse ranks of the ranked series, by decreasing conditioning value
        order = np.argsort(-given)
        rho = np.array([1 + np.count_nonzero(ranked > ranked[i]) for i in order])

        def literal(k, top):
            larger = np.maximum.outer(rho[:top], rho[:top])
            return 3 * int(np.maximum(k + 1 - larger, 0).sum()) / k**3

        for k in (5, 10, 50, 100, 200):
            got[d, k] = (bt.bootstrap_eta(s, k, ones, d), eta_kn(s, k, d).value)
            assert got[d, k] == (literal(k, k), literal(k, k - 1))
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


def test_bootstrap_delta_ranks_once_and_fills_one_batch(monkeypatch):
    rng = np.random.default_rng(65)
    s = _random_sample(rng, 200)
    ranked = []
    real = estimators.concomitant_ranks

    def counted(sample):
        ranked.append(sample)
        return real(sample)

    monkeypatch.setattr(estimators, "concomitant_ranks", counted)
    seen = _record_prefixes(monkeypatch)
    bt.bootstrap_delta(s, 20, rng.standard_exponential(s.n))
    # one ranking serves both directions, and both read one batch of one row
    assert len(ranked) == 1
    assert [rows for _, rows, _ in seen] == [1]


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
    bt._draw(0, 1, w)
    assert w.tobytes() == np.array([tiny, 2.0, tiny, 1.0]).tobytes()


# Run seeds of one to four 32-bit words and more, and a power-study replication
# seed, the first of np.random.SeedSequence(944).generate_state(100).
_KEY_SEEDS = [0, 1, 7, 2**32 - 1, 2**32, 2**40 + 5, 2**64 + 3, 10**30, 2**200 + 9, 2732714111]
# Every b of the first three key blocks, the edges of a block past 2**32, and
# replicate numbers of two and three 32-bit words.
_KEY_BS = [
    *range(1, 301),
    2**32 - 1, 2**32, 2**32 + 127, 2**32 + 128, 2**33 + 7,
    2**64 - 1, 2**64, 2**70, 2**70 + 129,
]


@pytest.mark.parametrize("seed", _KEY_SEEDS)
def test_spawn_keys_equal_the_seed_sequence_state(seed):
    got = [bt._spawn_key(seed, b) for b in _KEY_BS]
    want = [
        np.random.SeedSequence(entropy=seed, spawn_key=(0, b))
        .generate_state(2, np.uint64)
        .tolist()
        for b in _KEY_BS
    ]
    assert got == want


def test_draws_of_any_size_on_the_reused_generator_equal_the_documented_stream():
    # Sizes up and down on the one Generator of this thread: a draw must not
    # depend on the draws before it.
    for seed, b, n in [(0, 1, 2000), (7, 3, 1), (7, 3, 2000), (2**40, 129, 33), (0, 1, 5)]:
        out = np.empty(n)
        bt._draw(seed, b, out)
        assert out.tobytes() == replicate_weights(seed, b, n).tobytes()


def test_draws_equal_the_documented_stream_on_every_thread():
    n = 257
    cases = [(seed, b) for seed in _KEY_SEEDS for b in (1, 2, 128, 300, 2**33 + 7, 2**70)]
    want = [replicate_weights(seed, b, n).tobytes() for seed, b in cases]

    def drawn():
        w = np.empty(n)
        got = []
        for seed, b in cases:
            bt._draw(seed, b, w)
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
    # numpy's seed sequence rejects a negative seed with the same error
    with pytest.raises(ValueError, match="non-negative"):
        bt._draw(-1, 1, np.empty(n))


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
    z = bt.normal_quantile(alpha / 2.0)
    for j, (k, r) in enumerate(zip(kgrid, results)):
        stat = delta_kn(s, k).value
        col = cols[:, j]
        assert (r.k, r.B, r.alpha) == (k, B, alpha)
        assert r.statistic == stat
        assert r.p_value == np.count_nonzero(np.abs(col - stat) > abs(stat)) / B
        sd = math.sqrt(k) * float(np.std(col, ddof=1))
        assert r.boot_sd == sd
        half = z * sd / math.sqrt(k)
        assert r.ci_low == stat - half
        assert r.ci_high == stat + half
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
            assert r.p_value == np.count_nonzero(col - stat > stat) / B
            assert r.boot_sd == math.sqrt(k) * float(np.std(col, ddof=1))


@pytest.mark.parametrize("B", [1, 2, 7, 20, 129, 1000])
def test_assembled_grid_equals_the_per_column_fields(B):
    # the whole grid at once: every field bit for bit as from its own column
    rng = np.random.default_rng(B)
    ks = np.array([3, 10, 40, 41, 200], dtype=np.int64)
    plain = rng.standard_normal(ks.size) / 10
    plain[2] = 0.0
    boot = rng.standard_normal((B, ks.size)) * rng.uniform(0.01, 3.0, ks.size)
    boot[:, 3] = plain[3]
    z = bt.normal_quantile(0.05 / 2.0)
    for two_sided in (False, True):
        results = bt._assemble(plain, boot, ks, B, 0.05, two_sided)
        for j, r in enumerate(results):
            stat, col, root_k = float(plain[j]), boot[:, j], math.sqrt(ks[j])
            dev = np.abs(col - stat) > abs(stat) if two_sided else col - stat > stat
            sd = root_k * float(np.std(col, ddof=1)) if B > 1 else 0.0
            half = z * sd / root_k
            assert type(r.k) is int and r.k == ks[j]
            assert (r.statistic, r.p_value) == (stat, np.count_nonzero(dev) / B)
            assert (r.boot_sd, r.ci_low, r.ci_high) == (sd, stat - half, stat + half)


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
    assert res.p_value == np.count_nonzero(np.abs(delta_cols - stat) > abs(stat)) / B


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


def _count_weighted_calls(monkeypatch):
    """Record (rows, width, each row's count of conditioning ranks below k_max).

    Every row of a stack comes in one shared order of the conditioning
    positions, and its weighted ranks never decrease along it.  Every column
    has a conditioning rank below k_max in some row, and the last one a rank
    below k_max too.  The engine's stacks here are tie-free, so both kinds of
    rank are distinct up to the ones past the weight prefix, which repeat the
    prefix total, at least k_max.
    """
    calls = []
    real = _kernels.weighted_eta_grid_sums

    def counted(rx_sorted, ry_sorted, w_sorted, out, ks):
        width = rx_sorted.shape[1]
        assert out.shape == (len(rx_sorted), len(ks))
        for ranks in (rx_sorted, np.sort(ry_sorted, axis=1)):
            assert np.all(np.isfinite(ranks))
            step = np.diff(ranks, axis=1)
            assert np.all(step >= 0.0)
            assert np.all((step > 0.0) | (ranks[:, :-1] >= ks[-1]))
        assert np.all(ry_sorted.min(axis=0) < ks[-1])
        assert width == 0 or rx_sorted[:, -1].min() < ks[-1]
        below = np.count_nonzero(ry_sorted < ks[-1], axis=1)
        calls.append((len(rx_sorted), width, below.tolist()))
        return real(rx_sorted, ry_sorted, w_sorted, out, ks)

    monkeypatch.setattr(_kernels, "weighted_eta_grid_sums", counted)
    return calls


def _count_draws(monkeypatch):
    """Record the replicate index b of every multiplier draw."""
    drawn = []
    real = bt._draw

    def draw(seed, b, out):
        drawn.append(b)
        real(seed, b, out)

    monkeypatch.setattr(bt, "_draw", draw)
    return drawn


# The kernel as imported: the reference below calls it past any monkeypatch
# that counts or reshapes the engine's calls.
_kernel = _kernels.weighted_eta_grid_sums


def full_sort_replicate(ranked, conditioning, wo, ks):
    """Reference replicate: all n weighted ranks sorted, no truncation.

    The weighted rank of an element is the exclusive running sum of the
    weights along decreasing ranked values, the total weight of the larger
    ones; equal weighted ranks are ordered by unweighted reverse rank.
    """
    n = ranked.size
    value_order = np.argsort(-ranked, kind="stable")
    y_order = np.argsort(-conditioning, kind="stable")
    ws = wo[value_order]
    r = np.empty(n)
    r[value_order] = np.concatenate(([0.0], np.cumsum(ws)[:-1]))
    reverse = np.empty(n, dtype=np.int64)
    reverse[value_order] = np.arange(1, n + 1)
    rx = r[y_order]
    wy = wo[y_order]
    excl = np.concatenate(([0.0], np.cumsum(wy)[:-1]))
    order = np.lexsort((reverse[y_order], rx))
    sums = _kernel(
        rx[order][None, :], excl[order][None, :], wy[order][None, :],
        np.empty((1, ks.size)), ks,
    )
    return (3.0 * sums[0]) / ks.astype(np.float64) ** 3


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
    monkeypatch.setattr(bt, "_STACK_ELEMS", 4 * s.n - 1)
    calls = _count_weighted_calls(monkeypatch)
    drawn = _count_draws(monkeypatch)
    seen = _record_prefixes(monkeypatch)
    B = 7
    bt.test_pair(s, [5, 10, 20], B=B, seed=1)
    assert drawn == list(range(1, B + 1))
    assert [rows for _, rows, _ in seen] == [3, 3, 1]
    # two stacks' first prefixes, 3 * (4 * 46 + 2) floats each, fit the
    # budget, so the kernel is called once per direction and batch of two
    # stacks: 6 rows, then the last stack's 1
    assert _batch_rows(s.n, [5, 10, 20], B) == 6
    assert [rows for rows, _, _ in calls] == [6, 6, 1, 1]
    # only the top of the conditioning order reaches the kernel: at most as
    # many entries as the batch's largest count of conditioning ranks below
    # k_max
    for _, width, below in calls:
        assert 0 < width <= max(below) < s.n


def test_kernel_calls_pass_the_batch_rows_first_and_the_grid_last(monkeypatch):
    # perfbench's tracer counts len(args[0]) and len(args[4]) of every call
    rng = np.random.default_rng(64)
    s = _random_sample(rng, 300)
    monkeypatch.setattr(bt, "_STACK_ELEMS", 4 * s.n - 1)
    calls = []
    real = _kernels.weighted_eta_grid_sums

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(_kernels, "weighted_eta_grid_sums", recorded)
    kgrid = [5, 10, 20]
    bt.test_pair(s, kgrid, B=7, seed=1)
    # batches of two stacks of 3 replicates, then the last stack's 1
    assert [len(args[0]) for args, _ in calls] == [6, 6, 1, 1]
    for args, kwargs in calls:
        assert len(args) == 5 and kwargs == {}
        assert args[4].tolist() == kgrid


def test_single_tests_use_the_same_engine(monkeypatch):
    rng = np.random.default_rng(41)
    s = _random_sample(rng, 120)
    calls = _count_weighted_calls(monkeypatch)
    drawn = _count_draws(monkeypatch)
    # 5 replicates fit one stack: one call per direction, all 5 as rows
    bt.test_eta_zero(s, [6, 12], B=5, seed=2)
    assert [rows for rows, _, _ in calls] == [5]
    bt.test_delta_zero(s, [6, 12], B=5, seed=2)
    assert [rows for rows, _, _ in calls] == [5, 5, 5]
    assert drawn == [1, 2, 3, 4, 5] * 2
    assert all(0 < width <= max(below) < s.n for _, width, below in calls)


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
        ks = np.asarray(kgrid, dtype=np.int64)
        B, seed = 4, int(rng.integers(0, 1000))
        draw = functools.partial(bt._draw, seed)
        ranks = {d: _oriented_ranks(s, d) for d in bt._BOTH}
        mats = bt._replicate_matrices(ranks, n, ks, B, draw)
        w = np.empty(n)
        for b in range(1, B + 1):
            draw(b, w)
            wo = w / w.mean()
            want_xy = full_sort_replicate(s.x, s.y, wo, ks)
            want_yx = full_sort_replicate(s.y, s.x, wo, ks)
            assert np.array_equal(mats[Direction.X_GIVEN_Y][b - 1], want_xy)
            assert np.array_equal(mats[Direction.Y_GIVEN_X][b - 1], want_yx)


def _record_prefixes(monkeypatch):
    """Record (bound, rows, prefix length) of every stack's weight prefixes.

    One length serves both orders of a stack.
    """
    seen = []
    real = bt._Batch.add

    def recorded(self, W, means):
        m = real(self, W, means)
        seen.append((self.bound, len(W), m))
        return m

    monkeypatch.setattr(bt._Batch, "add", recorded)
    return seen


def _assert_engine_equals_full_sort(s, kgrid, B, seed, draw=bt._draw):
    """The engine on the weights draw(seed, b, out) equals the reference on them."""
    ks = np.asarray(kgrid, dtype=np.int64)
    ranks = {d: _oriented_ranks(s, d) for d in bt._BOTH}
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
    seen = _record_prefixes(monkeypatch)
    _assert_engine_equals_full_sort(s, [20, 33, 47, 60], B=6, seed=8)
    # one stack of all 6 replicates: one prefix length for both orders,
    # bounded by k_max, read by both directions
    assert [(bound, rows) for bound, rows, _ in seen] == [(60.0, 6)]
    assert max(size for _, _, size in seen) <= 4 * 60 < s.n


def test_prefix_grows_when_the_top_ranks_carry_tiny_weights(monkeypatch):
    rng = np.random.default_rng(45)
    s = _random_sample(rng, 2000)
    # The 600 largest values of each series weigh almost nothing, so the
    # first prefix guess (bound + 6 sqrt(bound)) sums far below its bound.
    light = np.zeros(s.n, dtype=bool)
    light[np.argsort(-s.x)[:600]] = True
    light[np.argsort(-s.y)[:600]] = True

    def draw(seed, b, out):
        bt._draw(seed, b, out)
        out[light] *= 1e-9

    seen = _record_prefixes(monkeypatch)
    _assert_engine_equals_full_sort(s, [5, 12, 30], B=4, seed=9, draw=draw)
    # every prefix outgrew its first guess but stopped before n
    assert seen and all(
        bound + 6 * math.sqrt(bound) < size < s.n for bound, _, size in seen
    )


def test_prefix_covers_the_sample_when_k_max_is_n_minus_one(monkeypatch):
    rng = np.random.default_rng(46)
    n = 50
    s = _random_sample(rng, n)
    seen = _record_prefixes(monkeypatch)
    _assert_engine_equals_full_sort(s, [2, 17, n - 1], B=5, seed=10)
    assert seen and all(size == n for _, _, size in seen)


# --- replicate stacks against the full-sort reference ------------------------------


def _record_runs(monkeypatch):
    """Record the stack height, the widest counts and the runs of every kernel call.

    The engine's calls come first, then the one-row calls of the reference.
    """
    seen = []
    real = _kernels._runs

    def recorded(R, widest):
        runs = list(real(R, widest))
        seen.append((R, widest.copy(), runs))
        return runs

    monkeypatch.setattr(_kernels, "_runs", recorded)
    return seen


def test_stacks_equal_the_full_sort_reference(monkeypatch):
    rng = np.random.default_rng(47)
    s = _random_sample(rng, 400)
    kgrid = [10, 25, 40, 60]
    # stacks of _STACK_ELEMS // n = 3 replicates, so B = 7 leaves a last
    # stack of one
    monkeypatch.setattr(bt, "_STACK_ELEMS", 3 * s.n)
    calls = _count_weighted_calls(monkeypatch)
    _assert_engine_equals_full_sort(s, kgrid, B=7, seed=11)
    assert [rows for rows, _, _ in calls] == [3, 3, 3, 3, 1, 1]
    # rows of one stack count different numbers of conditioning ranks below
    # k_max, so the shorter rows carry finite ranks at positions past their
    # own count, which the kernel drops
    assert any(len(set(below)) > 1 for _, _, below in calls)
    calls.clear()
    _assert_engine_equals_full_sort(s, kgrid, B=1, seed=12)
    assert [rows for rows, _, _ in calls] == [1, 1]


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
    # the recorder checks that every row is in the shared rank order
    calls = _count_weighted_calls(monkeypatch)
    bt.test_pair(s, [10, 25, 40, 60], B=30, seed=17)
    assert [rows for rows, _, _ in calls] == [30, 30]
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
    calls = []
    real = _kernels.weighted_eta_grid_sums

    def recorded(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(_kernels, "weighted_eta_grid_sums", recorded)
    _assert_engine_equals_full_sort(s, [12, 16, 20], B=3, seed=16, draw=draw)
    assert sorts == []
    # the engine's first call is the X_GIVEN_Y stack: both tied elements are
    # kept at k = 12 and reach the kernel in reverse-rank order, so their
    # conditioning ranks read 1.0 (position 1) and 0.0 (position 0); the
    # third column, position 2, reads 1.0 too, as element 10 weighs 1e-20
    rx, ry, _, _, _ = calls[0]
    assert rx.shape[0] == 3
    assert np.all(rx[:, :3] == [10.0, 10.0, 11.0])
    assert np.all(ry[:, :3] == [1.0, 0.0, 1.0])


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

    def draw(seed, b, out):
        out[:] = 10.0 ** np.random.default_rng([seed, b]).uniform(-20.0, 3.0, out.size)

    ties = []
    real = _kernels.weighted_eta_grid_sums

    def checked(rx_sorted, ypos_sorted, w_sorted, taus, ks):
        step = np.diff(rx_sorted, axis=1)
        assert np.all(step >= 0.0)
        ties.append(np.any((step == 0.0) & (rx_sorted[:, 1:] < ks[-1])))
        return real(rx_sorted, ypos_sorted, w_sorted, taus, ks)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bt, "_STACK_ELEMS", stack * n)
        mp.setattr(_kernels, "weighted_eta_grid_sums", checked)
        _assert_engine_equals_full_sort(s, kgrid, B, seed, draw=draw)
    assert n < 100 or any(ties)


def test_replicate_wider_than_the_block_equals_the_full_sort_reference(monkeypatch):
    rng = np.random.default_rng(48)
    s = _random_sample(rng, 1500)
    kgrid = list(range(10, 1400, 10))
    # one replicate per stack, as a sample of more than _STACK_ELEMS / 2 gets
    monkeypatch.setattr(bt, "_STACK_ELEMS", s.n)
    seen = _record_runs(monkeypatch)
    _assert_engine_equals_full_sort(s, kgrid, B=2, seed=13)
    # a first prefix of all n, wider than the budget, so each batch holds one
    # stack; the replicate's grid split into runs of rows
    assert _batch_rows(s.n, kgrid, 2) == 1
    engine = seen[: 2 * 2]
    assert all((R, len(widest)) == (1, len(kgrid)) for R, widest, _ in engine)
    assert all(len(runs) > 1 for _, _, runs in engine)


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

    def draw(seed, b, out):
        out[:] = 10.0 ** np.random.default_rng([seed, b]).uniform(-20.0, 3.0, out.size)

    monkeypatch.setattr(bt, "_STACK_ELEMS", 3 * s.n)
    assert _batch_rows(s.n, kgrid, B) == 9
    seen = _record_prefixes(monkeypatch)
    calls = []
    real = _kernels.weighted_eta_grid_sums

    def recorded(rx_sorted, ry_sorted, w_sorted, out, ks):
        step = np.diff(rx_sorted, axis=1)
        tied = np.any((step == 0.0) & (rx_sorted[:, 1:] < ks[-1]))
        calls.append((len(rx_sorted), tied))
        return real(rx_sorted, ry_sorted, w_sorted, out, ks)

    monkeypatch.setattr(_kernels, "weighted_eta_grid_sums", recorded)
    _assert_engine_equals_full_sort(s, kgrid, B=B, seed=24, draw=draw)
    assert [rows for rows, _ in calls] == [9, 9, 9, 9, 2, 2]
    assert any(tied for _, tied in calls)
    # the first batch's three stacks, one prefix length each
    assert [rows for _, rows, _ in seen[:3]] == [3] * 3
    assert len({size for _, _, size in seen[:3]}) > 1


def _record_draw_threads(fail_at=None):
    """A draw that records (b, thread ident) of every call, and the record.

    It raises the returned error at b == fail_at.  Returns the draw, the
    record and the error.
    """
    drawn = []
    error = RuntimeError(f"draw {fail_at} failed")
    real = bt._draw

    def draw(seed, b, out):
        drawn.append((b, threading.get_ident()))
        if b == fail_at:
            raise error
        real(seed, b, out)

    return draw, drawn, error


def _record_thread_starts(monkeypatch):
    started = []
    real = threading.Thread.start

    def start(self):
        started.append(self.name)
        real(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


def test_one_replicate_stacks_draw_ahead_on_two_helper_threads(monkeypatch):
    rng = np.random.default_rng(53)
    s = _random_sample(rng, 300)
    # one replicate per stack, as a sample of more than _STACK_ELEMS / 2 gets
    monkeypatch.setattr(bt, "_STACK_ELEMS", s.n)
    draw, drawn, _ = _record_draw_threads()
    started = _record_thread_starts(monkeypatch)
    before = threading.active_count()
    B = 7
    _assert_engine_equals_full_sort(s, [5, 10, 20, 40], B=B, seed=18, draw=draw)
    # the engine's draws come first, each replicate once, then the reference's
    engine, reference = drawn[:B], drawn[B:]
    assert sorted(b for b, _ in engine) == list(range(1, B + 1))
    main = threading.get_ident()
    helpers = {ident for _, ident in engine}
    assert len(helpers) <= 2 and main not in helpers
    assert all(ident == main for _, ident in reference)
    # one pool, whose threads are named <pool>_<index>
    assert 1 <= len(started) <= 2
    assert len({name.rpartition("_")[0] for name in started}) == 1
    assert threading.active_count() == before


def test_a_failed_draw_ahead_raises_and_leaves_no_thread(monkeypatch):
    rng = np.random.default_rng(54)
    s = _random_sample(rng, 300)
    monkeypatch.setattr(bt, "_STACK_ELEMS", s.n)
    fail_at = 3
    draw, drawn, error = _record_draw_threads(fail_at=fail_at)
    monkeypatch.setattr(bt, "_draw", draw)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as exc:
        bt.test_pair(s, [5, 10, 20], B=7, seed=19)
    assert exc.value is error
    # each draw asked for at most once, and none past the two queued behind
    # the failed one
    asked = sorted(b for b, _ in drawn)
    assert len(set(asked)) == len(asked)
    assert asked[:fail_at] == list(range(1, fail_at + 1))
    assert asked[-1] <= fail_at + 2
    assert threading.active_count() == before


@pytest.mark.parametrize("seed", [57, 58, 59])
def test_draws_finishing_out_of_order_equal_the_full_sort_reference(monkeypatch, seed):
    # seeded sleeps of 0-2 ms around every draw and before every
    # _Batch.add, the one read of a replicate's buffer, so that a buffer
    # handed to the next draw while it is still being read would change a
    # value; draw 1 also waits for draw 2, which the other helper runs
    rng = np.random.default_rng(seed)
    s = _random_sample(rng, 300)
    monkeypatch.setattr(bt, "_STACK_ELEMS", s.n)
    B = 12
    around = rng.uniform(0.0, 0.002, size=(B + 1, 2))
    before_read = iter(rng.uniform(0.0, 0.002, size=B))
    finished = []
    second = threading.Event()
    add = bt._Batch.add

    def slow_draw(seed, b, out):
        if b == 1:
            assert second.wait(timeout=10)
        time.sleep(around[b, 0])
        bt._draw(seed, b, out)
        time.sleep(around[b, 1])
        finished.append(b)
        if b == 2:
            second.set()

    def slow_add(*args):
        time.sleep(next(before_read))
        return add(*args)

    monkeypatch.setattr(bt._Batch, "add", slow_add)
    _assert_engine_equals_full_sort(s, [5, 10, 20, 40], B=B, seed=21, draw=slow_draw)
    assert finished.index(2) < finished.index(1)


def test_one_replicate_stacks_make_two_kernel_calls_per_batch(monkeypatch):
    rng = np.random.default_rng(60)
    s = _random_sample(rng, 2000)
    kgrid = [5, 10, 20]
    # one replicate per stack, as a sample of more than _STACK_ELEMS / 2 gets;
    # a first prefix of 20 + 6 sqrt(20) = 46 entries, so ten stacks, 4 * 46 + 2
    # floats each, fit a batch
    monkeypatch.setattr(bt, "_STACK_ELEMS", s.n)
    calls = _count_weighted_calls(monkeypatch)
    drawn = _count_draws(monkeypatch)
    B = 25
    batch = _batch_rows(s.n, kgrid, B)
    assert batch == 10
    bt.test_pair(s, kgrid, B=B, seed=23)
    # one call per direction and batch, not per replicate (2 * B)
    assert len(calls) == 2 * math.ceil(B / batch)
    assert [rows for rows, _, _ in calls] == [10, 10, 10, 10, 5, 5]
    assert sorted(drawn) == list(range(1, B + 1))


def test_batch_rows_with_unequal_prefixes_equal_the_full_sort_reference(monkeypatch):
    rng = np.random.default_rng(61)
    s = _random_sample(rng, 2000)
    kgrid = [5, 12, 30]
    B = 7
    # one replicate per stack, and all 7 in one batch of first prefixes of
    # 30 + 6 sqrt(30) = 62 entries
    monkeypatch.setattr(bt, "_STACK_ELEMS", s.n)
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
        bt._draw(seed, b, out)
        if b in light_rows:
            out[light] *= 1e-9

    seen = _record_prefixes(monkeypatch)
    calls = _count_weighted_calls(monkeypatch)
    _assert_engine_equals_full_sort(s, kgrid, B=B, seed=22, draw=draw)
    # one prefix length per replicate, for both orders, read in replicate
    # order
    grown = [size > m0 for _, rows, size in seen]
    assert all(rows == 1 for _, rows, _ in seen)
    assert grown == [b in light_rows for b in range(1, B + 1)]
    assert len({size for _, _, size in seen}) > 1
    assert [rows for rows, _, _ in calls] == [B, B]


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
        bt._draw(seed, b, out)
        out[light] *= 1e-9

    # along the other series the first guess already reaches k_max
    other = s.y if light_series == "x" else s.x
    w = np.empty(s.n)
    for b in range(1, B + 1):
        draw(seed, b, w)
        assert (w / w.mean())[np.argsort(-other)[:m0]].sum() >= kgrid[-1]
    seen = _record_prefixes(monkeypatch)
    _assert_engine_equals_full_sort(s, kgrid, B=B, seed=seed, draw=draw)
    # one stack of all B replicates, whose one prefix length outgrew m0
    assert [(bound, rows) for bound, rows, _ in seen] == [(30.0, B)]
    assert m0 < seen[0][2] < s.n


def test_a_single_replicate_starts_no_thread(monkeypatch):
    rng = np.random.default_rng(55)
    s = _random_sample(rng, 300)
    monkeypatch.setattr(bt, "_STACK_ELEMS", s.n)
    draw, drawn, _ = _record_draw_threads()
    started = _record_thread_starts(monkeypatch)
    _assert_engine_equals_full_sort(s, [5, 10, 20], B=1, seed=20, draw=draw)
    assert started == []
    assert all(ident == threading.get_ident() for _, ident in drawn)


@pytest.mark.parametrize("block", [1, 50, 400, 1500])
def test_stacks_split_by_a_small_block_equal_the_full_sort_reference(monkeypatch, block):
    # stacks sized by _STACK_ELEMS, evaluated in runs of a smaller block:
    # several grid rows, or single grid rows past the block
    rng = np.random.default_rng(49)
    z = rng.standard_normal(300)
    s = make_sample(z, z + 0.5 * rng.standard_normal(300))
    real = _kernels.weighted_eta_grid_sums

    def small_block(*args):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "_BLOCK", block)
            return real(*args)

    monkeypatch.setattr(_kernels, "weighted_eta_grid_sums", small_block)
    seen = _record_runs(monkeypatch)
    _assert_engine_equals_full_sort(s, [10, 20, 30, 45, 60], B=10, seed=14)
    # one stack of 10 replicates, one call per direction
    engine = seen[:2]
    assert [(R, len(widest)) for R, widest, _ in engine] == [(10, 5), (10, 5)]
    assert all(len(runs) > 1 for _, _, runs in engine)


def test_grid_rows_past_the_block_run_alone_equal_the_full_sort_reference(monkeypatch):
    # one stack of 20 replicates whose low grid rows fit the block in runs
    # and whose high ones each exceed it, so each is a run of its own over
    # all 20 replicates
    rng = np.random.default_rng(50)
    z = rng.standard_normal(600)
    s = make_sample(z, z + 0.5 * rng.standard_normal(600))
    kgrid = [4, 8, 12, 20, 35, 50, 70]
    real = _kernels.weighted_eta_grid_sums

    def small_block(*args):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "_BLOCK", 1000)
            return real(*args)

    monkeypatch.setattr(_kernels, "weighted_eta_grid_sums", small_block)
    seen = _record_runs(monkeypatch)
    _assert_engine_equals_full_sort(s, kgrid, B=20, seed=15)
    engine = seen[:2]
    assert [(R, len(widest)) for R, widest, _ in engine] == [(20, 7), (20, 7)]
    for R, widest, runs in engine:
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


def test_batch_memory_is_bounded_by_the_batch_not_by_B(monkeypatch):
    rng = np.random.default_rng(62)
    z = rng.standard_normal(4000)
    s = make_sample(z, z + rng.standard_normal(4000))
    kgrid = [10, 20, 30, 40]
    # one replicate per stack, drawn ahead, in batches of 12 first prefixes
    # of 40 + 6 sqrt(40) = 77 entries
    monkeypatch.setattr(bt, "_STACK_ELEMS", s.n)
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
    for bad in (0.0, 1.0, -0.5, 1.5, float("nan"), "x", None):
        with pytest.raises(errors.DomainError):
            bt.normal_quantile(bad)
