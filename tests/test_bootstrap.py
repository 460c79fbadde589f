"""Bootstrap machinery tests.

The heart of this module is a brute-force oracle: the weighted replicate
statistic is recomputed from its definition with quadratic loops (weighted
reverse ranks by pairwise comparison, the pair sum written out literally) and
compared against the production path.  The replicate stream protocol is pinned
by reconstructing the multiplier batches with raw numpy seed sequences, which
must reproduce every field of a TestResult exactly.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtri

from tailasym import _kernels
from tailasym import bootstrap as bt
from tailasym import errors
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


# --- multiplier draws -----------------------------------------------------------


def test_zero_draws_of_either_sign_are_nudged(monkeypatch):
    tiny = np.finfo(np.float64).tiny

    class Zeros:
        def __init__(self, bit_generator):
            pass

        def standard_exponential(self, out):
            out[:] = [0.0, 2.0, -0.0, 1.0]

    monkeypatch.setattr(np.random, "Generator", Zeros)
    w = np.empty(4)
    bt._draw(0, 1, w)
    assert w.tobytes() == np.array([tiny, 2.0, tiny, 1.0]).tobytes()


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
    """Record (rows, width, each row's tau(k_max)) of every weighted-kernel call.

    The engine's stacks here are tie-free, so every row comes in one shared
    order of the conditioning positions, each row's finite weighted ranks
    strictly increase along it, and the +inf ranks come last.
    """
    calls = []
    real = _kernels.weighted_eta_grid_sums

    def counted(rx_sorted, ypos_sorted, w_sorted, taus, ks):
        tau_max = taus[:, -1]
        width = rx_sorted.shape[1]
        assert np.array_equal(np.sort(ypos_sorted[0]), np.arange(width))
        assert np.all(ypos_sorted == ypos_sorted[0])
        inf = rx_sorted == np.inf
        assert not np.any(inf[:, :-1] & ~inf[:, 1:])
        assert np.all((rx_sorted[:, 1:] > rx_sorted[:, :-1]) | inf[:, 1:])
        calls.append((len(rx_sorted), width, tau_max.tolist()))
        return real(rx_sorted, ypos_sorted, w_sorted, taus, ks)

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
    """Reference replicate: all n weighted ranks sorted, no truncation."""
    n = ranked.size
    value_order = np.argsort(ranked, kind="stable")
    y_order = np.argsort(-conditioning, kind="stable")
    ws = wo[value_order]
    greater = np.cumsum(ws[::-1])[::-1] - ws
    r = np.empty(n)
    r[value_order] = greater
    rx = r[y_order]
    wy = wo[y_order]
    excl = np.concatenate(([0.0], np.cumsum(wy)[:-1]))
    order = np.argsort(rx, kind="stable")
    kf = ks.astype(np.float64)
    taus = np.searchsorted(excl, kf, side="left").astype(np.int64)
    sums = _kernel(
        rx[order][None, :], order.astype(np.int64)[None, :], wy[order][None, :],
        taus[None, :], ks,
    )
    return (3.0 * sums[0]) / kf**3


def test_pair_makes_two_kernel_calls_per_stack(monkeypatch):
    rng = np.random.default_rng(40)
    s = _random_sample(rng, 300)
    # stacks of _STACK_ELEMS // n = 3 replicates: 3, 3 and 1, from the
    # largest budget that still gives 3
    monkeypatch.setattr(bt, "_STACK_ELEMS", 4 * s.n - 1)
    calls = _count_weighted_calls(monkeypatch)
    drawn = _count_draws(monkeypatch)
    B = 7
    bt.test_pair(s, [5, 10, 20], B=B, seed=1)
    assert drawn == list(range(1, B + 1))
    assert [rows for rows, _, _ in calls] == [3, 3, 3, 3, 1, 1]
    # only the top of the conditioning order reaches the kernel: as many
    # entries as the stack's largest tau(k_max)
    for _, width, tau_max in calls:
        assert width == max(tau_max) < s.n


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
    assert all(width == max(tau_max) < s.n for _, width, tau_max in calls)


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
        ranks = {d: _oriented_ranks(s, d) for d in bt._BOTH}
        mats = bt._replicate_matrices(ranks, n, ks, B, seed)
        for b in range(1, B + 1):
            w = replicate_weights(seed, b, n)
            wo = w / w.mean()
            want_xy = full_sort_replicate(s.x, s.y, wo, ks)
            want_yx = full_sort_replicate(s.y, s.x, wo, ks)
            assert np.array_equal(mats[Direction.X_GIVEN_Y][b - 1], want_xy)
            assert np.array_equal(mats[Direction.Y_GIVEN_X][b - 1], want_yx)


def _record_prefixes(monkeypatch):
    """Record (bound, rows, prefix length) of every weight prefix the engine gathers."""
    seen = []
    real = bt._prefix_weights

    def recorded(order, W, means, bound):
        part, run = real(order, W, means, bound)
        seen.append((bound, *part.shape))
        return part, run

    monkeypatch.setattr(bt, "_prefix_weights", recorded)
    return seen


def _assert_engine_equals_full_sort(s, kgrid, B, seed):
    ks = np.asarray(kgrid, dtype=np.int64)
    ranks = {d: _oriented_ranks(s, d) for d in bt._BOTH}
    mats = bt._replicate_matrices(ranks, s.n, ks, B, seed)
    w = np.empty(s.n)
    for b in range(1, B + 1):
        bt._draw(seed, b, w)
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
    # one stack of all 6 replicates: two prefixes per direction
    assert [rows for _, rows, _ in seen] == [6] * (2 * 2)
    assert max(size for _, _, size in seen) <= 4 * 2 * 60 < s.n


def test_prefix_grows_when_the_top_ranks_carry_tiny_weights(monkeypatch):
    rng = np.random.default_rng(45)
    s = _random_sample(rng, 2000)
    # The 600 largest values of each series weigh almost nothing, so the
    # first prefix guess (bound + 6 sqrt(bound)) sums far below its bound.
    light = np.zeros(s.n, dtype=bool)
    light[np.argsort(-s.x)[:600]] = True
    light[np.argsort(-s.y)[:600]] = True

    real = bt._draw

    def draw(seed, b, out):
        real(seed, b, out)
        out[light] *= 1e-9

    monkeypatch.setattr(bt, "_draw", draw)
    seen = _record_prefixes(monkeypatch)
    _assert_engine_equals_full_sort(s, [5, 12, 30], B=4, seed=9)
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
    # rows of one stack reach different tau(k_max), so the shorter rows carry
    # finite ranks at positions past their own tau(k_max), which the kernel
    # drops
    assert any(len(set(tau_max)) > 1 for _, _, tau_max in calls)
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


def test_tied_weighted_ranks_sort_the_stack_like_the_full_sort_reference(monkeypatch):
    # Elements 0..9 hold the largest x and the smallest y, so they never
    # enter the tail.  Element 10 (x reverse rank 11) weighs too little to
    # move a running sum of 10, so its weighted rank is 10, the same as that
    # of element 11 (reverse rank 12).  Element 11 comes first in the
    # conditioning order: the reverse of their reverse-rank order.
    n = 40
    x = -np.arange(n, dtype=np.float64)
    y = np.concatenate((-100.0 - np.arange(10), [99.0, 100.0], 50.0 - np.arange(n - 12)))
    s = make_sample(x, y)

    def draw(seed, b, out):
        # they sum to exactly n, so the normalized weights are these values
        out[:] = 1.0
        out[10] = 1e-20
        out[n - 1] = 2.0

    monkeypatch.setattr(bt, "_draw", draw)
    sorts = _count_row_sorts(monkeypatch)
    calls = []
    real = _kernels.weighted_eta_grid_sums

    def recorded(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(_kernels, "weighted_eta_grid_sums", recorded)
    _assert_engine_equals_full_sort(s, [12, 16, 20], B=3, seed=16)
    # one stack of 3 per direction, each sorted row by row
    assert sorts == ["lexsort", "lexsort"]
    # the engine's first call is the X_GIVEN_Y stack: both tied elements are
    # kept at k = 12 and reach the kernel ordered by conditioning position
    rx, ypos, _, taus, _ = calls[0]
    assert rx.shape[0] == 3
    assert np.all(rx[:, :3] == [10.0, 10.0, 11.0])
    assert np.all(ypos[:, :2] == [0, 1])
    assert np.all(taus[:, 0] > 2)


def test_replicate_wider_than_the_block_equals_the_full_sort_reference(monkeypatch):
    rng = np.random.default_rng(48)
    s = _random_sample(rng, 1500)
    kgrid = list(range(10, 1400, 10))
    # one replicate per stack, as a sample of more than _STACK_ELEMS / 2 gets
    monkeypatch.setattr(bt, "_STACK_ELEMS", s.n)
    seen = _record_runs(monkeypatch)
    _assert_engine_equals_full_sort(s, kgrid, B=2, seed=13)
    # the replicate's grid split into runs of rows
    engine = seen[: 2 * 2]
    assert all((R, len(widest)) == (1, len(kgrid)) for R, widest, _ in engine)
    assert all(len(runs) > 1 for _, _, runs in engine)


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


def test_normal_quantile_against_scipy():
    ps = np.concatenate(
        [
            [1e-12, 1e-9, 1e-6, 0.001, 0.024, 0.025, 0.026],
            np.linspace(0.05, 0.95, 19),
            [0.999, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12],
        ]
    )
    for p in ps:
        want = -float(ndtri(p))  # upper-tail convention
        assert bt.normal_quantile(float(p)) == pytest.approx(want, abs=1e-9)


def test_normal_quantile_known_points():
    assert bt.normal_quantile(0.5) == 0.0
    assert math.copysign(1.0, bt.normal_quantile(0.5)) == 1.0  # not -0.0
    assert bt.normal_quantile(0.025) == pytest.approx(1.9599639845400545, abs=1e-12)
    assert bt.normal_quantile(0.975) == pytest.approx(-1.9599639845400545, abs=1e-12)
    for bad in (0.0, 1.0, -0.5, 1.5, float("nan"), "x", None):
        with pytest.raises(errors.DomainError):
            bt.normal_quantile(bad)
