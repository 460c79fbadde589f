"""Bootstrap machinery tests.

The heart of this module is a brute-force oracle: the weighted replicate
statistic is recomputed from its definition with quadratic loops (weighted
reverse ranks by pairwise comparison, the pair sum written out literally) and
compared against the production path.  The replicate stream protocol is pinned
by reconstructing the multiplier batches with raw numpy seed sequences, which
must reproduce every field of a TestResult exactly.
"""

import math

import numpy as np
import pytest
from scipy.special import ndtri

from tailasym import _kernels
from tailasym import bootstrap as bt
from tailasym import errors
from tailasym.estimators import Direction, _oriented_ranks, delta_kn, eta_kn
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

        def standard_exponential(self, n):
            return np.array([0.0, 2.0, -0.0, 1.0])

    monkeypatch.setattr(np.random, "Generator", Zeros)
    w = bt._draw(0, 1, 4)
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
    with pytest.raises(errors.KOutOfRange):
        bt.test_eta_zero(s, [], B=4)
    with pytest.raises(errors.KOutOfRange):
        bt.test_delta_zero(s, [5, 5], B=4)
    with pytest.raises(errors.KOutOfRange):
        bt.test_delta_zero(s, [10, 6], B=4)


# --- the shared, tail-truncated replicate engine ----------------------------------


def _count_weighted_calls(monkeypatch):
    """Record (input length, tau(k_max)) of every weighted-kernel call."""
    calls = []
    real = _kernels.weighted_eta_grid_sums

    def counted(rx_sorted, ypos_sorted, w_sorted, taus, ks):
        calls.append((len(rx_sorted), int(np.max(taus))))
        return real(rx_sorted, ypos_sorted, w_sorted, taus, ks)

    monkeypatch.setattr(_kernels, "weighted_eta_grid_sums", counted)
    return calls


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
    sums = _kernels.weighted_eta_grid_sums(
        rx[order], order.astype(np.int64), wy[order], taus, ks
    )
    return (3.0 * sums) / kf**3


def test_pair_makes_two_kernel_calls_per_replicate(monkeypatch):
    rng = np.random.default_rng(40)
    s = _random_sample(rng, 300)
    calls = _count_weighted_calls(monkeypatch)
    B = 7
    bt.test_pair(s, [5, 10, 20], B=B, seed=1)
    assert len(calls) == 2 * B
    # only the top tau(k_max) of the conditioning order reaches the kernel
    for size, tau_max in calls:
        assert size == tau_max < s.n


def test_single_tests_use_the_same_engine(monkeypatch):
    rng = np.random.default_rng(41)
    s = _random_sample(rng, 120)
    calls = _count_weighted_calls(monkeypatch)
    bt.test_eta_zero(s, [6, 12], B=5, seed=2)
    assert len(calls) == 5
    bt.test_delta_zero(s, [6, 12], B=5, seed=2)
    assert len(calls) == 5 + 10
    assert all(size == tau_max for size, tau_max in calls)


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
    """Record (bound, prefix length) of every weight prefix the engine gathers."""
    seen = []
    real = bt._prefix_weights

    def recorded(order, w, mean, bound):
        part, run = real(order, w, mean, bound)
        seen.append((bound, part.size))
        return part, run

    monkeypatch.setattr(bt, "_prefix_weights", recorded)
    return seen


def _assert_engine_equals_full_sort(s, kgrid, B, seed):
    ks = np.asarray(kgrid, dtype=np.int64)
    ranks = {d: _oriented_ranks(s, d) for d in bt._BOTH}
    mats = bt._replicate_matrices(ranks, s.n, ks, B, seed)
    for b in range(1, B + 1):
        w = bt._draw(seed, b, s.n)
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
    assert len(seen) == 2 * 2 * 6  # two prefixes per direction and replicate
    assert max(size for _, size in seen) <= 4 * 2 * 60 < s.n


def test_prefix_grows_when_the_top_ranks_carry_tiny_weights(monkeypatch):
    rng = np.random.default_rng(45)
    s = _random_sample(rng, 2000)
    # The 600 largest values of each series weigh almost nothing, so the
    # first prefix guess (2 * bound) sums far below its bound.
    light = np.zeros(s.n, dtype=bool)
    light[np.argsort(-s.x)[:600]] = True
    light[np.argsort(-s.y)[:600]] = True

    real = bt._draw

    def draw(seed, b, n):
        w = real(seed, b, n)
        w[light] *= 1e-9
        return w

    monkeypatch.setattr(bt, "_draw", draw)
    seen = _record_prefixes(monkeypatch)
    _assert_engine_equals_full_sort(s, [5, 12, 30], B=4, seed=9)
    # every prefix outgrew its first guess but stopped before n
    assert all(2 * bound < size < s.n for bound, size in seen)


def test_prefix_covers_the_sample_when_k_max_is_n_minus_one(monkeypatch):
    rng = np.random.default_rng(46)
    n = 50
    s = _random_sample(rng, n)
    seen = _record_prefixes(monkeypatch)
    _assert_engine_equals_full_sort(s, [2, 17, n - 1], B=5, seed=10)
    assert seen and all(size == n for _, size in seen)


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
