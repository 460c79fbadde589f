import re

import numpy as np
import pytest

from oracles import jitter_stream, offset_jitter
from tailasym import errors
from tailasym import ranks


def test_reverse_ranks_singleton():
    assert ranks.reverse_ranks([7.0]).tolist() == [1]


def test_reverse_ranks_small_examples():
    assert ranks.reverse_ranks([3, 1, 2]).tolist() == [1, 3, 2]
    assert ranks.reverse_ranks([0.5, -2, 9, 4]).tolist() == [3, 4, 1, 2]


def test_reverse_ranks_is_permutation():
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = rng.standard_normal(int(rng.integers(1, 200)))
        r = ranks.reverse_ranks(v)
        assert sorted(r.tolist()) == list(range(1, v.size + 1))
        # rank 1 marks the maximum
        assert r[np.argmax(v)] == 1


def test_reverse_ranks_counts_geq():
    rng = np.random.default_rng(1)
    v = rng.standard_normal(50)
    r = ranks.reverse_ranks(v)
    for i in range(v.size):
        assert r[i] == np.sum(v >= v[i])


def test_reverse_ranks_rejects_ties_and_bad_input():
    with pytest.raises(errors.TiesPresent):
        ranks.reverse_ranks([1.0, 2.0, 1.0])
    with pytest.raises(errors.NonFinite):
        ranks.reverse_ranks([1.0, np.nan])
    with pytest.raises(errors.NonFinite):
        ranks.reverse_ranks([np.inf, 0.0])
    with pytest.raises(errors.InvalidN):
        ranks.reverse_ranks([])


def test_concomitant_ranks_concordant_and_discordant():
    s = ranks.make_sample([10, 20, 30], [1, 2, 3])
    assert ranks.concomitant_ranks(s).rho.tolist() == [1, 2, 3]
    s = ranks.make_sample([10, 20, 30], [3, 2, 1])
    assert ranks.concomitant_ranks(s).rho.tolist() == [3, 2, 1]


def test_concomitant_ranks_mixed_example():
    s = ranks.make_sample([5, 1, 4, 2], [10, 40, 20, 30])
    assert ranks.concomitant_ranks(s).rho.tolist() == [4, 3, 2, 1]


def test_concomitant_ranks_y_order_indices():
    s = ranks.make_sample([5, 1, 4, 2], [10, 40, 20, 30])
    cr = ranks.concomitant_ranks(s)
    assert cr.y_order.tolist() == [1, 3, 2, 0]
    assert cr.n == 4


def test_concomitant_ranks_reject_ties_in_either_series():
    # hand-built samples skip make_sample's tie check; any tie must still
    # raise, naming the pair a stable sort finds first
    tied_y = ranks.PairedSample(x=np.array([1.0, 2.0, 3.0, 4.0]), y=np.array([6.0, 5.0, 7.0, 5.0]))
    with pytest.raises(errors.TiesPresent, match="y has equal values at indices 1 and 3"):
        ranks.concomitant_ranks(tied_y)
    tied_x = ranks.PairedSample(x=np.array([3.0, 1.0, 3.0, 1.0]), y=np.array([1.0, 2.0, 3.0, 4.0]))
    with pytest.raises(errors.TiesPresent, match="x has equal values at indices 1 and 3"):
        ranks.concomitant_ranks(tied_x)


def test_hand_built_samples_get_the_checks_of_make_sample():
    descending = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
    with pytest.raises(errors.NonFinite, match=re.escape("x[1] is not finite: nan")):
        ranks.PairedSample(x=np.array([1.0, np.nan, 3.0, 4.0, 5.0]), y=descending)
    with pytest.raises(errors.LengthMismatch, match="series lengths differ: 4 vs 5"):
        ranks.PairedSample(x=np.arange(4.0), y=descending)
    with pytest.raises(errors.DomainError, match=re.escape("y must be one-dimensional")):
        ranks.PairedSample(x=np.arange(6.0), y=descending.reshape(1, 5))
    with pytest.raises(errors.InvalidN, match="got 1"):
        ranks.PairedSample(x=np.array([1.0]), y=np.array([2.0]))
    # lists are held as float64 arrays, as make_sample holds them
    listed = ranks.PairedSample(x=[1, 2, 3, 4, 5], y=descending.tolist())
    assert listed.x.dtype == np.float64 and listed.y.dtype == np.float64
    made = ranks.make_sample([1, 2, 3, 4, 5], descending)
    assert np.array_equal(listed.x, made.x) and np.array_equal(listed.y, made.y)
    assert ranks.concomitant_ranks(listed).rho.tolist() == [5, 4, 3, 2, 1]


def test_make_sample_holds_its_arrays_without_another_copy():
    s = ranks.make_sample(np.arange(5.0), np.arange(5.0)[::-1])
    assert not s.x.flags.writeable and not s.y.flags.writeable
    swapped = s.swapped()
    assert swapped.x is s.y and swapped.y is s.x


def test_signed_zeros_are_a_tie():
    with pytest.raises(errors.TiesPresent, match="x has equal values at indices 0 and 2"):
        ranks.make_sample([0.0, 1.0, -0.0], [1.0, 2.0, 3.0])
    with pytest.raises(errors.TiesPresent, match="y has equal values at indices 1 and 2"):
        ranks.make_sample([1.0, 2.0, 3.0], [5.0, -0.0, 0.0])
    with pytest.raises(errors.TiesPresent, match="indices 0 and 1"):
        ranks.reverse_ranks([-0.0, 0.0, 1.0])
    zeros = ranks.PairedSample(x=np.array([1.0, 2.0, 3.0]), y=np.array([0.0, 1.0, -0.0]))
    with pytest.raises(errors.TiesPresent, match="y has equal values at indices 0 and 2"):
        ranks.concomitant_ranks(zeros)


def test_negating_x_reverses_ranks():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(40)
    y = rng.standard_normal(40)
    rho = ranks.concomitant_ranks(ranks.make_sample(x, y)).rho
    flipped = ranks.concomitant_ranks(ranks.make_sample(-x, y)).rho
    assert np.array_equal(flipped, 41 - rho)


def test_make_sample_validation():
    with pytest.raises(errors.LengthMismatch):
        ranks.make_sample([1, 2, 3], [1, 2])
    with pytest.raises(errors.InvalidN):
        ranks.make_sample([1.0], [2.0])
    with pytest.raises(errors.TiesPresent):
        ranks.make_sample([1, 1, 2], [1, 2, 3])
    with pytest.raises(errors.TiesPresent):
        ranks.make_sample([1, 3, 2], [5, 5, 6])
    with pytest.raises(errors.NonFinite, match=r"^x\[2\] is not finite: inf$"):
        ranks.make_sample([1, 2, np.inf], [1, 2, 3])
    with pytest.raises(errors.NonFinite, match=r"^y\[1\] is not finite: nan$"):
        ranks.make_sample([1, 2, 3], [1, np.nan, 3])
    with pytest.raises(errors.DomainError):
        ranks.make_sample([1, 2], [3, 4], tie_policy="drop")


def test_make_sample_swapped_roundtrip():
    s = ranks.make_sample([1.5, 0.5, 2.5], [9, 7, 8])
    t = s.swapped()
    assert np.array_equal(t.x, s.y) and np.array_equal(t.y, s.x)
    assert t.n == s.n == 3


def test_make_sample_arrays_are_frozen():
    s = ranks.make_sample([1, 2, 3], [4, 5, 6])
    with pytest.raises(ValueError):
        s.x[0] = 99.0


def test_jitter_requires_seed():
    with pytest.raises(errors.DomainError):
        ranks.make_sample([1, 1, 2], [1, 2, 3], tie_policy="jitter")


def test_jitter_seed_must_be_a_non_negative_integer():
    x, y = [1.0, 1.0, 2.0], [1.0, 2.0, 3.0]
    for bad in (-1, True, 0.5, "5"):
        wording = f"seed must be an integer >= 0, got {bad!r}"
        with pytest.raises(errors.DomainError, match=re.escape(wording)):
            ranks.make_sample(x, y, tie_policy="jitter", seed=bad)
    want = ranks.make_sample(x, y, tie_policy="jitter", seed=5)
    got = ranks.make_sample(x, y, tie_policy="jitter", seed=np.int32(5))
    assert np.array_equal(got.x, want.x)


def test_jitter_breaks_ties_preserving_order():
    x = [3.0, 1.0, 3.0, 2.0, 1.0]
    y = [10.0, 20.0, 30.0, 40.0, 50.0]
    s = ranks.make_sample(x, y, tie_policy="jitter", seed=11)
    assert s.jittered
    assert len(set(s.x.tolist())) == 5
    # the untied series is untouched
    assert np.array_equal(s.y, np.asarray(y))
    # relative order of distinct values survives
    assert (s.x[0] > s.x[3] > s.x[1]) and (s.x[2] > s.x[3] > s.x[4])


def test_jitter_is_deterministic_and_lazy():
    x = [1.0, 1.0, 2.0]
    y = [1.0, 2.0, 3.0]
    a = ranks.make_sample(x, y, tie_policy="jitter", seed=5)
    b = ranks.make_sample(x, y, tie_policy="jitter", seed=5)
    assert np.array_equal(a.x, b.x)
    c = ranks.make_sample(x, y, tie_policy="jitter", seed=6)
    assert not np.array_equal(a.x, c.x)
    # untied data passes through unchanged, flag stays off
    clean = ranks.make_sample([1, 2, 3], [4, 5, 6], tie_policy="jitter", seed=5)
    assert not clean.jittered
    assert clean.x.tolist() == [1, 2, 3]


def test_jitter_handles_constant_series():
    s = ranks.make_sample([7.0, 7.0, 7.0], [1.0, 2.0, 3.0], tie_policy="jitter", seed=0)
    assert len(set(s.x.tolist())) == 3


def test_jitter_survives_gaps_of_one_ulp():
    # offsets below half the smallest gap round away at one ulp; ranking
    # with a seeded tie-break cannot fail
    x = [1.0, 1.0, 1.0, np.nextafter(1.0, 2.0)]
    y = [1.0, 2.0, 3.0, 4.0]
    s = ranks.make_sample(x, y, tie_policy="jitter", seed=3)
    assert s.jittered
    assert sorted(s.x.tolist()) == [1.0, 2.0, 3.0, 4.0]
    assert s.x[3] == 4.0  # the one larger value stays on top
    assert ranks.concomitant_ranks(s).n == 4


def test_jitter_orders_like_offsets_wherever_offsets_work():
    rng = np.random.default_rng(4)
    for seed in range(20):
        n = int(rng.integers(2, 200))
        x = np.round(rng.standard_normal(n), 1)
        y = np.round(rng.standard_normal(n), 1)
        s = ranks.make_sample(x, y, tie_policy="jitter", seed=seed)
        stream = jitter_stream(seed)
        for got, raw in ((s.x, x), (s.y, y)):
            if len(np.unique(raw)) == n:
                assert np.array_equal(got, raw)
                continue
            want = offset_jitter(raw, stream)
            assert len(np.unique(want)) == n
            assert np.array_equal(ranks.reverse_ranks(got), ranks.reverse_ranks(want))


def test_concomitant_ranks_carry_their_sort_orders():
    s = ranks.make_sample([5, 1, 4, 2], [10, 40, 20, 30])
    cr = ranks.concomitant_ranks(s)
    assert cr.value_order.tolist() == [1, 3, 2, 0]  # ascending x
    assert np.array_equal(cr.pos[cr.rho - 1], np.arange(4))
    for field in ("rho", "y_order", "value_order", "pos"):
        assert getattr(cr, field).dtype == np.int64
        assert not getattr(cr, field).flags.writeable


def test_swapped_ranks_equal_the_ranks_of_the_swapped_sample():
    rng = np.random.default_rng(9)
    samples = [ranks.make_sample(rng.standard_normal(n), rng.standard_normal(n)) for n in (2, 3, 50, 1000)]
    samples.append(ranks.make_sample(np.arange(40.0), np.arange(40.0)))
    for s in samples:
        got = ranks.concomitant_ranks(s).swapped()
        want = ranks.concomitant_ranks(s.swapped())
        for field in ("rho", "y_order", "value_order", "pos"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
            assert getattr(got, field).dtype == np.int64
            assert not getattr(got, field).flags.writeable
