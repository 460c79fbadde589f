"""Estimator tests.

The oracle here is the literal double sum over concomitant reverse ranks,
kept deliberately naive (O(k^2) loops, integer accumulation) so that agreement
with the production kernel is a real cross-check and, because both ends divide
the same exact integer by k^3 once, can be asserted with ==.
"""

import math

import numpy as np
import pytest

from tailasym import errors
from tailasym.estimators import (
    Direction,
    delta_kn,
    delta_sweep,
    empirical_tail_copula_slice,
    eta_from_tail_copula,
    eta_kn,
    eta_sweep,
    eta_upper_bound,
)
from tailasym.ranks import concomitant_ranks, make_sample


def eta_literal(x, y, k):
    """Straight transcription of the estimator definition."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    order = np.argsort(-y, kind="stable")
    xs = x[order]
    rho = np.array([int(np.sum(x >= v)) for v in xs])
    s = 0
    for i in range(k - 1):
        for j in range(k - 1):
            s += max(k + 1 - max(rho[i], rho[j]), 0)
    return 3 * s / k**3


def test_matches_literal_double_sum_exactly():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(2, 13))
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        k = int(rng.integers(2, n + 1))
        s = make_sample(x, y)
        assert eta_kn(s, k).value == eta_literal(x, y, k)


def test_hand_worked_small_case():
    # n=6, k=3; concomitant ranks start 2, 5 -> only rank 2 contributes,
    # giving S = 1*(3+1-2) = 2 and eta = 3*2/27 = 2/9.
    x = [5.0, 1.0, 6.0, 4.0, 3.0, 2.0]
    y = [6.0, 5.0, 4.0, 3.0, 2.0, 1.0]
    s = make_sample(x, y)
    rho = concomitant_ranks(s).rho
    assert rho[0] == 2
    assert eta_kn(s, 3).value == 2 / 9


def test_upper_bound_values():
    assert eta_upper_bound(2) == 0.75
    assert math.isclose(eta_upper_bound(5), 1.104, rel_tol=0, abs_tol=5e-16)
    assert math.isclose(eta_upper_bound(10), 1.098, rel_tol=0, abs_tol=5e-16)
    # always in (0, 9/8), approaching 1
    for k in range(2, 2000, 37):
        b = eta_upper_bound(k)
        assert 0 < b < 1.125
    assert abs(eta_upper_bound(10**6) - 1.0) < 1e-5


def test_upper_bound_formula_matches_closed_expression():
    for k in range(2, 100):
        product_form = (1 - 1 / k) * (1 + 5 / (2 * k) - 3 / k**2)
        assert math.isclose(eta_upper_bound(k), product_form, rel_tol=1e-14)


def test_comonotone_attains_bound_exactly():
    v = np.arange(1.0, 61.0)
    s = make_sample(v, v.copy())
    for k in range(2, 51):
        assert eta_kn(s, k).value == eta_upper_bound(k)


def test_discordant_top_k_gives_zero():
    for k in (2, 5, 13):
        n = 2 * k
        v = np.arange(1.0, n + 1.0)
        s = make_sample(-v, v.copy())
        assert eta_kn(s, k).value == 0.0


def test_estimate_metadata_and_range():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(80)
    y = rng.standard_normal(80)
    s = make_sample(x, y)
    e = eta_kn(s, 12, Direction.Y_GIVEN_X)
    assert (e.k, e.n, e.direction) == (12, 80, Direction.Y_GIVEN_X)
    assert 0.0 <= e.value <= eta_upper_bound(12)


def test_direction_accepts_strings():
    s = make_sample([1, 2, 3, 4], [4, 3, 2, 1])
    assert eta_kn(s, 2, "y_given_x").value == eta_kn(s, 2, Direction.Y_GIVEN_X).value
    with pytest.raises(errors.DomainError):
        eta_kn(s, 2, "sideways")


def test_k_validation():
    s = make_sample([1, 2, 3, 4], [1, 3, 2, 4])
    for bad in (1, 0, -3, 5, 2.0, True):
        with pytest.raises(errors.KOutOfRange):
            eta_kn(s, bad)
    with pytest.raises(errors.KOutOfRange):
        eta_upper_bound(1)
    # both statistics are one-point sweeps with the sweep's messages and k type
    with pytest.raises(errors.KOutOfRange, match="k must be an integer >= 2, got 1"):
        delta_kn(s, 1)
    with pytest.raises(errors.KOutOfRange, match="k must be an integer >= 2, got 2.0"):
        delta_kn(s, 2.0)
    assert type(eta_kn(s, np.int64(3)).k) is int
    assert type(delta_kn(s, np.int64(3)).k) is int


def test_sweep_matches_pointwise_and_validates_grid():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(100)
    y = rng.standard_normal(100)
    s = make_sample(x, y)
    grid = [2, 5, 10, 25, 50, 99]
    sweep = eta_sweep(s, grid)
    assert [e.k for e in sweep] == grid
    for e in sweep:
        assert e.value == eta_kn(s, e.k).value
    with pytest.raises(errors.KOutOfRange):
        eta_sweep(s, [10, 10, 20])
    with pytest.raises(errors.KOutOfRange):
        eta_sweep(s, [20, 10])
    with pytest.raises(errors.KOutOfRange):
        eta_sweep(s, [])


def test_sweep_on_comonotone_pair_tracks_bound():
    v = np.arange(1.0, 31.0)
    s = make_sample(v, v.copy())
    vals = [e.value for e in eta_sweep(s, [5, 10])]
    assert vals[0] == 1.104
    assert vals[1] == 1.098


def test_delta_is_directional_difference():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(60)
    y = rng.standard_normal(60)
    s = make_sample(x, y)
    d = delta_kn(s, 15)
    assert d.value == d.eta_xy - d.eta_yx
    assert d.eta_xy == eta_kn(s, 15, Direction.X_GIVEN_Y).value
    assert d.eta_yx == eta_kn(s, 15, Direction.Y_GIVEN_X).value


def test_delta_antisymmetric_under_swap():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(45)
    y = rng.standard_normal(45)
    s = make_sample(x, y)
    for k in (3, 9, 30):
        assert delta_kn(s, k).value == -delta_kn(s.swapped(), k).value


def test_delta_sweep_consistent():
    rng = np.random.default_rng(8)
    s = make_sample(rng.standard_normal(70), rng.standard_normal(70))
    grid = [4, 11, 35]
    for d, k in zip(delta_sweep(s, grid), grid):
        single = delta_kn(s, k)
        assert (d.value, d.eta_xy, d.eta_yx) == (single.value, single.eta_xy, single.eta_yx)


def test_monotone_transform_invariance_bitwise():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(120)
    y = rng.standard_normal(120)
    s = make_sample(x, y)
    t = make_sample(5.0 * np.exp(x) + 2.0, np.exp(y) * 0.1 - 7.0)
    for k in (2, 17, 60, 119):
        assert eta_kn(s, k).value == eta_kn(t, k).value
        assert delta_kn(s, k).value == delta_kn(t, k).value


# --- empirical tail-copula slice ------------------------------------------


def test_slice_evaluation_matches_indicator_definition():
    rng = np.random.default_rng(10)
    x = rng.standard_normal(50)
    y = rng.standard_normal(50)
    s = make_sample(x, y)
    k = 10
    g = empirical_tail_copula_slice(s, k)
    rho = concomitant_ranks(s).rho
    # generic points (never within float noise of a jump), plus the endpoints
    for u in list(rng.random(200)) + [0.0, 1.0]:
        direct = np.sum((rho[: k - 1] - 1) / k < u) / k
        assert g.evaluate(float(u)) == direct


def test_slice_is_left_continuous_at_jumps():
    s = make_sample([4.0, 3.0, 2.0, 1.0, 0.0], [5.0, 4.0, 3.0, 2.0, 1.0])
    k = 5
    g = empirical_tail_copula_slice(s, k)
    # concordant pair: rho_i = i, breakpoints at (i-1)/k
    for r in (1, 2, 3, 4):
        u = (r - 1) / k
        assert g.evaluate(u) == (r - 1) / k
        assert g.evaluate(u + 1e-12) == r / k


def test_slice_grid_contents():
    s = make_sample([5, 1, 4, 2], [10, 40, 20, 30])  # rho = [4, 3, 2, 1]
    g = empirical_tail_copula_slice(s, 3)
    # contributing ranks among the first k-1=2 concomitants: 4 (dropped), 3
    assert g.breakpoints.tolist() == [(3 - 1) / 3]
    assert g.values.tolist() == [1 / 3]
    assert g.evaluate(1.0) == 1 / 3


def test_slice_rejects_out_of_range_argument():
    s = make_sample([1, 2, 3], [1, 2, 3])
    g = empirical_tail_copula_slice(s, 2)
    for bad in (-0.1, 1.1, np.nan):
        with pytest.raises(errors.DomainError):
            g.evaluate(bad)


def test_integral_identity_random_samples():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(10, 200))
        s = make_sample(rng.standard_normal(n), rng.standard_normal(n))
        k = int(rng.integers(2, n + 1))
        for d in Direction:
            a = eta_kn(s, k, d).value
            b = eta_from_tail_copula(empirical_tail_copula_slice(s, k, d))
            assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


def test_integral_of_constant_grid():
    from tailasym.estimators import TailCopulaGrid

    g = TailCopulaGrid(
        k=4, n=10, breakpoints=np.array([0.0]), values=np.array([0.25])
    )
    assert eta_from_tail_copula(g) == 3 * 0.25**2


def test_empty_tail_gives_zero_eta_and_empty_grid():
    # top y values pair with the smallest x values
    k = 6
    n = 2 * k
    v = np.arange(1.0, n + 1)
    s = make_sample(-v, v.copy())
    g = empirical_tail_copula_slice(s, k)
    assert g.breakpoints.size == 0
    assert eta_from_tail_copula(g) == 0.0
    assert g.evaluate(0.5) == 0.0
