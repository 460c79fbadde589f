"""Property tests against the literal O(n^2) definitions.

hypothesis draws rank configurations (any tie-free sample is a pair of
permutations as far as rank statistics go), heavily tied series for the
jitter policy, tail sizes with k = 2 and k = n favoured, and seeds for the
multiplier weights.  Every test is derandomized and keeps no example
database, so each run checks the same examples.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tailasym import bootstrap as bt
from tailasym.estimators import Direction, eta_kn
from tailasym.ranks import make_sample
from test_bootstrap import naive_weighted_eta, replicate_weights

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)
XY, YX = Direction.X_GIVEN_Y, Direction.Y_GIVEN_X


def literal_eta(x, y, k):
    """3 / k^3 times the sum over the top k - 1 of y of (k + 1 - max(r_i, r_j))_+.

    r_i is the reverse rank of x_i, counted as the number of x values >= x_i.
    """
    top = sorted(range(len(y)), key=lambda i: -y[i])[: k - 1]
    r = [sum(1 for v in x if v >= x[i]) for i in top]
    s = sum(max(k + 1 - max(a, b), 0) for a in r for b in r)
    return 3 * s / k**3


@st.composite
def cases(draw, ties=False):
    """(x, y, k, seed) with 2 <= n <= 60; tied data are small integers."""
    n = draw(st.integers(2, 60))
    if ties:
        values = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    else:
        values = st.permutations(range(n))
    x = np.asarray(draw(values), dtype=float)
    y = np.asarray(draw(values), dtype=float)
    k = draw(st.sampled_from([2, n]) | st.integers(2, n))
    return x, y, k, draw(st.integers(0, 2**32 - 1))


def _sample(x, y, ties, seed):
    if ties:
        return make_sample(x, y, tie_policy="jitter", seed=seed)
    return make_sample(x, y)


def _close(want):
    return pytest.approx(want, rel=2e-11, abs=1e-13)


@PROPERTY
@given(case=cases())
@example(case=(np.array([0.0, 1.0]), np.array([1.0, 0.0]), 2, 0))
@example(case=(np.array([0.0, 1.0]), np.array([0.0, 1.0]), 2, 0))
def test_eta_kn_is_the_literal_double_sum(case):
    x, y, k, seed = case
    s = make_sample(x, y)
    assert eta_kn(s, k, XY).value == literal_eta(s.x, s.y, k)
    assert eta_kn(s, k, YX).value == literal_eta(s.y, s.x, k)


@PROPERTY
@given(case=cases(ties=True))
def test_eta_kn_under_jitter_is_the_literal_double_sum(case):
    x, y, k, seed = case
    s = _sample(x, y, True, seed)
    assert eta_kn(s, k, XY).value == literal_eta(s.x, s.y, k)
    assert eta_kn(s, k, YX).value == literal_eta(s.y, s.x, k)


@PROPERTY
@given(case=cases(), ties=st.booleans())
@example(case=(np.array([0.0, 1.0]), np.array([1.0, 0.0]), 2, 3), ties=False)
def test_bootstrap_eta_and_delta_match_the_naive_weighted_definition(case, ties):
    x, y, k, seed = case
    s = _sample(x, y, ties, seed)
    w = np.random.default_rng(seed).standard_exponential(s.n)
    xy = bt.bootstrap_eta(s, k, w, XY)
    yx = bt.bootstrap_eta(s, k, w, YX)
    assert xy == _close(naive_weighted_eta(s.x, s.y, w, k))
    assert yx == _close(naive_weighted_eta(s.y, s.x, w, k))
    assert bt.bootstrap_delta(s, k, w) == xy - yx


@PROPERTY
@given(case=cases(), ties=st.booleans())
def test_one_replicate_tests_on_a_grid_read_the_naive_replicates(case, ties):
    x, y, k, seed = case
    s = _sample(x, y, ties, seed)
    kgrid = sorted({2, k, s.n})
    pair = bt.test_pair(s, kgrid, B=1, seed=seed)
    w = replicate_weights(seed, 1, s.n)
    for j, k in enumerate(kgrid):
        for results, d in ((pair.eta_xy, XY), (pair.eta_yx, YX)):
            res = results[j]
            rep = bt.bootstrap_eta(s, k, w, d)
            a, b = (s.x, s.y) if d is XY else (s.y, s.x)
            assert rep == _close(naive_weighted_eta(a, b, w, k))
            assert res.statistic == literal_eta(a, b, k)
            assert res.p_value == float(rep - res.statistic > res.statistic)
            assert res.boot_sd == 0.0 and res.ci_low == res.statistic == res.ci_high
        delta = pair.delta[j]
        assert delta.statistic == pair.eta_xy[j].statistic - pair.eta_yx[j].statistic
        rep = bt.bootstrap_delta(s, k, w)
        assert delta.p_value == float(abs(rep - delta.statistic) > abs(delta.statistic))
