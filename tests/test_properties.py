"""Property tests against the literal O(n^2) definitions and the exact CSV reader.

hypothesis draws rank configurations (any tie-free sample is a pair of
permutations as far as rank statistics go), heavily tied series for the
jitter policy, tail sizes with k = 2 and k = n favoured, and seeds for the
multiplier weights.  For load_csv it draws CSV files, plain ones and ones
full of what the fast reader must leave to the exact one.  Every test is
derandomized and keeps no example database, so each run checks the same
examples.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tailasym import bootstrap as bt
from tailasym import errors, pipeline
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


# --- the two CSV readers -----------------------------------------------------------

# Cells the fast reader must read as float() does or leave to the exact one.
_AWKWARD_CELLS = [
    "", " ", " \t ", "-0.0", " 2.5 ", "1e-300", "1e400", "inf", "-Infinity", "nan",
    "1_000", "\u0661\u0662", "3.\u0665", "abc", "#7", "x y", "1\x0b", "\x1c2",
    "3\x1f", "1\x00", "2\u2003", "\xa03", "4\u2028", "\x855", "\ufeff8", "0x10",
    "18446744073709551617", "-9223372036854775809", '"1,5"', '"a\nb"', '"7"', 'x"y',
]


def _numbers():
    return st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.integers(
        -(2**70), 2**70
    ).map(str)


def _sometimes(draw, common, rare):
    """common in three files of four; in the fourth, one value in eight comes from rare."""
    if draw(st.integers(0, 3)):
        return common
    return st.integers(0, 7).flatmap(lambda i: rare if i == 0 else common)


@st.composite
def csv_files(draw, plain):
    """(bytes, key column, value columns) of a CSV file.

    plain files have integer keys, numeric cells (some padded with spaces),
    rows at least as wide as the header, blank lines and LF line ends only.
    Some of the others also hold awkward cells and keys, ragged rows,
    repeated or padded header names, CRLF and CR line ends, comment-like or
    blank-looking lines and stray non-UTF-8 bytes.
    """
    number = _numbers() | _numbers().map(lambda c: f" {c} ")
    names = ["k", "v", "w"]
    if plain:
        cell, key_cell = number, st.integers(-(2**70), 2**70).map(str)
        end, row_size, blank = st.just("\n"), st.integers(3, 4), st.just("")
    else:
        names = draw(_sometimes(draw, st.permutations(names), st.lists(
            st.sampled_from(["k", "v", "w", " v"]), min_size=1, max_size=4
        )))
        cell = _sometimes(draw, number, st.sampled_from(_AWKWARD_CELLS))
        key_cell = _sometimes(draw, number, st.sampled_from(_AWKWARD_CELLS) | st.text(max_size=3))
        end = _sometimes(draw, st.just("\n"), st.sampled_from(["\r\n", "\r"]))
        width = len(names)
        row_size = _sometimes(draw, st.integers(width, width + 1), st.integers(0, width))
        blank = _sometimes(draw, st.just(""), st.sampled_from(["  ", "# note", ","]))
    key = draw(st.sampled_from(["k", "v"]))
    wanted = draw(st.lists(st.sampled_from(["v", "w", "k"]), min_size=1, max_size=2))
    lines = [",".join(names)]
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(blank))
            continue
        size = draw(row_size)
        cells = [draw(key_cell)] + [draw(cell) for _ in range(size - 1)]
        lines.append(",".join(cells[:size]))
    text = "".join(line + draw(end) for line in lines)
    if not draw(st.integers(0, 4)):
        text = text.rstrip("\r\n")
    data = text.encode("utf-8")
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    if not plain and not draw(st.integers(0, 9)):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data, key, wanted


def _table(path, wanted, read):
    """What load_csv makes of one reader's output: the table's parts or the error."""
    try:
        t = pipeline._sorted_table(path, wanted, *read)
    except errors.EmptyIntersection as exc:
        return str(exc)
    assert all(col.dtype == np.float64 for col in t.columns.values())
    return t.keys, t.source, [(name, col.tobytes()) for name, col in t.columns.items()]


def _both_readers(tmp_path_factory, case):
    data, key, wanted = case
    path = tmp_path_factory.getbasetemp() / "readers.csv"
    path.write_bytes(data)
    plain = pipeline._read_plain(path, key, wanted)
    try:
        exact = pipeline._read_exact(path, key, wanted)
    except errors.TailAsymError:
        exact = None
    return path, wanted, plain, exact


@settings(PROPERTY, max_examples=200)
@given(case=csv_files(plain=False))
@example(case=(b"k,v\n1,\x1c2\n", "k", ["v"]))
@example(case=(b'k,v\n"7",1\n', "k", ["v"]))
@example(case=(b'k,v,w\n1,2,"a\n3,4,b"\n5,6,c\n', "k", ["v"]))
@example(case=(b"k,v\n1,2\n \n3,4\n", "k", ["v"]))
@example(case=(b"k,v\n", "k", ["v"]))
def test_the_fast_csv_reader_reads_what_the_exact_one_does_or_nothing(
    tmp_path_factory, case
):
    path, wanted, plain, exact = _both_readers(tmp_path_factory, case)
    if plain is not None:
        assert exact is not None, "the fast reader accepted a file the exact one rejects"
        assert _table(path, wanted, plain) == _table(path, wanted, exact)


@PROPERTY
@given(case=csv_files(plain=True))
def test_the_fast_csv_reader_takes_plain_files(tmp_path_factory, case):
    path, wanted, plain, exact = _both_readers(tmp_path_factory, case)
    assert plain is not None and exact is not None
    assert _table(path, wanted, plain) == _table(path, wanted, exact)
