"""Pipeline tests: CSV loading, series preparation, diagnostics, reports."""

import csv
import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from tailasym import _kernels, errors, pipeline
from tailasym.pipeline import (
    CSV_COLUMNS,
    AnalysisConfig,
    SeriesTable,
    acf,
    default_kgrid,
    emit_report,
    load_csv,
    log_returns,
    render_report,
    run_pair_analysis,
    tail_view,
)


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def _table(x, y, names=("a", "b")):
    cols = {
        names[0]: np.asarray(x, dtype=float),
        names[1]: np.asarray(y, dtype=float),
    }
    return SeriesTable(keys=tuple(range(len(cols[names[0]]))), columns=cols, source="mem")


# --- CSV loading ---------------------------------------------------------------


def test_load_csv_inner_join_drops_incomplete_rows(tmp_path):
    p = _write(
        tmp_path,
        "data.csv",
        "date,spx,dax,junk\n"
        "3,1.0,2.0,zzz\n"
        "1,3.5,,x\n"          # missing dax -> dropped
        ",9.9,9.9,x\n"        # missing key -> dropped
        "2,-1.25,4.0,x\n",
    )
    t = load_csv(p, "date", ["spx", "dax"])
    assert t.keys == ("2", "3")  # numeric key order, original strings kept
    assert t.n_rows == 2
    assert np.array_equal(t.columns["spx"], [-1.25, 1.0])
    assert np.array_equal(t.columns["dax"], [4.0, 2.0])
    assert t.source == str(p)
    with pytest.raises(ValueError):
        t.columns["spx"][0] = 0.0  # loaded columns are read-only


def test_load_csv_key_sort_numeric_vs_lexicographic(tmp_path):
    p = _write(tmp_path, "n.csv", "k,v\n10,1\n9,2\n2,3\n")
    assert load_csv(p, "k", ["v"]).keys == ("2", "9", "10")
    p2 = _write(tmp_path, "l.csv", "k,v\n10,1\n9,2\nx2,3\n")
    assert load_csv(p2, "k", ["v"]).keys == ("10", "9", "x2")


def test_load_csv_keeps_duplicate_keys_in_input_order(tmp_path):
    p = _write(tmp_path, "d.csv", "k,v\n5,1\n3,2\n5,3\n")
    t = load_csv(p, "k", ["v"])
    assert t.keys == ("3", "5", "5")
    assert np.array_equal(t.columns["v"], [2.0, 1.0, 3.0])


@pytest.mark.parametrize("quote", ["", '"'], ids=["plain", "exact"])
def test_load_csv_key_order_cases(tmp_path, quote):
    # (file keys, keys as loaded, v as loaded); quoted keys go through the
    # exact reader, plain ones through the fast one
    cases = [
        (["1", "2", "10", "11"], ("1", "2", "10", "11"), [0, 1, 2, 3]),  # in order
        (["11", "10", "2", "1"], ("1", "2", "10", "11"), [3, 2, 1, 0]),  # reversed
        (["2", "02", "1", "2"], ("1", "2", "02", "2"), [2, 0, 1, 3]),  # equal keys
        (["1", "1", "+1", "2"], ("1", "1", "+1", "2"), [0, 1, 2, 3]),  # equal, in order
        (["b", "a10", "a9", "a10"], ("a10", "a10", "a9", "b"), [1, 3, 2, 0]),  # text
        (["a", "a", "b", "c"], ("a", "a", "b", "c"), [0, 1, 2, 3]),  # text, in order
    ]
    for i, (keys, want_keys, want_v) in enumerate(cases):
        rows = "".join(f"{quote}{k}{quote},{v}\n" for v, k in enumerate(keys))
        p = _write(tmp_path, f"keys{i}.csv", "k,v\n" + rows)
        t = load_csv(p, "k", ["v"])
        assert t.keys == want_keys
        v = t.columns["v"]
        assert np.array_equal(v, want_v)
        assert v.flags.c_contiguous and not v.flags.writeable


def test_load_csv_unparsable_cell_reports_line_and_column(tmp_path):
    p = _write(tmp_path, "bad.csv", "k,v,w\n1,2.0,3\n2,oops,4\n")
    with pytest.raises(errors.UnparsableValue) as exc:
        load_csv(p, "k", ["v", "w"])
    assert "line 3" in str(exc.value) and "'v'" in str(exc.value) and "oops" in str(exc.value)


def test_load_csv_rejects_non_finite_numbers(tmp_path):
    p = _write(tmp_path, "inf.csv", "k,v\n1,inf\n")
    with pytest.raises(errors.UnparsableValue):
        load_csv(p, "k", ["v"])
    p2 = _write(tmp_path, "nan.csv", "k,v\n1,nan\n")
    with pytest.raises(errors.UnparsableValue):
        load_csv(p2, "k", ["v"])


def test_load_csv_error_cases(tmp_path):
    with pytest.raises(errors.IoError):
        load_csv(tmp_path / "missing.csv", "k", ["v"])
    p = _write(tmp_path, "empty.csv", "")
    with pytest.raises(errors.UnparsableValue):
        load_csv(p, "k", ["v"])
    p2 = _write(tmp_path, "cols.csv", "k,v\n1,2\n")
    with pytest.raises(errors.MissingColumn) as exc:
        load_csv(p2, "k", ["v", "w", "u"])
    assert "'w'" in str(exc.value) and "'u'" in str(exc.value)
    p3 = _write(tmp_path, "holes.csv", "k,v\n1,\n,2\n")
    with pytest.raises(errors.EmptyIntersection):
        load_csv(p3, "k", ["v"])


def test_load_csv_deduplicates_requested_columns(tmp_path):
    p = _write(tmp_path, "dup.csv", "k,v\n1,2\n")
    t = load_csv(p, "k", ["v", "v"])
    assert list(t.columns) == ["v"]


def test_load_csv_repeated_header_name_reads_its_last_column(tmp_path):
    p = _write(tmp_path, "rep.csv", "k,v,v\n1,10,20\n2,11,21\n3,12\n")
    t = load_csv(p, "k", ["v"])
    # the row too short to reach the second 'v' counts as missing, not as 12
    assert t.keys == ("1", "2")
    assert np.array_equal(t.columns["v"], [20.0, 21.0])


def test_load_csv_drops_short_and_blank_rows(tmp_path):
    p = _write(
        tmp_path,
        "short.csv",
        "k,a,b,c\n"
        "1,1,2,3\n"
        "2,4\n"          # lacks b -> dropped
        "\n"             # blank -> dropped
        "3,5,6\n"        # lacks only the unrequested c -> kept
        "4\n"            # key only -> dropped
        "5,7,8,9,10\n",  # an extra cell is ignored
    )
    t = load_csv(p, "k", ["a", "b"])
    assert t.keys == ("1", "3", "5")
    assert np.array_equal(t.columns["a"], [1.0, 5.0, 7.0])
    assert np.array_equal(t.columns["b"], [2.0, 6.0, 8.0])


def test_load_csv_line_numbers_count_blank_lines_and_quoted_newlines(tmp_path):
    p = _write(tmp_path, "blank.csv", "k,v\n1,2\n\n\n2,x\n")
    with pytest.raises(errors.UnparsableValue, match="line 5, column 'v'"):
        load_csv(p, "k", ["v"])
    p2 = _write(tmp_path, "multi.csv", 'k,v\n"a\nb",1\nc,x\n')
    with pytest.raises(errors.UnparsableValue, match="line 4, column 'v'"):
        load_csv(p2, "k", ["v"])
    # an error inside a multi-line record names the record's last line
    p3 = _write(tmp_path, "multi_bad.csv", 'k,v\nc,1\n"a\nb",x\n')
    with pytest.raises(errors.UnparsableValue, match="line 4, column 'v'"):
        load_csv(p3, "k", ["v"])
    good = load_csv(_write(tmp_path, "ok.csv", 'k,v\n"a\nb",1\nc,2\n'), "k", ["v"])
    assert good.keys == ("a\nb", "c")


def test_load_csv_reports_the_first_bad_cell_in_row_major_order(tmp_path):
    # a non-finite w on line 3 comes before an unparsable v on line 4
    p = _write(tmp_path, "two.csv", "k,v,w\n1,1,2\n2,3,inf\n3,oops,4\n")
    with pytest.raises(errors.UnparsableValue) as exc:
        load_csv(p, "k", ["v", "w"])
    assert str(exc.value) == f"{p} line 3, column 'w': non-finite value 'inf'"
    p2 = _write(tmp_path, "two_b.csv", "k,v,w\n1,1,2\n2,oops,4\n3,3,nan\n")
    with pytest.raises(errors.UnparsableValue) as exc:
        load_csv(p2, "k", ["v", "w"])
    assert str(exc.value) == f"{p2} line 3, column 'v': cannot parse 'oops'"
    # within one row, the requested column order decides, not the header order
    p3 = _write(tmp_path, "same_row.csv", "k,v,w\n1,nan,oops\n")
    with pytest.raises(errors.UnparsableValue) as exc:
        load_csv(p3, "k", ["w", "v"])
    assert str(exc.value) == f"{p3} line 2, column 'w': cannot parse 'oops'"
    # a bad cell in a row dropped for a missing cell is never parsed
    p4 = _write(tmp_path, "dropped.csv", "k,v,w\n1,oops,\n2,1,2\n")
    assert load_csv(p4, "k", ["v", "w"]).keys == ("2",)


def test_load_csv_key_column_can_also_be_a_value_column(tmp_path):
    p = _write(tmp_path, "kv.csv", "k,v\n3,1\n1,2\n")
    t = load_csv(p, "k", ["k", "v"])
    assert t.keys == ("1", "3")
    assert list(t.columns) == ["k", "v"]
    assert np.array_equal(t.columns["k"], [1.0, 3.0])
    assert np.array_equal(t.columns["v"], [2.0, 1.0])
    p2 = _write(tmp_path, "kv_bad.csv", "k,v\n3,1\nx,2\n")
    with pytest.raises(errors.UnparsableValue, match="line 3, column 'k'"):
        load_csv(p2, "k", ["k", "v"])


def test_load_csv_sorts_integer_keys_beyond_int64_numerically(tmp_path):
    p = _write(
        tmp_path,
        "big.csv",
        "k,v\n18446744073709551617,1\n9223372036854775808,2\n-5,3\n10,4\n",
    )
    t = load_csv(p, "k", ["v"])
    assert t.keys == ("-5", "10", "9223372036854775808", "18446744073709551617")
    assert np.array_equal(t.columns["v"], [3.0, 4.0, 2.0, 1.0])


@pytest.mark.parametrize(
    "keys",
    [
        [" 3", "+1", "-2\t", "1_0", "\u0663", "\u0661\u0662", " -0 ", "4"],  # int() takes all
        ["9223372036854775807", "-9223372036854775808", "0"],  # int64's ends
        ["2", "0x10", "1"],  # not int(): text order
        ["2", "1.0", "1"],
        ["2", "", "1"],
        ["2", "1__0", "1"],
        ["18446744073709551617", "9223372036854775808", "-5", "10"],  # past int64
        ["-9223372036854775809", "3", "1"],
        ["99999999999999999999", "x", "1"],  # past int64, then text
        ["1", "1", "+1", "2"],  # equal keys, in order
        ["5", "3", "5", "03"],  # equal keys, out of order
        [f"{(7 * i) % 5:+d}" for i in range(60)],  # long enough for an unstable sort
    ],
)
def test_sorted_table_orders_keys_like_int_or_text(keys):
    # the rows' stable order under int() when every key parses, text otherwise
    try:
        sort_keys = [int(k) for k in keys]
    except ValueError:
        sort_keys = keys
    want = sorted(range(len(keys)), key=sort_keys.__getitem__)
    values = np.arange(len(keys), dtype=np.float64)
    t = pipeline._sorted_table("mem", ["v"], keys, [values])
    assert t.keys == tuple(keys[i] for i in want)
    assert np.array_equal(t.columns["v"], want)


def test_load_csv_rejects_an_oversized_field_in_any_column(tmp_path):
    # csv.reader's field size limit holds for cells that are never parsed
    # and for numbers that would parse to a finite value
    long_text = _write(tmp_path, "long_text.csv", f"k,v,w\n1,2,{'a' * 131_073}\n")
    long_zero = _write(tmp_path, "long_zero.csv", f"k,v\n1,0.{'0' * 131_073}1\n")
    for p in (long_text, long_zero):
        with pytest.raises(errors.UnparsableValue, match="line 2: field larger than field limit"):
            load_csv(p, "k", ["v"])


@pytest.fixture
def field_size_limit():
    """csv.field_size_limit, restored to its old value after the test."""
    old = csv.field_size_limit()
    yield csv.field_size_limit
    csv.field_size_limit(old)


def _rows(size, longest):
    """Rows and blank lines of `size` bytes in all, none longer than `longest`."""
    out = []
    while size >= 4:
        n = min(size, longest)
        out.append("1,2".ljust(n - 1) + "\n")
        size -= n
    return "".join(out) + "\n" * size


@pytest.mark.parametrize("limit", [64, 65, 131_072])
def test_plain_reader_refuses_lines_as_long_as_the_field_size_limit(
    tmp_path, field_size_limit, limit
):
    # A line of limit - 2 to limit + 1 bytes (newline not counted) starting
    # around the multiples of h, then nothing, a newline, or one more row.
    # The plain reader must refuse the file exactly when a line, its newline
    # counted, is longer than the limit.
    field_size_limit(limit)
    h = (limit + 1) // 2
    if limit < 100:
        starts = range(4, 3 * h + 2)
    else:
        starts = [s + d for s in (h, 2 * h) for d in (-1, 0, 1)]
    p = tmp_path / "long.csv"
    for size in range(limit - 2, limit + 2):
        for start in starts:
            for tail in ("", "\n", "\n1,2\n"):
                data = ("k,v\n" + _rows(start - 4, h) + "1,2".ljust(size) + tail).encode()
                p.write_bytes(data)
                refused = max(map(len, data.split(b"\n"))) + 1 > limit
                assert (pipeline._read_plain(p, "k", ["v"]) is None) == refused, (
                    size, start, tail,
                )


def test_load_csv_reads_plain_files_without_the_exact_reader(tmp_path, monkeypatch):
    plain = _write(tmp_path, "plain.csv", "k,v,w\n3,1.5,x\n1,-2e-3,y\n 2 ,7,z,extra\n\n")
    quoted = _write(tmp_path, "quoted.csv", 'k,v\n"3",1.5\n')

    def exact(*args):
        raise AssertionError("the exact reader ran")

    monkeypatch.setattr(pipeline, "_read_exact", exact)
    t = load_csv(plain, "k", ["v"])
    assert t.keys == ("1", " 2 ", "3")
    assert np.array_equal(t.columns["v"], [-2e-3, 7.0, 1.5])
    with pytest.raises(AssertionError, match="the exact reader ran"):
        load_csv(quoted, "k", ["v"])


@pytest.mark.parametrize("text", ["k,v", "k,v\n"], ids=["no_newline", "newline"])
def test_plain_reader_reads_a_header_only_file_as_no_rows(tmp_path, text):
    p = _write(tmp_path, "header.csv", text)
    keys, values, ints = pipeline._read_plain(p, "k", ["v"])
    assert keys() == [] and values[0].size == 0 and ints.size == 0
    with pytest.raises(errors.EmptyIntersection):
        load_csv(p, "k", ["v"])


def test_plain_reader_reads_a_last_row_without_a_newline(tmp_path):
    p = _write(tmp_path, "open.csv", "k,v\n2,3.5\n1,4")
    keys, values, ints = pipeline._read_plain(p, "k", ["v"])
    assert keys() == ["2", "1"] and ints.tolist() == [2, 1]
    assert np.array_equal(values[0], [3.5, 4.0])
    t = load_csv(p, "k", ["v"])
    assert t.keys == ("1", "2") and np.array_equal(t.columns["v"], [4.0, 3.5])


def _parts(table):
    return table.keys, [(name, col.tobytes()) for name, col in table.columns.items()]


def _fast_and_exact(monkeypatch, path, key="k", wanted=("v",)):
    """load_csv's table with the exact reader disabled, the exact reader's
    table, and the number of np.loadtxt calls load_csv made."""
    wanted = list(wanted)
    exact = pipeline._sorted_table(path, wanted, *pipeline._read_exact(path, key, wanted))
    loadtxt, calls = np.loadtxt, []

    def counted(*args, **kwargs):
        calls.append(kwargs["dtype"])
        return loadtxt(*args, **kwargs)

    def no_exact(*args):
        raise AssertionError("the exact reader ran")

    with monkeypatch.context() as m:
        m.setattr(np, "loadtxt", counted)
        m.setattr(pipeline, "_read_exact", no_exact)
        fast = load_csv(path, key, wanted)
    return fast, exact, len(calls)


_INTEGER_KEYS = [
    [" 3", "2 ", "\t4\t", "\xa05", "1\u2003"],  # ASCII and Unicode padding
    ["+1", "-0", "007", "-3", "+02", "7"],
    ["9223372036854775807", "-9223372036854775808", "0"],  # int64's ends
    ["1", "2", "3", "10"],  # already in order
]


@pytest.mark.parametrize("keys", _INTEGER_KEYS)
def test_load_csv_parses_integer_keys_in_its_one_loadtxt_pass(tmp_path, monkeypatch, keys):
    rows = "".join(f"{k},{i}\n" for i, k in enumerate(keys))
    p = _write(tmp_path, "ints.csv", "k,v\n" + rows)
    fast, exact, calls = _fast_and_exact(monkeypatch, p)
    assert calls == 1
    assert fast.keys == tuple(sorted(keys, key=int))
    assert _parts(fast) == _parts(exact)


def _loadtxt_dtypes(monkeypatch):
    """The dtype of every np.loadtxt call made from now on, in call order."""
    loadtxt, dtypes = np.loadtxt, []

    def recorded(*args, **kwargs):
        dtypes.append(np.dtype(kwargs["dtype"]))
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", recorded)
    return dtypes


@pytest.mark.parametrize("layout", ["key_first", "bom_led", "key_last"])
@pytest.mark.parametrize("keys", _INTEGER_KEYS)
def test_load_csv_parses_the_text_of_integer_keys_when_they_are_first_read(
    tmp_path, monkeypatch, keys, layout
):
    bom, header, row = {
        "key_first": ("", "k,v,w", "{k},{i},-{i}.5"),
        "bom_led": ("\ufeff", "k,v,w", "{k},{i},-{i}.5"),
        "key_last": ("", "v,w,k", "{i},-{i}.5,{k}"),
    }[layout]
    rows = "".join(row.format(k=k, i=i) + "\n" for i, k in enumerate(keys))
    p = _write(tmp_path, "ints.csv", bom + header + "\n" + rows)
    wanted = ["v", "w"]
    exact = pipeline._sorted_table(p, wanted, *pipeline._read_exact(p, "k", wanted))
    dtypes = _loadtxt_dtypes(monkeypatch)
    t = load_csv(p, "k", wanted)
    assert t.n_rows == len(keys)
    # one pass of int64 keys and floats; n_rows parsed no key text
    assert [dt.names for dt in dtypes] == [("int", "v0", "v1")]
    assert not dtypes[0].hasobject
    assert _parts(t) == _parts(exact)
    assert len(dtypes) == 2 and dtypes[1].names == ("key",) and dtypes[1].hasobject
    assert t.keys is t.keys and len(dtypes) == 2  # parsed once


def test_keys_read_after_the_file_was_rewritten_and_deleted_are_the_loaded_ones(tmp_path):
    p = _write(tmp_path, "ints.csv", "k,v\n 3,1\n+1,2\n007,3\n")
    exact = pipeline._sorted_table(p, ["v"], *pipeline._read_exact(p, "k", ["v"]))
    t = load_csv(p, "k", ["v"])
    _write(tmp_path, "ints.csv", "k,v\n9,1\n8,2\n")
    p.unlink()
    assert t.keys == exact.keys == ("+1", " 3", "007")
    assert np.array_equal(t.columns["v"], [2.0, 1.0, 3.0])


def test_series_table_built_by_hand_keeps_its_keys_and_stays_frozen():
    keys = ["b", "a"]
    t = SeriesTable(keys=keys, columns={"v": np.zeros(2)}, source="mem")
    assert t.keys is keys and t.n_rows == 2
    assert SeriesTable(("a",), {}, "mem").n_rows == 1  # no columns: the keys count
    assert [f.name for f in dataclasses.fields(SeriesTable)] == ["keys", "columns", "source"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.keys = ("c", "d")
    with pytest.raises(TypeError):
        SeriesTable(columns={}, source="mem")  # keys has no default


@pytest.mark.parametrize(
    "keys",
    [
        ["9223372036854775808", "-5", "10"],  # past int64
        ["-9223372036854775809", "3", "1"],
        ["1_000", "20", "3"],  # int() takes underscores, loadtxt does not
        ["\u0663", "\u0661\u0662", "2"],  # Unicode digits
        [str(i) for i in range(50, 0, -1)] + ["x"],  # one text key, in the last row
    ],
)
def test_load_csv_reads_other_keys_in_a_second_loadtxt_pass(tmp_path, monkeypatch, keys):
    rows = "".join(f"{k},{i}\n" for i, k in enumerate(keys))
    p = _write(tmp_path, "keys.csv", "k,v\n" + rows)
    fast, exact, calls = _fast_and_exact(monkeypatch, p)
    assert calls == 2
    assert _parts(fast) == _parts(exact)


@pytest.mark.parametrize("blank", ["", " ", "\t"])
def test_plain_reader_leaves_blank_keys_to_the_exact_reader(tmp_path, blank):
    for keys in (["2", blank, "1"], ["b", blank, "a"]):
        rows = "".join(f"{k},{i}\n" for i, k in enumerate(keys))
        p = _write(tmp_path, "blank.csv", "k,v\n" + rows)
        assert pipeline._read_plain(p, "k", ["v"]) is None
        t = load_csv(p, "k", ["v"])
        assert t.keys == tuple(sorted(keys))[1:]


@pytest.mark.parametrize("shuffled", [False, True], ids=["in_order", "shuffled"])
def test_load_csv_reads_iso_date_keys_in_text_order(tmp_path, monkeypatch, shuffled):
    days = np.arange("2021-01-01", "2021-04-11", dtype="datetime64[D]").astype(str)
    order = np.random.default_rng(7).permutation(days.size) if shuffled else range(days.size)
    rows = "".join(f"{days[i]},{100 + i}.5\n" for i in order)
    p = _write(tmp_path, "daily.csv", "date,close\n" + rows)
    fast, exact, calls = _fast_and_exact(monkeypatch, p, "date", ["close"])
    assert calls == 2  # the int64 parse fails on the first date
    assert fast.keys == tuple(days.tolist())
    assert np.array_equal(fast.columns["close"], np.arange(days.size) + 100.5)
    assert _parts(fast) == _parts(exact)


def test_a_warning_from_the_integer_key_parse_counts_as_a_failed_parse(
    tmp_path, monkeypatch
):
    # numpy before 2.0 parses an int64 field's '1.0' through a float, with a
    # DeprecationWarning; even where warnings are ignored that must not
    # give int64 keys
    p = _write(tmp_path, "w.csv", "k,v\n10,1\n9,2\n")
    loadtxt, calls = np.loadtxt, []

    def warns(*args, dtype, **kwargs):
        calls.append(dtype)
        if "int" in np.dtype(dtype).names:
            warnings.warn("parsing an integer via a float", DeprecationWarning)
        return loadtxt(*args, dtype=dtype, **kwargs)

    monkeypatch.setattr(np, "loadtxt", warns)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        keys, values, ints = pipeline._read_plain(p, "k", ["v"])
    assert len(calls) == 2 and ints is None
    assert keys == ["10", "9"] and np.array_equal(values[0], [1.0, 2.0])


# --- series preparation ----------------------------------------------------------


def test_log_returns_values():
    got = log_returns([100.0, 110.0, 99.0])
    assert np.allclose(got, [math.log(1.1), math.log(0.9)], rtol=1e-15)
    assert log_returns([1.0, math.e]) == pytest.approx([1.0])


def test_log_returns_rejects_bad_prices():
    with pytest.raises(errors.SeriesTooShort):
        log_returns([5.0])
    with pytest.raises(errors.NonPositivePrice):
        log_returns([1.0, 0.0, 2.0])
    with pytest.raises(errors.NonPositivePrice):
        log_returns([1.0, -3.0])
    with pytest.raises(errors.NonPositivePrice):
        log_returns([1.0, float("nan")])
    with pytest.raises(errors.DomainError):
        log_returns([[1.0, 2.0]])


def test_tail_view_orientation():
    v = np.array([1.0, -2.0, 3.0])
    up = tail_view(v, "upper")
    assert np.array_equal(up, v)
    up[0] = 99.0
    assert v[0] == 1.0  # the view is a copy
    assert np.array_equal(tail_view(v, "lower"), [-1.0, 2.0, -3.0])
    with pytest.raises(errors.DomainError):
        tail_view(v, "both")


# --- autocorrelation ---------------------------------------------------------------


def test_acf_alternating_series_closed_form():
    n = 20
    v = np.resize([1.0, -1.0], n)
    s = acf(v, 3)
    assert s.n == n
    assert s.band == pytest.approx(1.96 / math.sqrt(n))
    assert np.array_equal(s.lags, [1, 2, 3])
    # biased estimator: lag j sums n-j products of alternating signs
    assert s.values[0] == pytest.approx(-(n - 1) / n, rel=1e-15)
    assert s.values[1] == pytest.approx((n - 2) / n, rel=1e-15)
    assert s.exceed_band() == [1, 2, 3]


def test_acf_white_noise_stays_in_band():
    rng = np.random.default_rng(1234)
    v = rng.standard_normal(10_000)
    s = acf(v, 50)
    assert float(np.max(np.abs(s.values))) < 0.05
    assert len(s.exceed_band()) <= 5  # ~5% of 50 lags by construction


def test_acf_validation():
    with pytest.raises(errors.DomainError):
        acf(np.ones(100), 5)  # constant series
    with pytest.raises(errors.SeriesTooShort):
        acf(np.arange(5.0), 5)
    with pytest.raises(errors.DomainError):
        acf(np.arange(10.0), 0)
    for bad_lag in (2.5, True):
        with pytest.raises(errors.DomainError):
            acf(np.arange(10.0), bad_lag)
    with pytest.raises(errors.DomainError):
        acf(np.ones((4, 4)), 1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_acf_rejects_non_finite_values(monkeypatch, bad):
    with pytest.raises(errors.NonFinite, match=r"values\[1\] is not finite"):
        acf([1.0, bad, 3.0, 2.0], 1)

    def no_work(*args, **kwargs):
        raise AssertionError("ranked a series holding a non-finite value")

    # the columns are checked as read, before the ACF block or any ranking,
    # and the message names the column, the table row and the value
    monkeypatch.setattr(pipeline, "acf", no_work)
    monkeypatch.setattr(pipeline, "make_sample", no_work)
    x = np.arange(50.0)
    x[7] = bad
    # the row and value as held, not as negated for the lower tail or as one
    # of the log returns (whose first price, 0.0, is not even positive)
    for flags in ({}, {"tail": "lower"}, {"prices": True}):
        cfg = AnalysisConfig(B=5, **flags)
        with pytest.raises(errors.NonFinite) as exc:
            run_pair_analysis(_table(x, np.arange(50.0)), "a", "b", cfg)
        assert str(exc.value) == f"a[7] is not finite: {bad!r}"


# --- tail-size grids -----------------------------------------------------------------


def test_default_kgrid_large_samples_use_the_fixed_grid():
    assert default_kgrid(2500) == list(range(100, 501, 10))
    assert default_kgrid(10**6) == list(range(100, 501, 10))


def test_default_kgrid_small_samples():
    assert default_kgrid(100) == list(range(5, 21))  # 5% .. 20%, dense
    assert default_kgrid(40) == list(range(2, 9))
    assert default_kgrid(10) == [2]
    grid = default_kgrid(2499)
    assert len(grid) == 20
    assert grid[0] == 125 and grid[-1] == 499  # ceil(n/20) .. floor(n/5)
    assert all(b > a for a, b in zip(grid, grid[1:]))
    # every tail size leaves at least one observation out
    for n in range(10, 5001):
        assert max(default_kgrid(n)) <= n - 1


def test_default_kgrid_errors():
    with pytest.raises(errors.SeriesTooShort):
        default_kgrid(9)
    with pytest.raises(errors.DomainError):
        default_kgrid(100.0)
    with pytest.raises(errors.DomainError):
        default_kgrid(True)


def test_materialize_kgrid_explicit_bounds():
    cfg = AnalysisConfig(k_min=5, k_max=17, k_step=4)
    assert cfg.materialize_kgrid(100) == [5, 9, 13, 17]
    with pytest.raises(errors.KOutOfRange):
        cfg.materialize_kgrid(17)  # k_max must stay below n-1
    assert AnalysisConfig(k_min=2, k_max=99, k_step=50).materialize_kgrid(100) == [2, 52]


def test_materialize_kgrid_flags_are_all_or_none():
    for partial in (
        AnalysisConfig(k_min=5),
        AnalysisConfig(k_max=20),
        AnalysisConfig(k_min=5, k_step=2),
    ):
        with pytest.raises(errors.DomainError):
            partial.materialize_kgrid(100)


def test_materialize_kgrid_bound_validation():
    with pytest.raises(errors.KOutOfRange):
        AnalysisConfig(k_min=1, k_max=10, k_step=1).materialize_kgrid(100)
    with pytest.raises(errors.KOutOfRange):
        AnalysisConfig(k_min=10, k_max=5, k_step=1).materialize_kgrid(100)
    with pytest.raises(errors.KOutOfRange):
        AnalysisConfig(k_min=5, k_max=10, k_step=0).materialize_kgrid(100)
    assert AnalysisConfig().materialize_kgrid(100) == default_kgrid(100)


def test_materialize_kgrid_rejects_bounds_that_are_not_integers():
    # bounds are integers: no silent truncation of a float, no string or bool
    for bad in (
        {"k_min": 10.7, "k_max": 20.2, "k_step": 5},
        {"k_min": "10", "k_max": 20, "k_step": 5},
        {"k_min": 10, "k_max": 20, "k_step": 5.0},
        {"k_min": True, "k_max": 20, "k_step": 5},
        {"k_min": 10, "k_max": 20, "k_step": True},
    ):
        with pytest.raises(errors.KOutOfRange, match="must be an integer"):
            AnalysisConfig(**bad).materialize_kgrid(100)
    assert AnalysisConfig(
        k_min=np.int64(10), k_max=20, k_step=np.int32(5)
    ).materialize_kgrid(100) == [10, 15, 20]


# --- full analyses ---------------------------------------------------------------------


def _dependent_table():
    rng = np.random.default_rng(100)
    x = rng.standard_normal(400)
    return _table(x, x + 0.1 * rng.standard_normal(400))


def _independent_table():
    rng = np.random.default_rng(101)
    return _table(rng.standard_normal(500), rng.standard_normal(500))


def test_analysis_of_dependent_pair_runs_the_delta_test():
    cfg = AnalysisConfig(B=25, seed=3)
    r = run_pair_analysis(_dependent_table(), "a", "b", cfg)
    assert r.verdicts["eta_xy"]["reject"] and r.verdicts["eta_yx"]["reject"]
    assert not r.provenance["delta_test_gated_out"]
    assert "fraction_below_alpha" in r.verdicts["delta"]
    n_k = len(r.per_k["k"])
    for col in CSV_COLUMNS:
        assert len(r.per_k[col]) == n_k
        assert all(v is not None for v in r.per_k[col])
    # interval endpoints bracket the statistic
    for lo, d, hi in zip(r.per_k["ci_delta_low"], r.per_k["delta"], r.per_k["ci_delta_high"]):
        assert lo <= d <= hi


def test_analysis_of_independent_pair_gates_the_delta_test():
    cfg = AnalysisConfig(B=25, seed=3)
    r = run_pair_analysis(_independent_table(), "a", "b", cfg)
    assert not r.verdicts["eta_xy"]["reject"] and not r.verdicts["eta_yx"]["reject"]
    assert r.provenance["delta_test_gated_out"]
    assert "skipped" in r.verdicts["delta"]
    for col in ("p_delta", "ci_delta_low", "ci_delta_high", "boot_sd_delta"):
        assert all(v is None for v in r.per_k[col])
    # delta estimates themselves are still reported
    assert all(v is not None for v in r.per_k["delta"])


def test_eta_gate_can_be_disabled():
    cfg = AnalysisConfig(B=25, seed=3, eta_gate=False)
    r = run_pair_analysis(_independent_table(), "a", "b", cfg)
    assert not r.provenance["delta_test_gated_out"]
    assert all(v is not None for v in r.per_k["p_delta"])


def test_skip_tests_leaves_only_estimates():
    cfg = AnalysisConfig(B=25, seed=3, skip_tests=True)
    r = run_pair_analysis(_dependent_table(), "a", "b", cfg)
    assert r.verdicts == {}
    assert all(v is None for v in r.per_k["p_eta_xy"])
    assert all(v is not None for v in r.per_k["eta_xy"])
    assert r.config["tests"] is False


def test_analysis_makes_one_replicate_pass(monkeypatch):
    # one plain sweep per direction and one weighted kernel call per
    # direction holding all B replicates (B = 9 fits one stack here), whether
    # or not the eta gate lets the delta block into the report
    counts = {"int": 0, "weighted": []}
    real_int, real_w = _kernels.eta_grid_sums, _kernels.weighted_eta_grid_sums

    def int_sums(*args):
        counts["int"] += 1
        return real_int(*args)

    def weighted_sums(*args):
        counts["weighted"].append(len(args[0]))
        return real_w(*args)

    monkeypatch.setattr(_kernels, "eta_grid_sums", int_sums)
    monkeypatch.setattr(_kernels, "weighted_eta_grid_sums", weighted_sums)
    for table, skip, gated in (
        (_dependent_table(), False, False),
        (_independent_table(), False, True),
        (_dependent_table(), True, False),
    ):
        counts.update(int=0, weighted=[])
        cfg = AnalysisConfig(B=9, seed=3, skip_tests=skip)
        r = run_pair_analysis(table, "a", "b", cfg)
        assert r.provenance["delta_test_gated_out"] is gated
        assert counts == {"int": 2, "weighted": [] if skip else [9, 9]}


def test_analysis_provenance_and_config_echo():
    cfg = AnalysisConfig(B=25, seed=3, tail="lower")
    t = _dependent_table()
    r = run_pair_analysis(t, "a", "b", cfg)
    prov = r.provenance
    assert prov["source"] == "mem"
    assert prov["columns"] == {"x": "a", "y": "b"}
    assert prov["rows_aligned"] == 400
    assert prov["observations_analyzed"] == 400
    assert prov["tail"] == "lower"
    assert prov["jitter_applied"] is False
    assert set(prov["acf"]) == {"a", "b"}
    assert "max_abs" in prov["acf"]["a"]
    cfgd = r.config
    assert cfgd["package"].startswith("tailasym ")
    assert cfgd["kgrid"] == r.per_k["k"]
    assert cfgd["B"] == 25 and cfgd["seed"] == 3 and cfgd["tail"] == "lower"
    assert cfgd["multiplier_scheme"] == "unit_exponential"


def test_analysis_with_prices_consumes_one_observation():
    rng = np.random.default_rng(7)
    n = 301
    px = 100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal(n)))
    py = 100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal(n)))
    cfg = AnalysisConfig(B=10, seed=0, prices=True, skip_tests=True)
    r = run_pair_analysis(_table(px, py), "a", "b", cfg)
    assert r.provenance["rows_aligned"] == n
    assert r.provenance["observations_analyzed"] == n - 1
    assert r.provenance["prices_converted_to_log_returns"] is True


def test_analysis_missing_column():
    with pytest.raises(errors.MissingColumn):
        run_pair_analysis(_dependent_table(), "a", "zzz", AnalysisConfig())


@pytest.mark.parametrize(
    "field, value, error",
    [
        ("B", 0, errors.InvalidB),
        ("B", True, errors.InvalidB),
        ("alpha", 7.0, errors.DomainError),
        ("rejection_fraction", 2.0, errors.DomainError),
        ("rejection_fraction", True, errors.DomainError),
        ("acf_lags", -3, errors.DomainError),
        ("acf_lags", True, errors.DomainError),
        ("acf_lags", 2.5, errors.DomainError),
        ("seed", -1, errors.DomainError),
        ("seed", True, errors.DomainError),
        ("seed", 1.0, errors.DomainError),
        ("k_min", 1, errors.KOutOfRange),
        ("k_min", 10.5, errors.KOutOfRange),
        ("k_max", 5, errors.KOutOfRange),
        ("k_max", None, errors.DomainError),
        ("k_step", 0, errors.KOutOfRange),
        ("k_step", True, errors.KOutOfRange),
        ("tail", "middle", errors.DomainError),
        ("tie_policy", "bogus", errors.DomainError),
        ("output_format", "xml", errors.DomainError),
        ("eta_gate", "no", errors.DomainError),
        ("prices", "yes", errors.DomainError),
        ("skip_tests", "false", errors.DomainError),
    ],
)
@pytest.mark.parametrize("skip", [False, True])
def test_analysis_rejects_an_invalid_config_before_any_work(
    monkeypatch, field, value, error, skip
):
    def no_work(*args, **kwargs):
        raise AssertionError("ran before the config was checked")

    for name in ("acf", "make_sample", "test_pair", "delta_sweep"):
        monkeypatch.setattr(pipeline, name, no_work)
    # valid k bounds, unless the case replaces one of them
    k = {"k_min": 10, "k_max": 20, "k_step": 5}
    cfg = AnalysisConfig(**{"B": 5, "skip_tests": skip, **k, field: value})
    with pytest.raises(error, match=field):
        run_pair_analysis(_dependent_table(), "a", "b", cfg)


def test_analysis_flags_equal_to_a_bool_act_and_echo_as_that_bool():
    t = _dependent_table()
    alike = AnalysisConfig(B=5, seed=1, eta_gate=1, prices=0.0, skip_tests=np.True_)
    plain = AnalysisConfig(B=5, seed=1, eta_gate=True, prices=False, skip_tests=True)
    docs = [render_report(run_pair_analysis(t, "a", "b", c), "json") for c in (alike, plain)]
    assert docs[0] == docs[1]


def test_analysis_with_numpy_integer_settings_renders_like_python_ints():
    # B and seed are echoed as given, so the report turns them into ints.
    t = _dependent_table()
    numpy_ints = AnalysisConfig(B=np.int64(5), seed=np.int64(1), acf_lags=np.int64(7))
    plain = AnalysisConfig(B=5, seed=1, acf_lags=7)
    docs = [render_report(run_pair_analysis(t, "a", "b", c), "json") for c in (numpy_ints, plain)]
    assert docs[0] == docs[1]


def test_rounding_turns_numpy_scalars_into_python_numbers():
    # np.float64 is a float; narrower numpy floats and numpy ints are not.
    doc = pipeline._round_floats({"a": [np.float32(0.1), np.int64(3)], "b": (np.float16(2.5),)})
    assert json.dumps(doc) == '{"a": [0.10000000149, 3], "b": [2.5]}'


def test_analysis_constant_series_reports_acf_skip():
    t = _table(np.arange(50.0), np.ones(50))
    cfg = AnalysisConfig(B=5, seed=1, skip_tests=True, tie_policy="jitter")
    r = run_pair_analysis(t, "a", "b", cfg)
    assert r.provenance["acf"]["b"] == {"skipped": "autocorrelation of a constant series is undefined"}
    assert r.provenance["jitter_applied"] is True


# --- rendering -------------------------------------------------------------------------


def test_render_json_round_trips_the_document():
    cfg = AnalysisConfig(B=10, seed=3)
    r = run_pair_analysis(_dependent_table(), "a", "b", cfg)
    text = render_report(r, "json")
    assert text.endswith("\n")
    assert json.loads(text) == r.to_document()


def test_rounding_keeps_twelve_significant_digits():
    cfg = AnalysisConfig(B=10, seed=3, skip_tests=True)
    r = run_pair_analysis(_dependent_table(), "a", "b", cfg)
    doc = r.to_document()
    for raw, rounded in zip(r.per_k["eta_xy"], doc["per_k"]["eta_xy"]):
        assert rounded == float(f"{raw:.12g}")
        assert rounded == pytest.approx(raw, rel=1e-11)


def test_render_csv_shape_and_header():
    cfg = AnalysisConfig(B=25, seed=3)
    r = run_pair_analysis(_dependent_table(), "a", "b", cfg)
    lines = render_report(r, "csv").splitlines()
    assert lines[0] == "k,eta_xy,eta_yx,delta,p_eta_xy,p_eta_yx,p_delta,ci_delta_low,ci_delta_high,boot_sd_delta"
    assert len(lines) == 1 + len(r.per_k["k"])
    first = lines[1].split(",")
    assert first[0] == str(r.per_k["k"][0])
    assert float(first[1]) == pytest.approx(r.per_k["eta_xy"][0], rel=1e-11)


def test_render_csv_leaves_gated_cells_empty():
    cfg = AnalysisConfig(B=25, seed=3)
    r = run_pair_analysis(_independent_table(), "a", "b", cfg)
    lines = render_report(r, "csv").splitlines()
    cells = lines[1].split(",")
    assert len(cells) == len(CSV_COLUMNS)
    assert cells[6] == "" and cells[7] == "" and cells[8] == "" and cells[9] == ""
    assert cells[1] != ""


def test_render_rejects_unknown_format():
    cfg = AnalysisConfig(B=5, seed=0, skip_tests=True)
    r = run_pair_analysis(_dependent_table(), "a", "b", cfg)
    with pytest.raises(errors.DomainError):
        render_report(r, "yaml")


def test_emit_report_writes_identical_bytes_twice(tmp_path):
    cfg = AnalysisConfig(B=25, seed=3)
    r = run_pair_analysis(_dependent_table(), "a", "b", cfg)
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    text1 = emit_report(r, "json", p1)
    r2 = run_pair_analysis(_dependent_table(), "a", "b", cfg)
    text2 = emit_report(r2, "json", p2)
    assert text1 == text2
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text(encoding="utf-8") == text1


def test_emit_report_io_error(tmp_path):
    cfg = AnalysisConfig(B=5, seed=0, skip_tests=True)
    r = run_pair_analysis(_dependent_table(), "a", "b", cfg)
    with pytest.raises(errors.IoError):
        emit_report(r, "json", tmp_path / "no-such-dir" / "x.json")


def test_end_to_end_from_csv_file(tmp_path):
    rng = np.random.default_rng(55)
    n = 300
    lines = ["t,p,q"]
    px = 50.0 * np.exp(np.cumsum(0.02 * rng.standard_normal(n)))
    qx = 75.0 * np.exp(np.cumsum(0.02 * rng.standard_normal(n)))
    for i in range(n):
        lines.append(f"{i},{float(px[i])!r},{float(qx[i])!r}")
    path = _write(tmp_path, "prices.csv", "\n".join(lines) + "\n")
    t = load_csv(path, "t", ["p", "q"])
    cfg = AnalysisConfig(B=10, seed=9, prices=True)
    r = run_pair_analysis(t, "p", "q", cfg)
    doc = r.to_document()
    assert doc["provenance"]["observations_analyzed"] == n - 1
    assert doc["per_k"]["k"] == r.config["kgrid"]
