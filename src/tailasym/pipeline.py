"""End-to-end analysis pipeline: CSV in, deterministic report out.

The pipeline aligns two columns on a key, optionally converts price levels to
log-returns, orients the requested tail upward, runs the estimator sweep and
the bootstrap tests, and emits a JSON or CSV report.  Emission is fully
deterministic: dictionaries keep insertion order, floats are rounded to 12
significant digits before serialization, and repeated runs with the same
inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import operator
import sys
import warnings
from dataclasses import asdict, dataclass
from itertools import compress, islice
from typing import Optional

import numpy as np

from . import __version__
from .bootstrap import _check_B, summarize_rejection, test_pair
from .errors import (
    DomainError,
    EmptyIntersection,
    IoError,
    KOutOfRange,
    MissingColumn,
    NonPositivePrice,
    SeriesTooShort,
    UnparsableValue,
    check_choice,
    check_int,
    check_real,
)
from .estimators import delta_sweep
from .ranks import _TIE_POLICIES, _as_checked_array, make_sample

__all__ = [
    "SeriesTable", "AcfSummary", "AnalysisConfig", "Report", "load_csv",
    "log_returns", "tail_view", "acf", "default_kgrid", "run_pair_analysis",
    "render_report", "emit_report",
]

_TAILS = ("upper", "lower")
_FORMATS = ("json", "csv")

#: Exact column set and order of the CSV report format, and the keys of
#: Report.per_k.
CSV_COLUMNS = (
    "k",
    "eta_xy",
    "eta_yx",
    "delta",
    "p_eta_xy",
    "p_eta_yx",
    "p_delta",
    "ci_delta_low",
    "ci_delta_high",
    "boot_sd_delta",
)


class _Keys:
    """The keys field of SeriesTable: a table may hold a partial of
    _ordered_keys in its place, which becomes the keys tuple the first time
    keys is read."""

    def __get__(self, table, owner=None):
        if table is None:
            raise AttributeError("keys")  # a field without a default
        keys = table.__dict__["keys"]
        if isinstance(keys, functools.partial):
            keys = table.__dict__["keys"] = keys()
        return keys

    def __set__(self, table, keys):
        table.__dict__["keys"] = keys


def _ordered_keys(texts, order):
    """The keys tuple of texts, the key texts in file order or a function
    that parses them, taken in the given row order (None: file order)."""
    if callable(texts):
        texts = texts()
    if order is None:
        return tuple(texts)
    return tuple(map(texts.__getitem__, order.tolist()))


@dataclass(frozen=True, eq=False)
class SeriesTable:
    """Aligned numeric columns keyed by a shared identifier column.

    keys holds each row's key text.  A table from load_csv builds that tuple
    the first time keys is read.  Until then it holds the rows' sort order
    and the key texts in file order or, for a plain file with integer keys,
    the file's bytes, from which the key column is parsed then.  n_rows
    counts the rows of the columns, so it never builds the keys.
    """

    keys: tuple = _Keys()
    columns: dict
    source: str

    @property
    def n_rows(self) -> int:
        return len(next(iter(self.columns.values()))) if self.columns else len(self.keys)


def load_csv(path, key_column, value_columns):
    """Read the requested columns from a headered CSV, inner-joined on the key.

    Rows with an empty key or an empty cell in any requested column are
    dropped (missing data), and so are rows too short to hold every requested
    column; a header name given twice reads its last column.  Text that is
    present but not a finite number is an error, reported with its line and
    column, and so is a file that is not UTF-8 text or not valid CSV.  A
    leading UTF-8 byte-order mark is skipped.  Rows are returned sorted by
    key: numerically when every key parses as an integer, lexicographically
    otherwise.  Duplicate keys are kept in input order.

    The columns and the sort order are parsed here.  A plain file (see
    _read_plain) whose keys all parse as int64 is parsed without their text:
    the table keeps the file's bytes instead, and parses the key column's
    text from them the first time its keys are read, so a file changed or
    removed after loading still gives the keys it had.  Other keys are read
    as text here, and the table keeps that list in file order until then.
    """
    wanted = list(dict.fromkeys(value_columns))
    read = _read_plain(path, key_column, wanted) or _read_exact(
        path, key_column, wanted
    )
    return _sorted_table(path, wanted, *read)


def _sorted_table(path, wanted, keys, values, ints=None):
    """The SeriesTable of the parsed rows, sorted by key.

    keys is the list of key texts, or, with ints (every key parsed as an
    int64), a function that returns that list.  The table builds its keys
    tuple from them the first time it is read.
    """
    n = len(keys) if ints is None else ints.size
    if n == 0:
        raise EmptyIntersection(
            f"{path}: no rows with a key and values in {', '.join(map(repr, wanted))}"
        )
    order = _key_order(keys, ints)
    if order is None:
        # Already in order, as tailasym simulate writes its files: the stable
        # sort would leave every row in place.  The copies are contiguous
        # even where the reader's columns are strided views.
        values = [np.array(col) for col in values]
    else:
        values = [col[order] for col in values]

    for col in values:
        col.flags.writeable = False
    return SeriesTable(
        keys=functools.partial(_ordered_keys, keys, order),
        columns=dict(zip(wanted, values)),
        source=str(path),
    )


def _key_order(keys, ints=None):
    """The stable order of the rows by key, or None when they are in order.

    Keys compare as integers when every key parses as one, as text
    otherwise.  Without ints, numpy parses each key with int(), so it takes
    what int() takes; keys beyond int64 compare as Python ints.  ints, from
    _read_plain, are the keys as parsed by loadtxt's integer parser, which
    takes a subset of what int() takes and gives int()'s value: ASCII
    digits, one optional sign and whitespace around them.  Of that
    whitespace int() refuses only bytes 0x1c-0x1f, which no plain file
    holds.
    """
    try:
        if ints is None:
            ints = np.array(keys, dtype=np.int64)
    except (OverflowError, ValueError):
        pass
    else:
        return None if np.all(ints[:-1] <= ints[1:]) else np.argsort(ints, kind="stable")
    try:
        sort_keys = list(map(int, keys))
    except ValueError:
        sort_keys = keys
    if all(map(operator.le, sort_keys, islice(sort_keys, 1, None))):
        return None
    n = len(keys)
    return np.fromiter(sorted(range(n), key=sort_keys.__getitem__), np.intp, n)


def _read_plain(path, key_column, wanted):
    """The keys, wanted columns and int64 keys of a plain file by loadtxt, or None.

    A file is plain when it holds no quote, NUL, carriage return or
    information separator (bytes 0x1c-0x1f) and no line longer than csv's
    field size limit.  csv.reader then splits it as loadtxt does, a record
    per line and a cell per comma, and loadtxt strips the same whitespace
    around a number as float(), which keeps 0x1c-0x1f.  Anything else the
    two readers could treat differently gives None, for _read_exact to read:
    a header lacking a column, a short row, a blank key, a cell loadtxt
    cannot parse (float() also takes '1_000' and Unicode digits) or one that
    is not finite.

    The first loadtxt pass parses the key column as int64 only, for the key
    sort (see _key_order for what that parse accepts), and the wanted
    columns as floats; a key that parses is never blank.  The keys returned
    are then a function that parses the key column's text, as loadtxt's
    object field reads it, from the bytes read here, so the file may change
    or go before it runs.  When a key fails the int64 parse (text, dates,
    keys beyond int64, '1_000', Unicode digits) or the parse warns (numpy
    1.23 deprecated reading '1.0' as an integer through a float, with a
    DeprecationWarning), loadtxt reads the file once more with the key
    column as text, the keys are the list of those texts, and the int64
    keys are None.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return None
    if any(byte in data for byte in b'"\0\r\x1c\x1d\x1e\x1f') or _has_long_line(data):
        return None
    floats = [(f"v{j}", np.float64) for j in range(len(wanted))]
    try:
        # A slice up to the first newline, or the whole of a header-only file;
        # partition would copy every byte after it.
        end = data.find(b"\n")
        header = next(csv.reader([data[: end if end >= 0 else None].decode("utf-8-sig")]))
        at = _column_indices(header, path, key_column, wanted)
        try:
            rows = _loadtxt(path, [("int", np.int64)] + floats, at)
        except (ValueError, Warning):
            rows = _loadtxt(path, [("key", object)] + floats, at)
            keys, ints = rows["key"].tolist(), None
        else:
            keys, ints = functools.partial(_key_texts, data, at[0]), rows["int"]
    except (OSError, ValueError, Warning, MissingColumn):
        return None
    values = [rows[name] for name, _ in floats]
    blank = ints is None and "" in map(str.strip, keys)
    if blank or not all(np.isfinite(v).all() for v in values):
        return None
    return keys, values, ints


def _key_texts(data, at):
    """The texts of column at in the data rows of a plain file's bytes.

    The same loadtxt object field parse as over the file: its lines come
    from the bytes as from the file opened in text mode with utf-8-sig.
    """
    lines = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig")
    return _loadtxt(lines, [("key", object)], [at])["key"].tolist()


def _has_long_line(data):
    """Whether a line of data, newline counted, is longer than csv's field size limit.

    Such a line fills one of the aligned blocks of h = (limit + 1) // 2
    bytes, so the lines are measured only when some block holds no newline.
    """
    limit = csv.field_size_limit()
    h = (limit + 1) // 2
    if h > 0 and all(
        data.find(b"\n", i, i + h) >= 0 for i in range(0, len(data) - h + 1, h)
    ):
        return False
    breaks = np.flatnonzero(np.frombuffer(data, np.uint8) == ord("\n"))
    return np.diff(breaks, prepend=-1, append=len(data)).max() > limit


def _loadtxt(source, dtype, usecols):
    """np.loadtxt of the data rows of a plain file, by path or lines; a warning raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # A file without data rows is EmptyIntersection, not a warning.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(
            source, dtype=dtype, delimiter=",", skiprows=1, usecols=usecols,
            comments=None, quotechar=None, encoding="utf-8-sig", ndmin=1,
        )


def _read_exact(path, key_column, wanted):
    """The keys and wanted columns of any CSV file, by csv.reader and float().

    The source of every error message load_csv raises about the file.
    """
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from None

    with handle:
        reader = csv.reader(handle)
        try:
            (keys, *cells), lines = _read_cells(reader, path, key_column, wanted)
        except UnicodeDecodeError as exc:
            raise UnparsableValue(f"{path} is not UTF-8 text: {exc.reason}") from None
        except csv.Error as exc:
            raise UnparsableValue(f"{path} line {reader.line_num}: {exc}") from None

    n = len(keys)
    try:
        values = [np.fromiter(map(float, col), np.float64, n) for col in cells]
        finite = all(np.isfinite(v).all() for v in values)
    except ValueError:
        finite = False
    if not finite:
        # The first offending cell in row-major order: earliest row, then
        # the first requested column.
        i, _, name, complaint = min(
            (bad[0], j, name, bad[1])
            for j, (name, col) in enumerate(zip(wanted, cells))
            if (bad := _first_bad_cell(col)) is not None
        )
        raise UnparsableValue(f"{path} line {lines[i]}, column {name!r}: {complaint}")
    return keys, values


def _column_indices(header, path, key_column, wanted):
    """Where the key and each wanted column sit in the header row."""
    if header is None:
        raise UnparsableValue(f"{path} has no header row")
    missing = [c for c in [key_column, *wanted] if c not in header]
    if missing:
        raise MissingColumn(
            f"{path} lacks column(s) {', '.join(repr(m) for m in missing)}"
        )
    # A header name given twice reads its last column, as csv.DictReader does.
    index = {name: i for i, name in enumerate(header)}
    return [index[key_column], *(index[c] for c in wanted)]


def _read_cells(reader, path, key_column, wanted):
    """The key, each wanted column and the line number of every complete row.

    Cells are kept as one flat list of strings per column: a list per row
    would leave one tracked container per row for the cyclic garbage
    collector to walk again and again.
    """
    at = _column_indices(next(reader, None), path, key_column, wanted)
    width = max(at) + 1
    cols = [[] for _ in at]
    lines = []
    for row in reader:
        # Shorter rows, blank lines among them, lack a requested cell.
        if len(row) >= width:
            for col, i in zip(cols, at):
                col.append(row[i])
            lines.append(reader.line_num)
    if any("" in map(str.strip, col) for col in cols):
        keep = [all(cells) for cells in zip(*(map(str.strip, col) for col in cols))]
        cols = [list(compress(col, keep)) for col in cols]
        lines = list(compress(lines, keep))
    return cols, lines


def _first_bad_cell(cells):
    """Index and complaint of the first cell that is not a finite number, or None."""
    for i, cell in enumerate(cells):
        try:
            val = float(cell)
        except ValueError:
            return i, f"cannot parse {cell!r}"
        if not math.isfinite(val):
            return i, f"non-finite value {cell!r}"
    return None


def log_returns(prices):
    """First differences of log price levels; prices must be strictly positive."""
    p = np.asarray(prices, dtype=np.float64)
    if p.ndim != 1:
        raise DomainError(f"prices must be one-dimensional, got shape {p.shape}")
    if p.size < 2:
        raise SeriesTooShort(f"need at least 2 prices, got {p.size}")
    bad = np.flatnonzero(~(p > 0.0) | ~np.isfinite(p))
    if bad.size:
        raise NonPositivePrice(f"prices[{bad[0]}] = {p[bad[0]]!r} is not a positive real")
    return np.diff(np.log(p))


def tail_view(values, tail):
    """Orient the requested tail upward: identity for 'upper', negation for 'lower'."""
    v = np.asarray(values, dtype=np.float64)
    if check_choice(tail, "tail", _TAILS) == "upper":
        return v.copy()
    return -v


@dataclass(frozen=True, eq=False)
class AcfSummary:
    """Sample autocorrelations at lags 1..max_lag with a white-noise band."""

    values: np.ndarray
    band: float
    n: int

    @property
    def lags(self):
        return np.arange(1, self.values.size + 1)

    def exceed_band(self):
        """Lags whose absolute autocorrelation pokes out of the +/- band."""
        return [int(l) for l, v in zip(self.lags, self.values) if abs(v) > self.band]


def acf(values, max_lag) -> AcfSummary:
    """Biased (divide-by-n) sample autocorrelation at lags 1..max_lag.

    The reported band +/- 1.96/sqrt(n) is the usual asymptotic white-noise
    yardstick.  Requires n > max_lag >= 1 and a finite, non-constant series
    whose mean and lag-0 autocovariance are finite in float64.
    """
    v = _as_checked_array(values, "values")
    max_lag = check_int(max_lag, "max_lag", 1)
    n = v.size
    if n <= max_lag:
        raise SeriesTooShort(f"need more than {max_lag} observations, got {n}")
    with np.errstate(over="ignore", invalid="ignore"):
        centered = v - v.mean()
        c0 = float(np.dot(centered, centered)) / n
    # An infinite mean or sum of squares leaves c0 infinite or NaN.
    if not math.isfinite(c0):
        raise DomainError("autocorrelation of this series overflows float64")
    if c0 == 0.0:
        raise DomainError("autocorrelation of a constant series is undefined")
    vals = np.asarray(
        [float(np.dot(centered[lag:], centered[:-lag])) / n / c0 for lag in range(1, max_lag + 1)]
    )
    vals.flags.writeable = False
    return AcfSummary(values=vals, band=1.96 / math.sqrt(n), n=n)


def default_kgrid(n):
    """The default tail-size grid for a sample of size n.

    Large samples (n >= 2500) use the fixed grid 100, 110, ..., 500; smaller
    ones spread up to 20 points between ceil(5% of n) and floor(20% of n).
    """
    n = check_int(n, "n", 0)
    if n >= 2500:
        return list(range(100, 501, 10))
    lo = max(2, -(-n // 20))
    hi = n // 5
    if hi < lo:
        raise SeriesTooShort(f"sample of size {n} leaves no usable tail sizes")
    span = hi - lo + 1
    if span <= 20:
        return list(range(lo, hi + 1))
    grid = np.unique(np.round(np.linspace(lo, hi, 20)).astype(np.int64))
    return [int(g) for g in grid]


@dataclass(frozen=True)
class AnalysisConfig:
    """Everything run_pair_analysis needs besides the data itself."""

    k_min: Optional[int] = None
    k_max: Optional[int] = None
    k_step: Optional[int] = None
    B: int = 100
    alpha: float = 0.05
    seed: int = 0
    tail: str = "upper"
    tie_policy: str = "reject"
    rejection_fraction: float = 0.75
    eta_gate: bool = True
    prices: bool = False
    skip_tests: bool = False
    acf_lags: int = 50
    output_format: str = "json"

    def _k_bounds(self):
        """The explicit (k_min, k_max, k_step) as ints, or None for the default grid.

        Runs every check that does not need the sample size.
        """
        given = (self.k_min, self.k_max, self.k_step)
        if all(g is None for g in given):
            return None
        if any(g is None for g in given):
            raise DomainError("k_min, k_max and k_step must be given together")
        k_min = check_int(self.k_min, "k_min", 2, KOutOfRange)
        k_max = check_int(self.k_max, "k_max", k_min, KOutOfRange)
        k_step = check_int(self.k_step, "k_step", 1, KOutOfRange)
        return k_min, k_max, k_step

    def materialize_kgrid(self, n):
        bounds = self._k_bounds()
        if bounds is None:
            return default_kgrid(n)
        k_min, k_max, k_step = bounds
        if k_max > n - 1:
            raise KOutOfRange(
                f"k_max {k_max} exceeds n-1 = {n - 1}; tail sizes must leave"
                " at least one observation out"
            )
        return list(range(k_min, k_max + 1, k_step))


def _echo_config(config, kgrid):
    return {
        "package": f"tailasym {__version__}",
        "kgrid": [int(k) for k in kgrid],
        "B": config.B,
        "alpha": config.alpha,
        "seed": config.seed,
        "tail": config.tail,
        "tie_policy": config.tie_policy,
        "rejection_fraction": config.rejection_fraction,
        "eta_gate": bool(config.eta_gate),
        "prices_as_log_returns": bool(config.prices),
        "tests": not config.skip_tests,
        "multiplier_scheme": "unit_exponential",
        "output_format": config.output_format,
    }


def _acf_block(series, config):
    out = {}
    for name, values in series.items():
        max_lag = min(config.acf_lags, len(values) - 1)
        try:
            summary = acf(values, max_lag)
        except DomainError as exc:
            out[name] = {"skipped": str(exc)}
            continue
        out[name] = {
            "max_lag": int(max_lag),
            "band": summary.band,
            "lags_beyond_band": summary.exceed_band(),
            "max_abs": float(np.max(np.abs(summary.values))),
        }
    return out


@dataclass(frozen=True, eq=False)
class Report:
    """Analysis output: config echo, provenance, per-k table, verdicts."""

    config: dict
    provenance: dict
    per_k: dict
    verdicts: dict

    def to_document(self):
        """JSON-ready nested dict (insertion-ordered, floats rounded)."""
        doc = {
            "config": self.config,
            "provenance": self.provenance,
            "per_k": self.per_k,
            "verdicts": self.verdicts,
        }
        return _round_floats(doc)


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _verdict_dict(results, threshold):
    return asdict(summarize_rejection(results, threshold))


def run_pair_analysis(table, col_x, col_y, config) -> Report:
    """Full pair analysis of two columns of an aligned table.

    Estimates both directional tail coefficients and their difference over the
    tail-size grid, runs the corresponding bootstrap tests, and packages the
    results with provenance (tail orientation, tie handling, autocorrelation
    diagnostics).  All three tests come from one shared replicate pass.  When
    the eta gate is active, the asymmetry test is only reported if at least
    one directional sweep rejects tail independence: asymmetry of an empty
    tail is meaningless.  The config's B, seed, alpha, rejection_fraction,
    acf_lags, tail, tie_policy, output_format, eta_gate, prices, skip_tests
    and k bounds are checked before any work, with or without the tests; only
    k_max <= n - 1 waits for the sample.
    """
    _check_B(config.B)
    check_int(config.seed, "seed", 0)
    check_real(config.alpha, "alpha", "(0, 1)")
    check_real(config.rejection_fraction, "rejection_fraction", "(0, 1]")
    check_int(config.acf_lags, "acf_lags", 1)
    check_choice(config.tail, "tail", _TAILS)
    check_choice(config.tie_policy, "tie_policy", _TIE_POLICIES)
    check_choice(config.output_format, "output_format", _FORMATS)
    check_choice(config.eta_gate, "eta_gate", (True, False))
    check_choice(config.prices, "prices", (True, False))
    check_choice(config.skip_tests, "skip_tests", (True, False))
    config._k_bounds()
    for col in (col_x, col_y):
        if col not in table.columns:
            raise MissingColumn(f"table has no column {col!r}")

    # Checked as read, so that a non-finite value is named by its column, row
    # and value in the table rather than in a derived series.
    x = _as_checked_array(table.columns[col_x], col_x)
    y = _as_checked_array(table.columns[col_y], col_y)
    if config.prices:
        x = log_returns(x)
        y = log_returns(y)
    x = tail_view(x, config.tail)
    y = tail_view(y, config.tail)

    sample = make_sample(x, y, tie_policy=config.tie_policy, seed=config.seed)
    # From the series before any jitter; make_sample leaves n >= 2, so every
    # series has at least one lag.
    acf_summary = _acf_block({col_x: x, col_y: y}, config)
    kgrid = config.materialize_kgrid(sample.n)

    if config.skip_tests:
        tests = None
        deltas = delta_sweep(sample, kgrid)
        estimates = (
            [d.eta_xy for d in deltas],
            [d.eta_yx for d in deltas],
            [d.value for d in deltas],
        )
    else:
        # One replicate pass runs all three tests, and their statistics are
        # the estimates; the eta gate below only decides whether the delta
        # block is reported.
        tests = test_pair(
            sample, kgrid, B=config.B, alpha=config.alpha, seed=config.seed
        )
        estimates = tuple([r.statistic for r in res] for res in tests)
    per_k = {col: [None] * len(kgrid) for col in CSV_COLUMNS}
    per_k["k"] = [int(k) for k in kgrid]
    per_k["eta_xy"], per_k["eta_yx"], per_k["delta"] = estimates
    verdicts = {}

    delta_gated = False
    if tests is not None:
        res_xy, res_yx, res_d = tests
        per_k["p_eta_xy"] = [r.p_value for r in res_xy]
        per_k["p_eta_yx"] = [r.p_value for r in res_yx]
        verdicts["eta_xy"] = _verdict_dict(res_xy, config.rejection_fraction)
        verdicts["eta_yx"] = _verdict_dict(res_yx, config.rejection_fraction)

        run_delta = True
        if config.eta_gate:
            run_delta = verdicts["eta_xy"]["reject"] or verdicts["eta_yx"]["reject"]
        if run_delta:
            per_k["p_delta"] = [r.p_value for r in res_d]
            per_k["ci_delta_low"] = [r.ci_low for r in res_d]
            per_k["ci_delta_high"] = [r.ci_high for r in res_d]
            per_k["boot_sd_delta"] = [r.boot_sd for r in res_d]
            verdicts["delta"] = _verdict_dict(res_d, config.rejection_fraction)
        else:
            delta_gated = True
            verdicts["delta"] = {
                "skipped": "eta gate: neither directional sweep rejects"
            }

    provenance = {
        "source": table.source,
        "columns": {"x": col_x, "y": col_y},
        "rows_aligned": table.n_rows,
        "observations_analyzed": int(sample.n),
        "prices_converted_to_log_returns": bool(config.prices),
        "tail": config.tail,
        "tie_policy": config.tie_policy,
        "jitter_applied": bool(sample.jittered),
        "delta_test_gated_out": delta_gated,
        "acf": acf_summary,
    }
    return Report(
        config=_echo_config(config, kgrid),
        provenance=provenance,
        per_k=per_k,
        verdicts=verdicts,
    )


def _format_cell(value):
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"


def render_report(report: Report, format="json") -> str:
    """Serialize a report deterministically to the requested text format."""
    if check_choice(format, "format", _FORMATS) == "json":
        return json.dumps(report.to_document(), indent=2) + "\n"
    lines = [",".join(CSV_COLUMNS)]
    n = len(report.per_k["k"])
    for i in range(n):
        lines.append(
            ",".join(_format_cell(report.per_k[c][i]) for c in CSV_COLUMNS)
        )
    return "\n".join(lines) + "\n"


def _write_text(text, path):
    """Write text to a file as UTF-8 bytes (LF newlines kept), or to stdout."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "wb") as fh:
            fh.write(text.encode("utf-8"))
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from None


def emit_report(report: Report, format="json", path=None) -> str:
    """Render and write a report; returns the rendered text.

    With a path, bytes are written atomically-enough for reproducibility
    checks (UTF-8, LF newlines); without one the text goes to stdout.
    """
    text = render_report(report, format)
    _write_text(text, path)
    return text
