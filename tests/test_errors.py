"""The shared argument checks and the public arguments that go through them.

Python and numpy numbers are accepted alike and a bool is never a number: a
numpy scalar must give exactly what the equal Python scalar gives, and True
must raise the argument's typed error.
"""

import math

import numpy as np
import pytest

from tailasym import bootstrap as bt
from tailasym import errors
from tailasym.copulas import (
    KhoudrajiGumbelCopula,
    MaxFactorCopula,
    NelsenCopula,
    population_values,
    sample,
)
from tailasym.errors import check_choice, check_int, check_real
from tailasym.estimators import eta_kn
from tailasym.pipeline import acf
from tailasym.ranks import make_sample


def test_check_int():
    assert check_int(np.uint8(3), "k", 2) == 3
    assert type(check_int(np.int64(3), "k", 2)) is int
    for bad in (1, True, np.bool_(True), 3.0, np.float64(3.0), "3", None):
        with pytest.raises(errors.KOutOfRange, match=r"^k must be an integer >= 2, got "):
            check_int(bad, "k", 2, errors.KOutOfRange)


def test_check_real_reads_its_interval():
    assert check_real(1, "p", "(0, 1]") == 1.0
    assert type(check_real(np.float32(0.5), "p", "(0, 1]")) is float
    for bad in (0, 0.0, 1.5, math.nan, True, "0.5", None, 1j):
        with pytest.raises(errors.DomainError, match=r"^p must lie in \(0, 1\], got "):
            check_real(bad, "p", "(0, 1]")
    assert check_real(1, "delta", "[1, inf)") == 1.0
    assert check_real(1e308, "delta", "[1, inf)") == 1e308
    for bad in (math.inf, np.nextafter(1.0, 0.0)):
        with pytest.raises(errors.InvalidN, match=r"^delta must lie in \[1, inf\)"):
            check_real(bad, "delta", "[1, inf)", errors.InvalidN)
    with pytest.raises(errors.DomainError):
        check_real(-math.inf, "x", "(-inf, inf)")


def test_check_choice():
    assert check_choice("csv", "format", ("json", "csv")) == "csv"
    with pytest.raises(errors.DomainError) as info:
        check_choice("xml", "format", ("json", "csv"))
    assert str(info.value) == "format must be one of 'json', 'csv', got 'xml'"


_S = make_sample(np.arange(30.0) ** 1.5, np.sin(np.arange(30.0)))
_RESULTS = bt.test_delta_zero(_S, [5, 10], B=5, seed=1)


def _drawn(n, seed):
    s = sample(NelsenCopula(0.5), n, seed)
    return s.x.tolist(), s.y.tolist()


# argument: (call with the value, Python value, equal numpy scalar, error class)
_ARGUMENTS = {
    "theta": (NelsenCopula, 1, np.int64(1), errors.DomainError),
    "kgumbel_alpha": (
        lambda v: KhoudrajiGumbelCopula(v, 0.5, 2.0), 0.5, np.float32(0.5),
        errors.DomainError,
    ),
    "kgumbel_beta": (
        lambda v: KhoudrajiGumbelCopula(1.0, v, 2.0), 0.5, np.float32(0.5),
        errors.DomainError,
    ),
    "kgumbel_delta": (
        lambda v: KhoudrajiGumbelCopula(1.0, 0.5, v), 2, np.int64(2),
        errors.DomainError,
    ),
    "m": (MaxFactorCopula, 3, np.int64(3), errors.DomainError),
    "alpha": (
        lambda v: bt.test_delta_zero(_S, [5, 10], B=5, alpha=v), 0.25, np.float32(0.25),
        errors.DomainError,
    ),
    "threshold": (
        lambda v: bt.summarize_rejection(_RESULTS, threshold=v), 0.5, np.float32(0.5),
        errors.DomainError,
    ),
    "integration_tol": (
        lambda v: population_values(KhoudrajiGumbelCopula(1.0, 0.5, 3.0), v),
        2.0**-20, np.float32(2.0**-20), errors.DomainError,
    ),
    "B": (
        lambda v: bt.test_delta_zero(_S, [5], B=v), 4, np.int64(4), errors.InvalidB,
    ),
    "seed": (
        lambda v: bt.test_delta_zero(_S, [5], B=4, seed=v), 3, np.uint32(3),
        errors.DomainError,
    ),
    "sample_seed": (
        lambda v: _drawn(10, v), 3, np.int16(3), errors.DomainError,
    ),
    "k": (lambda v: eta_kn(_S, v), 5, np.int32(5), errors.KOutOfRange),
    "n": (lambda v: _drawn(v, 7), 10, np.int64(10), errors.InvalidN),
    "max_lag": (
        lambda v: acf(_S.y, v).values.tolist(), 3, np.int8(3), errors.DomainError,
    ),
}


@pytest.mark.parametrize("argument", list(_ARGUMENTS))
def test_numpy_scalars_equal_python_scalars_and_bools_are_rejected(argument):
    call, value, numpy_value, error = _ARGUMENTS[argument]
    assert numpy_value == value and type(numpy_value) is not type(value)
    assert call(numpy_value) == call(value)
    with pytest.raises(error):
        call(True)
