"""Exception taxonomy and the argument checks that raise it.

Everything raised deliberately by this package derives from TailAsymError, so
callers can catch one base class.  The CLI maps input/validation errors to
exit code 2 and numerical failures to exit code 3.

This module also owns the one rule for scalar arguments: check_int, check_real
and check_choice decide what counts as an integer, a real or a choice and how
a bad one is worded.  Python and numpy numbers are accepted alike, a bool is
never a number, and the message names the argument, its bound and the value.
Each caller passes the error class its argument is documented to raise.
"""

import math
import numbers

__all__ = [
    "TailAsymError", "LengthMismatch", "NonFinite", "TiesPresent", "KOutOfRange",
    "DomainError", "InvalidN", "InvalidB", "SeriesTooShort", "IoError",
    "MissingColumn", "UnparsableValue", "EmptyIntersection", "NonPositivePrice",
    "InvalidModelSpec", "QuadratureFailure",
]


class TailAsymError(Exception):
    """Base class for all errors raised by this package."""


class LengthMismatch(TailAsymError):
    """Paired series have different lengths."""


class NonFinite(TailAsymError):
    """An input value is NaN or infinite where a finite number is required."""


class TiesPresent(TailAsymError):
    """A series contains equal values and the tie policy is 'reject'."""


class KOutOfRange(TailAsymError):
    """Tail size k outside its admissible range for the sample at hand."""


class DomainError(TailAsymError):
    """A parameter or argument lies outside its documented domain."""


class InvalidN(TailAsymError):
    """Requested or provided sample size is too small."""


class InvalidB(TailAsymError):
    """Bootstrap replicate count must be a positive integer."""


class SeriesTooShort(TailAsymError):
    """Series too short for the requested operation."""


class IoError(TailAsymError):
    """A file could not be read or written."""


class MissingColumn(TailAsymError):
    """A required column is absent from the input table."""


class UnparsableValue(TailAsymError):
    """A table cell could not be parsed as a finite number."""


class EmptyIntersection(TailAsymError):
    """No rows remain after aligning the two series on the key column."""


class NonPositivePrice(TailAsymError):
    """Log-returns require strictly positive price levels."""


class InvalidModelSpec(TailAsymError):
    """A model specification string could not be parsed."""


class QuadratureFailure(TailAsymError):
    """Numerical integration did not converge to the requested tolerance."""


def check_int(value, name, lo, error=DomainError):
    """value as an int, if it is an integer (not a bool) >= lo; else raise error."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < lo:
        raise error(f"{name} must be an integer >= {lo}, got {value!r}")
    return int(value)


def check_real(value, name, interval, error=DomainError):
    """value as a float, if it is a real (not a bool) in interval; else raise error.

    interval is written as in the message, e.g. "(0, 1]" or "[1, inf)";
    NaN and +/-inf never pass, whatever the brackets.
    """
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        x = float(value)
        lo, hi = (float(b) for b in interval[1:-1].split(","))
        above = lo <= x if interval[0] == "[" else lo < x
        below = x <= hi if interval[-1] == "]" else x < hi
        if above and below and math.isfinite(x):
            return x
    raise error(f"{name} must lie in {interval}, got {value!r}")


def check_choice(value, name, choices):
    """value, if it is one of choices; else raise DomainError."""
    if value not in choices:
        listed = ", ".join(map(repr, choices))
        raise DomainError(f"{name} must be one of {listed}, got {value!r}")
    return value
