"""Exception taxonomy.

Everything raised deliberately by this package derives from TailAsymError, so
callers can catch one base class.  The CLI maps input/validation errors to
exit code 2 and numerical failures to exit code 3.
"""


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
