"""Directional extreme-tail association between two real-valued series.

Estimate how strongly the largest values of one series pair with the largest
values of another, separately in each direction, and test whether the two
directions differ -- all from ranks, with multiplier-bootstrap inference and
exactly solvable copula models to validate against.

Each module declares its public names in its own __all__; the package
re-exports them all.
"""

__version__ = "0.1.0"

from . import bootstrap, copulas, errors, estimators, pipeline, ranks
from .bootstrap import *  # noqa: F403
from .copulas import *  # noqa: F403
from .errors import *  # noqa: F403
from .estimators import *  # noqa: F403
from .pipeline import *  # noqa: F403
from .ranks import *  # noqa: F403

__all__ = [
    "__version__", *ranks.__all__, *estimators.__all__, *copulas.__all__,
    *bootstrap.__all__, *pipeline.__all__, *errors.__all__,
]
