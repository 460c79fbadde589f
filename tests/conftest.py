"""Shared pytest setup.

Hypothesis reports a failing generated example through
``hypothesis.extra._patching``, which imports ``libcst`` where it is
installed, and ``libcst`` imports ``mypy_extensions``, which raises a
``DeprecationWarning`` on import.  Under ``filterwarnings = ["error"]`` that
warning would end the run in INTERNALERROR in place of the falsifying
example, so the module is imported once here with the warning ignored.

The ``loadtxt_dtypes`` fixture records what the CSV reader asks of
``np.loadtxt``.
"""

import warnings

import numpy as np
import pytest

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


@pytest.fixture
def loadtxt_dtypes(monkeypatch):
    """The dtype of every np.loadtxt call the test makes, in call order."""
    loadtxt, dtypes = np.loadtxt, []

    def recorded(*args, **kwargs):
        dtypes.append(np.dtype(kwargs["dtype"]))
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", recorded)
    return dtypes
