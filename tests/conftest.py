"""Shared pytest setup.

Hypothesis reports a failing generated example through
``hypothesis.extra._patching``, which imports ``libcst`` where it is
installed, and ``libcst`` imports ``mypy_extensions``, which raises a
``DeprecationWarning`` on import.  Under ``filterwarnings = ["error"]`` that
warning would end the run in INTERNALERROR in place of the falsifying
example, so the module is imported once here with the warning ignored.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
