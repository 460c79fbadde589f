"""Kernel backend selection.

Prefers the compiled extension, falls back to the numpy implementation when
the extension was not built.  Both expose the same two functions; the rest of
the package imports them from here and never cares which backend is active.

The compiled integer kernel accumulates in int64.  Its partial sums never
exceed S(k) at full concordance, (k - 1)(2k^2 + 5k - 6)/6 (about k^3/3), so a
grid whose largest k would overflow goes to the exact numpy kernel instead.
"""

import numpy as np

from . import _kernels_py

try:
    from . import _speedups as _impl

    HAVE_COMPILED = True
except ImportError:  # pragma: no cover - depends on build environment
    _impl = _kernels_py

    HAVE_COMPILED = False

weighted_eta_grid_sums = _impl.weighted_eta_grid_sums


def _max_sum(k):
    return (k - 1) * (2 * k * k + 5 * k - 6) // 6


def _largest_int64_safe_k():
    limit = int(np.iinfo(np.int64).max)
    k = int(round((3 * limit) ** (1 / 3)))
    while _max_sum(k) > limit:
        k -= 1
    while _max_sum(k + 1) <= limit:
        k += 1
    return k


#: Largest tail size whose integer sum always fits in int64 (3,024,616).
MAX_INT64_K = _largest_int64_safe_k()


def eta_grid_sums(pos, ks):
    """Integer sums S(k) over a k-grid; exact at every k (see the module note)."""
    if len(ks) and int(np.max(ks)) > MAX_INT64_K:
        return _kernels_py.eta_grid_sums(pos, ks)
    return _impl.eta_grid_sums(pos, ks)


def backend_name():
    """Name of the active kernel backend: 'compiled' or 'numpy'."""
    return "compiled" if HAVE_COMPILED else "numpy"
