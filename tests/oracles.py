"""The definitions the tests hold tailasym to, each written once.

A helper module, not a test file: pytest does not collect it.  Each function
is one contract of the reports, written from its definition and kept naive,
so that agreement with the production path is a real cross-check; a change
that moves a contract on purpose edits its function here and nowhere else.
The references take the weighted kernel as imported here, past any
monkeypatch of ``_kernels``.  The copula identities and the empirical
tail-copula slice at the end are what the models and eta_kn are checked
against; no command computes them.
"""

import math
from dataclasses import dataclass

import numpy as np

from tailasym import _kernels
from tailasym.bootstrap import normal_quantile
from tailasym.copulas import _check_tail_args, _check_unit_args, _scalar_like
from tailasym.errors import DomainError
from tailasym.estimators import Direction
from tailasym.ranks import concomitant_ranks

_kernel = _kernels.weighted_eta_grid_sums


def literal_eta(x, y, k, top=None):
    """3 / k^3 times the sum over the top `top` of y of (k + 1 - max(r_i, r_j))_+.

    r_i is the reverse rank of x_i, the number of x values >= x_i; top is
    eta_kn's window, k - 1, unless given.  Pure Python on exact integers:
    eta_kn divides the same integer by k^3 once, so the two agree with ==.
    """
    x, y = [float(v) for v in x], [float(v) for v in y]
    order = sorted(range(len(y)), key=lambda i: -y[i])[: k - 1 if top is None else top]
    r = [sum(1 for v in x if v >= x[i]) for i in order]
    s = sum(max(k + 1 - max(a, b), 0) for a in r for b in r)
    return 3 * s / k**3


def concordant_sum(k):
    """The double sum of literal_eta at full concordance: (k - 1)(2k^2 + 5k - 6) / 6."""
    return (k - 1) * (2 * k * k + 5 * k - 6) // 6


def naive_weighted_eta(x, y, w, k):
    """Literal definition of the weighted replicate at tail size k.

    Weighted reverse ranks by pairwise comparison, inclusion of a point when
    the total weight of strictly larger conditioning values is below k, and
    the (k - max)_+ pair sum evaluated with two explicit loops.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    wo = np.asarray(w, dtype=float)
    wo = wo / wo.mean()
    rx = np.array([wo[x > xi].sum() for xi in x])
    ry = np.array([wo[y > yi].sum() for yi in y])
    idx = np.flatnonzero(ry < k)
    s = 0.0
    for i in idx:
        for j in idx:
            m = max(rx[i], rx[j])
            if m < k:
                s += wo[i] * wo[j] * (k - m)
    return 3.0 * s / k**3


def full_sort_replicate(ranked, conditioning, wo, ks):
    """Reference replicate: all n weighted ranks sorted, no truncation.

    The weighted rank of an element is the exclusive running sum of the
    weights along decreasing ranked values, the total weight of the larger
    ones; equal weighted ranks are ordered by unweighted reverse rank.
    """
    n = ranked.size
    value_order = np.argsort(-ranked, kind="stable")
    y_order = np.argsort(-conditioning, kind="stable")
    ws = wo[value_order]
    r = np.empty(n)
    r[value_order] = np.concatenate(([0.0], np.cumsum(ws)[:-1]))
    reverse = np.empty(n, dtype=np.int64)
    reverse[value_order] = np.arange(1, n + 1)
    rx = r[y_order]
    wy = wo[y_order]
    excl = np.concatenate(([0.0], np.cumsum(wy)[:-1]))
    order = np.lexsort((reverse[y_order], rx))
    sums = _kernel(
        rx[order][None, :], excl[order][None, :], wy[order][None, :],
        np.empty((1, ks.size)), ks,
    )
    return (3.0 * sums[0]) / ks.astype(np.float64) ** 3


def per_k_weighted_sums(rx_sorted, ry_sorted, w_sorted, ks):
    """The weighted kernel as a loop over k: one prefix, one mask, one dot each.

    The same terms, running sums and ``np.dot`` call per k as the kernel.
    """
    out = np.empty(len(ks), dtype=np.float64)
    for t, k in enumerate(ks):
        kf = float(k)
        hi = int(np.searchsorted(rx_sorted, kf, side="left"))
        keep = ry_sorted[:hi] < kf
        rx = rx_sorted[:hi][keep]
        w = w_sorted[:hi][keep]
        cw = np.cumsum(w)
        out[t] = float(np.dot((kf - rx) * w, 2.0 * cw - w))
    return out


def seed_sequence(seed, b):
    """The seed sequence of replicate b of a test call with this seed."""
    return np.random.SeedSequence(entropy=seed, spawn_key=(0, b))


def replicate_weights(seed, b, n):
    """The documented multiplier stream for replicate b: Philox((seed, (0, b)))."""
    rng = np.random.Generator(np.random.Philox(seed_sequence(seed, b)))
    return rng.standard_exponential(n)


def jitter_stream(seed):
    """The generator the jitter tie policy draws from: Philox((seed, (1,)))."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(1,))))


def offset_jitter(arr, rng):
    """Tie-breaking by small seeded offsets, valid while the gaps are wide."""
    n = arr.size
    gaps = np.diff(np.unique(arr))
    scale = float(gaps.min()) if gaps.size else 1.0
    return arr + (rng.permutation(n) + 1.0) / (n + 1.0) * (0.5 * scale)


def assembled(stat, col, k, B, alpha, two_sided):
    """(p_value, boot_sd, ci_low, ci_high) of the statistic at k from its B replicates.

    The p-value is the share of replicates whose centred value exceeds the
    statistic, strictly, or in absolute value when two-sided; boot_sd is
    sqrt(k) times their SD (ddof 1), 0.0 for a single replicate, and the
    interval is stat -/+ z_{alpha/2} * boot_sd / sqrt(k).
    """
    col = np.asarray(col, dtype=float)
    exceed = np.abs(col - stat) > abs(stat) if two_sided else col - stat > stat
    root_k = math.sqrt(k)
    sd = root_k * float(np.std(col, ddof=1)) if B > 1 else 0.0
    half = normal_quantile(alpha / 2.0) * sd / root_k
    return np.count_nonzero(exceed) / B, sd, stat - half, stat + half


def survival_copula(model, u, v):
    """Joint upper-orthant copula: P(U > 1-u, V > 1-v) = u+v-1+C(1-u, 1-v)."""
    ua, va = _check_unit_args(u, v)
    return _scalar_like(ua + va - 1.0 + model._cdf(1.0 - ua, 1.0 - va), u, v)


def stable_tail_dependence(model, x, y):
    """Stable tail dependence function l(x, y) = x + y - Lambda(x, y)."""
    xa, ya = _check_tail_args(x, y)
    return _scalar_like(xa + ya - model._tail(xa, ya), x, y)


@dataclass(frozen=True, eq=False)
class TailCopulaGrid:
    """Piecewise-constant empirical tail-copula slice u -> Lambda(u, 1).

    The function is 0 on [0, breakpoints[0]), jumps by 1/k at each breakpoint,
    and takes the value values[j] on (breakpoints[j], breakpoints[j+1]]; it is
    left-continuous at its jumps (the indicator underneath is strict).
    """

    k: int
    n: int
    breakpoints: np.ndarray
    values: np.ndarray

    def evaluate(self, u):
        """Value of the slice at u (scalar or array), u in [0, 1]."""
        ua = np.asarray(u, dtype=np.float64)
        if np.any(~np.isfinite(ua)) or np.any(ua < 0.0) or np.any(ua > 1.0):
            raise DomainError("slice argument must lie in [0, 1]")
        out = np.searchsorted(self.breakpoints, ua, side="left") / self.k
        return float(out) if ua.ndim == 0 else out


def empirical_tail_copula_slice(sample, k, direction=Direction.X_GIVEN_Y):
    """Empirical tail-copula slice built from the top-(k-1) concomitant ranks.

    Each concomitant rank r <= k among the first k-1 contributes a jump of 1/k
    at u = (r-1)/k; integrating the square of the result and scaling by 3
    reproduces eta_kn exactly (see eta_from_tail_copula).  Y_GIVEN_X ranks
    the swapped sample with a sort of its own.
    """
    oriented = sample if direction is Direction.X_GIVEN_Y else sample.swapped()
    top = concomitant_ranks(oriented).rho[: k - 1]
    contributing = np.sort(top[top <= k])
    breakpoints = (contributing - 1) / k
    values = np.arange(1, contributing.size + 1, dtype=np.float64) / k
    breakpoints.flags.writeable = False
    values.flags.writeable = False
    return TailCopulaGrid(k=k, n=sample.n, breakpoints=breakpoints, values=values)


def eta_from_tail_copula(grid):
    """3 times the exact integral of the squared slice over [0, 1].

    Piecewise-constant integration: values[j] holds on (breakpoints[j], b_next]
    with b_next the following breakpoint or 1.  Agrees with eta_kn to float
    precision; a constant slice c on all of [0, 1] integrates to 3 c^2.
    """
    edges = np.append(grid.breakpoints, 1.0)
    lengths = np.diff(edges)
    return 3.0 * float(np.dot(grid.values * grid.values, lengths))
