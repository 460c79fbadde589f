"""The adaptive quadrature in _quadpack against scipy.integrate.quad.

quad(f, a, b, epsrel=0, full_output=1) on a finite interval runs QUADPACK's
dqagse, whose Wynn extrapolation starts only after two subintervals.  Where
quad converges within two, integrate must return the same value, error
estimate and subinterval count, bit for bit; elsewhere the two values must
agree within the larger error estimate.
"""

import itertools
import math

import pytest
from scipy import integrate

from tailasym import _quadpack
from tailasym.copulas import KhoudrajiGumbelCopula


def _scipy_quad(f, epsabs, limit):
    """quad's (value, abserr, last, converged) on [0, 1] with epsrel 0."""
    out = integrate.quad(
        f, 0.0, 1.0, epsabs=epsabs, epsrel=0.0, limit=limit, full_output=1
    )
    # quad appends a message to its output only when dqagse reports an error.
    return out[0], out[1], out[2]["last"], len(out) == 3


def _slice(model, direction):
    if direction == "x|y":
        return lambda u: float(model.tail_copula(u, 1.0)) ** 2
    return lambda u: float(model.tail_copula(1.0, u)) ** 2


def _kgumbel_slices():
    # (1, 0.5) and (0.3, 0.8) at delta 1.4 and 5 bisect; at tol 1e-30 the
    # rule's roundoff floor stops integrate at once, while quad bisects on.
    for alpha, beta in ((1.0, 0.5), (0.3, 0.8), (0.5, 0.0)):
        for delta in (1.0, 1.4, 2.0, 5.0):
            model = KhoudrajiGumbelCopula(alpha, beta, delta)
            for tol in (1e-8, 1e-12, 1e-30):
                for direction in ("x|y", "y|x"):
                    yield pytest.param(
                        _slice(model, direction), tol / 3.0,
                        id=f"kg{alpha},{beta},{delta}-tol{tol}-{direction}",
                    )


@pytest.mark.parametrize(("f", "epsabs"), _kgumbel_slices())
def test_kgumbel_slices_equal_scipy_quad_bit_for_bit(f, epsabs):
    want = _scipy_quad(f, epsabs, 200)
    got = _quadpack.integrate(f, 0.0, 1.0, epsabs, 200)
    value, abserr, last, converged = want
    if converged and last <= 2:
        assert got == want
    else:
        assert abs(got[0] - value) <= max(got[1], abserr)
        # integrate converges, or stops at the roundoff floor, wherever quad
        # converges, and it never uses more subintervals.
        assert got[3] or not converged
        assert got[2] <= last


def test_integrands_that_bisect_more_than_twice_equal_scipy_quad_bit_for_bit():
    # On these integrands, the slices of the golden population reports
    # among them, quad bisects the same subintervals as integrate and
    # returns their plain sum: its extrapolated result is not taken.  The
    # sum's order, which half keeps its slot and which subinterval is
    # bisected decide the bits.  |sin 7x| has kinks at pi/7 and 2pi/7, so
    # its largest error estimate moves between slots.
    kg = KhoudrajiGumbelCopula
    cases = [
        (_slice(kg(0.3, 0.8, 1.4), "y|x"), 1e-8, 3),
        (_slice(kg(1.0, 0.5, 1.4), "x|y"), 1e-8, 3),
        (_slice(kg(1.0, 0.5, 1.4), "x|y"), 1e-10, 4),
        (_slice(kg(1.0, 0.5, 1.4), "y|x"), 1e-10, 3),
        (_slice(kg(0.5, 0.9, 20.0), "y|x"), 1e-10, 4),
        (_slice(kg(0.3, 0.8, 5.0), "y|x"), 1e-12, 3),
        (lambda x: abs(math.sin(7.0 * x)), 3e-8, 27),
    ]
    for f, tol, last in cases:
        want = _scipy_quad(f, tol / 3.0, 200)
        assert want[2:] == (last, True)
        assert _quadpack.integrate(f, 0.0, 1.0, tol / 3.0, 200) == want


def test_the_roundoff_floor_stops_at_once_above_the_tolerance():
    # Every error estimate of dqk21 is at least 50 eps times the integral
    # of |f| over its subinterval, so no bisection reaches tol 1e-30.
    calls = []
    model = KhoudrajiGumbelCopula(0.3, 0.8, 1.4)
    f = _slice(model, "y|x")
    value, abserr, last, converged = _quadpack.integrate(
        lambda u: calls.append(u) or f(u), 0.0, 1.0, 1e-30, 200
    )
    assert (last, converged, len(calls)) == (1, True, 21)
    assert abserr >= 50.0 * _quadpack._EPMACH * value > 1e-30


# The Khoudraji-Gumbel slices on which population_values passed its checks
# with QUADPACK's QAGS (extrapolation and a relative tolerance of 1e-12
# included), at each tolerance here: all of this grid.
_SWEEP = {
    "alpha": (0.1, 1.0),
    "beta": (0.1, 1.0),
    "delta": (1.01, 1.4, 5.0, 100.0),
    "tol": (1e-8, 1e-12),
}


def test_converges_wherever_qags_did_on_a_sweep_grid():
    failed = []
    for alpha, beta, delta, tol in itertools.product(*_SWEEP.values()):
        model = KhoudrajiGumbelCopula(alpha, beta, delta)
        for direction in ("x|y", "y|x"):
            f = _slice(model, direction)
            _, abserr, _, converged = _quadpack.integrate(f, 0.0, 1.0, tol / 3.0, 200)
            if not (converged and 3.0 * abserr <= tol):
                failed.append((alpha, beta, delta, tol, direction))
    assert failed == []


def test_limit_one_reports_the_first_rule_as_not_converged():
    # The first rule misses tol 1e-8 on this slice; quad bisects twice more.
    f = _slice(KhoudrajiGumbelCopula(0.3, 0.8, 1.4), "y|x")
    got = _quadpack.integrate(f, 0.0, 1.0, 1e-8 / 3.0, 1)
    assert got[2:] == (1, False)
    assert got == _scipy_quad(f, 1e-8 / 3.0, 1)
    assert _quadpack.integrate(f, 0.0, 1.0, 1e-8 / 3.0, 200)[2:] == (3, True)
    # A first rule that meets the tolerance converges, though quad with
    # limit 1 reports the limit as reached.
    got = _quadpack.integrate(math.exp, 0.0, 1.0, 1e-12, 1)
    assert got == (*_scipy_quad(math.exp, 1e-12, 200)[:2], 1, True)
    assert got[0] == pytest.approx(math.e - 1.0, rel=1e-15)
