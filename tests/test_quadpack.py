"""The QUADPACK QAGS port against scipy.integrate.quad, by exact equality.

quad(f, a, b, full_output=1) on a finite interval runs QUADPACK's dqagse; the
port must return the same value, error estimate, evaluation count,
subinterval count and error code, bit for bit.
"""

import math

import pytest
from scipy import integrate

from tailasym import _quadpack
from tailasym.copulas import KhoudrajiGumbelCopula

# The start of quad's message for each error code of dqagse.
_SCIPY_MESSAGES = {
    "The maximum number of subdivisions": 1,
    "The occurrence of roundoff error": 2,
    "Extremely bad integrand behavior": 3,
    "The algorithm does not converge": 4,
    "The integral is probably divergent": 5,
}


def _scipy_qags(f, a, b, epsabs, epsrel, limit):
    out = integrate.quad(
        f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit, full_output=1
    )
    ier = 0
    if len(out) > 3:
        [ier] = [v for k, v in _SCIPY_MESSAGES.items() if out[3].startswith(k)]
    info = out[2]
    return _quadpack.QagsResult(out[0], out[1], info["neval"], info["last"], ier)


def _kgumbel_slices():
    # (1, 0.5) and (0.3, 0.8) at delta 1.4 and 5 bisect up to six times at
    # tol 1e-30, where the error check of population_values then fails.
    for alpha, beta in ((1.0, 0.5), (0.3, 0.8), (0.5, 0.0)):
        for delta in (1.0, 1.4, 2.0, 5.0):
            model = KhoudrajiGumbelCopula(alpha, beta, delta)
            for tol in (1e-8, 1e-12, 1e-30):
                name = f"kg{alpha},{beta},{delta}-tol{tol}"
                yield pytest.param(
                    lambda u, m=model: float(m.tail_copula(u, 1.0)) ** 2,
                    tol / 3.0, id=f"{name}-x|y",
                )
                yield pytest.param(
                    lambda u, m=model: float(m.tail_copula(1.0, u)) ** 2,
                    tol / 3.0, id=f"{name}-y|x",
                )


@pytest.mark.parametrize(("f", "epsabs"), _kgumbel_slices())
def test_kgumbel_slices_equal_scipy_quad_bit_for_bit(f, epsabs):
    want = _scipy_qags(f, 0.0, 1.0, epsabs, 1e-12, 200)
    assert _quadpack.qags(f, 0.0, 1.0, epsabs, 1e-12, 200) == want


_SINGULAR = {
    "1/sqrt(x)": lambda x: 1.0 / math.sqrt(x),
    "log(x)": math.log,
    "x^-0.9": lambda x: x**-0.9,
    "1/x": lambda x: 1.0 / x,
    "x^-2": lambda x: 1.0 / (x * x),
    "sin(1/x)": lambda x: math.sin(1.0 / x),
}
_TOLERANCES = ((1e-10, 1e-12), (1e-14, 0.0), (1e-300, 0.0))


def test_singular_integrands_equal_scipy_quad_and_reach_every_branch(monkeypatch):
    extrapolations = []
    dqelg = _quadpack._dqelg
    monkeypatch.setattr(
        _quadpack, "_dqelg", lambda *args: extrapolations.append(1) or dqelg(*args)
    )
    codes = set()
    for name, f in _SINGULAR.items():
        for epsabs, epsrel in _TOLERANCES:
            want = _scipy_qags(f, 0.0, 1.0, epsabs, epsrel, 50)
            got = _quadpack.qags(f, 0.0, 1.0, epsabs, epsrel, 50)
            assert got == want, (name, epsabs, epsrel)
            codes.add(got.ier)
    # converged, subdivision limit, roundoff, extrapolation roundoff, divergence
    assert codes == {0, 1, 2, 4, 5}
    assert extrapolations


def test_an_integrand_that_overflows_equals_scipy_quad():
    # 1/x**2 overflows to inf near 0 after about 500 bisections, so the sums
    # turn to inf and NaN and every comparison must keep C's NaN outcome.
    f = _SINGULAR["x^-2"]
    got = _quadpack.qags(f, 0.0, 1.0, 1e-300, 0.0, 1000)
    assert got == _scipy_qags(f, 0.0, 1.0, 1e-300, 0.0, 1000)
    assert (got.last, got.ier) == (514, 2)


def test_limit_one_reports_the_first_rule_as_not_converged():
    got = _quadpack.qags(math.exp, 0.0, 1.0, 1e-300, 0.0, 1)
    assert got == _scipy_qags(math.exp, 0.0, 1.0, 1e-300, 0.0, 1)
    assert (got.neval, got.last, got.ier) == (21, 1, 1)
    assert got.value == pytest.approx(math.e - 1.0, rel=1e-15)


def _nan_near(c, width, f):
    return lambda x: math.nan if abs(x - c) < width else f(x)


# Integrands on which a rarely deciding threshold or comparison decides the
# outcome, so that changing it changes the result.  The last three return NaN
# near a point, which turns the sums NaN; there the Fortran's comparisons,
# such as not (a > b or c < d), and their negations part ways.
_BRANCHES = {
    "roundoff-factor-0.99": (lambda x: 1e9 + 1e-3 / math.sqrt(x), 1e-14, 0.0, 50),
    "wynn-1e-4-and-divergence-ratio-100": (lambda x: x**-0.9999, 1e-10, 1e-12, 50),
    "dqpsrt-tie-and-nan-epsinf": (lambda x: 1e-306 / math.sqrt(x), 5e-324, 0.0, 50),
    "nan-roundoff-test": (_nan_near(0.0, 1e-7, lambda x: x**-0.5), 5e-324, 0.0, 50),
    "nan-wynn-convergence-and-acceptance": (
        _nan_near(0.5, 1e-4, lambda x: abs(x - 0.5)), 1e-300, 0.0, 50,
    ),
    "nan-larger-interval-test": (
        _nan_near(0.5, 1e-13, lambda x: 1.0 / math.sqrt(abs(x - 0.5))), 1e-10, 0.0, 200,
    ),
}


@pytest.mark.parametrize("name", list(_BRANCHES))
def test_rarely_deciding_branches_equal_scipy_quad(name):
    f, epsabs, epsrel, limit = _BRANCHES[name]
    got = _quadpack.qags(f, 0.0, 1.0, epsabs, epsrel, limit)
    want = _scipy_qags(f, 0.0, 1.0, epsabs, epsrel, limit)
    # a NaN value or error estimate must be NaN on both sides
    assert [v if v == v else "nan" for v in got] == [
        v if v == v else "nan" for v in want
    ]


def test_invalid_tolerances_return_code_6_without_evaluating():
    # quad raises ValueError here instead of calling dqagse
    calls = []
    got = _quadpack.qags(lambda x: calls.append(x) or x, 0.0, 1.0, 0.0, 1e-15, 50)
    assert got == (0.0, 0.0, 0, 0, 6)
    assert calls == []
    assert sorted(_quadpack.MESSAGES) == [1, 2, 3, 4, 5, 6]
