"""Copula model tests.

Population constants are validated three independent ways where possible:
closed-form expressions, adaptive quadrature of the squared tail-copula slice,
and Monte Carlo from the exact samplers.  Sampler correctness itself is
checked against the model CDF on a grid of points (the empirical joint CDF of
a correct sampler must match it to Monte Carlo accuracy), and the positive
stable generator is checked against its defining Laplace transform.
"""

import math
import re

import numpy as np
import pytest

from tailasym import errors
from tailasym.copulas import (
    KhoudrajiGumbelCopula,
    MaxFactorCopula,
    NelsenCopula,
    _positive_stable,
    copula_cdf,
    khoudraji_gumbel_delta_closed_form,
    parse_model_spec,
    population_values,
    sample,
    stable_tail_dependence,
    survival_copula,
    tail_copula,
    tail_dependence_chi,
)
from tailasym.estimators import Direction

# independently derived closed-form values for the delta=2 asymmetric Gumbel
# family at weights (1, 0.5); the quadrature route must land on them
KG_ETA_XY = 0.2365007418083671
KG_ETA_YX = 0.1684571396432202
KG_DELTA = 0.0680436021651469


# --- parameter validation ----------------------------------------------------


@pytest.mark.parametrize("theta", [-0.1, 1.1, float("nan"), float("inf"), True, False])
def test_nelsen_rejects_bad_theta(theta):
    with pytest.raises(errors.DomainError):
        NelsenCopula(theta)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"alpha": -0.2, "beta": 0.5, "delta": 2.0},
        {"alpha": 0.5, "beta": 1.2, "delta": 2.0},
        {"alpha": 0.5, "beta": 0.5, "delta": 0.8},
        {"alpha": 0.5, "beta": 0.5, "delta": float("nan")},
        # a bool is not a number, although True == 1
        {"alpha": True, "beta": 0.5, "delta": 2.0},
        {"alpha": 0.5, "beta": False, "delta": 2.0},
        {"alpha": 0.5, "beta": 0.5, "delta": True},
    ],
)
def test_kgumbel_rejects_bad_parameters(kwargs):
    with pytest.raises(errors.DomainError):
        KhoudrajiGumbelCopula(**kwargs)


def test_integer_parameters_stay_valid():
    assert NelsenCopula(1) == NelsenCopula(1.0)
    assert KhoudrajiGumbelCopula(1, 0, 2) == KhoudrajiGumbelCopula(1.0, 0.0, 2.0)


@pytest.mark.parametrize("m", [1, 0, -2, 2.5, True])
def test_maxfactor_rejects_bad_m(m):
    with pytest.raises(errors.DomainError):
        MaxFactorCopula(m)


# --- pointwise values and structural identities ------------------------------


def test_nelsen_cdf_examples():
    c = NelsenCopula(2 / 3)
    assert math.isclose(copula_cdf(c, 0.5, 0.5), 1 / 3, rel_tol=1e-15)
    assert copula_cdf(c, 0.0, 0.7) == 0.0
    assert copula_cdf(c, 0.7, 1.0) == 0.7
    # countermonotone and comonotone ends
    assert copula_cdf(NelsenCopula(0.0), 0.6, 0.7) == pytest.approx(0.3, abs=1e-15)
    assert copula_cdf(NelsenCopula(1.0), 0.6, 0.7) == 0.6


def test_nelsen_tail_copula_and_chi():
    c = NelsenCopula(2 / 3)
    assert tail_copula(c, 0.9, 0.2) == 0.2
    assert tail_copula(c, 0.3, 0.9) == pytest.approx(0.2, abs=1e-15)
    assert tail_dependence_chi(c) == pytest.approx(2 / 3, abs=1e-15)
    # one-sided infinite arguments take the finite branch
    assert tail_copula(c, np.inf, 0.4) == 0.4
    assert tail_copula(NelsenCopula(0.0), np.inf, 0.4) == 0.0
    with pytest.raises(errors.DomainError):
        tail_copula(c, np.inf, np.inf)
    with pytest.raises(errors.DomainError):
        tail_copula(c, -0.1, 0.5)


def test_nelsen_survival_equals_tail_copula_shape_below_diagonal():
    # for u+v < 1 the joint upper-orthant probability is exactly min(theta*u, v)
    c = NelsenCopula(2 / 3)
    rng = np.random.default_rng(31)
    for _ in range(200):
        u, v = rng.random(2)
        if u + v >= 1.0:
            continue
        want = min(2 / 3 * u, v)
        assert survival_copula(c, u, v) == pytest.approx(want, abs=2e-15)


def test_maxfactor_examples():
    c = MaxFactorCopula(2)
    assert copula_cdf(c, 0.9, 0.81) == pytest.approx(0.81, abs=1e-15)
    assert stable_tail_dependence(c, 1.0, 1.0) == pytest.approx(1.5, abs=1e-15)
    assert tail_copula(c, 1.0, 1.0) == 0.5
    assert tail_dependence_chi(MaxFactorCopula(4)) == 0.25


def test_kgumbel_chi_value():
    c = KhoudrajiGumbelCopula(1.0, 0.5, 2.0)
    assert tail_dependence_chi(c) == pytest.approx(1.5 - math.sqrt(1.25), abs=1e-15)


def test_kgumbel_delta_one_has_empty_tail():
    c = KhoudrajiGumbelCopula(0.7, 0.4, 1.0)
    for x, y in [(1.0, 1.0), (0.3, 2.0), (5.0, 0.1)]:
        assert abs(tail_copula(c, x, y)) < 1e-15
    pv = population_values(c)
    assert abs(pv.eta_xy) < 1e-12 and abs(pv.eta_yx) < 1e-12


def test_cdf_bounds_and_margins_random_models():
    rng = np.random.default_rng(32)
    models = [
        NelsenCopula(0.37),
        KhoudrajiGumbelCopula(0.9, 0.25, 3.0),
        MaxFactorCopula(3),
    ]
    for c in models:
        u = rng.random(500)
        v = rng.random(500)
        vals = copula_cdf(c, u, v)
        # Frechet-Hoeffding bounds
        assert np.all(vals <= np.minimum(u, v) + 1e-12)
        assert np.all(vals >= np.maximum(u + v - 1.0, 0.0) - 1e-12)
        # uniform margins of the copula itself
        assert np.allclose(copula_cdf(c, u, np.ones_like(u)), u, atol=1e-12)
        assert np.allclose(copula_cdf(c, np.ones_like(v), v), v, atol=1e-12)


def test_tail_copula_dominated_by_min():
    rng = np.random.default_rng(33)
    for c in (NelsenCopula(0.8), KhoudrajiGumbelCopula(1.0, 0.5, 2.0), MaxFactorCopula(2)):
        x = rng.random(300) * 3
        y = rng.random(300) * 3
        lam = tail_copula(c, x, y)
        assert np.all(lam <= np.minimum(x, y) + 1e-12)
        assert np.all(lam >= -1e-12)
        # homogeneity of order 1
        lam2 = tail_copula(c, 2.0 * x, 2.0 * y)
        assert np.allclose(lam2, 2.0 * np.asarray(lam), rtol=1e-12, atol=1e-14)


def test_survival_copula_identity_random_points():
    rng = np.random.default_rng(34)
    c = KhoudrajiGumbelCopula(0.6, 0.8, 2.5)
    for _ in range(100):
        u, v = rng.random(2)
        direct = u + v - 1.0 + copula_cdf(c, 1.0 - u, 1.0 - v)
        assert survival_copula(c, u, v) == pytest.approx(direct, abs=1e-15)


@pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan")])
def test_cdf_and_survival_copula_reject_arguments_outside_the_unit_square(bad):
    c = NelsenCopula(0.5)
    for fn in (c.cdf, lambda u, v: survival_copula(c, u, v)):
        with pytest.raises(errors.DomainError, match="^u must lie in"):
            fn(bad, 0.5)
        with pytest.raises(errors.DomainError, match="^v must lie in"):
            fn(0.5, [0.2, bad])


# --- population values --------------------------------------------------------


def test_nelsen_population_closed_form():
    pv = population_values(NelsenCopula(2 / 3))
    assert pv.method == "closed_form"
    assert pv.eta_xy == pytest.approx(4 / 9, abs=1e-15)
    assert pv.eta_yx == pytest.approx(20 / 27, abs=1e-15)
    assert pv.delta == pytest.approx(-8 / 27, abs=1e-15)
    # most asymmetric point of the family
    thetas = np.linspace(0, 1, 101)
    deltas = [population_values(NelsenCopula(float(t))).delta for t in thetas]
    assert min(deltas) == pytest.approx(-8 / 27, abs=1e-4)


def test_maxfactor_population_closed_form():
    for m in (2, 3, 7):
        pv = population_values(MaxFactorCopula(m))
        assert pv.method == "closed_form"
        assert pv.eta_xy == pytest.approx(3 / m**2 - 2 / m**3, abs=1e-15)
        assert pv.eta_yx == pytest.approx(1 / m**2, abs=1e-15)
        assert pv.delta == pytest.approx((2 / m**2) * (1 - 1 / m), abs=1e-15)


def test_closed_forms_match_quadrature_of_slices():
    # run the generic quadrature machinery against the closed-form families
    from tailasym.copulas import _eta_by_quadrature

    for c, want_xy, want_yx in [
        (NelsenCopula(2 / 3), 4 / 9, 20 / 27),
        (MaxFactorCopula(2), 0.5, 0.25),
        (MaxFactorCopula(5), 3 / 25 - 2 / 125, 1 / 25),
    ]:
        got_xy = _eta_by_quadrature(c, Direction.X_GIVEN_Y, 1e-10)
        got_yx = _eta_by_quadrature(c, Direction.Y_GIVEN_X, 1e-10)
        assert got_xy == pytest.approx(want_xy, abs=1e-10)
        assert got_yx == pytest.approx(want_yx, abs=1e-10)


def test_kgumbel_population_quadrature_vs_derived_constants():
    pv = population_values(KhoudrajiGumbelCopula(1.0, 0.5, 2.0))
    assert pv.method == "quadrature"
    assert pv.eta_xy == pytest.approx(KG_ETA_XY, abs=1e-8)
    assert pv.eta_yx == pytest.approx(KG_ETA_YX, abs=1e-8)
    assert pv.delta == pytest.approx(KG_DELTA, abs=1e-12)


def test_kgumbel_closed_form_delta():
    assert khoudraji_gumbel_delta_closed_form(1.0, 0.5) == pytest.approx(
        KG_DELTA, abs=1e-15
    )
    # antisymmetry and the symmetric zero
    assert khoudraji_gumbel_delta_closed_form(0.5, 1.0) == pytest.approx(
        -KG_DELTA, abs=1e-15
    )
    assert abs(khoudraji_gumbel_delta_closed_form(0.8, 0.8)) < 1e-13
    with pytest.raises(errors.DomainError):
        khoudraji_gumbel_delta_closed_form(0.0, 0.5)
    for bad in ((True, 0.5), (0.5, True)):
        with pytest.raises(errors.DomainError):
            khoudraji_gumbel_delta_closed_form(*bad)
    assert khoudraji_gumbel_delta_closed_form(1, 1) == khoudraji_gumbel_delta_closed_form(1.0, 1.0)


def test_quadrature_that_reports_a_warning_raises(monkeypatch):
    # With full_output, quad returns a fourth element, its warning message,
    # only when the integration did not converge.
    from scipy import integrate

    message = "The maximum number of subdivisions (200) has been achieved."
    monkeypatch.setattr(
        integrate, "quad", lambda *args, **kwargs: (0.1, 1e-12, {}, message)
    )
    with pytest.raises(errors.QuadratureFailure, match=re.escape(message)):
        population_values(KhoudrajiGumbelCopula(1.0, 0.5, 2.0))


def test_kgumbel_closed_delta_matches_quadrature_across_parameters():
    for a, b in [(1.0, 0.25), (0.9, 0.6), (0.33, 0.77)]:
        c = KhoudrajiGumbelCopula(a, b, 2.0)
        pv = population_values(c, integration_tol=1e-10)
        from tailasym.copulas import _eta_by_quadrature

        q = _eta_by_quadrature(c, Direction.X_GIVEN_Y, 1e-10) - _eta_by_quadrature(
            c, Direction.Y_GIVEN_X, 1e-10
        )
        assert pv.delta == pytest.approx(q, abs=1e-9)


def test_population_values_tolerance_validation_and_failure():
    with pytest.raises(errors.DomainError):
        population_values(NelsenCopula(0.5), integration_tol=0.0)
    with pytest.raises(errors.DomainError):
        population_values(NelsenCopula(0.5), integration_tol=-1e-8)
    with pytest.raises(errors.DomainError):
        population_values(NelsenCopula(0.5), integration_tol=True)
    assert population_values(NelsenCopula(0.5), integration_tol=1).method == "closed_form"
    with pytest.raises(errors.QuadratureFailure):
        population_values(KhoudrajiGumbelCopula(1.0, 0.5, 2.0), integration_tol=1e-30)


def test_slice_kinks_reported():
    assert NelsenCopula(0.4).slice_kinks(Direction.Y_GIVEN_X) == (0.4,)
    assert NelsenCopula(0.4).slice_kinks(Direction.X_GIVEN_Y) == ()
    assert MaxFactorCopula(4).slice_kinks(Direction.X_GIVEN_Y) == (0.25,)
    assert MaxFactorCopula(4).slice_kinks(Direction.Y_GIVEN_X) == ()
    assert KhoudrajiGumbelCopula(1.0, 0.5, 2.0).slice_kinks(Direction.X_GIVEN_Y) == ()


# --- samplers ------------------------------------------------------------------


def test_sample_returns_validated_pairs_deterministically():
    c = NelsenCopula(0.5)
    s1 = sample(c, 1000, 42)
    s2 = sample(c, 1000, 42)
    assert np.array_equal(s1.x, s2.x) and np.array_equal(s1.y, s2.y)
    s3 = sample(c, 1000, 43)
    assert not np.array_equal(s1.x, s3.x)
    with pytest.raises(errors.InvalidN):
        sample(c, 1, 0)


def test_sample_seed_must_be_a_non_negative_integer():
    c = NelsenCopula(0.5)
    for bad in (-1, True, 2.0, None):
        wording = f"seed must be an integer >= 0, got {bad!r}"
        with pytest.raises(errors.DomainError, match=re.escape(wording)):
            sample(c, 10, bad)
    want = sample(c, 10, 42)
    got = sample(c, 10, np.uint64(42))
    assert np.array_equal(got.x, want.x) and np.array_equal(got.y, want.y)


@pytest.mark.parametrize(
    "model",
    [
        NelsenCopula(0.0),
        NelsenCopula(2 / 3),
        NelsenCopula(1.0),
        KhoudrajiGumbelCopula(1.0, 0.5, 2.0),
        KhoudrajiGumbelCopula(0.6, 0.6, 3.5),
        KhoudrajiGumbelCopula(1.0, 1.0, 1.0),
        MaxFactorCopula(2),
        MaxFactorCopula(5),
    ],
)
def test_sampler_matches_cdf_on_grid(model):
    n = 200_000
    s = sample(model, n, 99)
    # the sampled x is uniform except for MaxFactorCopula's y; compare the
    # joint law through P(X <= qx, Y <= qy) with quantiles taken empirically
    grid = [0.1, 0.25, 0.5, 0.75, 0.9]
    qx = np.quantile(s.x, grid, method="higher")
    qy = np.quantile(s.y, grid, method="higher")
    for gu, xq in zip(grid, qx):
        for gv, yq in zip(grid, qy):
            emp = float(np.mean((s.x <= xq) & (s.y <= yq)))
            want = float(copula_cdf(model, gu, gv))
            se = math.sqrt(max(want * (1 - want), 0.05) / n)
            assert abs(emp - want) < 5 * se + 3 / n, (gu, gv, emp, want)


def test_nelsen_sampler_degenerate_ends():
    s = sample(NelsenCopula(0.0), 5000, 1)
    assert np.allclose(s.x + s.y, 1.0, atol=1e-12)  # countermonotone
    s = sample(NelsenCopula(1.0), 5000, 1)
    assert np.array_equal(s.x, s.y)  # comonotone


def test_maxfactor_sampler_has_literal_margins():
    # y is the max of m uniforms: P(Y <= q) = q^m, so the y margin is not
    # uniform -- the model is used through ranks where only the copula matters
    s = sample(MaxFactorCopula(3), 200_000, 17)
    for q in (0.5, 0.8):
        assert np.mean(s.y <= q) == pytest.approx(q**3, abs=0.004)
    assert np.mean(s.x <= 0.5) == pytest.approx(0.5, abs=0.004)
    # x attains the column maximum with probability 1/m
    assert np.mean(s.x == s.y) == pytest.approx(1 / 3, abs=0.004)


def test_uniform_margins_of_khoudraji_sampler():
    s = sample(KhoudrajiGumbelCopula(1.0, 0.5, 2.0), 200_000, 23)
    for q in (0.1, 0.5, 0.9):
        assert np.mean(s.x <= q) == pytest.approx(q, abs=0.005)
        assert np.mean(s.y <= q) == pytest.approx(q, abs=0.005)


def test_khoudraji_sampler_with_zero_alpha_draws_x_independently():
    # alpha = 0 gives X the weight of the independent uniform alone, so X and
    # Y are independent; X taken from the Gumbel pair instead would give them
    # a Spearman correlation of about 0.44 at this beta and delta.
    s = sample(KhoudrajiGumbelCopula(0.0, 0.5, 2.0), 2000, 1)
    ranks = [np.argsort(np.argsort(v)) for v in (s.x, s.y)]
    assert abs(np.corrcoef(*ranks)[0, 1]) < 0.1


@pytest.mark.parametrize("a", [0.5, 1 / 3, 0.8])
def test_positive_stable_laplace_transform(a):
    rng = np.random.default_rng(57)
    s = _positive_stable(rng, a, 300_000)
    assert np.all(s > 0)
    for t in (0.5, 1.0, 2.0):
        emp = float(np.mean(np.exp(-t * s)))
        want = math.exp(-(t**a))
        assert abs(emp - want) < 0.005, (a, t, emp, want)


# --- model spec parsing ---------------------------------------------------------


def test_parse_model_spec_families():
    m = parse_model_spec("nelsen:theta=0.667")
    assert isinstance(m, NelsenCopula) and m.theta == 0.667
    m = parse_model_spec("kgumbel:alpha=1,beta=0.5,delta=2")
    assert isinstance(m, KhoudrajiGumbelCopula)
    assert (m.alpha, m.beta, m.delta) == (1.0, 0.5, 2.0)
    m = parse_model_spec("maxmodel:m=2")
    assert isinstance(m, MaxFactorCopula) and m.m == 2
    # whitespace and key order are immaterial
    m = parse_model_spec(" kgumbel : delta=2 , alpha=1 , beta=0.5 ")
    assert (m.alpha, m.beta, m.delta) == (1.0, 0.5, 2.0)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "  ",
        "gaussian:rho=0.5",
        "nelsen",
        "nelsen:theta",
        "nelsen:theta=",
        "nelsen:theta=abc",
        "nelsen:theta=0.5,extra=1",
        "nelsen:theta=0.5,theta=0.6",
        "kgumbel:alpha=1,beta=0.5",
        "maxmodel:m=2.5",
    ],
)
def test_parse_model_spec_rejects(text):
    with pytest.raises(errors.InvalidModelSpec):
        parse_model_spec(text)


def test_parse_model_spec_propagates_domain_errors():
    with pytest.raises(errors.DomainError):
        parse_model_spec("nelsen:theta=1.5")
    with pytest.raises(errors.DomainError):
        parse_model_spec("maxmodel:m=1")


def test_describe_round_trips_the_parameters():
    for text, want in [
        ("nelsen:theta=0.25", {"family": "nelsen", "theta": 0.25}),
        (
            "kgumbel:delta=2,beta=0.5,alpha=1",
            {"family": "kgumbel", "alpha": 1.0, "beta": 0.5, "delta": 2.0},
        ),
        ("maxmodel:m=6", {"family": "maxmodel", "m": 6}),
    ]:
        model = parse_model_spec(text)
        got = model.describe()
        assert got == want
        assert [type(v) for v in got.values()] == [type(v) for v in want.values()]
        family = got.pop("family")
        params = ",".join(f"{k}={v}" for k, v in got.items())
        assert parse_model_spec(f"{family}:{params}") == model
