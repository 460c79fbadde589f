"""Bivariate copula models with known extreme-tail behaviour.

Three families serve as ground truth for the estimators: a piecewise-linear
singular family (NelsenCopula), an asymmetric Gumbel family obtained through
Khoudraji's device (KhoudrajiGumbelCopula), and a max-factor model
(MaxFactorCopula).  Each exposes its CDF, its tail copula, an exact sampler,
and population values of the directional tail coefficients -- in closed form
where one exists, otherwise by adaptive quadrature of the squared tail-copula
slice.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    DomainError,
    InvalidModelSpec,
    InvalidN,
    QuadratureFailure,
    check_int,
    check_real,
)
from .estimators import Direction, _coerce_direction
from .ranks import PairedSample, make_sample

__all__ = [
    "NelsenCopula", "KhoudrajiGumbelCopula", "MaxFactorCopula", "PopulationValues",
    "copula_cdf", "survival_copula", "tail_copula", "stable_tail_dependence",
    "tail_dependence_chi", "population_values",
    "khoudraji_gumbel_delta_closed_form", "sample", "parse_model_spec",
]


def _check_unit_args(u, v):
    ua = np.asarray(u, dtype=np.float64)
    va = np.asarray(v, dtype=np.float64)
    for name, arr in (("u", ua), ("v", va)):
        if np.any(~np.isfinite(arr)) or np.any(arr < 0.0) or np.any(arr > 1.0):
            raise DomainError(f"{name} must lie in [0, 1]")
    return ua, va


def _check_tail_args(x, y):
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    for name, arr in (("x", xa), ("y", ya)):
        if np.any(np.isnan(arr)) or np.any(arr < 0.0):
            raise DomainError(f"{name} must be a nonnegative real")
    if np.any(np.isinf(xa) & np.isinf(ya)):
        raise DomainError("tail copula arguments must not both be infinite")
    return xa, ya


def _scalar_like(out, *inputs):
    if all(np.asarray(i).ndim == 0 for i in inputs):
        return float(out)
    return out


class _Family:
    """What the three model families share: describe().

    Each family is a frozen dataclass whose fields are its parameters and
    whose class attribute family names it in a model string; both
    parse_model_spec and describe() read them from there.  parse_model_spec
    converts each value with its field's annotation, so this module must not
    postpone the evaluation of annotations.
    """

    def describe(self):
        """The family name, then each parameter by name, in field order."""
        params = {f.name: getattr(self, f.name) for f in fields(self)}
        return {"family": self.family, **params}


@dataclass(frozen=True)
class NelsenCopula(_Family):
    """Singular piecewise-linear copula with one asymmetry parameter.

    C(u, v) = min(u, theta*v + (1-theta)*(u+v-1)_+), theta in [0, 1].
    theta = 0 is the countermonotone copula, theta = 1 the comonotone one.
    The tail copula is min(theta*x, y), so upper-tail dependence is maximally
    one-directional for intermediate theta.
    """

    family = "nelsen"
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", check_real(self.theta, "theta", "[0, 1]"))

    def cdf(self, u, v):
        ua, va = _check_unit_args(u, v)
        pos = np.maximum(ua + va - 1.0, 0.0)
        out = np.minimum(ua, self.theta * va + (1.0 - self.theta) * pos)
        return _scalar_like(out, u, v)

    def tail_copula(self, x, y):
        xa, ya = _check_tail_args(x, y)
        if self.theta == 0.0:
            out = np.zeros(np.broadcast_shapes(xa.shape, ya.shape))
            return _scalar_like(out, x, y)
        out = np.minimum(self.theta * xa, ya)
        return _scalar_like(out, x, y)

    def slice_kinks(self, direction):
        direction = _coerce_direction(direction)
        if direction is Direction.Y_GIVEN_X and 0.0 < self.theta < 1.0:
            return (self.theta,)
        return ()

    def population_etas(self):
        t = self.theta
        return t * t, 3.0 * t * t - 2.0 * t**3

    def _draw(self, rng, n):
        v = rng.random(n)
        w = rng.random(n)
        if self.theta == 0.0:
            return 1.0 - v, v
        upper = 1.0 - (1.0 - v) / self.theta
        lower = np.where(w < self.theta, self.theta * v, 1.0 - v)
        u = np.where(v > 1.0 / (1.0 + self.theta), upper, lower)
        return u, v


@dataclass(frozen=True)
class KhoudrajiGumbelCopula(_Family):
    """Gumbel copula made asymmetric by per-margin power weights.

    C(u, v) = u^(1-alpha) v^(1-beta) G(u^alpha, v^beta) with G the Gumbel
    copula of parameter delta >= 1.  The tail copula is
    alpha*x + beta*y - ((alpha*x)^delta + (beta*y)^delta)^(1/delta);
    alpha != beta makes the two directional tail coefficients differ.
    delta = 1 gives the independence copula (empty upper tail).
    """

    family = "kgumbel"
    alpha: float
    beta: float
    delta: float

    def __post_init__(self):
        bounds = (("alpha", "[0, 1]"), ("beta", "[0, 1]"), ("delta", "[1, inf)"))
        for name, interval in bounds:
            val = check_real(getattr(self, name), name, interval)
            object.__setattr__(self, name, val)

    def _gumbel_exponent(self, a, b):
        """(a^delta + b^delta)^(1/delta) for a, b >= 0, overflow-safe."""
        m = np.maximum(a, b)
        mn = np.minimum(a, b)
        with np.errstate(invalid="ignore", divide="ignore"):
            r = np.where((m > 0) & np.isfinite(m), mn / m, 0.0)
        return m * (1.0 + r**self.delta) ** (1.0 / self.delta)

    def cdf(self, u, v):
        ua, va = _check_unit_args(u, v)
        a, b = self.alpha, self.beta
        with np.errstate(divide="ignore"):
            lu = -np.log(ua)
            lv = -np.log(va)
        expo = self._gumbel_exponent(a * lu, b * lv)
        with np.errstate(invalid="ignore"):
            out = ua ** (1.0 - a) * va ** (1.0 - b) * np.exp(-expo)
        out = np.where((ua == 0.0) | (va == 0.0), 0.0, out)
        return _scalar_like(out, u, v)

    def tail_copula(self, x, y):
        xa, ya = _check_tail_args(x, y)
        a = np.zeros_like(xa) if self.alpha == 0.0 else self.alpha * xa
        b = np.zeros_like(ya) if self.beta == 0.0 else self.beta * ya
        core = a + b - self._gumbel_exponent(a, b)
        # One argument at infinity: the limit is the finite scaled coordinate.
        out = np.where(np.isinf(np.maximum(a, b)), np.minimum(a, b), core)
        return _scalar_like(out, x, y)

    def slice_kinks(self, direction):
        _coerce_direction(direction)
        return ()

    def population_etas(self):
        return None

    def _draw(self, rng, n):
        if self.delta == 1.0:
            w1 = rng.random(n)
            w2 = rng.random(n)
        else:
            s = _positive_stable(rng, 1.0 / self.delta, n)
            e1 = rng.standard_exponential(n)
            e2 = rng.standard_exponential(n)
            w1 = np.exp(-((e1 / s) ** (1.0 / self.delta)))
            w2 = np.exp(-((e2 / s) ** (1.0 / self.delta)))
        u1 = rng.random(n)
        u2 = rng.random(n)
        x = _khoudraji_mix(w1, u1, self.alpha)
        y = _khoudraji_mix(w2, u2, self.beta)
        return x, y


@dataclass(frozen=True)
class MaxFactorCopula(_Family):
    """Dependence of a uniform factor with the maximum of m such factors.

    X = Z_1 and Y = max(Z_1, ..., Z_m) for iid uniform Z_i.  The copula is
    C(u, v) = min(u, v^(1/m)) * v^(1-1/m); note Y itself is not uniform (its
    CDF is y^m) -- the model is used through ranks, where only the copula
    matters.  The tail copula is min(x, y/m).
    """

    family = "maxmodel"
    m: int

    def __post_init__(self):
        object.__setattr__(self, "m", check_int(self.m, "m", 2))

    def cdf(self, u, v):
        ua, va = _check_unit_args(u, v)
        out = np.minimum(ua, va ** (1.0 / self.m)) * va ** (1.0 - 1.0 / self.m)
        return _scalar_like(out, u, v)

    def tail_copula(self, x, y):
        xa, ya = _check_tail_args(x, y)
        out = np.minimum(xa, ya / self.m)
        return _scalar_like(out, x, y)

    def slice_kinks(self, direction):
        direction = _coerce_direction(direction)
        if direction is Direction.X_GIVEN_Y:
            return (1.0 / self.m,)
        return ()

    def population_etas(self):
        m = float(self.m)
        return 3.0 / m**2 - 2.0 / m**3, 1.0 / m**2

    def _draw(self, rng, n):
        z = rng.random((self.m, n))
        return z[0], z.max(axis=0)


def _positive_stable(rng, a, size):
    """Positive stable draws with Laplace transform exp(-t**a), 0 < a < 1.

    Kanter's representation: with Theta uniform on (0, pi) and E a unit
    exponential,  S = sin(a*Theta) * sin((1-a)*Theta)^((1-a)/a)
                      / (sin(Theta)^(1/a) * E^((1-a)/a)).
    """
    theta = rng.random(size) * np.pi
    e = rng.standard_exponential(size)
    sin_t = np.sin(theta)
    return (
        np.sin(a * theta)
        * (np.sin((1.0 - a) * theta) / e) ** ((1.0 - a) / a)
        / sin_t ** (1.0 / a)
    )


def _khoudraji_mix(w, u, a):
    """Inverse-power max coupling X = max(W^(1/a), U^(1/(1-a))) with uniform margin."""
    if a == 0.0:
        return u
    if a == 1.0:
        return w
    return np.maximum(w ** (1.0 / a), u ** (1.0 / (1.0 - a)))


def copula_cdf(model, u, v):
    """C(u, v) for the given model; accepts scalars or broadcastable arrays."""
    return model.cdf(u, v)


def survival_copula(model, u, v):
    """Joint upper-orthant copula: P(U > 1-u, V > 1-v) = u+v-1+C(1-u, 1-v)."""
    ua, va = _check_unit_args(u, v)
    out = ua + va - 1.0 + np.asarray(model.cdf(1.0 - ua, 1.0 - va))
    return _scalar_like(out, u, v)


def tail_copula(model, x, y):
    """Upper tail copula Lambda(x, y) of the model at nonnegative arguments."""
    return model.tail_copula(x, y)


def stable_tail_dependence(model, x, y):
    """Stable tail dependence function l(x, y) = x + y - Lambda(x, y)."""
    xa, ya = _check_tail_args(x, y)
    out = xa + ya - np.asarray(model.tail_copula(xa, ya))
    return _scalar_like(out, x, y)


def tail_dependence_chi(model):
    """Upper tail-dependence coefficient chi = Lambda(1, 1)."""
    return float(model.tail_copula(1.0, 1.0))


@dataclass(frozen=True)
class PopulationValues:
    """Population tail coefficients of a model and how they were obtained."""

    eta_xy: float
    eta_yx: float
    delta: float
    method: str


def _eta_by_quadrature(model, direction, tol):
    # Imported on first use: loading scipy.integrate takes longer than
    # importing the rest of tailasym.
    from scipy import integrate

    if direction is Direction.X_GIVEN_Y:
        slice_fn = lambda u: float(model.tail_copula(u, 1.0))  # noqa: E731
    else:
        slice_fn = lambda u: float(model.tail_copula(1.0, u))  # noqa: E731
    kinks = [p for p in model.slice_kinks(direction) if 0.0 < p < 1.0]
    result = integrate.quad(
        lambda u: slice_fn(u) ** 2,
        0.0,
        1.0,
        epsabs=tol / 3.0,
        epsrel=1e-12,
        limit=200,
        points=kinks or None,
        full_output=1,
    )
    if len(result) > 3:
        raise QuadratureFailure(f"tail-coefficient integration failed: {result[3]}")
    value, abserr = result[0], result[1]
    if 3.0 * abserr > tol:
        raise QuadratureFailure(
            f"integration error estimate {3.0 * abserr:.3e} exceeds tolerance {tol:.3e}"
        )
    return 3.0 * value


def khoudraji_gumbel_delta_closed_form(alpha, beta):
    """Population tail asymmetry of KhoudrajiGumbelCopula with delta = 2.

    Exact antiderivative of the squared tail-copula slices; requires
    alpha, beta in (0, 1].  Useful because the direct difference of the two
    quadrature values loses half its digits to cancellation.
    """
    a = check_real(alpha, "alpha", "(0, 1]")
    b = check_real(beta, "beta", "(0, 1]")
    r = math.hypot(a, b)
    return (
        3.0 * a**3 * math.asinh(b / a) / b
        - 2.0 * a**3 / b
        - 4.0 * a**2
        + 2.0 * a**2 * r / b
        + a * r
        - 3.0 * b**3 * math.asinh(a / b) / a
        + 2.0 * b**3 / a
        + 4.0 * b**2
        - 2.0 * b**2 * r / a
        - b * r
    )


def population_values(model, integration_tol=1e-8):
    """Population eta in both directions and their difference.

    Families with closed-form coefficients report method 'closed_form';
    otherwise the squared tail-copula slice is integrated adaptively to the
    requested absolute tolerance (method 'quadrature').  For the delta = 2
    Khoudraji-Gumbel family the difference itself is replaced by its exact
    closed form (away from degenerate weights), which is immune to the
    cancellation the subtraction of two quadratures would suffer.
    """
    tol = check_real(integration_tol, "integration_tol", "(0, inf)")

    closed = model.population_etas()
    if closed is not None:
        eta_xy, eta_yx = closed
        return PopulationValues(
            eta_xy=eta_xy, eta_yx=eta_yx, delta=eta_xy - eta_yx, method="closed_form"
        )

    eta_xy = _eta_by_quadrature(model, Direction.X_GIVEN_Y, tol)
    eta_yx = _eta_by_quadrature(model, Direction.Y_GIVEN_X, tol)
    delta = eta_xy - eta_yx
    if (
        isinstance(model, KhoudrajiGumbelCopula)
        and model.delta == 2.0
        and min(model.alpha, model.beta) >= 1e-12
    ):
        delta = khoudraji_gumbel_delta_closed_form(model.alpha, model.beta)
    return PopulationValues(
        eta_xy=eta_xy, eta_yx=eta_yx, delta=delta, method="quadrature"
    )


def sample(model, n, seed) -> PairedSample:
    """Draw n pairs from the model's exact sampler, seeded and reproducible."""
    n = check_int(n, "n", 2, InvalidN)
    rng = np.random.default_rng(check_int(seed, "seed", 0))
    x, y = model._draw(rng, n)
    return make_sample(x, y, tie_policy="reject")


_FAMILIES = {
    model.family: model
    for model in (NelsenCopula, KhoudrajiGumbelCopula, MaxFactorCopula)
}

#: What a parse error says of a value that its parameter's type rejects.
_COMPLAINTS = {float: "is not a number", int: "must be an integer"}


def parse_model_spec(text):
    """Parse a model string like 'nelsen:theta=0.5' into a copula model.

    Grammar: family ':' key '=' value (',' key '=' value)*.  Families and
    their required keys: nelsen(theta), kgumbel(alpha, beta, delta),
    maxmodel(m, an integer).  Whitespace around tokens is ignored.
    """
    if not isinstance(text, str) or not text.strip():
        raise InvalidModelSpec("empty model specification")
    name, sep, rest = text.partition(":")
    name = name.strip().lower()
    if name not in _FAMILIES:
        known = ", ".join(sorted(_FAMILIES))
        raise InvalidModelSpec(f"unknown model family {name!r} (known: {known})")
    model = _FAMILIES[name]
    types = {f.name: f.type for f in fields(model)}

    params = {}
    if sep and rest.strip():
        for part in rest.split(","):
            key, eq, val = part.partition("=")
            key, val = key.strip(), val.strip()
            if not eq or not key or not val:
                raise InvalidModelSpec(f"expected key=value, got {part.strip()!r}")
            if key in params:
                raise InvalidModelSpec(f"duplicate parameter {key!r}")
            params[key] = val

    missing = [p for p in types if p not in params]
    extra = [p for p in params if p not in types]
    if missing or extra:
        raise InvalidModelSpec(
            f"model {name!r} takes parameters {', '.join(types)};"
            f" missing: {missing or 'none'}, unexpected: {extra or 'none'}"
        )

    values = {}
    for key, kind in types.items():
        try:
            values[key] = kind(params[key])
        except ValueError:
            raise InvalidModelSpec(
                f"parameter {key!r} {_COMPLAINTS[kind]}: {params[key]!r}"
            ) from None
    return model(**values)
