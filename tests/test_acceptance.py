"""Release gate: the twelve checks a build must clear before shipping.

Each test is numbered and carries its own wall-clock budget, asserted at the
end, so a regression in either correctness or speed trips the same gate.  The
checks are ordered roughly from algebraic identities over closed-form oracles
to full command-line reproducibility.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np

from tailasym import cli
from tailasym.bootstrap import bootstrap_eta
from tailasym.bootstrap import test_delta_zero as delta_test  # noqa: renamed so pytest does not collect it
from tailasym.copulas import (
    KhoudrajiGumbelCopula,
    MaxFactorCopula,
    NelsenCopula,
    khoudraji_gumbel_delta_closed_form,
    population_values,
    sample,
)
from tailasym.estimators import (
    Direction,
    delta_kn,
    empirical_tail_copula_slice,
    eta_from_tail_copula,
    eta_kn,
)
from tailasym.ranks import concomitant_ranks, make_sample

BOTH = (Direction.X_GIVEN_Y, Direction.Y_GIVEN_X)


def test_gate_01_integral_identity():
    """3 * integral of the squared empirical slice reproduces the estimate.

    200 random samples, n in [50, 500], k in [5, n/2], both directions,
    relative error at most 1e-12.  Budget: 10 s.
    """
    t0 = time.monotonic()
    rng = np.random.default_rng(2026)
    for _ in range(200):
        n = int(rng.integers(50, 501))
        k = int(rng.integers(5, n // 2 + 1))
        s = make_sample(rng.standard_normal(n), rng.standard_normal(n))
        for d in BOTH:
            direct = eta_kn(s, k, d).value
            via = eta_from_tail_copula(empirical_tail_copula_slice(s, k, d))
            if direct == 0.0:
                assert via == 0.0
            else:
                assert abs(via - direct) <= 1e-12 * abs(direct), (n, k, d)
    assert time.monotonic() - t0 < 10.0


def test_gate_02_bound_attainment():
    """Comonotone data attains (1 - 1/k)(1 + 5/(2k) - 3/k^2) exactly.

    The expected value is evaluated in exact rational arithmetic and rounded
    once, because transcribing the product into floats is itself off by one
    ulp for many k.  Fully discordant data scores zero.  Budget: 1 s.
    """
    t0 = time.monotonic()
    for k in range(2, 51):
        n = 2 * k
        grid = np.arange(n, dtype=float)
        mono = make_sample(grid, 2.0 * grid + 1.0)
        bound = float(Fraction((k - 1) * (2 * k * k + 5 * k - 6), 2 * k**3))
        for d in BOTH:
            assert eta_kn(mono, k, d).value == bound, k
        anti = make_sample(grid, -grid)
        for d in BOTH:
            assert eta_kn(anti, k, d).value == 0.0, k
    assert time.monotonic() - t0 < 1.0


def test_gate_03_brute_force_oracle():
    """The O(k) kernel equals the literal double sum, bit for bit.

    1000 random tie-free samples with n <= 12, every valid k, both
    directions.  Budget: 5 s.
    """
    t0 = time.monotonic()
    rng = np.random.default_rng(303)
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        s = make_sample(rng.random(n), rng.random(n))
        k = int(rng.integers(2, n + 1))
        for d, oriented in zip(BOTH, (s, s.swapped())):
            rho = concomitant_ranks(oriented).rho
            acc = 0
            for i in range(k - 1):
                for j in range(k - 1):
                    acc += max(0, k + 1 - max(int(rho[i]), int(rho[j])))
            assert eta_kn(s, k, d).value == 3 * acc / k**3, (n, k, d)
    assert time.monotonic() - t0 < 5.0


def _seed_averaged(model, n=20_000, k=1000, seeds=range(1, 11)):
    exy, eyx, dd = [], [], []
    for seed in seeds:
        s = sample(model, n, seed)
        d = delta_kn(s, k)
        exy.append(d.eta_xy)
        eyx.append(d.eta_yx)
        dd.append(d.value)
    return (
        float(np.mean(exy)),
        float(np.mean(eyx)),
        float(np.mean(dd)),
    )


def test_gate_04_nelsen_oracle():
    """Ten-seed mean estimates land within 0.05 of the Nelsen(2/3) truth.

    Population values 4/9, 20/27 and -8/27 at n = 20000, k = 1000.
    Budget: 60 s.
    """
    t0 = time.monotonic()
    mean_xy, mean_yx, mean_d = _seed_averaged(NelsenCopula(2 / 3))
    assert abs(mean_xy - 4 / 9) < 0.05
    assert abs(mean_yx - 20 / 27) < 0.05
    assert abs(mean_d - (-8 / 27)) < 0.05
    assert time.monotonic() - t0 < 60.0


def test_gate_05_max_factor_oracle():
    """Ten-seed mean estimates land within 0.05 of the MaxModel(2) truth.

    Population values 1/2, 1/4 and 1/4 at n = 20000, k = 1000.
    Budget: 60 s.
    """
    t0 = time.monotonic()
    mean_xy, mean_yx, mean_d = _seed_averaged(MaxFactorCopula(2))
    assert abs(mean_xy - 0.5) < 0.05
    assert abs(mean_yx - 0.25) < 0.05
    assert abs(mean_d - 0.25) < 0.05
    assert time.monotonic() - t0 < 60.0


def test_gate_06_population_quadrature_vs_closed_form():
    """Quadrature coefficients for the (1, 0.5, 2) asymmetric Gumbel model.

    Both directional coefficients within 1e-6 of full-precision references,
    and the closed form for the difference within 1e-8 of the quadrature
    difference.  Budget: 1 s.

    The references come from a 40-digit mpmath quadrature of the defining
    integrals 3 * int_0^1 Lambda(u, 1)^2 du and 3 * int_0^1 Lambda(1, u)^2 du;
    they agree with the KG_* constants of test_copulas.py to 4e-16.  The
    published four-decimal values 0.2365 / 0.1685 are checked only to their
    own precision (half a unit in the last place).
    """
    t0 = time.monotonic()
    pv = population_values(KhoudrajiGumbelCopula(1.0, 0.5, 2.0))
    closed = khoudraji_gumbel_delta_closed_form(1.0, 0.5)
    assert abs(closed - (pv.eta_xy - pv.eta_yx)) <= 1e-8
    assert abs(pv.eta_xy - 0.23650074180836673) <= 1e-6
    assert abs(pv.eta_yx - 0.16845713964322053) <= 1e-6
    assert abs(pv.eta_xy - 0.2365) <= 5e-5
    assert abs(pv.eta_yx - 0.1685) <= 5e-5
    assert time.monotonic() - t0 < 1.0


def test_gate_07_asymmetry_power():
    """The asymmetry test detects the (1, 0.5, 2) alternative.

    Ten seeds, n = 5000, B = 100, k grid 100..500 step 10: the p-value drops
    below 0.05 for at least 60% of tail sizes in at least 8 seeds.
    Budget: 600 s.
    """
    t0 = time.monotonic()
    grid = list(range(100, 501, 10))
    model = KhoudrajiGumbelCopula(1.0, 0.5, 2.0)
    hits = 0
    for seed in range(1, 11):
        res = delta_test(sample(model, 5000, seed), grid, B=100, seed=seed)
        frac = sum(r.p_value < 0.05 for r in res) / len(res)
        hits += frac >= 0.60
    assert hits >= 8, f"only {hits} of 10 seeds reject on >= 60% of the grid"
    assert time.monotonic() - t0 < 600.0


def test_gate_08_null_calibration():
    """The asymmetry test stays quiet on an exchangeable pair.

    Symmetric Gumbel weights (1, 1, 2), same protocol as the power gate: the
    rejection fraction stays below 0.75 in at least 8 of 10 seeds, and the
    pooled confidence intervals cover zero at least 70% of the time.
    Budget: 600 s.
    """
    t0 = time.monotonic()
    grid = list(range(100, 501, 10))
    model = KhoudrajiGumbelCopula(1.0, 1.0, 2.0)
    quiet = 0
    covered = []
    for seed in range(1, 11):
        res = delta_test(sample(model, 5000, seed), grid, B=100, seed=seed)
        frac = sum(r.p_value < 0.05 for r in res) / len(res)
        quiet += frac < 0.75
        covered += [r.ci_low <= 0.0 <= r.ci_high for r in res]
    assert quiet >= 8, f"only {quiet} of 10 seeds stay below the 0.75 fraction"
    assert float(np.mean(covered)) >= 0.70
    assert time.monotonic() - t0 < 600.0


def test_gate_09_bootstrap_degeneracy():
    """Equal multiplier weights nearly reproduce the plain estimate.

    |weighted - plain| <= 6/k on 100 random samples, and rescaling the
    weights changes nothing: bit for bit under power-of-two factors (which
    rescale every intermediate exactly) and to 1e-12 relative under a
    non-dyadic factor.  Budget: 5 s.
    """
    t0 = time.monotonic()
    rng = np.random.default_rng(909)
    for i in range(100):
        n = int(rng.integers(20, 300))
        s = make_sample(rng.standard_normal(n), rng.standard_normal(n))
        k = int(rng.integers(2, n // 2 + 1))
        d = BOTH[i % 2]
        plain = eta_kn(s, k, d).value
        ones = np.ones(n)
        assert abs(bootstrap_eta(s, k, ones, d) - plain) <= 6.0 / k
        w = rng.standard_exponential(n)
        base = bootstrap_eta(s, k, w, d)
        assert bootstrap_eta(s, k, 2.0 * w, d) == base
        assert bootstrap_eta(s, k, 0.25 * w, d) == base
        scaled = bootstrap_eta(s, k, 3.0 * w, d)
        assert abs(scaled - base) <= 1e-12 * max(abs(base), 1e-300)
    assert time.monotonic() - t0 < 5.0


def _analyze_to_files(data, tmp_path, stem, fmt, seed=6):
    out = tmp_path / f"{stem}.{fmt}"
    code = cli.main(
        [
            "analyze", str(data),
            "--x-col", "x", "--y-col", "y", "--key-col", "t",
            "--B", "50", "--seed", str(seed), "--format", fmt, "--out", str(out),
        ]
    )
    assert code == 0
    return out


def test_gate_10_monotone_invariance_through_the_cli(tmp_path):
    """exp followed by a positive affine map changes no reported number.

    The transformed series have the same ranks, so every estimate, p-value
    and interval must be bit-identical through the full command-line path.
    Budget: 30 s.
    """
    t0 = time.monotonic()
    raw = tmp_path / "raw.csv"
    assert cli.main(
        ["simulate", "--model", "kgumbel:alpha=1,beta=0.5,delta=2",
         "--n", "800", "--seed", "7", "--out", str(raw)]
    ) == 0

    lines = raw.read_text(encoding="utf-8").splitlines()
    transformed = [lines[0]]
    for line in lines[1:]:
        t, xs, ys = line.split(",")
        xv = 3.0 * math.exp(float(xs)) + 1.0
        yv = 0.5 * math.exp(float(ys)) + 2.0
        transformed.append(f"{t},{xv!r},{yv!r}")
    warped = tmp_path / "warped.csv"
    warped.write_text("\n".join(transformed) + "\n", encoding="utf-8")

    csv_a = _analyze_to_files(raw, tmp_path, "a", "csv")
    csv_b = _analyze_to_files(warped, tmp_path, "b", "csv")
    assert csv_a.read_bytes() == csv_b.read_bytes()

    json_a = _analyze_to_files(raw, tmp_path, "a", "json")
    json_b = _analyze_to_files(warped, tmp_path, "b", "json")
    doc_a = json.loads(json_a.read_text(encoding="utf-8"))
    doc_b = json.loads(json_b.read_text(encoding="utf-8"))
    assert doc_a["per_k"] == doc_b["per_k"]
    assert doc_a["verdicts"] == doc_b["verdicts"]
    assert time.monotonic() - t0 < 30.0


def test_gate_11_byte_identical_reruns(tmp_path):
    """Two identical analyze invocations write byte-identical files.

    Budget: 60 s.
    """
    t0 = time.monotonic()
    data = tmp_path / "data.csv"
    assert cli.main(
        ["simulate", "--model", "nelsen:theta=0.667",
         "--n", "600", "--seed", "12", "--out", str(data)]
    ) == 0
    for fmt in ("json", "csv"):
        r1 = _analyze_to_files(data, tmp_path, "r1", fmt)
        r2 = _analyze_to_files(data, tmp_path, "r2", fmt)
        assert r1.read_bytes() == r2.read_bytes()
    assert time.monotonic() - t0 < 60.0


def test_gate_12_delta_null_calibration():
    """The asymmetry test keeps its nominal level at the symmetric null.

    Symmetric Gumbel weights (1, 1, 2), n = 5000, B = 100, k grid 100..500
    step 10, seeds 1..20: the mean per-k rejection rate at alpha = 0.05 and
    the coverage of 0 by the confidence intervals stay within three binomial
    Monte Carlo standard errors of 0.05 and 0.95.  The 41 tail sizes of one
    sample share its data and its multipliers, so the error is taken over
    the 20 independent samples, not the 820 cells.  Budget: 20 s.
    """
    t0 = time.monotonic()
    grid = list(range(100, 501, 10))
    model = KhoudrajiGumbelCopula(1.0, 1.0, 2.0)
    seeds = range(1, 21)
    rejected, covered = [], []
    for seed in seeds:
        res = delta_test(sample(model, 5000, seed), grid, B=100, seed=seed)
        rejected.append(np.mean([r.p_value < 0.05 for r in res]))
        covered.append(np.mean([r.ci_low <= 0.0 <= r.ci_high for r in res]))
    margin = 3.0 * math.sqrt(0.05 * 0.95 / len(seeds))
    assert float(np.mean(rejected)) <= 0.05 + margin
    assert float(np.mean(covered)) >= 0.95 - margin
    assert time.monotonic() - t0 < 20.0
