"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

The smoke tests run every workload once at its tiny size, in both modes,
and check that the result line carries exactly the metric names the
benchmark declares.
"""

import itertools
import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import common  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_declares_what_run_py_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert {w["name"] for w in doc["workloads"]} == set(common.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload,trace", itertools.product(sorted(common.WORKLOADS), (0, 1)))
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", str(common.SMOKE_SEED), "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name]
        assert isinstance(metric["value"], (int, float))


def test_refuses_to_run_without_the_program(tmp_path):
    proc = _bench("--workload", "power_study", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _literal_eta(x, y, k):
    """eta_kn(x | y) straight from its double-sum definition."""
    n = len(x)
    order = sorted(range(n), key=lambda i: -y[i])
    rank = {i: sum(x[j] >= x[i] for j in range(n)) for i in range(n)}
    top = [rank[i] for i in order[: k - 1]]
    s = sum(max(0, k + 1 - max(a, b)) for a in top for b in top)
    return 3 * s / k**3


def test_reference_estimator_matches_the_literal_double_sum():
    rng = np.random.default_rng(7)
    for n in (2, 5, 17, 40):
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        ks = list(range(2, n + 1))
        assert common.reference_etas(x, y, ks) == [_literal_eta(x, y, k) for k in ks]


def test_inputs_are_deterministic_and_tie_free():
    for kind in ("kgumbel", "normal"):
        a = common.generate_pairs(kind, 5000, 3)
        b = common.generate_pairs(kind, 5000, 3)
        c = common.generate_pairs(kind, 5000, 4)
        assert all(np.array_equal(u, v) for u, v in zip(a, b))
        assert not np.array_equal(a[0], c[0])
        assert all(np.unique(v).size == v.size for v in a)


def test_clock_scales_work_by_the_probes_around_it_and_skips_probe_time():
    ref = calibrate.REFERENCE_S
    clock = calibrate.Clock()
    # Probes lasting ref, 2 ref and ref, with one second of work after each of the first two.
    clock.probes = [(0.0, ref), (1.0 + ref, 1.0 + 3 * ref), (2.0 + 3 * ref, 2.0 + 4 * ref)]
    raw, scaled = clock.seconds(ref, 2.0 + 3 * ref)
    assert raw == pytest.approx(2.0)
    assert scaled == pytest.approx(2.0 / 1.5)
    assert clock.seconds(0.5, 0.75) == pytest.approx((0.25, 0.25 / 1.5))
    with pytest.raises(ValueError):
        clock.seconds(0.0, 1.0)


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()

    def leaf():
        return sum(range(20000))

    def middle():
        leaf()
        leaf()

    tracer.call("outer", lambda: tracer.call("middle", middle))
    assert [s[0] for s in tracer.spans] == ["outer", "middle"]
    selfs = tracer.self_times()
    outer, middle_span = tracer.spans
    assert selfs["outer"] == pytest.approx((outer[2] - outer[1]) - (middle_span[2] - middle_span[1]))
    assert selfs["middle"] == pytest.approx(middle_span[2] - middle_span[1])


def test_missing_wrap_target_is_reported_absent(monkeypatch):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from tailasym import copulas

    targets = [t for t in tracing.TARGETS if t[2] != "copulas.sample"]
    targets.append(("tailasym.no_such_module", "sample", "copulas.sample"))
    monkeypatch.setattr(tracing, "TARGETS", targets)
    original = copulas.population_values
    tracer = tracing.Tracer()
    with tracing.Installed(tracer) as installed:
        assert copulas.population_values is not original
    assert copulas.population_values is original
    metrics = tracing.layer_metrics(tracer, installed.present)
    assert "copulas.sample_s" not in metrics
    assert metrics["copulas.population_values_s"] == 0.0
