"""Command-line interface tests.

Most tests call cli.main(argv) in-process for speed.  One smoke test goes
through the installed console script to pin the entry point itself; it runs
only where the `tailasym` executable is on PATH, i.e. where the package is
installed.  The entry-point check next to it runs everywhere: it reads the
`[project.scripts]` target from pyproject.toml and calls it in a fresh
interpreter the way a generated launcher does.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from golden import RUNS, check_in_fresh_process
from tailasym import __version__, cli, errors, pipeline
from tailasym.copulas import parse_model_spec, sample


def run_cli(*argv):
    return cli.main(list(argv))


def _simulate(tmp_path, name="sim.csv", model="nelsen:theta=0.667", n=400, seed=5):
    out = tmp_path / name
    code = run_cli(
        "simulate", "--model", model, "--n", str(n), "--seed", str(seed),
        "--out", str(out),
    )
    assert code == 0
    return out


# --- simulate --------------------------------------------------------------------


def test_simulate_writes_full_precision_csv(tmp_path):
    out = _simulate(tmp_path, n=50, seed=11)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,x,y"
    assert len(lines) == 51
    assert lines[1].split(",")[0] == "1" and lines[-1].split(",")[0] == "50"
    # repr round-trip: parsing the text recovers the draw bit for bit
    s = sample(parse_model_spec("nelsen:theta=0.667"), 50, 11)
    x = np.array([float(l.split(",")[1]) for l in lines[1:]])
    y = np.array([float(l.split(",")[2]) for l in lines[1:]])
    assert np.array_equal(x, s.x) and np.array_equal(y, s.y)


def test_simulate_is_deterministic(tmp_path):
    a = _simulate(tmp_path, "a.csv", seed=3)
    b = _simulate(tmp_path, "b.csv", seed=3)
    c = _simulate(tmp_path, "c.csv", seed=4)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_simulate_stdout_when_no_out(capsys):
    assert run_cli("simulate", "--model", "maxmodel:m=2", "--n", "3", "--seed", "1") == 0
    got = capsys.readouterr().out
    assert got.startswith("t,x,y\n") and got.endswith("\n")
    assert len(got.splitlines()) == 4


def test_simulate_bad_model_exits_2(capsys):
    assert run_cli("simulate", "--model", "nope:a=1", "--n", "10") == 2
    assert "error:" in capsys.readouterr().err
    assert run_cli("simulate", "--model", "nelsen:theta=2", "--n", "10") == 2
    assert run_cli("simulate", "--model", "nelsen:theta=0.5", "--n", "1") == 2


def test_simulate_negative_seed_exits_2(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    code = run_cli(
        "simulate", "--model", "maxmodel:m=2", "--n", "3", "--seed", "-1",
        "--out", str(out),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: seed must be an integer >= 0, got -1")
    assert "Traceback" not in err
    assert not out.exists()


def test_simulate_unwritable_out_exits_2(tmp_path, capsys):
    out = tmp_path / "no-such-dir" / "sim.csv"
    assert run_cli("simulate", "--model", "maxmodel:m=2", "--n", "3", "--out", str(out)) == 2
    assert f"error: cannot write {out}:" in capsys.readouterr().err


# --- analyze ---------------------------------------------------------------------


def test_analyze_json_report(tmp_path, capsys):
    data = _simulate(tmp_path, model="kgumbel:alpha=1,beta=0.5,delta=2", n=600, seed=2)
    out = tmp_path / "report.json"
    code = run_cli(
        "analyze", str(data), "--x-col", "x", "--y-col", "y", "--key-col", "t",
        "--B", "25", "--seed", "1", "--out", str(out),
    )
    assert code == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert set(doc) == {"config", "provenance", "per_k", "verdicts"}
    assert doc["provenance"]["observations_analyzed"] == 600
    assert doc["config"]["B"] == 25
    assert len(doc["per_k"]["k"]) == len(doc["per_k"]["eta_xy"])


def test_analyze_reruns_are_byte_identical(tmp_path):
    data = _simulate(tmp_path, n=500, seed=8)
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        assert run_cli(
            "analyze", str(data), "--x-col", "x", "--y-col", "y", "--key-col", "t",
            "--B", "30", "--seed", "4", "--out", str(out),
        ) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_analyze_csv_format_and_k_flags(tmp_path):
    data = _simulate(tmp_path, n=300, seed=9)
    out = tmp_path / "report.csv"
    assert run_cli(
        "analyze", str(data), "--x-col", "x", "--y-col", "y", "--key-col", "t",
        "--k-min", "10", "--k-max", "30", "--k-step", "10",
        "--B", "10", "--format", "csv", "--out", str(out),
    ) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("k,eta_xy,eta_yx,delta,")
    assert [l.split(",")[0] for l in lines[1:]] == ["10", "20", "30"]


def test_analyze_partial_k_flags_exit_2(tmp_path, capsys):
    data = _simulate(tmp_path, n=100, seed=1)
    code = run_cli(
        "analyze", str(data), "--x-col", "x", "--y-col", "y", "--key-col", "t",
        "--k-min", "10",
    )
    assert code == 2
    assert "k_min, k_max and k_step" in capsys.readouterr().err


# fault names each case in plain words and so keeps its test id; message is
# the exact error text, with the argument, its bound and the offending value.
@pytest.mark.parametrize(
    "flags, fault, message",
    [
        (["--rejection-fraction", "2"], "rejection_fraction must lie in (0, 1]",
         "rejection_fraction must lie in (0, 1], got 2.0"),
        (["--rejection-fraction", "2", "--skip-tests"], "rejection_fraction must lie",
         "rejection_fraction must lie in (0, 1], got 2.0"),
        (["--B", "0", "--skip-tests"], "B must be a positive integer",
         "B must be an integer >= 1, got 0"),
        (["--alpha", "7", "--skip-tests"], "alpha must lie strictly between 0 and 1",
         "alpha must lie in (0, 1), got 7.0"),
        (["--acf-lags", "-3"], "acf_lags must be an integer >= 1",
         "acf_lags must be an integer >= 1, got -3"),
        (["--seed", "-1"], "seed must be a non-negative integer, got -1",
         "seed must be an integer >= 0, got -1"),
        (["--seed", "-1", "--skip-tests"], "seed must be a non-negative integer",
         "seed must be an integer >= 0, got -1"),
        (["--k-min", "1", "--k-max", "20", "--k-step", "5"], "k_min must be >= 2, got 1",
         "k_min must be an integer >= 2, got 1"),
        (["--k-min", "30", "--k-max", "20", "--k-step", "5"], "k_max 20 is below k_min 30",
         "k_max must be an integer >= 30, got 20"),
        (["--k-min", "10", "--k-max", "20", "--k-step", "0", "--skip-tests"],
         "k_step must be >= 1, got 0", "k_step must be an integer >= 1, got 0"),
        (["--k-min", "10", "--k-step", "5"], "k_min, k_max and k_step must be given together",
         "k_min, k_max and k_step must be given together"),
        (["--B", "4294967296"], "B must be below 2**32",
         "B must be an integer < 2**32, got 4294967296"),
    ],
)
def test_analyze_invalid_config_exits_2_before_the_bootstrap(
    tmp_path, capsys, monkeypatch, flags, fault, message
):
    data = _simulate(tmp_path, n=3000, seed=1)
    out = tmp_path / "report.json"

    def no_work(*args, **kwargs):
        raise AssertionError("ran before the config was checked")

    monkeypatch.setattr(pipeline, "acf", no_work)
    monkeypatch.setattr(pipeline, "test_pair", no_work)
    code = run_cli(
        "analyze", str(data), "--x-col", "x", "--y-col", "y", "--key-col", "t",
        *flags, "--out", str(out),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_analyze_no_eta_gate_flag(tmp_path):
    # independent columns: gated by default, forced through with the flag
    rng = np.random.default_rng(13)
    data = tmp_path / "indep.csv"
    rows = ["t,x,y"] + [
        f"{i},{float(a)!r},{float(b)!r}"
        for i, (a, b) in enumerate(zip(rng.standard_normal(400), rng.standard_normal(400)))
    ]
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    base = ["analyze", str(data), "--x-col", "x", "--y-col", "y", "--key-col", "t",
            "--B", "20", "--seed", "2"]
    gated_out = tmp_path / "gated.json"
    assert run_cli(*base, "--out", str(gated_out)) == 0
    gated = json.loads(gated_out.read_text(encoding="utf-8"))
    assert gated["provenance"]["delta_test_gated_out"] is True
    assert "skipped" in gated["verdicts"]["delta"]
    forced_out = tmp_path / "forced.json"
    assert run_cli(*base, "--no-eta-gate", "--out", str(forced_out)) == 0
    forced = json.loads(forced_out.read_text(encoding="utf-8"))
    assert forced["provenance"]["delta_test_gated_out"] is False
    assert forced["per_k"]["p_delta"][0] is not None


def test_each_analysis_config_field_is_the_dest_of_one_analyze_option():
    (commands,) = [a for a in cli._build_parser()._actions if a.dest == "command"]
    dests = [a.dest for a in commands.choices["analyze"]._actions if a.option_strings]
    fields = [f.name for f in dataclasses.fields(pipeline.AnalysisConfig)]
    assert sorted(d for d in dests if d in fields) == sorted(fields)


@pytest.mark.parametrize(
    "flags, want",
    [
        ([], pipeline.AnalysisConfig()),
        (
            ["--k-min", "10", "--k-max", "20", "--k-step", "5", "--B", "7",
             "--alpha", "0.1", "--seed", "3", "--tail", "lower",
             "--tie-policy", "jitter", "--rejection-fraction", "0.5",
             "--no-eta-gate", "--prices", "--skip-tests", "--acf-lags", "9",
             "--format", "csv"],
            pipeline.AnalysisConfig(
                k_min=10, k_max=20, k_step=5, B=7, alpha=0.1, seed=3, tail="lower",
                tie_policy="jitter", rejection_fraction=0.5, eta_gate=False,
                prices=True, skip_tests=True, acf_lags=9, output_format="csv",
            ),
        ),
    ],
)
def test_analyze_options_build_the_analysis_config(monkeypatch, flags, want):
    seen = []

    def capture(table, col_x, col_y, config):
        seen.append(config)
        raise errors.TailAsymError("captured")

    monkeypatch.setattr(cli, "load_csv", lambda *args: None)
    monkeypatch.setattr(cli, "run_pair_analysis", capture)
    code = run_cli(
        "analyze", "data.csv", "--x-col", "x", "--y-col", "y", "--key-col", "t", *flags
    )
    assert code == 2
    assert seen == [want]


def test_analyze_missing_file_and_column_exit_2(tmp_path, capsys):
    assert run_cli(
        "analyze", str(tmp_path / "nope.csv"),
        "--x-col", "x", "--y-col", "y", "--key-col", "t",
    ) == 2
    data = _simulate(tmp_path, n=50, seed=1)
    assert run_cli(
        "analyze", str(data), "--x-col", "x", "--y-col", "zzz", "--key-col", "t",
    ) == 2


def test_analyze_tie_rejection_exit_2(tmp_path, capsys):
    data = tmp_path / "ties.csv"
    data.write_text("t,x,y\n1,1.0,1.0\n2,1.0,2.0\n3,3.0,0.5\n4,4.0,5.0\n", encoding="utf-8")
    code = run_cli(
        "analyze", str(data), "--x-col", "x", "--y-col", "y", "--key-col", "t",
        "--k-min", "2", "--k-max", "3", "--k-step", "1",
    )
    assert code == 2
    assert "equal values" in capsys.readouterr().err


def test_analyze_non_utf8_input_exits_2(tmp_path, capsys):
    data = tmp_path / "latin1.csv"
    data.write_bytes(b"t,x,y\n1,0.5,1.5\n2,caf\xe9,2.5\n")
    code = run_cli("analyze", str(data), "--x-col", "x", "--y-col", "y", "--key-col", "t")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data} is not UTF-8 text")
    assert "Traceback" not in err


def test_analyze_oversized_field_exits_2(tmp_path, capsys):
    data = tmp_path / "huge.csv"
    data.write_text(f"t,x,y\n1,0.5,1.5\n2,{'9' * 131_073},2.5\n", encoding="utf-8")
    code = run_cli("analyze", str(data), "--x-col", "x", "--y-col", "y", "--key-col", "t")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data} line 3: field larger than field limit")
    assert "Traceback" not in err


def test_analyze_reads_a_header_behind_a_utf8_byte_order_mark(tmp_path):
    data = _simulate(tmp_path, n=200, seed=7)
    text = data.read_text(encoding="utf-8")
    quoted = tmp_path / "quoted.csv"  # quotes make load_csv use its exact reader
    quoted.write_text(text.replace("\n", ',"q"\n'), encoding="utf-8")
    reports = []
    for src in (data, quoted):
        bom = tmp_path / f"bom_{src.name}"
        bom.write_bytes(b"\xef\xbb\xbf" + src.read_bytes())
        for path in (src, bom):
            out = tmp_path / f"{path.stem}.report.csv"
            code = run_cli(
                "analyze", str(path), "--x-col", "x", "--y-col", "y", "--key-col", "t",
                "--skip-tests", "--format", "csv", "--out", str(out),
            )
            assert code == 0
            reports.append(out.read_bytes())
    assert len(set(reports)) == 1


def test_import_loads_neither_scipy_nor_the_draw_ahead_pool():
    # both are imported on first use, so that they stay out of the import time
    script = (
        "import sys, tailasym\n"
        "print(*(m for m in ('scipy', 'concurrent.futures') if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_import_simulate_and_analyze_without_tests_leave_scipy_unloaded(tmp_path):
    # simulate, acf and analyze --skip-tests, after one another in a fresh
    # process: none loads scipy or the quadrature.
    check_in_fresh_process(tmp_path, [
        name for name, argv in RUNS.items()
        if argv[0] in ("simulate", "acf") or "--skip-tests" in argv
    ])


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--x-col", "x", "--y-col", "y", "--B", "5"],
        ["analyze", "--x-col", "x", "--y-col", "y", "--skip-tests"],
        ["acf", "--col", "x", "--max-lag", "5"],
    ],
    ids=["analyze", "analyze_skip_tests", "acf"],
)
def test_commands_parse_no_text_of_integer_keys(tmp_path, loadtxt_dtypes, argv):
    # Neither command reads the table's keys, so a plain file with integer
    # keys is loaded without an object field in any loadtxt pass.
    data = _simulate(tmp_path, n=300, seed=8)
    dtypes = loadtxt_dtypes
    out = tmp_path / "out.txt"
    assert run_cli(*argv, str(data), "--key-col", "t", "--out", str(out)) == 0
    assert dtypes and not any(dt.hasobject for dt in dtypes)


# --- acf -------------------------------------------------------------------------


def test_acf_subcommand(tmp_path):
    data = _simulate(tmp_path, n=500, seed=21)
    out = tmp_path / "acf.json"
    assert run_cli(
        "acf", str(data), "--col", "x", "--key-col", "t", "--max-lag", "10",
        "--out", str(out),
    ) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["column"] == "x" and doc["n"] == 500 and doc["max_lag"] == 10
    assert len(doc["values"]) == 10
    assert doc["absolute_values"] is False
    assert doc["band"] == pytest.approx(1.96 / 500**0.5, rel=1e-10)


def test_acf_abs_flag(tmp_path):
    data = _simulate(tmp_path, n=500, seed=21)
    plain_p, abs_p = tmp_path / "p.json", tmp_path / "a.json"
    assert run_cli("acf", str(data), "--col", "x", "--key-col", "t",
                   "--max-lag", "10", "--out", str(plain_p)) == 0
    assert run_cli("acf", str(data), "--col", "x", "--key-col", "t",
                   "--max-lag", "10", "--abs", "--out", str(abs_p)) == 0
    plain = json.loads(plain_p.read_text(encoding="utf-8"))
    absd = json.loads(abs_p.read_text(encoding="utf-8"))
    assert absd["absolute_values"] is True
    assert absd["values"] == pytest.approx([abs(v) for v in plain["values"]], rel=1e-9)


def test_acf_prices_flag_and_constant_exit_2(tmp_path, capsys):
    const = tmp_path / "const.csv"
    const.write_text("t,v\n" + "\n".join(f"{i},7.5" for i in range(40)) + "\n", encoding="utf-8")
    assert run_cli("acf", str(const), "--col", "v", "--key-col", "t", "--max-lag", "5") == 2
    # constant prices have constant (zero) returns too
    assert run_cli("acf", str(const), "--col", "v", "--key-col", "t",
                   "--max-lag", "5", "--prices") == 2


# --- population ---------------------------------------------------------------------


def test_population_closed_form_output(capsys):
    assert run_cli(*RUNS["population_nelsen_0667.json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["model"] == {"family": "nelsen", "theta": 0.667}
    assert doc["method"] == "closed_form"
    assert doc["eta_xy"] == pytest.approx(0.667**2, rel=1e-12)
    assert doc["chi"] == pytest.approx(0.667, rel=1e-12)
    assert doc["delta"] == pytest.approx(doc["eta_xy"] - doc["eta_yx"], abs=1e-12)


def test_population_quadrature_output(capsys):
    assert run_cli(*RUNS["population_kg_1_05_2.json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["method"] == "quadrature"
    assert doc["eta_xy"] == pytest.approx(0.2365007418083671, abs=1e-7)
    assert doc["eta_yx"] == pytest.approx(0.1684571396432202, abs=1e-7)
    assert doc["integration_tol"] == 1e-8


def test_population_quadrature_failure_exits_3(capsys):
    # Below the roundoff floor, 50 eps eta, the message gives the floor.
    for model, tol, floor in [
        ("kgumbel:alpha=1,beta=0.5,delta=2", "1e-30", "2.626e-15"),
        ("kgumbel:alpha=0.9,beta=1,delta=100", "1e-14", "1.078e-14"),
    ]:
        assert run_cli("population", "--model", model, "--tol", tol) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: tolerance {float(tol):.3e} lies below the roundoff floor {floor}\n"
        )


def test_population_of_the_independence_copula_is_exactly_zero(capsys):
    assert run_cli("population", "--model", "kgumbel:alpha=0.05,beta=0.3,delta=1") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["method"] == "quadrature"
    assert [doc[key] for key in ("eta_xy", "eta_yx", "delta", "chi")] == [0.0] * 4


def test_population_exits_3_when_quadrature_reports_a_warning(capsys, monkeypatch):
    # With one subinterval allowed, the integration does not converge: the
    # first 21-point rule misses the tolerance on the y|x slice here.
    from tailasym import _quadpack

    integrate = _quadpack.integrate
    monkeypatch.setattr(
        _quadpack, "integrate", lambda *args: integrate(*args[:-1], 1)
    )
    assert run_cli(*RUNS["population_kg_03_08_14.json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: tail-coefficient integration failed:"
        " the maximum number of subintervals was reached\n"
    )


def test_population_bad_model_exits_2(capsys):
    assert run_cli("population", "--model", "kgumbel:alpha=1") == 2


def test_population_writes_the_same_bytes_with_scipy_blocked(tmp_path):
    # Closed forms and quadratures alike write their goldens without scipy.
    check_in_fresh_process(
        tmp_path, [name for name, argv in RUNS.items() if argv[0] == "population"]
    )


# --- entry point ----------------------------------------------------------------------


@pytest.mark.skipif(
    shutil.which("tailasym") is None,
    reason="the `tailasym` console script is not on PATH (package not installed)",
)
def test_console_script_version():
    proc = subprocess.run(
        ["tailasym", "--version"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("tailasym ")


def test_entry_point_target_runs_like_a_launcher():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts["tailasym"] == "tailasym.cli:main"
    module, func = scripts["tailasym"].split(":")
    launcher = (
        f"import sys\nfrom {module} import {func}\n"
        f"sys.argv[0] = 'tailasym'\nsys.exit({func}())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", launcher, "--version"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"tailasym {__version__}"


def test_main_requires_a_subcommand():
    with pytest.raises(SystemExit):
        cli.main([])


def test_module_runs_with_python_dash_m(tmp_path):
    out = tmp_path / "sim.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "tailasym.cli", "simulate", "--model",
         "maxmodel:m=3", "--n", "5", "--seed", "0", "--out", str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert out.read_text(encoding="utf-8").startswith("t,x,y\n")
