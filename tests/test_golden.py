"""Byte-for-byte comparison of fresh CLI output with committed golden files.

The files under tests/data/golden/ were written before the bootstrap was
rebuilt around one shared replicate engine (see the README there for the
exact commands).  Every run here repeats one of those commands and must
reproduce the committed bytes: the rebuild is a pure speed change, and
gate 11 (two fresh runs agree with each other) cannot see a change that
moves both runs alike.
"""

import datetime
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tailasym import cli

GOLDEN = Path(__file__).parent / "data" / "golden"

_COLS = ["--x-col", "x", "--y-col", "y", "--key-col", "t"]

RUNS = {
    "kgumbel_n3000.csv": [
        "simulate", "--model", "kgumbel:alpha=1,beta=0.5,delta=2",
        "--n", "3000", "--seed", "7",
    ],
    "independent_n800.csv": [
        "simulate", "--model", "kgumbel:alpha=1,beta=1,delta=1",
        "--n", "800", "--seed", "11",
    ],
    "kgumbel_b50.json": [
        "analyze", "kgumbel_n3000.csv", *_COLS, "--B", "50", "--seed", "3",
    ],
    "dense_grid.csv": [
        "analyze", "kgumbel_n3000.csv", *_COLS, "--B", "50", "--seed", "3",
        "--k-min", "20", "--k-max", "1000", "--k-step", "10", "--no-eta-gate",
        "--format", "csv",
    ],
    "independent_gated.json": [
        "analyze", "independent_n800.csv", *_COLS, "--B", "50", "--seed", "5",
    ],
    "ties_lower_jitter.json": [
        "analyze", "ties_n1000.csv", *_COLS, "--B", "50", "--seed", "9",
        "--tail", "lower", "--tie-policy", "jitter",
    ],
    "prices_b50.json": [
        "analyze", "prices_crlf.csv", "--x-col", "btc", "--y-col", "eth",
        "--key-col", "date", "--prices", "--B", "50", "--seed", "4",
    ],
    "prices_acf_btc.json": [
        "acf", "prices_crlf.csv", "--col", "btc", "--key-col", "date", "--prices",
        "--max-lag", "20",
    ],
    "population_kg_1_05_2.json": [
        "population", "--model", "kgumbel:alpha=1,beta=0.5,delta=2",
    ],
    "population_kg_03_08_14.json": [
        "population", "--model", "kgumbel:alpha=0.3,beta=0.8,delta=1.4",
    ],
    "population_kg_1_05_14_tol1e-10.json": [
        "population", "--model", "kgumbel:alpha=1,beta=0.5,delta=1.4", "--tol", "1e-10",
    ],
    "population_kg_05_09_20_tol1e-10.json": [
        "population", "--model", "kgumbel:alpha=0.5,beta=0.9,delta=20", "--tol", "1e-10",
    ],
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_output_matches_golden_bytes(name, tmp_path, monkeypatch):
    # Run from the golden directory so the report's source field is the bare name.
    monkeypatch.chdir(GOLDEN)
    out = tmp_path / name
    assert cli.main([*RUNS[name], "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_analyze_reproduces_golden_bytes_with_scipy_blocked(tmp_path):
    # A None entry in sys.modules makes every scipy import raise ImportError,
    # so each analyze run, bootstrap tests included, must need numpy alone.
    runs = {
        str(tmp_path / name): argv
        for name, argv in RUNS.items()
        if argv[0] == "analyze"
    }
    script = (
        "import json, os, sys\n"
        "sys.modules['scipy'] = None\n"
        "from tailasym import cli\n"
        "os.chdir(sys.argv[2])\n"
        "for out, argv in json.loads(sys.argv[1]).items():\n"
        "    assert cli.main([*argv, '--out', out]) == 0, argv\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(runs), str(GOLDEN)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for out in runs:
        assert Path(out).read_bytes() == (GOLDEN / Path(out).name).read_bytes()


def test_price_input_follows_its_recipe():
    # Rows 1-600 of kgumbel_n3000.csv turned into two price paths, dated from
    # 2021-01-01, quoted header and CRLF line ends (see the README here).
    rows = (GOLDEN / "kgumbel_n3000.csv").read_text().splitlines()[1:601]
    x, y = np.array([[float(v) for v in row.split(",")[1:]] for row in rows]).T
    btc = 100 * np.cumprod(1 + (x - 0.5) / 50)
    eth = 20 * np.cumprod(1 + (y - 0.5) / 40)
    start = datetime.date(2021, 1, 1)
    lines = ['"date","btc","eth"'] + [
        f"{start + datetime.timedelta(days=i)},{float(b)!r},{float(e)!r}"
        for i, (b, e) in enumerate(zip(btc, eth))
    ]
    assert (GOLDEN / "prices_crlf.csv").read_bytes() == "".join(
        line + "\r\n" for line in lines
    ).encode()


def test_golden_runs_cover_the_delta_gate_both_ways():
    assert '"skipped": "eta gate' in (GOLDEN / "independent_gated.json").read_text()
    assert '"delta_test_gated_out": false' in (GOLDEN / "kgumbel_b50.json").read_text()
    assert '"jitter_applied": true' in (GOLDEN / "ties_lower_jitter.json").read_text()
    assert '"delta_test_gated_out": false' in (GOLDEN / "prices_b50.json").read_text()
