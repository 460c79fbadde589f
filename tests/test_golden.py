"""Byte-for-byte comparison of fresh CLI output with committed golden files.

The commands are golden.py's RUNS, and every check here writes their
outputs with its recorder.  Every run must reproduce the committed bytes:
an optimisation is a pure speed change, and gate 11 (two fresh runs agree
with each other) cannot see a change that moves both runs alike.
"""

import datetime

import numpy as np
import pytest

from golden import GOLDEN, RUNS, check_in_fresh_process, record


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_output_matches_golden_bytes(name, tmp_path):
    record(tmp_path, [name])
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


def test_analyze_reproduces_golden_bytes_with_scipy_blocked(tmp_path):
    # Each analyze run, bootstrap tests included, needs numpy alone.
    check_in_fresh_process(
        tmp_path, [name for name, argv in RUNS.items() if argv[0] == "analyze"]
    )


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
    assert '"delta_test_gated_out": true' in (GOLDEN / "prices_lower_b50.json").read_text()
