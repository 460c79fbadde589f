"""The golden CLI runs: the one list of their commands, and their recorder.

A helper module, not a test file: pytest does not collect it, and it needs
only tailasym and the standard library, so it runs where numpy is the only
other package installed.  ``RUNS`` maps each golden output under
``tests/data/golden/`` to the ``tailasym`` arguments that write it, and
``record`` runs them.  Every command runs from that directory, so the
``source`` field of a JSON report holds the bare file name, and a command
that reads a golden (``kgumbel_n3000.csv``, say) reads the committed one
there, whatever directory the outputs go to.

Run as a script (``PYTHONPATH=src python tests/golden.py [OUTDIR]``), it
writes every output of ``RUNS`` to OUTDIR; without OUTDIR it writes over the
goldens themselves, which is how a change that moves report bytes re-records
them.
"""

import os
import subprocess
import sys
from pathlib import Path

from tailasym import cli

GOLDEN = Path(__file__).parent / "data" / "golden"

_COLS = ["--x-col", "x", "--y-col", "y", "--key-col", "t"]

# The first population command must integrate: tests/test_golden.py checks
# that the quadrature module is loaded from that command on.
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
    "kgumbel_estimates.csv": [
        "analyze", "kgumbel_n3000.csv", *_COLS, "--skip-tests", "--format", "csv",
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
    "prices_lower_b50.json": [
        "analyze", "prices_crlf.csv", "--x-col", "btc", "--y-col", "eth",
        "--key-col", "date", "--prices", "--tail", "lower", "--B", "50", "--seed", "4",
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
    "population_nelsen_0667.json": ["population", "--model", "nelsen:theta=0.667"],
    "population_maxmodel_3.json": ["population", "--model", "maxmodel:m=3"],
}


def record(outdir, names=None):
    """Write the outputs of RUNS named in names (all, by default) to outdir.

    The commands run in the order of names, or of RUNS, with GOLDEN as the
    working directory.  A command that exits with a non-zero code
    raises RuntimeError.
    """
    outdir = Path(outdir).resolve()
    outdir.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        for name in RUNS if names is None else names:
            code = cli.main([*RUNS[name], "--out", str(outdir / name)])
            if code != 0:
                raise RuntimeError(f"{name}: tailasym exited with code {code}")
    finally:
        os.chdir(cwd)


# Imports golden (and so tailasym) and records the runs named after its two
# path arguments, checking what is loaded after the import and after each run.
_FRESH = """\
import sys
sys.path.insert(0, sys.argv[2])
import golden
def check(after, quadrature):
    assert 'scipy' not in sys.modules, after
    assert ('tailasym._quadpack' in sys.modules) == quadrature, after
quadrature = False
check('import', quadrature)
for name in sys.argv[3:]:
    golden.record(sys.argv[1], [name])
    quadrature = quadrature or golden.RUNS[name][0] == 'population'
    check(name, quadrature)
"""


def check_in_fresh_process(outdir, names):
    """Record names in a new interpreter and compare each with its golden.

    No command needs scipy, which serves the tests as an oracle only, and the
    package does not import the quadrature: after the import and after each
    command, scipy must not be in sys.modules, and tailasym._quadpack must be
    in it exactly from the first population command on.
    """
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH, str(outdir), str(Path(__file__).parent), *names],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for name in names:
        assert (Path(outdir) / name).read_bytes() == (GOLDEN / name).read_bytes(), name


if __name__ == "__main__":
    record(sys.argv[1] if len(sys.argv) > 1 else GOLDEN)
