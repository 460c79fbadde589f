"""Command-line interface.

Subcommands: `simulate` draws from a named copula model into a CSV,
`analyze` runs the full pair analysis on a CSV, `acf` prints autocorrelation
diagnostics for one column, and `population` prints a model's population tail
coefficients.  Exit codes: 0 on success, 2 for any input or usage problem,
3 when numerical integration fails to converge.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .copulas import (
    parse_model_spec,
    population_values,
    sample,
    tail_dependence_chi,
)
from .errors import QuadratureFailure, TailAsymError
from .pipeline import (
    AnalysisConfig,
    _round_floats,
    _write_text,
    acf,
    emit_report,
    load_csv,
    log_returns,
    run_pair_analysis,
)


def _add_out(p):
    p.add_argument("--out", default=None, help="output file (default: stdout)")


def _cmd_simulate(args):
    model = parse_model_spec(args.model)
    s = sample(model, args.n, args.seed)
    lines = ["t,x,y"]
    for t, (xv, yv) in enumerate(zip(s.x, s.y), start=1):
        lines.append(f"{t},{float(xv)!r},{float(yv)!r}")
    _write_text("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_analyze(args):
    config = AnalysisConfig(
        k_min=args.k_min,
        k_max=args.k_max,
        k_step=args.k_step,
        B=args.B,
        alpha=args.alpha,
        seed=args.seed,
        tail=args.tail,
        tie_policy=args.tie_policy,
        rejection_fraction=args.rejection_fraction,
        eta_gate=not args.no_eta_gate,
        prices=args.prices,
        skip_tests=args.skip_tests,
        acf_lags=args.acf_lags,
        output_format=args.format,
    )
    table = load_csv(args.file, args.key_col, [args.x_col, args.y_col])
    report = run_pair_analysis(table, args.x_col, args.y_col, config)
    emit_report(report, format=args.format, path=args.out)
    return 0


def _cmd_acf(args):
    table = load_csv(args.file, args.key_col, [args.col])
    values = table.columns[args.col]
    if args.prices:
        values = log_returns(values)
    summary = acf(values, args.max_lag)
    shown = np.abs(summary.values) if args.abs else summary.values
    doc = {
        "column": args.col,
        "n": summary.n,
        "max_lag": int(args.max_lag),
        "absolute_values": bool(args.abs),
        "band": summary.band,
        "values": [float(v) for v in shown],
        "lags_beyond_band": summary.exceed_band(),
    }
    _write_text(json.dumps(_round_floats(doc), indent=2) + "\n", args.out)
    return 0


def _cmd_population(args):
    model = parse_model_spec(args.model)
    pv = population_values(model, integration_tol=args.tol)
    doc = {
        "model": model.describe(),
        "eta_xy": pv.eta_xy,
        "eta_yx": pv.eta_yx,
        "delta": pv.delta,
        "chi": tail_dependence_chi(model),
        "method": pv.method,
        "integration_tol": args.tol,
    }
    _write_text(json.dumps(_round_floats(doc), indent=2) + "\n", args.out)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="tailasym",
        description="Directional extreme-tail association between two series.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw pairs from a copula model into a CSV")
    p.add_argument("--model", required=True, help="e.g. nelsen:theta=0.667")
    p.add_argument("--n", type=int, required=True, help="number of pairs")
    p.add_argument("--seed", type=int, default=0)
    _add_out(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("analyze", help="estimate and test tail association from a CSV")
    p.add_argument("file", help="input CSV with a header row")
    p.add_argument("--x-col", required=True)
    p.add_argument("--y-col", required=True)
    p.add_argument("--key-col", required=True, help="join key, e.g. a date column")
    p.add_argument("--k-min", type=int, default=None)
    p.add_argument("--k-max", type=int, default=None)
    p.add_argument("--k-step", type=int, default=None)
    p.add_argument("--B", type=int, default=100, help="bootstrap replicates")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tail", choices=("upper", "lower"), default="upper")
    p.add_argument("--tie-policy", choices=("reject", "jitter"), default="reject")
    p.add_argument("--rejection-fraction", type=float, default=0.75)
    p.add_argument(
        "--no-eta-gate",
        action="store_true",
        help="run the asymmetry test even when neither eta sweep rejects",
    )
    p.add_argument(
        "--prices",
        action="store_true",
        help="treat the columns as price levels and analyze their log-returns",
    )
    p.add_argument("--skip-tests", action="store_true", help="estimates only")
    p.add_argument("--acf-lags", type=int, default=50)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_out(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("acf", help="autocorrelation diagnostics for one column")
    p.add_argument("file", help="input CSV with a header row")
    p.add_argument("--col", required=True)
    p.add_argument("--key-col", required=True)
    p.add_argument("--max-lag", type=int, default=50)
    p.add_argument("--abs", action="store_true", help="report absolute values")
    p.add_argument(
        "--prices",
        action="store_true",
        help="treat the column as price levels and use its log-returns",
    )
    _add_out(p)
    p.set_defaults(func=_cmd_acf)

    p = sub.add_parser("population", help="population tail coefficients of a model")
    p.add_argument("--model", required=True, help="e.g. kgumbel:alpha=1,beta=0.5,delta=2")
    p.add_argument("--tol", type=float, default=1e-8, help="integration tolerance")
    _add_out(p)
    p.set_defaults(func=_cmd_population)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QuadratureFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except TailAsymError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
