"""Command-line front end: verify, sweep, rearrange, maximize.

Exit codes: 0 success, 1 contract violation (the headline finding), 2 usage
or input error, 3 internal error (an unexpected exception; its traceback goes
to stderr).  With ``--no-timestamp`` identical configurations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import traceback
from dataclasses import fields
from datetime import datetime, timezone
from pathlib import Path

from .config import check_tolerance, default_tolerance
from .errors import HardyLabError, InvalidParameterError
from .generator import make_rng, random_step_function
from .grid import StepBatch, check_exponent, read_step_csv, step_csv_text, write_step_csv
from .inequalities import REPORT_KINDS, RatioReport, ratio_evaluator
from .quadrature import DEFAULT_QUAD_ORDER
from .rearrange import check_norm_preservation, decreasing_rearrangement
from .sharpness import (CUTOFF_KINDS, DEFAULT_EPS_LIST, DEFAULT_SWEEP_RESOLUTION,
                        SWEEP_KINDS, CutoffSpec, ratio_maximize, sharpness_sweep)

REPORT_FIELDS = tuple(field.name for field in fields(RatioReport))


def _input_hash(f) -> str:
    return "sha256:" + hashlib.sha256(step_csv_text(f).encode("utf-8")).hexdigest()


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardylab",
        description="Numerical verification of one-dimensional Hardy/Rellich "
                    "integral inequalities on step functions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(cmd, kinds, tol=True, fmt=True):
        """The evaluating commands' flags; ``--tol``/``--format`` where they are read."""
        cmd.add_argument("--kind", choices=kinds, required=True, help="inequality kind")
        cmd.add_argument("--p", type=float, required=True, help="Lebesgue exponent (> 1)")
        if tol:
            cmd.add_argument("--tol", type=float, default=None,
                             help="relative tolerance (default: HARDYLAB_DEFAULT_TOL or 1e-6)")
        cmd.add_argument("--quad-order", type=int, default=DEFAULT_QUAD_ORDER,
                         help="Gauss-Legendre order per interval")
        cmd.add_argument("--output", default=None, help="output file (default: stdout)")
        if fmt:
            cmd.add_argument("--format", choices=("json", "csv"), default="json",
                             help="output format")
        cmd.add_argument("--no-timestamp", action="store_true",
                         help="omit the timestamp field (byte-identical reruns)")

    verify = sub.add_parser("verify", help="evaluate one inequality on random or CSV input")
    common(verify, REPORT_KINDS)
    verify.add_argument("--count", type=int, default=100, help="number of random cases")
    verify.add_argument("--seed", type=int, default=0, help="PRNG seed for the case stream")
    verify.add_argument("--input", default=None,
                        help="step-function CSV (overrides --count/--seed)")

    sweep = sub.add_parser("sweep", help="sharpness sweep with extrapolated limit")
    common(sweep, SWEEP_KINDS, tol=False)
    sweep.add_argument("--eps", default=",".join(str(e) for e in DEFAULT_EPS_LIST),
                       help="comma-separated strictly decreasing eps values")
    sweep.add_argument("--resolution", type=int, default=DEFAULT_SWEEP_RESOLUTION,
                       help="cells in the minimizing-function grid")
    sweep.add_argument("--cutoff", choices=CUTOFF_KINDS, default="quintic_smoothstep",
                       help="cutoff profile")
    sweep.add_argument("--gap", type=float, default=0.01,
                       help="acceptable |limit - sharp| / sharp")

    rearrange = sub.add_parser("rearrange", help="decreasing rearrangement of a CSV function")
    rearrange.add_argument("--input", required=True, help="step-function CSV")
    rearrange.add_argument("--output", default=None, help="output file (default: stdout)")
    rearrange.add_argument("--p", type=float, default=2.0,
                           help="exponent for the norm-preservation printout")

    maximize = sub.add_parser("maximize", help="coordinate-ascent probe of a sharp constant")
    common(maximize, REPORT_KINDS, fmt=False)
    maximize.add_argument("--cells", type=int, default=32, help="grid cells")
    maximize.add_argument("--seed", type=int, default=0, help="visit-order seed")
    maximize.add_argument("--iters", type=int, default=200, help="single-cell proposals")

    return parser


def _case_row(index: int, f, report, violations, timestamp: str | None) -> dict:
    row: dict = {"index": index, "input_hash": _input_hash(f)}
    if timestamp is not None:
        row["timestamp"] = timestamp
    row.update(report.to_json_dict())
    row["violations"] = violations
    return row


def _violation_dump_path(output: str | None, index: int) -> Path:
    base = Path(output) if output is not None else Path("hardylab-verify")
    return base.with_name(f"{base.stem}-violation-{index}.csv")


def cmd_verify(args) -> int:
    tol = default_tolerance() if args.tol is None else check_tolerance(args.tol, "--tol")
    evaluator = ratio_evaluator(args.kind, args.p, args.quad_order)
    if args.input is not None:
        cases = [read_step_csv(args.input)]
    else:
        if args.count < 1:
            raise InvalidParameterError(f"--count must be >= 1, got {args.count}")
        rng = make_rng(args.seed)
        cases = [random_step_function(rng) for _ in range(args.count)]
    timestamp = None if args.no_timestamp else _timestamp()
    rows = []
    exit_code = 0
    # one evaluator call for all cases; a case's report does not depend on
    # the batch it is evaluated in
    reports = evaluator(StepBatch.of(cases))
    for index, (f, report) in enumerate(zip(cases, reports)):
        violations = report.violations(tol)
        rows.append(_case_row(index, f, report, violations, timestamp))
        if violations:
            exit_code = 1
            dump = _violation_dump_path(args.output, index)
            write_step_csv(f, dump)
            print(f"violation in case {index}: {'; '.join(violations)} "
                  f"(function dumped to {dump})", file=sys.stderr)
    if args.format == "json":
        _emit(json.dumps(rows, indent=2) + "\n", args.output)
    else:
        header = ["index", "input_hash"] + list(REPORT_FIELDS) + ["violations"]
        lines = [",".join(header)]
        for row in rows:
            cells = [str(row["index"]), row["input_hash"]]
            for name in REPORT_FIELDS:
                value = row[name]
                cells.append("" if value is None else f"{value:.17g}"
                             if isinstance(value, float) else str(value))
            cells.append("; ".join(row["violations"]))
            lines.append(",".join(cells))
        _emit("\n".join(lines) + "\n", args.output)
    return exit_code


def cmd_sweep(args) -> int:
    try:
        eps_list = [float(tok) for tok in args.eps.split(",") if tok.strip()]
    except ValueError:
        raise InvalidParameterError(f"bad --eps list: {args.eps!r}") from None
    result = sharpness_sweep(args.kind, args.p, eps_list, CutoffSpec(args.cutoff),
                             args.resolution, args.quad_order)
    print(f"sharp {result.sharp:.12g}  limit {result.limit:.12g}  "
          f"relative_gap {result.relative_gap:.3e}")
    if args.format == "json":
        doc = result.to_json_dict()
        if not args.no_timestamp:
            doc["timestamp"] = _timestamp()
        _emit(json.dumps(doc, indent=2) + "\n", args.output)
    else:
        _emit(result.to_csv_text(), args.output)
    ok = abs(result.relative_gap) <= args.gap and all(
        pt.ratio < result.sharp for pt in result.points)
    return 0 if ok else 1


def cmd_rearrange(args) -> int:
    f = read_step_csv(args.input)
    p = check_exponent(args.p)
    fstar = decreasing_rearrangement(f).step
    if args.output is None:
        sys.stdout.write(step_csv_text(fstar))
    else:
        write_step_csv(fstar, args.output)
    before, after = check_norm_preservation(f, p)
    print(f"p-mass before {before:.17g}  after {after:.17g}  (p = {p:g})", file=sys.stderr)
    return 0


def cmd_maximize(args) -> int:
    tol = default_tolerance() if args.tol is None else check_tolerance(args.tol, "--tol")
    best, report = ratio_maximize(args.kind, args.p, args.cells, args.seed,
                                  args.iters, args.quad_order)
    doc: dict = {
        "command": "maximize",
        "kind": args.kind,
        "p": args.p,
        "cells": args.cells,
        "seed": args.seed,
        "iters": args.iters,
        "best_hash": _input_hash(best),
    }
    if not args.no_timestamp:
        doc["timestamp"] = _timestamp()
    doc.update(report.to_json_dict())
    _emit(json.dumps(doc, indent=2) + "\n", args.output)
    if args.output is not None:
        write_step_csv(best, Path(args.output).with_suffix(".best.csv"))
    return 0 if report.ratio <= report.sharp * (1.0 + tol) else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse usage errors exit 2 already
        return int(exc.code or 0)
    handlers = {
        "verify": cmd_verify,
        "sweep": cmd_sweep,
        "rearrange": cmd_rearrange,
        "maximize": cmd_maximize,
    }
    try:
        return handlers[args.command](args)
    except HardyLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # a bug, not a finding: keep it apart from exit code 1
        traceback.print_exc()
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
