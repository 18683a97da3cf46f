"""Command-line front end: verify, sweep, rearrange, maximize.

Exit codes: 0 success, 1 contract violation (the headline finding), 2 usage
or input error, 3 internal error (an unexpected exception; its traceback goes
to stderr).  With ``--no-timestamp`` identical configurations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import operator
import sys
import traceback
from dataclasses import fields
from datetime import datetime, timezone
from pathlib import Path

from .errors import HardyLabError, InvalidParameterError
from .generator import make_rng, random_step_function
from .grid import (MAX_SIZE, _csv_numbers, _write_texts, as_batch, check_exponent, check_integer,
                   read_step_csv, step_csv_text)
from .inequalities import (DEFAULT_TOLERANCE, REPORT_KINDS, RatioReport, check_tolerance,
                           ratio_evaluator)
from .rearrange import check_norm_preservation, decreasing_rearrangement
from .sharpness import (CUTOFF_KINDS, DEFAULT_EPS_LIST, DEFAULT_SWEEP_RESOLUTION,
                        CutoffSpec, ratio_maximize, sharpness_sweep)

REPORT_FIELDS = tuple(field.name for field in fields(RatioReport))
_CSV_HEADER = ",".join(("index", "input_hash") + REPORT_FIELDS + ("violations",))
# a row's csv cells but the violations, as one tuple
_CSV_CELLS = operator.itemgetter("index", "input_hash", *REPORT_FIELDS)
# C-encodes a row's fields one level in with the separators of ``indent=2``;
# ``_json_rows`` adds the brackets and the breaks between rows
_ROW_ENCODER = json.JSONEncoder(separators=(",\n    ", ": "))


def _input_hashes(f) -> list[str]:
    """Each function's ``sha256:`` of its CSV data-row numbers (every cell's
    right edge and value, the origin row left out) as little-endian binary64.
    ``%.17g`` round-trips, so the CSV text read back hashes the same."""
    return ["sha256:" + hashlib.sha256(x.astype("<f8", copy=False)).hexdigest()
            for x in _csv_numbers(f)]


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _emit(*outputs: tuple) -> None:
    """Each ``(path, text)`` of a run, a ``None`` path meaning stdout.  The files
    go first, in one write that leaves none of them and prints nothing if it fails."""
    _write_texts([out for out in outputs if out[0] is not None])
    for path, text in outputs:
        if path is None:
            sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardylab",
        description="Numerical verification of one-dimensional Hardy/Rellich "
                    "integral inequalities on step functions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(cmd, tol=True, fmt=True):
        """The evaluating commands' flags; ``--tol``/``--format`` where they are read."""
        cmd.add_argument("--kind", choices=REPORT_KINDS, required=True, help="inequality kind")
        cmd.add_argument("--p", type=float, required=True, help="Lebesgue exponent (> 1)")
        if tol:
            cmd.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE,
                             help="relative tolerance (default: 1e-6)")
        cmd.add_argument("--output", default=None, help="output file (default: stdout)")
        if fmt:
            cmd.add_argument("--format", choices=("json", "csv"), default="json",
                             help="output format")
        cmd.add_argument("--no-timestamp", action="store_true",
                         help="omit the timestamp field (byte-identical reruns)")

    verify = sub.add_parser("verify", help="evaluate one inequality on random or CSV input")
    common(verify)
    verify.add_argument("--count", type=int, default=100, help="number of random cases")
    verify.add_argument("--seed", type=int, default=0, help="PRNG seed for the case stream")
    verify.add_argument("--input", default=None,
                        help="step-function CSV (overrides --count/--seed)")

    sweep = sub.add_parser("sweep", help="sharpness sweep with extrapolated limit")
    common(sweep, tol=False)
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
    common(maximize, fmt=False)
    maximize.add_argument("--cells", type=int, default=32, help="grid cells")
    maximize.add_argument("--seed", type=int, default=0, help="visit-order seed")
    maximize.add_argument("--iters", type=int, default=200, help="single-cell proposals")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once per process."""
    return build_parser()


def _sibling(output: str, ending: str) -> Path:
    """``output``'s stem and ``ending`` as a file next to it; a nameless path is no error."""
    base = Path(output)
    return base.parent / (base.stem + ending)


def _json_rows(rows: list[dict]) -> str:
    """``json.dumps(rows, indent=2)``.  Rows without violations are flat
    dicts: the C encoder writes them all, and only the breaks between rows
    need the outer indentation (a raw newline never occurs inside a JSON
    string)."""
    if any(row["violations"] for row in rows):
        return json.dumps(rows, indent=2)
    body = _ROW_ENCODER.encode(rows)[2:-2].replace("},\n    {", "\n  },\n  {\n    ")
    return "[\n  {\n    " + body + "\n  }\n]"


def _csv_cell(value) -> str:
    """``%.17g`` for a float, an empty cell for ``None`` and ``str`` otherwise."""
    return "%.17g" % value if isinstance(value, float) else "" if value is None else str(value)


def _csv_rows(rows: list[dict]) -> str:
    """The csv table of the rows."""
    lines = [_CSV_HEADER]
    for row in rows:
        cells = _CSV_CELLS(row) + ("; ".join(row["violations"]),)
        lines.append(",".join(map(_csv_cell, cells)))
    return "\n".join(lines) + "\n"


def cmd_verify(args) -> int:
    tol = check_tolerance(args.tol, "--tol")
    evaluator = ratio_evaluator(args.kind, args.p)
    if args.input is not None:
        cases = as_batch(read_step_csv(args.input))
    else:
        count = check_integer(args.count, "--count", 1, MAX_SIZE)
        cases = random_step_function(make_rng(args.seed), count)
    timestamp = None if args.no_timestamp else _timestamp()
    rows, dumps, messages = [], [], []
    # one evaluator call for all cases; a case's report does not depend on
    # the batch it is evaluated in
    reports = evaluator(cases)
    for index, (input_hash, report) in enumerate(zip(_input_hashes(cases), reports)):
        violations = report.violations(tol)
        row = {"index": index, "input_hash": input_hash}
        if timestamp is not None:
            row["timestamp"] = timestamp
        rows.append({**row, **report.to_json_dict(), "violations": violations})
        if violations:
            dump = _sibling(args.output or "hardylab-verify", f"-violation-{index}.csv")
            dumps.append((dump, step_csv_text(cases[index:index + 1])[0]))
            messages.append(f"violation in case {index}: {'; '.join(violations)} "
                            f"(function dumped to {dump})")
    body = _json_rows(rows) + "\n" if args.format == "json" else _csv_rows(rows)
    _emit(*dumps, (args.output, body))
    for message in messages:
        print(message, file=sys.stderr)
    return 1 if dumps else 0


def cmd_sweep(args) -> int:
    try:
        eps_list = [float(tok) for tok in args.eps.split(",") if tok.strip()]
    except ValueError:
        raise InvalidParameterError(f"bad --eps list: {args.eps!r}") from None
    gap = check_tolerance(args.gap, "--gap")
    result = sharpness_sweep(args.kind, args.p, eps_list, CutoffSpec(args.cutoff),
                             args.resolution)
    print(f"sharp {result.sharp:.12g}  limit {result.limit:.12g}  "
          f"relative_gap {result.relative_gap:.3e}", file=sys.stderr)
    if args.format == "json":
        doc = result.to_json_dict()
        if not args.no_timestamp:
            doc["timestamp"] = _timestamp()
        _emit((args.output, json.dumps(doc, indent=2) + "\n"))
    else:
        _emit((args.output, result.to_csv_text()))
    ok = abs(result.relative_gap) <= gap and all(
        pt.ratio < result.sharp for pt in result.points)
    return 0 if ok else 1


def cmd_rearrange(args) -> int:
    f = read_step_csv(args.input)
    p = check_exponent(args.p)
    _emit((args.output, step_csv_text(decreasing_rearrangement(f).step)))
    before, after = check_norm_preservation(f, p)
    print(f"p-mass before {before:.17g}  after {after:.17g}  (p = {p:g})", file=sys.stderr)
    return 0


def cmd_maximize(args) -> int:
    tol = check_tolerance(args.tol, "--tol")
    best, report = ratio_maximize(args.kind, args.p, args.cells, args.seed, args.iters)
    doc: dict = {
        "command": "maximize",
        "kind": args.kind,
        "p": args.p,
        "cells": args.cells,
        "seed": args.seed,
        "iters": args.iters,
        "best_hash": _input_hashes(best)[0],
    }
    if not args.no_timestamp:
        doc["timestamp"] = _timestamp()
    doc.update(report.to_json_dict())
    best_csv = ([] if args.output is None else
                [(_sibling(args.output, ".best.csv"), step_csv_text(best))])
    _emit((args.output, json.dumps(doc, indent=2) + "\n"), *best_csv)
    violations = report.violations(tol)
    if violations:
        print(f"violation at the best function: {'; '.join(violations)}", file=sys.stderr)
    return 1 if violations else 0


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
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
    except MemoryError as exc:  # a size within its bound that this machine cannot hold
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return 2
    except Exception:  # a bug, not a finding: keep it apart from exit code 1
        traceback.print_exc()
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
