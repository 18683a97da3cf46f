"""Per-case generation, CSV text and output of ``verify``, kept as test references.

The package draws a ``verify`` case stream as one batch, formats every
case's CSV text in one pass and encodes its JSON rows with the C encoder.
These are the per-case forms that code replaced; it must reproduce their
output bit for bit (``tests/test_cases.py``).
"""

import hashlib
import json
from dataclasses import fields

import numpy as np

from hardylab.grid import Grid, StepFunction
from hardylab.inequalities import RatioReport

REPORT_FIELDS = [field.name for field in fields(RatioReport)]


def random_step_function(rng):
    """One case: r_min, R, n and the n values drawn in that order, on a
    geometric grid from r_min to R."""
    r_min = rng.uniform(1e-4, 1e-1)
    R = rng.uniform(1.0, 10.0)
    n = int(rng.integers(8, 65))
    values = rng.uniform(-1.0, 1.0, n)
    k = np.arange(n, dtype=float)
    pos = r_min * (R / r_min) ** (k / (n - 1))
    pos[-1] = R
    return StepFunction(Grid(np.concatenate([[0.0], pos])), values)


def step_csv_text(f):
    rows = map("{:.17g},{:.17g}\n".format, f.grid.edges[1:].tolist(), f.values.tolist())
    return "edge,value\n0,\n" + "".join(rows)


def verify_rows(cases, reports, tol, timestamp):
    """The rows of ``verify``, one dict per case."""
    rows = []
    for index, (f, report) in enumerate(zip(cases, reports)):
        digest = hashlib.sha256(step_csv_text(f).encode("utf-8")).hexdigest()
        row = {"index": index, "input_hash": "sha256:" + digest}
        if timestamp is not None:
            row["timestamp"] = timestamp
        row.update(report.to_json_dict())
        row["violations"] = report.violations(tol)
        rows.append(row)
    return rows


def verify_json(rows):
    return json.dumps(rows, indent=2) + "\n"


def verify_csv(rows):
    lines = [",".join(["index", "input_hash"] + REPORT_FIELDS + ["violations"])]
    for row in rows:
        cells = [str(row["index"]), row["input_hash"]]
        for name in REPORT_FIELDS:
            value = row[name]
            cells.append("" if value is None else f"{value:.17g}"
                         if isinstance(value, float) else str(value))
        cells.append("; ".join(row["violations"]))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
