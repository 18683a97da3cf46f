"""Per-case and per-cell loops of the package, kept as test references.

The package draws a ``verify`` case stream as one batch, hashes every
case's numbers in one pass, encodes its JSON rows with the C encoder and
builds the cutoff band of a minimizing function in one quadrature pass; the
maximize probe evaluates its proposals in lookahead batches and a sharpness
sweep evaluates its eps profiles as one batch, without the half-order rule
that a report's estimate needs.  These are the per-case,
per-cell, per-trial and per-profile forms that code replaced; it must
reproduce their output bit for bit (``tests/test_cases.py``,
``tests/test_sharpness.py``).
"""

import hashlib
import json
import struct
from dataclasses import fields

import numpy as np

from hardylab import sharpness
from hardylab.errors import DoubleRangeError, FitDegenerateError, InvalidParameterError
from hardylab.generator import make_rng
from hardylab.grid import (MAX_SIZE, Grid, StepFunction, check_exponent, check_integer,
                           check_real, make_graded_grid)
from hardylab.inequalities import RatioReport, sharp_constant
from hardylab.quadrature import _quadrature
from hardylab.sharpness import (DEFAULT_EPS_LIST, DEFAULT_SWEEP_RESOLUTION, CutoffSpec,
                                SweepPoint, SweepResult, _chi, _sweep_r_min)

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


def input_hash(f):
    """The SHA-256 of ``f``'s CSV data-row numbers, each cell's right edge
    and value in turn, packed as little-endian doubles."""
    numbers = [x for pair in zip(f.grid.edges[1:].tolist(), f.values.tolist()) for x in pair]
    return "sha256:" + hashlib.sha256(struct.pack("<%dd" % len(numbers), *numbers)).hexdigest()


def verify_rows(cases, reports, tol, timestamp):
    """The rows of ``verify``, one dict per case."""
    rows = []
    for index, (f, report) in enumerate(zip(cases, reports)):
        row = {"index": index, "input_hash": input_hash(f)}
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


def minimizing_function(p, eps, spec, n_cells, r_min):
    """``sharpness.minimizing_function`` with its cutoff-band cells averaged
    one cell at a time, each by ``_quadrature`` on that cell alone (valid
    arguments only)."""
    grid = make_graded_grid(2.0, n_cells, "geometric", r_min=r_min)
    a = grid.edges[:-1]
    b = grid.edges[1:]
    q = (eps - 1.0) / p
    s = q + 1.0
    values = np.zeros(n_cells)
    pure = b <= 1.0
    values[pure] = (b[pure] ** s - a[pure] ** s) / (s * (b[pure] - a[pure]))
    for i in np.nonzero(~pure)[0]:
        lo, hi = float(a[i]), float(b[i])
        if lo >= 2.0:
            break
        total = 0.0
        if lo < 1.0:  # pure-power part of a cell straddling r = 1
            total += (1.0 - lo ** s) / s
            lo = 1.0
        hi_c = min(hi, 2.0)
        if hi_c > lo:  # this cell alone through the package's one Gauss routine
            (part,) = _quadrature(lambda r: [r ** q * _chi(spec, r)], np.array([lo]),
                                  np.array([hi_c]), np.arange(2), (), False)[0]
            total += part[0]
        values[i] = total / (float(b[i]) - float(a[i]))
    return StepFunction(grid, values)


def ratio_maximize(kind, p, n_cells=32, seed=0, iters=200):
    """``sharpness.ratio_maximize`` with one evaluator call per trial: the
    coordinate ascent as it reads one proposal at a time.  The evaluator is
    looked up on the module when called, so a patched one reaches both."""
    p = check_exponent(p)
    n_cells = check_integer(n_cells, "n_cells", 4)
    iters = check_integer(iters, "iters", 1)
    rng = make_rng(seed)
    evaluator = sharpness.ratio_evaluator(kind, p)
    grid = make_graded_grid(1.0, n_cells, "geometric", r_min=sharpness._MAXIMIZE_R_MIN)
    values = np.ones(n_cells)
    best_report = evaluator(StepFunction(grid, values))
    best = best_report.ratio
    delta = 0.5
    visit = rng.permutation(n_cells)
    pos = 0
    improved_in_pass = False
    for _ in range(iters):
        if pos == n_cells:
            if not improved_in_pass:
                delta *= 0.5
                if delta < 1e-9:
                    break
            improved_in_pass = False
            visit = rng.permutation(n_cells)
            pos = 0
        i = int(visit[pos])
        pos += 1
        for factor in (1.0 + delta, 1.0 - delta):
            trial = values.copy()
            trial[i] *= factor
            rep = evaluator(StepFunction(grid, trial))
            if rep.ratio > best:
                values, best, best_report = trial, rep.ratio, rep
                improved_in_pass = True
                break
    return StepFunction(grid, values), best_report


def sharpness_sweep(kind, p, eps_list=DEFAULT_EPS_LIST, spec=CutoffSpec(),
                    resolution=DEFAULT_SWEEP_RESOLUTION):
    """``sharpness.sharpness_sweep`` with one evaluator call per eps: each
    profile built and evaluated to a full report (both rules) before the
    next.  The profile and the evaluator are looked up on the module when
    called, so a patched one reaches both."""
    p = check_exponent(p)
    try:
        eps_values = [check_real(e, "eps", 0.0, 1.0) for e in eps_list]
    except TypeError:
        raise InvalidParameterError(f"eps_list must be iterable, got {eps_list!r}") from None
    if len(eps_values) < 2:
        raise FitDegenerateError("affine extrapolation needs at least 2 eps values")
    if any(e2 >= e1 for e1, e2 in zip(eps_values, eps_values[1:])):
        raise InvalidParameterError("eps values must be strictly decreasing")
    resolution = check_integer(resolution, "resolution", 8, MAX_SIZE)
    sharp = sharp_constant(kind, p)
    evaluator = sharpness.ratio_evaluator(kind, p)
    points = []
    for eps in eps_values:
        try:
            rep = evaluator(sharpness.minimizing_function(p, eps, spec, resolution,
                                                          _sweep_r_min(eps)))
        except DoubleRangeError as err:  # the profile is the sweep's own, not the caller's
            raise DoubleRangeError(f"the {kind} ratio of the sweep profile f_eps leaves the "
                                   f"double-precision range at p = {p}, eps = {eps}") from err
        points.append(SweepPoint(eps=eps, ratio=rep.ratio, numerator=rep.numerator,
                                 denominator=rep.denominator))
    k = max(2, len(points) // 2)
    tail = points[-k:]
    coeffs = np.polyfit([pt.eps for pt in tail], [pt.ratio for pt in tail], 1)
    limit = float(coeffs[1])
    return SweepResult(kind=kind, p=p, points=tuple(points), limit=limit, sharp=sharp,
                       relative_gap=(limit - sharp) / sharp)
