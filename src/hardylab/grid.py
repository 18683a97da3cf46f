"""Grids on the half line, step functions, and weighted-power integration.

Functions are modelled as right-continuous step functions supported on a
finite partition ``0 = r_0 < r_1 < ... < r_n`` of ``[0, r_n]``: the value
``v_i`` is taken on the half-open cell ``(r_{i-1}, r_i]`` and the function
vanishes identically beyond ``r_n``.  Antiderivatives of step functions are
piecewise polynomials of degree <= 2 with an affine closed-form tail, which
is what :class:`PiecewisePoly` stores.

Many functions are evaluated together as a batch (:class:`StepBatch`,
:class:`PolyBatch`): their edges, values and coefficients concatenated, plus
per-function offsets.  A single function is a batch of one.  Per-function
running sums use padded rows and per-function totals one ``fsum`` each, so a
function's results do not depend on the batch it is in.  Weighted-power
quadrature lives in :mod:`hardylab.quadrature`.

Index
-----
check_exponent            validate a Lebesgue exponent ``1 < p < inf``
check_quad_order          validate a Gauss-Legendre order ``>= 2``
Grid, StepFunction        the basic data model
PiecewisePoly             degree <= 2 pieces + affine tail, exact evaluation
GridBatch, StepBatch, PolyBatch, as_batch   many functions in ragged form
make_graded_grid          uniform or geometrically graded partitions
step_function             convenience constructor from plain sequences
p_norm                    ``\\int |f|^p`` (p-th power mass) for step functions
read_step_csv, write_step_csv   round-trippable `edge,value` serialisation
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import wraps
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import DoubleRangeError, InvalidParameterError, MalformedCSVError

def check_exponent(p: float) -> float:
    """Validate and return the Lebesgue exponent ``p`` (finite, ``p > 1``)."""
    try:
        p = float(p)
    except (TypeError, ValueError):
        raise InvalidParameterError(f"exponent must be a real number, got {p!r}") from None
    if not math.isfinite(p) or p <= 1.0:
        raise InvalidParameterError(f"exponent must satisfy 1 < p < inf, got {p}")
    return p


def check_quad_order(order: int) -> int:
    """Validate and return a Gauss-Legendre order (an integer ``>= 2``)."""
    order = int(order)
    if order < 2:
        raise InvalidParameterError(f"quadrature order must be >= 2, got {order}")
    return order


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Grid:
    """Strictly increasing edges ``0 = r_0 < r_1 < ... < r_n`` (n >= 1)."""

    edges: np.ndarray

    def __post_init__(self) -> None:
        edges = np.asarray(self.edges, dtype=float)
        if edges.ndim != 1 or edges.size < 2:
            raise InvalidParameterError("a grid needs at least two edges (one cell)")
        if not np.all(np.isfinite(edges)):
            raise InvalidParameterError("grid edges must be finite")
        if edges[0] != 0.0:
            raise InvalidParameterError(f"the first grid edge must be 0, got {edges[0]}")
        if np.any(np.diff(edges) <= 0.0):
            raise InvalidParameterError("grid edges must be strictly increasing")
        object.__setattr__(self, "edges", _frozen_array(edges))

    @property
    def n_cells(self) -> int:
        return self.edges.size - 1

    @property
    def support_end(self) -> float:
        """The last edge ``r_n``."""
        return float(self.edges[-1])

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)


@dataclass(frozen=True, eq=False)
class StepFunction:
    """Step function: value ``values[i]`` on ``(edges[i], edges[i+1]]``, 0 beyond."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size != self.grid.n_cells:
            raise InvalidParameterError(
                f"expected {self.grid.n_cells} cell values, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise InvalidParameterError("cell values must be finite")
        object.__setattr__(self, "values", _frozen_array(values))

    def evaluate(self, r):
        """Pointwise values (0 at r = 0 and beyond the support)."""
        r_arr = np.asarray(r, dtype=float)
        scalar = r_arr.ndim == 0
        r_arr = np.atleast_1d(r_arr)
        if np.any(r_arr < 0.0) or not np.all(np.isfinite(r_arr)):
            raise InvalidParameterError("evaluation points must be finite and >= 0")
        edges = self.grid.edges
        idx = np.searchsorted(edges, r_arr, side="left") - 1
        inside = (r_arr > 0.0) & (r_arr <= edges[-1])
        out = np.zeros_like(r_arr)
        out[inside] = self.values[idx[inside]]
        return float(out[0]) if scalar else out

    def __abs__(self) -> "StepFunction":
        return StepFunction(self.grid, np.abs(self.values))


def step_function(edges: Iterable[float], values: Iterable[float]) -> StepFunction:
    """Build a :class:`StepFunction` from edge and value sequences."""
    return StepFunction(Grid(np.asarray(list(edges), dtype=float)), list(values))


@dataclass(frozen=True, eq=False)
class PiecewisePoly:
    """Piecewise polynomial of degree <= 2 with an affine tail.

    On cell ``i`` the value is ``c0 + c1*(r - a_i) + c2*(r - a_i)^2`` where
    ``a_i = edges[i]`` and ``(c0, c1, c2) = coeffs[i]``; beyond the last edge
    it is ``tail_value + tail_slope * (r - r_n)``.
    """

    grid: Grid
    coeffs: np.ndarray  # shape (n_cells, 3)
    tail_value: float = 0.0
    tail_slope: float = 0.0

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.ndim != 2 or coeffs.shape != (self.grid.n_cells, 3):
            raise InvalidParameterError(
                f"expected coefficient shape {(self.grid.n_cells, 3)}, got {coeffs.shape}"
            )
        if not np.all(np.isfinite(coeffs)):
            raise InvalidParameterError("polynomial coefficients must be finite")
        for name in ("tail_value", "tail_slope"):
            val = float(getattr(self, name))
            if not math.isfinite(val):
                raise InvalidParameterError(f"{name} must be finite, got {val}")
            object.__setattr__(self, name, val)
        object.__setattr__(self, "coeffs", _frozen_array(coeffs))

    @classmethod
    def from_step(cls, f: StepFunction) -> "PiecewisePoly":
        coeffs = np.zeros((f.grid.n_cells, 3))
        coeffs[:, 0] = f.values
        return cls(f.grid, coeffs)

    def evaluate(self, r):
        """Evaluate at scalar or array ``r >= 0`` (tail formula beyond r_n)."""
        r_arr = np.asarray(r, dtype=float)
        scalar = r_arr.ndim == 0
        r_arr = np.atleast_1d(r_arr).astype(float)
        if np.any(r_arr < 0.0) or not np.all(np.isfinite(r_arr)):
            raise InvalidParameterError("evaluation points must be finite and >= 0")
        edges = self.grid.edges
        idx = np.clip(np.searchsorted(edges, r_arr, side="left") - 1, 0, self.grid.n_cells - 1)
        loc = r_arr - edges[idx]
        c = self.coeffs
        out = c[idx, 0] + loc * (c[idx, 1] + loc * c[idx, 2])
        tail = r_arr > edges[-1]
        if np.any(tail):
            out[tail] = self.tail_value + self.tail_slope * (r_arr[tail] - edges[-1])
        return float(out[0]) if scalar else out


# --------------------------------------------------------------------------
# Batches: many functions in ragged form
# --------------------------------------------------------------------------


class GridBatch:
    """The grids of several functions, concatenated.

    ``edges`` holds each grid's edges in turn, every grid starting at 0, and
    function ``k`` owns the cells ``offsets[k]:offsets[k + 1]``.  It is
    built from grids that were already validated, so it checks nothing.
    ``left``, ``right`` and ``ends`` index ``edges`` (and any array laid out
    like it) at each cell's left and right edge and at each function's last
    edge: slices for a single grid, which cost nothing and give views, and
    index arrays for several.
    """

    __slots__ = ("edges", "offsets", "left", "right", "ends")

    def __init__(self, edges: np.ndarray, offsets: np.ndarray):
        self.edges = edges
        self.offsets = offsets
        if offsets.size == 2:
            self.left, self.right, self.ends = slice(0, -1), slice(1, None), slice(-1, None)
        else:
            counts = np.diff(offsets)
            self.left = np.arange(offsets[-1]) + np.repeat(np.arange(counts.size), counts)
            self.right = self.left + 1
            self.ends = offsets[1:] + np.arange(counts.size)

    @classmethod
    def from_intervals(cls, lo, hi, bounds) -> "GridBatch":
        """The grids whose cells are the intervals ``(lo, hi)`` of each function."""
        grid = cls(np.empty(lo.size + bounds.size - 1), bounds)
        grid.edges[grid.left] = lo
        grid.edges[grid.right] = hi
        return grid

    def __len__(self) -> int:
        return self.offsets.size - 1

    @property
    def n_cells(self) -> int:
        return int(self.offsets[-1])

    @property
    def a(self) -> np.ndarray:
        """Left edge of each cell."""
        return self.edges[self.left]

    @property
    def b(self) -> np.ndarray:
        """Right edge of each cell."""
        return self.edges[self.right]

    @property
    def widths(self) -> np.ndarray:
        return self.b - self.a


class StepBatch:
    """Several step functions: one :class:`GridBatch` and all cell values in turn.

    A :class:`StepFunction` is a batch of one; the public numeric functions
    accept either and answer a batch with one result per function.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: GridBatch, values: np.ndarray):
        self.grid = grid
        self.values = values

    @classmethod
    def of(cls, functions: Iterable[StepFunction]) -> "StepBatch":
        functions = list(functions)
        if not functions:
            raise InvalidParameterError("a batch needs at least one function")
        offsets = np.cumsum([0] + [f.grid.n_cells for f in functions])
        return cls(GridBatch(np.concatenate([f.grid.edges for f in functions]), offsets),
                   np.concatenate([f.values for f in functions]))

    def __len__(self) -> int:
        return len(self.grid)

    def __getitem__(self, index: slice) -> "StepBatch":
        """The functions ``start:stop`` as a batch of their own."""
        start, stop, _ = index.indices(len(self))
        lo, hi = self.grid.offsets[start], self.grid.offsets[stop]
        return StepBatch(GridBatch(self.grid.edges[lo + start:hi + stop],
                                   self.grid.offsets[start:stop + 1] - lo),
                         self.values[lo:hi])

    def __abs__(self) -> "StepBatch":
        return StepBatch(self.grid, np.abs(self.values))

    def groups(self, max_cells: int):
        """Consecutive sub-batches of at most ``max_cells`` cells each; a
        function larger than that forms a group of its own."""
        counts = np.diff(self.grid.offsets).tolist()
        start, cells = 0, 0
        for k, n in enumerate(counts):
            if k > start and cells + n > max_cells:
                yield self[start:k]
                start, cells = k, 0
            cells += n
        yield self[start:]


class PolyBatch:
    """Several piecewise polynomials (see :class:`PiecewisePoly`) in ragged
    form: coefficients of shape ``(n_cells, 3)``, and one tail value and
    slope per function."""

    __slots__ = ("grid", "coeffs", "tail_value", "tail_slope")

    def __init__(self, grid: GridBatch, coeffs: np.ndarray, tail_value: np.ndarray,
                 tail_slope: np.ndarray):
        self.grid = grid
        self.coeffs = coeffs
        self.tail_value = tail_value
        self.tail_slope = tail_slope

    def one(self, grid: Grid) -> PiecewisePoly:
        """The single polynomial of a batch of one, on ``grid`` (its edges)."""
        return PiecewisePoly(grid, self.coeffs, float(self.tail_value[0]),
                             float(self.tail_slope[0]))


def as_batch(x):
    """``x`` as a batch: a :class:`StepFunction` or :class:`PiecewisePoly`
    becomes a batch of one; a batch is returned as it is."""
    if isinstance(x, (StepBatch, PolyBatch)):
        return x
    grid = GridBatch(x.grid.edges, np.array([0, x.grid.n_cells]))
    if isinstance(x, StepFunction):
        return StepBatch(grid, x.values)
    return PolyBatch(grid, x.coeffs, np.array([x.tail_value]), np.array([x.tail_slope]))


def _rows(x: np.ndarray, offsets: np.ndarray, fill: float):
    """Ragged ``x`` (function ``k`` owns ``x[offsets[k]:offsets[k + 1]]``) as a
    matrix with one row per function, padded at the end with ``fill``, and
    the mask of its real entries."""
    counts = np.diff(offsets)
    mask = np.arange(counts.max()) < counts[:, None]
    rows = np.full(mask.shape, fill)
    rows[mask] = x
    return rows, mask


def _running_sum(x: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Each function's ``[0, x_0, x_0 + x_1, ...]``, concatenated.

    The sums run along padded rows, so each restarts at its function and
    adds in the same order as for that function alone (a single function is
    its own row).
    """
    if offsets.size == 2:
        return np.concatenate(([0.0], np.cumsum(x)))
    rows, mask = _rows(x, offsets, 0.0)
    out = np.zeros((rows.shape[0], rows.shape[1] + 1))
    np.cumsum(rows, axis=1, out=out[:, 1:])
    return out[np.column_stack((np.ones(mask.shape[0], dtype=bool), mask))]


def _running_max(x: np.ndarray, offsets: np.ndarray, reverse: bool = False) -> np.ndarray:
    """Each function's running maximum of ``x``, from its start or (reverse)
    from its end."""
    if offsets.size == 2:
        return np.maximum.accumulate(x[::-1])[::-1] if reverse else np.maximum.accumulate(x)
    rows, mask = _rows(x, offsets, -np.inf)
    if reverse:
        rows = np.maximum.accumulate(rows[:, ::-1], axis=1)[:, ::-1]
    else:
        rows = np.maximum.accumulate(rows, axis=1)
    return rows[mask]


def make_graded_grid(R: float, n_cells: int, grading: str = "uniform",
                     r_min: float | None = None) -> Grid:
    """Partition ``[0, R]`` into ``n_cells`` cells.

    ``grading="uniform"`` spaces the edges evenly.  ``grading="geometric"``
    places the positive edges in geometric progression from ``r_min`` to
    ``R`` (the first cell is ``(0, r_min]``), which is what every
    origin-singular computation here wants.
    """
    R = float(R)
    if not math.isfinite(R) or R <= 0.0:
        raise InvalidParameterError(f"support end must be positive and finite, got {R}")
    n_cells = int(n_cells)
    if n_cells < 1:
        raise InvalidParameterError(f"need at least one cell, got {n_cells}")
    if grading == "uniform":
        if r_min is not None:
            raise InvalidParameterError("r_min only applies to geometric grading")
        edges = np.linspace(0.0, R, n_cells + 1)
    elif grading == "geometric":
        if r_min is None:
            raise InvalidParameterError("geometric grading requires r_min")
        r_min = float(r_min)
        if not math.isfinite(r_min) or not 0.0 < r_min < R:
            raise InvalidParameterError(f"r_min must lie in (0, R), got {r_min}")
        if n_cells == 1:
            edges = np.array([0.0, R])
        else:
            k = np.arange(n_cells, dtype=float)
            pos = r_min * (R / r_min) ** (k / (n_cells - 1))
            pos[-1] = R
            edges = np.concatenate([[0.0], pos])
    else:
        raise InvalidParameterError(f"unknown grading {grading!r}")
    return Grid(edges)


def _in_double_range(fn):
    """Run ``fn`` with numpy overflow raising, and report any overflow as a
    :class:`DoubleRangeError` instead of a warning followed by inf or by a
    raw ``OverflowError``."""
    @wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            with np.errstate(over="raise"):
                return fn(*args, **kwargs)
        except (FloatingPointError, OverflowError):
            raise DoubleRangeError(
                "values leave the double-precision range (overflow); rescale the input"
            ) from None
    return wrapper


@_in_double_range
def p_norm(f, p: float):
    """``\\int_0^\\infty |f|^p dr`` — the p-th power mass, exact for step functions.

    A float for one function, a list with one float per function for a
    :class:`StepBatch`.
    """
    p = check_exponent(p)
    batch = as_batch(f)
    out = _fsums((np.abs(batch.values) ** p * batch.grid.widths).tolist(), batch.grid.offsets)
    return out if batch is f else out[0]


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values.

    Same result as ``np.unique``, which on numpy 2.x imports ``numpy.ma`` on
    first use (about 10 ms of start-up and 1.7 MB resident).
    """
    values = np.sort(values)
    return values[np.concatenate(([True], values[1:] != values[:-1]))]


def _fsums(terms: list[float], bounds: np.ndarray) -> list[float]:
    """Each function's ``fsum`` of its own terms ``terms[bounds[k]:bounds[k + 1]]``."""
    b = bounds.tolist()
    return [math.fsum(terms[s:e]) for s, e in zip(b[:-1], b[1:])]



# --------------------------------------------------------------------------
# CSV round trip
# --------------------------------------------------------------------------


def write_step_csv(f: StepFunction, path) -> None:
    """Write ``f`` to `edge,value` CSV (first row is the origin edge)."""
    Path(path).write_text(step_csv_text(f), encoding="utf-8")


def step_csv_text(f: StepFunction) -> str:
    rows = map("{:.17g},{:.17g}\n".format, f.grid.edges[1:].tolist(), f.values.tolist())
    return "edge,value\n0,\n" + "".join(rows)


def read_step_csv(path) -> StepFunction:
    """Parse a step function from the `edge,value` format written by
    :func:`write_step_csv`."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise MalformedCSVError(f"cannot read {path}: {exc}") from exc
    rows = [line.strip() for line in text.splitlines() if line.strip()]
    if not rows or rows[0].replace(" ", "") != "edge,value":
        raise MalformedCSVError("expected header 'edge,value'")
    edges: list[float] = []
    values: list[float] = []
    for lineno, row in enumerate(rows[1:], start=2):
        parts = [part.strip() for part in row.split(",")]
        if len(parts) != 2:
            raise MalformedCSVError(f"line {lineno}: expected 'edge,value', got {row!r}")
        try:
            edge = float(parts[0])
        except ValueError:
            raise MalformedCSVError(f"line {lineno}: bad edge {parts[0]!r}") from None
        if lineno == 2:
            if edge != 0.0 or parts[1] != "":
                raise MalformedCSVError("first data row must be the origin edge '0,'")
            edges.append(0.0)
            continue
        if parts[1] == "":
            raise MalformedCSVError(f"line {lineno}: missing cell value")
        try:
            value = float(parts[1])
        except ValueError:
            raise MalformedCSVError(f"line {lineno}: bad value {parts[1]!r}") from None
        edges.append(edge)
        values.append(value)
    if len(edges) < 2:
        raise MalformedCSVError("need at least one cell after the origin edge")
    try:
        return step_function(edges, values)
    except InvalidParameterError as exc:
        raise MalformedCSVError(f"invalid step function data: {exc}") from exc
