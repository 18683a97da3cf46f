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
check_real                validate a real parameter in an open interval
check_exponent            validate a Lebesgue exponent ``1 < p < inf``
check_integer             validate an integer parameter (count, seed, cells, ...)
Grid, StepFunction        the basic data model
PiecewisePoly             degree <= 2 pieces + affine tail, exact evaluation
GridBatch, StepBatch, PolyBatch, as_batch   many functions in ragged form
make_graded_grid          uniform or geometrically graded partitions
geometric_grids           many geometric partitions as one batch
step_function             convenience constructor from plain sequences
p_norm                    ``\\int |f|^p`` (p-th power mass) for step functions
read_step_csv, write_step_csv, step_csv_text   round-trippable `edge,value` serialisation
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import wraps
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import DoubleRangeError, InvalidParameterError, MalformedCSVError

def check_real(value, name: str, lower: float = -math.inf, upper: float = math.inf) -> float:
    """``value`` as a float if it is a real number strictly inside ``(lower,
    upper)``, hence finite: anything ``float`` takes (a numeric string too)
    but a ``bool``.  Otherwise an :class:`InvalidParameterError` naming the
    parameter."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        x = math.nan
    if isinstance(value, (bool, np.bool_)) or not lower < x < upper:
        raise InvalidParameterError(
            f"{name} must be a real number in ({lower!r}, {upper!r}), got {value!r}")
    return x


def check_exponent(p: float) -> float:
    """Validate and return the Lebesgue exponent ``p`` (finite, ``p > 1``)."""
    return check_real(p, "exponent", 1.0)


def check_integer(value, name: str, minimum: int) -> int:
    """``value`` as an ``int`` if it is an integer of at least ``minimum``: an
    ``int`` or a numpy integer, not a ``bool``, a float or a string.
    Otherwise an :class:`InvalidParameterError` naming the parameter."""
    try:
        index = operator.index(value)
    except TypeError:
        index = None
    if index is None or isinstance(value, bool) or index < minimum:
        raise InvalidParameterError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return index


def _real_array(values, name: str, shape: tuple | None = None) -> np.ndarray:
    """``values`` as a float array of finite real numbers (not bools or text),
    of ``shape`` if one is given; otherwise an :class:`InvalidParameterError`
    about ``name``."""
    try:
        arr = np.asarray(values)
    except ValueError:  # ragged nesting
        arr = np.array(None)
    if arr.dtype.kind not in "fiu" or not np.isfinite(arr).all():
        raise InvalidParameterError(f"{name} must be finite real numbers")
    if shape is not None and arr.shape != shape:
        raise InvalidParameterError(f"expected {name} of shape {shape}, got shape {arr.shape}")
    return arr.astype(float, copy=False)


def _check_edges(grid: GridBatch) -> None:
    """The edge checks of :class:`Grid` on every grid of a batch whose edges
    passed :func:`_real_array`: each grid's first edge 0 and its edges
    strictly increasing."""
    first = grid.edges[grid.offsets[:-1] + np.arange(len(grid))]
    if (first != 0.0).any():
        raise InvalidParameterError(f"the first grid edge must be 0, got {first[first != 0.0][0]}")
    if (grid.widths <= 0.0).any():
        raise InvalidParameterError("grid edges must be strictly increasing")


def _points(r) -> tuple[np.ndarray, bool]:
    """Evaluation points ``r >= 0`` as a float array of at least one
    dimension, and whether ``r`` was a scalar."""
    r_arr = _real_array(r, "evaluation points")
    if (r_arr < 0.0).any():
        raise InvalidParameterError("evaluation points must be >= 0")
    return np.atleast_1d(r_arr), r_arr.ndim == 0


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Grid:
    """Strictly increasing edges ``0 = r_0 < r_1 < ... < r_n`` (n >= 1)."""

    edges: np.ndarray

    def __post_init__(self) -> None:
        edges = _real_array(self.edges, "grid edges")
        if edges.ndim != 1 or edges.size < 2:
            raise InvalidParameterError("a grid needs at least two edges (one cell)")
        _check_edges(GridBatch(edges, np.array([0, edges.size - 1])))
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
        return self.edges[1:] - self.edges[:-1]


@dataclass(frozen=True, eq=False)
class StepFunction:
    """Step function: value ``values[i]`` on ``(edges[i], edges[i+1]]``, 0 beyond."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = _real_array(self.values, "cell values", (self.grid.n_cells,))
        object.__setattr__(self, "values", _frozen_array(values))

    def evaluate(self, r):
        """Pointwise values (0 at r = 0 and beyond the support)."""
        r_arr, scalar = _points(r)
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
    return StepFunction(Grid(list(edges)), list(values))


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
        coeffs = _real_array(self.coeffs, "polynomial coefficients", (self.grid.n_cells, 3))
        for name in ("tail_value", "tail_slope"):
            object.__setattr__(self, name, check_real(getattr(self, name), name))
        object.__setattr__(self, "coeffs", _frozen_array(coeffs))

    @classmethod
    def from_step(cls, f: StepFunction) -> "PiecewisePoly":
        coeffs = np.zeros((f.grid.n_cells, 3))
        coeffs[:, 0] = f.values
        return cls(f.grid, coeffs)

    def evaluate(self, r):
        """Evaluate at scalar or array ``r >= 0`` (tail formula beyond r_n)."""
        r_arr, scalar = _points(r)
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
    def checked(cls, grid: GridBatch, values: np.ndarray) -> "StepBatch":
        """A batch after the checks of :class:`Grid` and :class:`StepFunction`,
        made once for all its functions: finite edges and values, each
        function's first edge 0 and its edges strictly increasing."""
        values = _real_array(values, "cell values", (grid.n_cells,))
        _real_array(grid.edges, "grid edges")
        _check_edges(grid)
        return cls(grid, values)

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


def _step_function(f) -> StepFunction:
    """``f`` if it is one :class:`StepFunction`; anything else, a batch too,
    raises an :class:`InvalidParameterError`.  Routines that read one
    function's grid and values check their argument with it."""
    if not isinstance(f, StepFunction):
        raise InvalidParameterError(f"expected a step function, got {type(f).__name__}")
    return f


def as_batch(x):
    """``x`` as a step batch: a :class:`StepFunction` becomes a batch of
    one; a :class:`StepBatch` is returned as it is.  Anything else raises an
    :class:`InvalidParameterError`."""
    if isinstance(x, StepBatch):
        return x
    f = _step_function(x)
    return StepBatch(GridBatch(f.grid.edges, np.array([0, f.grid.n_cells])), f.values)


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
    R = check_real(R, "support end", 0.0)
    n_cells = check_integer(n_cells, "n_cells", 1)
    if grading == "uniform":
        if r_min is not None:
            raise InvalidParameterError("r_min only applies to geometric grading")
        edges = np.linspace(0.0, R, n_cells + 1)
    elif grading == "geometric":
        if r_min is None:
            raise InvalidParameterError("geometric grading requires r_min")
        r_min = check_real(r_min, "r_min", 0.0, R)
        if n_cells == 1:
            edges = np.array([0.0, R])
        else:
            edges = geometric_grids(np.array([r_min]), np.array([R]), np.array([n_cells])).edges
    else:
        raise InvalidParameterError(f"unknown grading {grading!r}")
    return Grid(edges)


def geometric_grids(r_min: np.ndarray, R: np.ndarray, n_cells: np.ndarray) -> GridBatch:
    """The geometric grids of :func:`make_graded_grid`, one per entry of the
    arrays (``n_cells >= 2``, ``0 < r_min < R``), as one unchecked batch."""
    offsets = np.concatenate(([0], np.cumsum(n_cells)))
    grid = GridBatch(np.zeros(offsets[-1] + n_cells.size), offsets)
    k = np.arange(offsets[-1]) - np.repeat(offsets[:-1], n_cells)  # edge index in its grid
    ratio, last = np.repeat(R / r_min, n_cells), np.repeat(n_cells - 1, n_cells)
    pos = np.repeat(r_min, n_cells) * ratio ** (k / last)
    pos[offsets[1:] - 1] = R
    grid.edges[grid.right] = pos
    return grid


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


def step_csv_text(f):
    """The `edge,value` CSV text of ``f``: a string for one function, a list
    with one string per function for a :class:`StepBatch`."""
    batch = as_batch(f)
    grid = batch.grid
    pairs = np.empty((batch.values.size, 2))
    pairs[:, 0] = grid.edges[grid.right]
    pairs[:, 1] = batch.values
    numbers = tuple(pairs.ravel().tolist())
    b = (2 * grid.offsets).tolist()
    texts = [("edge,value\n0,\n" + "%.17g,%.17g\n" * ((e - s) // 2)) % numbers[s:e]
             for s, e in zip(b[:-1], b[1:])]
    return texts if batch is f else texts[0]


def read_step_csv(path) -> StepFunction:
    """Parse a step function from the `edge,value` format written by
    :func:`write_step_csv`."""
    try:
        file = Path(path)
    except TypeError:
        raise InvalidParameterError(f"a CSV path must be a str or path, got {path!r}") from None
    try:
        text = file.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedCSVError(f"cannot read {path}: {exc}") from exc
    rows = [(n, line.strip()) for n, line in enumerate(text.splitlines(), start=1) if line.strip()]
    if not rows or rows[0][1].replace(" ", "") != "edge,value":
        raise MalformedCSVError("expected header 'edge,value'")
    edges: list[float] = []
    values: list[float] = []
    for lineno, row in rows[1:]:
        parts = [part.strip() for part in row.split(",")]
        if len(parts) != 2:
            raise MalformedCSVError(f"line {lineno}: expected 'edge,value', got {row!r}")
        try:
            edge = float(parts[0])
        except ValueError:
            raise MalformedCSVError(f"line {lineno}: bad edge {parts[0]!r}") from None
        if not edges:
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
