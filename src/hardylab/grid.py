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
running sums and maxima run over each function's own slice and per-function
totals are one ``fsum`` each, so a function's results do not depend on the
batch it is in.  Weighted-power quadrature lives in :mod:`hardylab.quadrature`.
A :class:`GridBatch` derives its grid-only arrays (cell edges, widths, capped
cells) once and keeps them, its edges frozen; a :class:`Grid` keeps its own.

The `edge,value` CSV text writes every number as ``"%.17g" % x`` does.  For
a function whose numbers are all 0 or of magnitude in ``[1e-4, 1e17)``,
where ``%.17g`` is fixed notation, a whole-array kernel computes the 17
correctly rounded digits from an exact product and lays the text out with
byte masks; any other function is formatted by ``%``.

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

from .errors import DoubleRangeError, HardyLabError, InvalidParameterError, MalformedCSVError

def check_real(value, name: str, lower: float = -math.inf, upper: float = math.inf) -> float:
    """``value`` as a float if it is a real number strictly inside ``(lower,
    upper)``, hence finite: anything ``float`` takes (a numeric string too)
    but a ``bool``.  Otherwise an :class:`InvalidParameterError` naming the
    parameter."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if isinstance(value, (bool, np.bool_)) or not lower < x < upper:
        raise InvalidParameterError(
            f"{name} must be a real number in ({lower!r}, {upper!r}), got {value!r}")
    return x


def check_exponent(p: float) -> float:
    """Validate and return the Lebesgue exponent ``p`` (finite, ``p > 1``)."""
    return check_real(p, "exponent", 1.0)


# the largest size (cells, functions) a size parameter takes: half the float64s
# numpy allows (``iinfo(intp).max`` bytes), as ``np.linspace`` still raises a
# ValueError at ``max // 8 - 1``; up to here, a size too large raises MemoryError
MAX_SIZE = int(np.iinfo(np.intp).max) // 16


def check_integer(value, name: str, minimum: int, maximum: float = math.inf) -> int:
    """``value`` as an ``int`` if it is an integer in ``[minimum, maximum]``: an
    ``int`` or a numpy integer, not a ``bool``, a float or a string.
    Otherwise an :class:`InvalidParameterError` naming the parameter."""
    try:
        index = operator.index(value)
    except TypeError:
        index = None
    if index is None or isinstance(value, bool) or not minimum <= index <= maximum:
        bound = f">= {minimum}" if maximum == math.inf else f"in [{minimum}, {maximum}]"
        raise InvalidParameterError(f"{name} must be an integer {bound}, got {value!r}")
    return index


def _real_array(values, name: str, shape: tuple | None = None) -> np.ndarray:
    """``values`` as a float array of finite real numbers, of ``shape`` if one
    is given; otherwise an :class:`InvalidParameterError` about ``name``.  An
    ndarray or numpy scalar must have an integer or float dtype.  Anything
    else is read element by element as ``float`` reads it, so a Python int
    beyond the int64 range is taken and a bool or text in a list is not."""
    if not isinstance(values, (np.ndarray, np.generic)):
        try:
            values = np.array(values, dtype=object)
            if any(issubclass(t, (bool, np.bool_, str, bytes)) for t in set(map(type, values.flat))):
                raise TypeError
            values = values.astype(float)
        except (TypeError, ValueError, OverflowError):  # also ragged nesting
            values = None
    arr = np.asarray(values)
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


def _read_only(arr: np.ndarray) -> np.ndarray:
    """``arr`` if it is read-only, else a read-only view of it; ``arr`` stays as it was."""
    if arr.flags.writeable:
        arr = arr.view()
        arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Grid:
    """Strictly increasing edges ``0 = r_0 < r_1 < ... < r_n`` (n >= 1); ``batch``
    is the grid as a :class:`GridBatch` of one, which its functions' batches share."""

    edges: np.ndarray

    def __post_init__(self) -> None:
        edges = _frozen_array(_real_array(self.edges, "grid edges"))
        if edges.ndim != 1 or edges.size < 2:
            raise InvalidParameterError("a grid needs at least two edges (one cell)")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "batch", GridBatch(edges, np.array([0, edges.size - 1])))
        _check_edges(self.batch)

    @property
    def n_cells(self) -> int:
        return self.edges.size - 1

    @property
    def support_end(self) -> float:
        """The last edge ``r_n``."""
        return float(self.edges[-1])

    @property
    def widths(self) -> np.ndarray:
        return self.batch.widths


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
    edges, values = (x if isinstance(x, np.ndarray) else list(x) for x in (edges, values))
    return StepFunction(Grid(edges), values)


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
        if not isinstance(self.grid, Grid):
            raise InvalidParameterError(f"a piecewise polynomial needs a Grid, got "
                                        f"{type(self.grid).__name__}")
        coeffs = _real_array(self.coeffs, "polynomial coefficients", (self.grid.n_cells, 3))
        for name in ("tail_value", "tail_slope"):
            object.__setattr__(self, name, check_real(getattr(self, name), name))
        object.__setattr__(self, "coeffs", _frozen_array(coeffs))

    @classmethod
    def from_step(cls, f: StepFunction) -> "PiecewisePoly":
        coeffs = np.zeros((_step_function(f).grid.n_cells, 3))
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

    ``a``, ``b`` and ``widths`` are derived on first read and kept, and so is
    ``capped``, the cells as quadrature caps them.  ``edges`` and every kept
    array are read-only; only :meth:`from_intervals` and
    :func:`geometric_grids` write the edges, before any of these is read.
    """

    __slots__ = ("edges", "offsets", "left", "right", "ends", "_a", "_b", "_widths", "capped")

    def __init__(self, edges: np.ndarray, offsets: np.ndarray):
        self.edges = _read_only(edges)
        self.offsets = offsets
        self._a = self._b = self._widths = self.capped = None
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
        edges = np.empty(lo.size + bounds.size - 1)
        grid = cls(edges, bounds)
        edges[grid.left] = lo
        edges[grid.right] = hi
        return grid

    def __len__(self) -> int:
        return self.offsets.size - 1

    @property
    def n_cells(self) -> int:
        return int(self.offsets[-1])

    @property
    def a(self) -> np.ndarray:
        """Left edge of each cell."""
        if self._a is None:
            self._a = _read_only(self.edges[self.left])
        return self._a

    @property
    def b(self) -> np.ndarray:
        """Right edge of each cell."""
        if self._b is None:
            self._b = _read_only(self.edges[self.right])
        return self._b

    @property
    def widths(self) -> np.ndarray:
        if self._widths is None:
            self._widths = _read_only(self.b - self.a)
        return self._widths


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
        try:
            functions = [_step_function(f) for f in functions]
        except TypeError:
            raise InvalidParameterError(
                f"a batch is built from step functions, got {type(functions).__name__}") from None
        if not functions:
            raise InvalidParameterError("a batch needs at least one function")
        offsets = np.cumsum([0] + [f.grid.n_cells for f in functions])
        return cls(GridBatch(np.concatenate([f.grid.edges for f in functions]), offsets),
                   np.concatenate([f.values for f in functions]))

    def __len__(self) -> int:
        return len(self.grid)

    def __getitem__(self, index: slice) -> "StepBatch":
        """The functions ``start:stop`` as a batch of their own; ``index`` must be
        a slice with step 1 that names at least one function."""
        try:
            start, stop, step = index.indices(len(self))
        except (AttributeError, TypeError, ValueError):  # not a slice, or step 0
            step = None
        if step != 1:
            raise InvalidParameterError(f"a batch takes a slice with step 1, got {index!r}")
        if start >= stop:
            raise InvalidParameterError("a batch needs at least one function")
        lo, hi = self.grid.offsets[start], self.grid.offsets[stop]
        return StepBatch(GridBatch(self.grid.edges[lo + start:hi + stop],
                                   self.grid.offsets[start:stop + 1] - lo),
                         self.values[lo:hi])

    def __abs__(self) -> "StepBatch":
        return StepBatch(self.grid, np.abs(self.values))


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
    return StepBatch(f.grid.batch, f.values)


def _running_sum(x: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Each function's ``[0, x_0, x_0 + x_1, ...]``, concatenated.

    Each function's sum is its own ``np.add.accumulate`` (``np.cumsum``
    without its dispatch cost), so it adds in the same order as for that
    function alone.
    """
    out = np.zeros(x.size + offsets.size - 1)
    b = offsets.tolist()
    for k, (s, e) in enumerate(zip(b[:-1], b[1:]), start=1):
        np.add.accumulate(x[s:e], out=out[s + k:e + k])
    return out


def _running_max(x: np.ndarray, offsets: np.ndarray, reverse: bool = False) -> np.ndarray:
    """Each function's running maximum of ``x``, from its start or (reverse)
    from its end."""
    out = np.empty_like(x)
    b = offsets.tolist()
    step = -1 if reverse else 1
    for s, e in zip(b[:-1], b[1:]):
        np.maximum.accumulate(x[s:e][::step], out=out[s:e][::step])
    return out


def make_graded_grid(R: float, n_cells: int, grading: str = "uniform",
                     r_min: float | None = None) -> Grid:
    """Partition ``[0, R]`` into ``n_cells`` cells.

    ``grading="uniform"`` spaces the edges evenly.  ``grading="geometric"``
    places the positive edges in geometric progression from ``r_min`` to
    ``R`` (the first cell is ``(0, r_min]``), which is what every
    origin-singular computation here wants.
    """
    R = check_real(R, "support end", 0.0)
    n_cells = check_integer(n_cells, "n_cells", 1, MAX_SIZE)
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
    edges = np.zeros(offsets[-1] + n_cells.size)
    grid = GridBatch(edges, offsets)
    k = np.arange(offsets[-1]) - np.repeat(offsets[:-1], n_cells)  # edge index in its grid
    ratio, last = np.repeat(R / r_min, n_cells), np.repeat(n_cells - 1, n_cells)
    pos = np.repeat(r_min, n_cells) * ratio ** (k / last)
    pos[offsets[1:] - 1] = R
    edges[grid.right] = pos
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


def _fsums(terms: list[float], bounds: np.ndarray) -> list[float]:
    """Each function's ``fsum`` of its own terms ``terms[bounds[k]:bounds[k + 1]]``."""
    b = bounds.tolist()
    return [math.fsum(terms[s:e]) for s, e in zip(b[:-1], b[1:])]



# --------------------------------------------------------------------------
# CSV round trip
# --------------------------------------------------------------------------


def _csv_path(path) -> Path:
    try:
        return Path(path)
    except TypeError:
        raise InvalidParameterError(f"a CSV path must be a str or path, got {path!r}") from None


def _write_texts(files: list) -> None:
    """Write each ``(path, text)`` in turn.  An ``OSError`` removes the files
    already written and becomes a :class:`HardyLabError` naming the path."""
    for k, (path, text) in enumerate(files):
        try:
            Path(path).write_text(text, encoding="utf-8")
        except OSError as exc:
            for done, _ in files[:k]:
                Path(done).unlink(missing_ok=True)
            raise HardyLabError(f"cannot write {path}: {exc}") from exc


def write_step_csv(f: StepFunction, path) -> None:
    """Write ``f`` to `edge,value` CSV (first row is the origin edge)."""
    _csv_path(path)
    _write_texts([(path, step_csv_text(_step_function(f)))])


_CSV_HEADER = "edge,value\n0,\n"
# numbers per call of ``_fixed_17g``, whose temporaries take about 240 bytes a number
_CSV_CHUNK = 1 << 14


def step_csv_text(f):
    """The `edge,value` CSV text of ``f``: a string for one function, a list
    with one string per function for a :class:`StepBatch`.

    Every number is written as ``"%.17g" % x``.  A function whose numbers are
    all 0 or of magnitude in ``[1e-4, 1e17)`` (where ``%.17g`` is fixed
    notation) is formatted by :func:`_fixed_17g`, a whole-array kernel; any
    other function by ``%`` itself."""
    batch = as_batch(f)
    grid = batch.grid
    pairs = np.empty((batch.values.size, 2))
    pairs[:, 0] = grid.edges[grid.right]
    pairs[:, 1] = batch.values
    numbers = pairs.ravel()
    b = 2 * grid.offsets
    # runs of whole functions, starting at the function that holds number
    # 0, _CSV_CHUNK, 2 * _CSV_CHUNK, ...
    firsts = sorted(set(
        (np.searchsorted(b, np.arange(0, b[-1], _CSV_CHUNK), side="right") - 1).tolist()))
    texts = []
    for i, j in zip(firsts, firsts[1:] + [len(batch)]):
        texts += _csv_texts(numbers[b[i]:b[j]], b[i:j + 1] - b[i])
    return texts if batch is f else texts[0]


def _csv_texts(numbers: np.ndarray, bounds: np.ndarray) -> list[str]:
    """The CSV texts of the functions whose edge, value pairs are
    ``numbers[bounds[i]:bounds[i + 1]]``."""
    magnitude = np.abs(numbers)
    fixed = (magnitude == 0.0) | ((magnitude >= 1e-4) & (magnitude < 1e17))
    text, ends = _fixed_17g(np.where(fixed, numbers, 0.0))
    cuts = np.concatenate(([0], ends))[bounds].tolist()
    kernel = np.logical_and.reduceat(fixed, bounds[:-1]).tolist()
    b = bounds.tolist()
    return [_CSV_HEADER + text[cuts[i]:cuts[i + 1]] if kernel[i] else
            (_CSV_HEADER + "%.17g,%.17g\n" * ((b[i + 1] - b[i]) // 2))
            % tuple(numbers[b[i]:b[i + 1]].tolist())
            for i in range(len(kernel))]


# ``%.17g`` of numbers whose decimal exponent is -4..16, where it is fixed
# notation, as whole-array operations.  A number's 17 significant digits are
# the integer nearest to ``|x| * 10**(16 - k)`` (ties to even), k its decimal
# exponent; the product is exact as ``p + e`` (T. J. Dekker, Numer. Math. 18,
# 1971), so the digits are those of the correctly rounded ``%``.  They are
# laid out in 40 bytes, ``-0.000`` then each digit followed by a ``.``; a
# mask per (sign, exponent, trailing zeros) zeroes every byte the number's
# text does not use, and deleting the zero bytes of the whole array leaves
# the texts one after another.
_POW10 = np.array([float(10 ** s) for s in range(22)])  # exact: 5**21 < 2**53


def _halves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split ``a == hi + lo`` into halves of at most 26 bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _halves(_POW10)


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a * 10**(16 - k) == p + e`` exactly (Dekker's product), for
    ``0 <= 16 - k <= 21``."""
    s = 16 - k
    p = a * _POW10[s]
    ah, al = _halves(a)
    bh, bl = _POW10_HI[s], _POW10_LO[s]
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _fixed_17g_tables():
    """The byte layouts of a leading digit and of four digits, the trailing
    zeros of four digits, and the masks with the text lengths they keep."""
    four = np.arange(10000, dtype=np.uint16)[:, None]
    quad = np.full((10000, 8), ord("."), dtype=np.uint8)
    quad[:, ::2] = four // np.array([1000, 100, 10, 1], dtype=np.uint16) % 10 + ord("0")
    lead = np.tile(np.frombuffer(b"-0.0000.", dtype=np.uint8), (10, 1))
    lead[:, 6] += np.arange(10, dtype=np.uint8)
    zeros4 = (four % np.array([10, 100, 1000, 10000], dtype=np.uint16) == 0).sum(axis=1)
    # keep[sign, exponent + 5 (0 for the number 0), trailing zeros, byte]
    keep = np.zeros((2, 22, 17, 40), dtype=bool)
    keep[..., 39] = True  # the separator
    keep[1, ..., 0] = True
    keep[:, 0, :, 1] = True
    k = np.arange(-4, 17)[:, None, None]
    last = 16 - np.arange(17)[:, None]  # the last digit that is not a trailing zero
    digit = np.arange(17)
    keep[:, 1:, :, 1:6] = k <= np.array([-1, -1, -2, -3, -4])  # the "0.000" of k < 0
    keep[:, 1:, :, 6::2] = (digit <= last) | (digit <= k)
    keep[:, 1:, :, 7:39:2] = (digit[:16] == k) & (last > k)  # the point after digit k >= 0
    keep = keep.reshape(-1, 40)
    masks = (keep * np.uint8(255)).view(np.uint64)
    return (lead.view(np.uint64).ravel(), quad.view(np.uint64).ravel(), zeros4, masks,
            keep.sum(axis=1))


_LEAD, _QUAD, _ZEROS4, _MASKS, _LENGTHS = _fixed_17g_tables()


def _fixed_17g(x: np.ndarray) -> tuple[str, np.ndarray]:
    """``"%.17g,%.17g\n" * (x.size // 2) % tuple(x)`` for an even number of
    numbers that are 0 or of magnitude in ``[1e-4, 1e17)``, and the end of
    each number's text, its separator included, in that string."""
    a = np.abs(x)
    zero = a == 0.0
    a[zero] = 1.0  # laid out as 1, masked to the 0 of "-0.000"
    # the decimal exponent, one off where log10 rounds across a power of ten
    k = np.floor(np.log10(a)).astype(np.intp)
    np.clip(k, -5, 16, out=k)
    p, e = _scaled(a, k)
    low = (p < 1e16) | ((p == 1e16) & (e < 0.0))
    high = (p > 1e17) | ((p == 1e17) & (e >= 0.0))
    off = np.flatnonzero(low | high)
    if off.size:
        k[off] += high[off].astype(np.intp) - low[off]
        p[off], e[off] = _scaled(a[off], k[off])
    # 1e16 <= p <= 1e17 is an even integer, so rounding e half to even rounds
    # p + e half to even.  n < 10**17: were x written as 10**(k + 1), x would
    # be the double nearest that power of ten and below it, but for k + 1 in
    # -3..17 the nearest double is the power itself or lies above it
    n = p.astype(np.int64) + np.rint(e).astype(np.int64)
    high8, low8 = np.divmod(n, 10 ** 8)
    first, high8 = np.divmod(high8, 10 ** 8)
    q1, q2 = np.divmod(high8, 10 ** 4)
    q3, q4 = np.divmod(low8, 10 ** 4)
    words = np.empty((x.size, 5), dtype=np.uint64)
    _LEAD.take(first, out=words[:, 0])
    for column, q in enumerate((q1, q2, q3, q4), start=1):
        _QUAD.take(q, out=words[:, column])
    zeros = np.where(low8 == 0, 8 + np.where(q2 == 0, 4 + _ZEROS4[q1], _ZEROS4[q2]),
                     np.where(q4 == 0, 4 + _ZEROS4[q3], _ZEROS4[q4]))
    k += 5
    k[zero] = 0
    mask = (np.signbit(x) * 22 + k) * 17 + zeros
    words &= _MASKS.take(mask, axis=0)
    chars = words.view(np.uint8)
    chars[0::2, 39] = ord(",")
    chars[1::2, 39] = ord("\n")
    return (words.tobytes().translate(None, b"\0").decode("ascii"),
            np.cumsum(_LENGTHS.take(mask)))


def read_step_csv(path) -> StepFunction:
    """Parse a step function from the `edge,value` format written by
    :func:`write_step_csv`."""
    file = _csv_path(path)
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
