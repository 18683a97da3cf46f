"""Grids on the half line, step functions, and weighted-power integration.

Functions are modelled as right-continuous step functions supported on a
finite partition ``0 = r_0 < r_1 < ... < r_n`` of ``[0, r_n]``: the value
``v_i`` is taken on the half-open cell ``(r_{i-1}, r_i]`` and the function
vanishes identically beyond ``r_n``.  Antiderivatives of step functions are
piecewise polynomials of degree <= 2 with an affine closed-form tail, which
is what :class:`PiecewisePoly` stores.

The central quadrature routine is :func:`integrate_weighted_power`, which
evaluates ``\\int_0^\\infty r^alpha |P(r)|^p dr`` for a piecewise polynomial
``P``.  The integrand is singular at the origin and algebraically decaying at
infinity, so the implementation splits cells at the roots of ``P`` (the only
kinks of ``|P|^p``), refines the first cell geometrically when ``alpha < 0``,
and integrates the tail after the substitution ``u = r_n / r``.  To dodge
overflow for radii far below 1 the integrand is always evaluated in the
fused form ``(|P(r)| * r^(alpha/p))^p``.

The quadrature intervals are built with whole-array numpy operations, not a
loop over cells: the roots of all cells at once, one sorted cut array over
the whole grid, and one ``searchsorted`` to find each interval's cell.  The
intervals equal, bit for bit, those of the per-cell loop kept in
``tests/interval_loops.py``.

Index
-----
check_exponent            validate a Lebesgue exponent ``1 < p < inf``
Grid, StepFunction        the basic data model
PiecewisePoly             degree <= 2 pieces + affine tail, exact evaluation
make_graded_grid          uniform or geometrically graded partitions
step_function             convenience constructor from plain sequences
p_norm                    ``\\int |f|^p`` (p-th power mass) for step functions
integrate_weighted_power  weighted p-th power integral of a PiecewisePoly
read_step_csv, write_step_csv   round-trippable `edge,value` serialisation
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import DivergentIntegralError, InvalidParameterError, MalformedCSVError

DEFAULT_QUAD_ORDER = 16

# Geometric refinement of the leading cell (and of the tail in u-coordinates):
# 16 sub-cells with ratio 2 tame the r^alpha singularity for Gauss-Legendre.
_ORIGIN_SUBCELLS = 16

_EPS = float(np.finfo(float).eps)


def check_exponent(p: float) -> float:
    """Validate and return the Lebesgue exponent ``p`` (finite, ``p > 1``)."""
    try:
        p = float(p)
    except (TypeError, ValueError):
        raise InvalidParameterError(f"exponent must be a real number, got {p!r}") from None
    if not math.isfinite(p) or p <= 1.0:
        raise InvalidParameterError(f"exponent must satisfy 1 < p < inf, got {p}")
    return p


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


def p_norm(f: StepFunction, p: float) -> float:
    """``\\int_0^\\infty |f|^p dr`` — the p-th power mass, exact for step functions."""
    p = check_exponent(p)
    terms = np.abs(f.values) ** p * f.grid.widths
    return math.fsum(terms.tolist())


# --------------------------------------------------------------------------
# Weighted p-th power quadrature
# --------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _gauss_legendre(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values.

    Same result as ``np.unique``, which on numpy 2.x imports ``numpy.ma`` on
    first use (about 10 ms of start-up and 1.7 MB resident).
    """
    values = np.sort(values)
    return values[np.concatenate(([True], values[1:] != values[:-1]))]


def _cell_cuts(edges: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Sorted cut array: the grid edges plus every point strictly inside its cell.

    ``points`` holds candidate breakpoints with one column per cell (shape
    ``(k, n_cells)`` or ``(n_cells,)``); points outside their cell, inf and
    NaN are dropped.  A kept point lies strictly inside its own cell, so one
    sort over the whole grid gives every cell's cuts, in order.
    """
    a, b = edges[:-1], edges[1:]
    return _sorted_unique(np.concatenate((edges, points[(a < points) & (points < b)])))


def _cap_interval_ratio(cuts: np.ndarray) -> np.ndarray:
    """Insert geometric points so no interval has hi/lo > 2 (for lo > 0).

    Gauss-Legendre accuracy on an interval near the r = 0 singularity is
    governed by hi/lo; capping the ratio keeps every interval spectrally
    resolved regardless of how coarse the caller's grid is.  Each interval
    ``(lo, hi)`` gains the points ``lo * 2^j`` (j = 1, 2, ...) below
    ``hi * (1 - 1e-12)``.  Doubling is exact, and the number of points is
    read off the binary exponents: ``log2(hi / lo)`` would overflow for
    ``lo`` below about 1e-308.
    """
    lo, hi = cuts[:-1], cuts[1:]
    m_lo, e_lo = np.frexp(lo)
    m_thr, e_thr = np.frexp(hi * (1.0 - 1e-12))
    # lo * 2^j < thr  <=>  e_lo + j < e_thr, or e_lo + j == e_thr and m_lo < m_thr
    k = np.where(lo > 0.0, np.maximum(e_thr - e_lo - (m_lo >= m_thr), 0), 0)
    reps = k + 1
    interval = np.repeat(np.arange(lo.size), reps)
    j = np.arange(interval.size) - np.repeat(np.cumsum(reps) - reps, reps)
    out = hi[interval]
    inserted = j < k[interval]
    out[inserted] = np.ldexp(lo[interval[inserted]], j[inserted] + 1)
    return np.concatenate((cuts[:1], out))


def _cell_intervals(P: PiecewisePoly, alpha: float):
    """Quadrature intervals (lo, hi, x0, coefs) covering (0, r_n].

    Cells are split at interior roots of P (kinks of |P|^p), the first cell
    is refined geometrically towards the origin when alpha < 0, and interval
    edge ratios are capped near the singularity.  The roots of all cells
    are computed at once; each interval then finds its cell with one
    ``searchsorted``.
    """
    edges = P.grid.edges
    c0, c1, c2 = P.coeffs.T
    # Real roots of c0 + c1 t + c2 t^2 in the numerically stable form.  No
    # root (c1 = c2 = 0, or a negative discriminant) and a division by a
    # zero q come out as inf or NaN, which never lie strictly inside a cell.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sq = np.sqrt(c1 * c1 - 4.0 * c2 * c0)
        q = -0.5 * (c1 + np.where(c1 != 0.0, np.copysign(sq, c1), sq))
        linear = c2 == 0.0
        roots = edges[:-1] + np.stack((np.where(linear, -c0 / c1, q / c2),
                                       np.where(linear, np.nan, c0 / q)))
    cuts = _cell_cuts(edges, roots)
    if alpha < 0.0:
        # geometric refinement of the leading piece towards r = 0
        sub = cuts[1] * 2.0 ** np.arange(-(_ORIGIN_SUBCELLS - 1), 1.0)
        cuts = _cap_interval_ratio(np.concatenate(([0.0], sub, cuts[2:])))
    lo, hi = cuts[:-1], cuts[1:]
    cell = np.searchsorted(edges, lo, side="right") - 1
    return lo, hi, edges[cell], P.coeffs[cell]


def _integrate_intervals(lo, hi, x0, coefs, alpha: float, p: float, order: int) -> float:
    x, w = _gauss_legendre(order)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    r = mid[:, None] + half[:, None] * x[None, :]
    loc = r - x0[:, None]
    vals = coefs[:, 0, None] + loc * (coefs[:, 1, None] + loc * coefs[:, 2, None])
    # fused form: r^alpha |P|^p == (|P| * r^(alpha/p))^p, safe far below r = 1
    t = np.abs(vals) * r ** (alpha / p)
    contrib = (t ** p) @ w * half
    return math.fsum(contrib.tolist())


def _tail_integral(R: float, t0: float, t1: float, alpha: float, p: float,
                   order: int) -> float:
    """``\\int_R^\\infty r^alpha |t0 + t1 (r - R)|^p dr`` (closed tail)."""
    if t0 == 0.0 and t1 == 0.0:
        return 0.0
    deg = 1 if t1 != 0.0 else 0
    if alpha + p * deg >= -1.0:
        raise DivergentIntegralError(
            f"tail integrand decays like r^{alpha + p * deg:g}, not integrable near infinity"
        )
    if t1 == 0.0:
        return abs(t0) ** p * R ** (alpha + 1.0) / (-(alpha + 1.0))
    # substitute u = R / r:  integral = R^(alpha+1) *
    #   \int_0^1 u^(-alpha-p-2) |t0 u + t1 R (1-u)|^p du
    beta = -alpha - p - 2.0
    cuts = np.concatenate([[0.0], 2.0 ** np.arange(-(_ORIGIN_SUBCELLS - 1), 1.0)])
    lin0 = t1 * R              # affine integrand factor: lin0 + (t0 - lin0) * u
    lin1 = t0 - lin0
    if lin1 != 0.0:
        u_root = -lin0 / lin1
        if 0.0 < u_root < 1.0:
            cuts = _sorted_unique(np.concatenate([cuts, [u_root]]))
    x, w = _gauss_legendre(order)
    lo = cuts[:-1]
    hi = cuts[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    u = mid[:, None] + half[:, None] * x[None, :]
    t = np.abs(lin0 + lin1 * u) * u ** (beta / p)
    contrib = (t ** p) @ w * half
    return R ** (alpha + 1.0) * math.fsum(contrib.tolist())


def _check_origin_convergence(P: PiecewisePoly, alpha: float, p: float) -> None:
    c0, c1, c2 = (float(c) for c in P.coeffs[0])
    if c0 != 0.0:
        vanishing = 0
    elif c1 != 0.0:
        vanishing = 1
    elif c2 != 0.0:
        vanishing = 2
    else:
        return  # P vanishes identically near the origin
    if alpha + p * vanishing <= -1.0:
        raise DivergentIntegralError(
            f"integrand behaves like r^{alpha + p * vanishing:g} near 0, not integrable"
        )


def _estimate(fine: float, coarse: float) -> float:
    """Error indicator: fine against coarse value, floored at 32 ulps of both."""
    return abs(fine - coarse) + 32.0 * _EPS * (abs(fine) + abs(coarse))


def _quad_value(P: PiecewisePoly, intervals, alpha: float, p: float, order: int) -> float:
    body = _integrate_intervals(*intervals, alpha, p, order)
    tail = _tail_integral(P.grid.support_end, P.tail_value, P.tail_slope, alpha, p, order)
    total = body + tail
    if not math.isfinite(total):
        raise DivergentIntegralError("quadrature produced a non-finite value")
    return total


def integrate_weighted_power(P: PiecewisePoly, alpha: float, p: float,
                             quad_order: int = DEFAULT_QUAD_ORDER, *,
                             return_estimate: bool = False):
    """``\\int_0^\\infty r^alpha |P(r)|^p dr``.

    Divergence at either end raises :class:`DivergentIntegralError`.  With
    ``return_estimate=True`` the result is a pair ``(value, estimate)`` where
    ``estimate`` compares the value against a half-order recomputation; it is
    an observed error indicator, not a rigorous bound.
    """
    p = check_exponent(p)
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise InvalidParameterError(f"weight exponent must be finite, got {alpha}")
    quad_order = int(quad_order)
    if quad_order < 2:
        raise InvalidParameterError(f"quadrature order must be >= 2, got {quad_order}")
    _check_origin_convergence(P, alpha, p)
    intervals = _cell_intervals(P, alpha)
    value = _quad_value(P, intervals, alpha, p, quad_order)
    if not return_estimate:
        return value
    coarse = _quad_value(P, intervals, alpha, p, max(2, quad_order // 2))
    return value, _estimate(value, coarse)


# --------------------------------------------------------------------------
# CSV round trip
# --------------------------------------------------------------------------


def write_step_csv(f: StepFunction, path) -> None:
    """Write ``f`` to `edge,value` CSV (first row is the origin edge)."""
    Path(path).write_text(step_csv_text(f), encoding="utf-8")


def step_csv_text(f: StepFunction) -> str:
    lines = ["edge,value", "0,"]
    for e, v in zip(f.grid.edges[1:], f.values):
        lines.append(f"{e:.17g},{v:.17g}")
    return "\n".join(lines) + "\n"


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
