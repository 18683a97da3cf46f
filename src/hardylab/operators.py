"""Integral operators on step functions and the sup-min transform.

For a step function ``f`` write ``F(r) = \\int_0^r f`` and
``D(r) = \\int_0^r F``.  The transform studied here is

    ``M f(r) = sup_{0 < s < inf} | min{1/r, 1/s} \\int_0^s f(t) dt |``,

i.e. the best bound on ``|F(s)|`` penalised by ``max(r, s)``.  Because
``F`` is piecewise affine, the sup is attained either at ``s = r``, at a
grid edge, or in the constant tail beyond the support, so it can be
computed exactly by enumerating those candidates — no sampling.  Only
:class:`_CumulativeReader` evaluates ``F`` at a point; rearrange uses it too.

``rellich_inner(f, tau) = tau * M_{|f|}(tau)`` is the integrand whose
cumulative replaces ``D`` in the strengthened second-order inequality; for
non-negative ``f`` it is piecewise affine in ``tau`` with at most one extra
breakpoint per cell (where the running branch overtakes the local one).
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from .grid import (Grid, GridBatch, PolyBatch, StepBatch, StepFunction, as_batch, check_exponent,
                   check_real)
from .grid import _in_double_range, _running_max, _running_sum, _step_function
from .quadrature import _split_cells


def _antiderivative(grid: GridBatch, w0, w1, slope) -> PolyBatch:
    """``\\int_0^r`` of the piecewise affine ``w0 + w1 (t - a)`` on the cells of
    ``grid``, continued with ``slope`` beyond r_n: a running sum of
    ``w0 w + w1 w^2 / 2`` per cell of width ``w``, as piecewise quadratics."""
    w = grid.widths
    left = _running_sum(w0 * w + 0.5 * w1 * w * w, grid.offsets)
    coeffs = np.empty((w.size, 3))
    coeffs[:, 0], coeffs[:, 1], coeffs[:, 2] = left[grid.left], w0, 0.5 * w1
    return PolyBatch(grid, coeffs, left[grid.ends], slope)


@_in_double_range
def cumulative(f):
    """``F(r) = \\int_0^r f(t) dt``: piecewise affine, constant beyond r_n.

    A :class:`PiecewisePoly` for one function, a :class:`PolyBatch` for a
    :class:`StepBatch`.  Here and in the transforms below, a value beyond
    the double range raises :class:`DoubleRangeError`.
    """
    batch = as_batch(f)
    out = _antiderivative(batch.grid, batch.values, 0.0, np.zeros(len(batch.grid)))
    return out if batch is f else out.one(f.grid)


def _cumulative_edges(edges: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``F`` at the edges of one step function: :func:`cumulative`'s running sum."""
    return _running_sum(values * (edges[1:] - edges[:-1]), np.array([0, values.size]))


class _CumulativeReader:
    """``F(s)`` of one step function at one positive float ``s``, read in
    Python floats off its :func:`_cumulative_edges` ``left``: on the cell
    ``(e_i, e_(i+1)]`` holding ``s`` the affine piece ``left[i] + (s - e_i) v_i``,
    the floats of evaluating :func:`cumulative`, and beyond r_n the total
    ``left[n]``.  At an edge ``e_j`` this equals ``left[j]``."""

    __slots__ = ("edges", "values", "left")

    def __init__(self, edges: np.ndarray, values: np.ndarray):
        self.edges, self.values = edges.tolist(), values.tolist()
        self.left = _cumulative_edges(edges, values).tolist()

    def at(self, s: float) -> float:
        edges, values, left = self.edges, self.values, self.left
        n = len(values)
        if s >= edges[n]:
            return left[n]
        i = bisect_left(edges, s, 1, n) - 1
        return left[i] + (s - edges[i]) * values[i]


@_in_double_range
def double_cumulative(f):
    """``D(r) = \\int_0^r \\int_0^t f``: piecewise quadratic, affine beyond r_n."""
    batch = as_batch(f)
    F = cumulative(batch)
    out = _antiderivative(batch.grid, F.coeffs[:, 0], batch.values, F.tail_value)
    return out if batch is f else out.one(f.grid)


@_in_double_range
def supmin_candidates(f: StepFunction, r: float) -> list[tuple[float, float]]:
    """Candidate pairs ``(s, |F(s)| / max(r, s))`` whose maximum is ``M f(r)``.

    The candidates are the positive grid edges together with ``s = r``; on
    each affine piece of ``F`` the objective is maximised at one of these,
    and beyond the support it is maximised at ``max(r, r_n)`` (an edge or
    ``r`` itself), so the enumeration is exhaustive.
    """
    r = check_real(r, "radius", 0.0)
    F = _CumulativeReader(_step_function(f).grid.edges, f.values)
    masses = dict(zip(F.edges[1:], F.left[1:]))
    masses[r] = F.at(r)
    return [(s, abs(masses[s]) / (s if s > r else r)) for s in sorted(masses)]


def supmin_transform(f: StepFunction, r: float) -> float:
    """``M f(r)``, exact via candidate enumeration."""
    return max(v for _, v in supmin_candidates(f, r))


def rellich_inner(f: StepFunction, tau: float) -> float:
    """``tau * M_{|f|}(tau)`` — the integrand of the strengthened chain."""
    tau = check_real(tau, "radius", 0.0)
    return tau * supmin_transform(abs(_step_function(f)), tau)


@_in_double_range
def maxform_value(f: StepFunction, r: float, p: float) -> float:
    """``max{ sup_{s<=r} |f(s)|^p / r^p , sup_{s>=r} |f(s)|^p / s^p }``.

    Sups over ``s`` range over cell closures; on ``[r, inf)`` each cell's
    contribution is maximised at its left endpoint clipped to ``r``.  An
    overflow raises :class:`DoubleRangeError`.
    """
    r = check_real(r, "radius", 0.0)
    p = check_exponent(p)
    edges = _step_function(f).grid.edges
    a, b = edges[:-1], edges[1:]
    absv = np.abs(f.values)
    left_mask = a <= r
    first = float(np.max(absv[left_mask], initial=0.0) / r) ** p
    right_mask = b >= r
    s_left = np.maximum(a[right_mask], r)
    second = float(np.max((absv[right_mask] / s_left) ** p, initial=0.0))
    return max(first, second)


@_in_double_range
def supmin_pointwise_identity_check(f: StepFunction, r: float, p: float) -> tuple[float, float]:
    """Both sides of ``(sup_s min{1/r,1/s}|f(s)|)^p == maxform_value(f, r, p)``.

    The left side enumerates, per cell closure, the candidate points where
    ``min(1/r, 1/s) |f(s)|`` can peak (any point of a cell meeting ``(0, r]``
    scores ``|v|/r``; a cell meeting ``[r, inf)`` scores best at its left
    endpoint clipped to ``r``), takes the max, then raises to ``p``.
    """
    r = check_real(r, "radius", 0.0)
    p = check_exponent(p)
    edges = _step_function(f).grid.edges
    a, b = edges[:-1], edges[1:]
    absv = np.abs(f.values)
    candidates = [0.0]
    for i in range(f.grid.n_cells):
        if a[i] <= r:
            candidates.append(absv[i] / r)
        if b[i] >= r:
            candidates.append(absv[i] / max(a[i], r))
    lhs = float(max(candidates)) ** p
    rhs = maxform_value(f, r, p)
    return lhs, float(rhs)


# --------------------------------------------------------------------------
# Branch structure of M f along the grid (shared by the integral routines)
# --------------------------------------------------------------------------


@_in_double_range
def supmin_branches(f):
    """Per-cell data describing ``M f`` on cell ``i = 0..n-1``.

    Returns ``(F_edges, prefix, suffix)`` where ``F_edges[j] = F(edges[j])``,
    ``prefix[j] = max_{l <= j} |F_edges[l]|`` and
    ``suffix[i] = max_{j >= i+1} |F_edges[j]| / edges[j]``.  On cell ``i``
    (radii ``edges[i] < r <= edges[i+1]``) the transform is

        ``M f(r) = max( prefix[i] / r, |F(r)| / r, suffix[i] )``

    — past peak, local value, or best future edge — and beyond the support
    ``M f(r) = prefix[n] / r``.  ``F`` at the edges is the running sum of
    ``values * widths``, as in :func:`_cumulative_edges`: the floats of
    :func:`cumulative` but for the sign of a zero.  For a :class:`StepBatch`
    the arrays run over all functions in turn, per edge (``F_edges``,
    ``prefix``) or per cell (``suffix``).
    """
    batch = as_batch(f)
    grid = batch.grid
    F_edges = _running_sum(batch.values * grid.widths, grid.offsets)
    absF = np.abs(F_edges)
    prefix = _running_max(absF, grid.offsets + np.arange(len(grid) + 1))
    suffix = _running_max(absF[grid.right] / grid.b, grid.offsets, reverse=True)
    return F_edges, prefix, suffix


@_in_double_range
def inner_cumulative(f):
    """Exact ``G(r) = \\int_0^r rellich_inner(f, tau) dtau``.

    For the non-negative ``|f|`` the cumulative ``F`` is non-decreasing, so
    ``rellich_inner(f, tau) = max( F(tau), tau * suffix[i] )`` on cell ``i``
    — piecewise affine with at most one branch crossing per cell.  Crossing
    radii become extra grid edges, making the returned quadratic-piece
    polynomial exact; beyond the support the slope is the total mass of |f|.
    All pieces are built at once; the running integral is a running sum,
    which adds in the same order as a loop over the pieces would.
    """
    absf = abs(as_batch(f))
    F_edges, _, suffix = supmin_branches(absf)
    grid = absf.grid
    a, u, v = grid.a, F_edges[grid.left], absf.values
    # branch crossing; v == suffix gives inf or NaN, which _split_cells drops
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = (v * a - u) / (v - suffix)
    lo, hi, cell, bounds = _split_cells(a, grid.b, grid.offsets, t)
    a, u, v, sb = a[cell], u[cell], v[cell], suffix[cell]
    mid = 0.5 * (lo + hi)
    local = u + v * (mid - a) >= sb * mid
    w0 = np.where(local, u + v * (lo - a), sb * lo)
    w1 = np.where(local, v, sb)
    pieces = GridBatch.from_intervals(lo, hi, bounds)
    out = _antiderivative(pieces, w0, w1, F_edges[grid.ends])
    return out if isinstance(f, StepBatch) else out.one(Grid(pieces.edges))
