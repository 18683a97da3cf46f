"""Integral operators on step functions and the sup-min transform.

For a step function ``f`` write ``F(r) = \\int_0^r f`` and
``D(r) = \\int_0^r F``.  The transform studied here is

    ``M f(r) = sup_{0 < s < inf} | min{1/r, 1/s} \\int_0^s f(t) dt |``,

i.e. the best bound on ``|F(s)|`` penalised by ``max(r, s)``.  Because
``F`` is piecewise affine, the sup is attained either at ``s = r``, at a
grid edge, or in the constant tail beyond the support, so it can be
computed exactly by enumerating those candidates — no sampling.

``rellich_inner(f, tau) = tau * M_{|f|}(tau)`` is the integrand whose
cumulative replaces ``D`` in the strengthened second-order inequality; for
non-negative ``f`` it is piecewise affine in ``tau`` with at most one extra
breakpoint per cell (where the running branch overtakes the local one).
"""

from __future__ import annotations

import numpy as np

from .grid import (Grid, GridBatch, PolyBatch, StepBatch, StepFunction, as_batch, check_exponent,
                   check_real)
from .grid import _running_max, _running_sum, _sorted_unique, _step_function
from .quadrature import _split_cells


def _columns(*cols) -> np.ndarray:
    """Polynomial coefficients ``(c0, c1, c2)`` per cell; missing ones are 0."""
    coeffs = np.zeros((cols[0].size, 3))
    for k, col in enumerate(cols):
        coeffs[:, k] = col
    return coeffs


def cumulative(f):
    """``F(r) = \\int_0^r f(t) dt``: piecewise affine, constant beyond r_n.

    A :class:`PiecewisePoly` for one function, a :class:`PolyBatch` for a
    :class:`StepBatch`.
    """
    batch = as_batch(f)
    grid, v = batch.grid, batch.values
    left = _running_sum(v * grid.widths, grid.offsets)
    out = PolyBatch(grid, _columns(left[grid.left], v), left[grid.ends], np.zeros(len(grid)))
    return out if batch is f else out.one(f.grid)


def _cumulative_at(edges: np.ndarray, values: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``F(s)`` of one step function at positive ``s``, without building
    :func:`cumulative`: its running sum and its affine piece at ``s``, so the
    floats are those of evaluating it."""
    left = _running_sum(values * (edges[1:] - edges[:-1]), np.array([0, values.size]))
    idx = edges[1:-1].searchsorted(s)  # the cell holding s; the last one beyond r_n
    return np.where(s > edges[-1], left[-1], left[idx] + (s - edges[idx]) * values[idx])


def double_cumulative(f):
    """``D(r) = \\int_0^r \\int_0^t f``: piecewise quadratic, affine beyond r_n."""
    batch = as_batch(f)
    grid, v = batch.grid, batch.values
    w = grid.widths
    F_left = _running_sum(v * w, grid.offsets)
    F_a = F_left[grid.left]
    D_left = _running_sum(F_a * w + 0.5 * v * w * w, grid.offsets)
    out = PolyBatch(grid, _columns(D_left[grid.left], F_a, 0.5 * v),
                    D_left[grid.ends], F_left[grid.ends])
    return out if batch is f else out.one(f.grid)


def supmin_candidates(f: StepFunction, r: float) -> list[tuple[float, float]]:
    """Candidate pairs ``(s, |F(s)| / max(r, s))`` whose maximum is ``M f(r)``.

    The candidates are the positive grid edges together with ``s = r``; on
    each affine piece of ``F`` the objective is maximised at one of these,
    and beyond the support it is maximised at ``max(r, r_n)`` (an edge or
    ``r`` itself), so the enumeration is exhaustive.
    """
    r = check_real(r, "radius", 0.0)
    edges = _step_function(f).grid.edges
    s = _sorted_unique(np.concatenate([edges[1:], [r]]))
    vals = np.abs(_cumulative_at(edges, f.values, s)) / np.maximum(s, r)
    return list(zip(s.tolist(), vals.tolist()))


def supmin_transform(f: StepFunction, r: float) -> float:
    """``M f(r)``, exact via candidate enumeration."""
    return max(v for _, v in supmin_candidates(f, r))


def rellich_inner(f: StepFunction, tau: float) -> float:
    """``tau * M_{|f|}(tau)`` — the integrand of the strengthened chain."""
    tau = check_real(tau, "radius", 0.0)
    return tau * supmin_transform(abs(_step_function(f)), tau)


def maxform_value(f: StepFunction, r: float, p: float) -> float:
    """``max{ sup_{s<=r} |f(s)|^p / r^p , sup_{s>=r} |f(s)|^p / s^p }``.

    Sups over ``s`` range over cell closures; on ``[r, inf)`` each cell's
    contribution is maximised at its left endpoint clipped to ``r``.
    """
    r = check_real(r, "radius", 0.0)
    p = check_exponent(p)
    edges = _step_function(f).grid.edges
    a = edges[:-1]
    b = edges[1:]
    absv = np.abs(f.values)
    left_mask = a <= r
    first = float(np.max(absv[left_mask], initial=0.0)) ** p / r ** p
    right_mask = b >= r
    s_left = np.maximum(a[right_mask], r)
    second = float(np.max((absv[right_mask] / s_left) ** p, initial=0.0))
    return max(first, second)


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
    a = edges[:-1]
    b = edges[1:]
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


def supmin_branches(f):
    """Per-cell data describing ``M f`` on cell ``i = 0..n-1``.

    Returns ``(F_edges, prefix, suffix)`` where ``F_edges[j] = F(edges[j])``,
    ``prefix[j] = max_{l <= j} |F_edges[l]|`` and
    ``suffix[i] = max_{j >= i+1} |F_edges[j]| / edges[j]``.  On cell ``i``
    (radii ``edges[i] < r <= edges[i+1]``) the transform is

        ``M f(r) = max( prefix[i] / r, |F(r)| / r, suffix[i] )``

    — past peak, local value, or best future edge — and beyond the support
    ``M f(r) = prefix[n] / r``.  ``F`` at the edges is read off the running
    sums of :func:`cumulative` (its constant coefficients and tail value).
    For a :class:`StepBatch` the arrays run over all functions in turn, per
    edge (``F_edges``, ``prefix``) or per cell (``suffix``).
    """
    batch = as_batch(f)
    F = cumulative(batch)
    grid = batch.grid
    F_edges = np.empty(grid.edges.size)
    F_edges[grid.left] = F.coeffs[:, 0]
    F_edges[grid.ends] = F.tail_value
    absF = np.abs(F_edges)
    prefix = _running_max(absF, grid.offsets + np.arange(len(grid) + 1))
    suffix = _running_max(absF[grid.right] / grid.b, grid.offsets, reverse=True)
    return F_edges, prefix, suffix


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
    width = hi - lo
    g = _running_sum((w0 + 0.5 * w1 * width) * width, bounds)
    pieces = GridBatch.from_intervals(lo, hi, bounds)
    out = PolyBatch(pieces, _columns(g[pieces.left], w0, 0.5 * w1),
                    g[pieces.ends], F_edges[grid.ends])
    return out if isinstance(f, StepBatch) else out.one(Grid(pieces.edges))
