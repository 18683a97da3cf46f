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

from .errors import InvalidParameterError
from .grid import Grid, PiecewisePoly, StepFunction, check_exponent
from .grid import _cell_cuts, _sorted_unique


def cumulative(f: StepFunction) -> PiecewisePoly:
    """``F(r) = \\int_0^r f(t) dt``: piecewise affine, constant beyond r_n."""
    v = f.values
    w = f.grid.widths
    left = np.concatenate([[0.0], np.cumsum(v * w)])
    coeffs = np.column_stack([left[:-1], v, np.zeros_like(v)])
    return PiecewisePoly(f.grid, coeffs, tail_value=float(left[-1]), tail_slope=0.0)


def double_cumulative(f: StepFunction) -> PiecewisePoly:
    """``D(r) = \\int_0^r \\int_0^t f``: piecewise quadratic, affine beyond r_n."""
    v = f.values
    w = f.grid.widths
    F_left = np.concatenate([[0.0], np.cumsum(v * w)])
    cell_area = F_left[:-1] * w + 0.5 * v * w * w
    D_left = np.concatenate([[0.0], np.cumsum(cell_area)])
    coeffs = np.column_stack([D_left[:-1], F_left[:-1], 0.5 * v])
    return PiecewisePoly(f.grid, coeffs,
                         tail_value=float(D_left[-1]), tail_slope=float(F_left[-1]))


def _check_radius(r: float) -> float:
    r = float(r)
    if not np.isfinite(r) or r <= 0.0:
        raise InvalidParameterError(f"radius must be positive and finite, got {r}")
    return r


def supmin_candidates(f: StepFunction, r: float) -> list[tuple[float, float]]:
    """Candidate pairs ``(s, |F(s)| / max(r, s))`` whose maximum is ``M f(r)``.

    The candidates are the positive grid edges together with ``s = r``; on
    each affine piece of ``F`` the objective is maximised at one of these,
    and beyond the support it is maximised at ``max(r, r_n)`` (an edge or
    ``r`` itself), so the enumeration is exhaustive.
    """
    r = _check_radius(r)
    F = cumulative(f)
    edges = f.grid.edges
    s = _sorted_unique(np.concatenate([edges[1:], [r]]))
    vals = np.abs(F.evaluate(s)) / np.maximum(s, r)
    return list(zip(s.tolist(), vals.tolist()))


def supmin_transform(f: StepFunction, r: float) -> float:
    """``M f(r)``, exact via candidate enumeration."""
    return max(v for _, v in supmin_candidates(f, r))


def rellich_inner(f: StepFunction, tau: float) -> float:
    """``tau * M_{|f|}(tau)`` — the integrand of the strengthened chain."""
    tau = _check_radius(tau)
    return tau * supmin_transform(abs(f), tau)


def maxform_value(f: StepFunction, r: float, p: float) -> float:
    """``max{ sup_{s<=r} |f(s)|^p / r^p , sup_{s>=r} |f(s)|^p / s^p }``.

    Sups over ``s`` range over cell closures; on ``[r, inf)`` each cell's
    contribution is maximised at its left endpoint clipped to ``r``.
    """
    r = _check_radius(r)
    p = check_exponent(p)
    edges = f.grid.edges
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
    r = _check_radius(r)
    p = check_exponent(p)
    edges = f.grid.edges
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


def supmin_branches(f: StepFunction):
    """Per-cell data describing ``M f`` on cell ``i = 0..n-1``.

    Returns ``(F_edges, prefix, suffix)`` where ``F_edges[j] = F(edges[j])``,
    ``prefix[i] = max_{j <= i} |F_edges[j]|`` and
    ``suffix[i] = max_{j >= i+1} |F_edges[j]| / edges[j]``.  On cell ``i``
    (radii ``edges[i] < r <= edges[i+1]``) the transform is

        ``M f(r) = max( prefix[i] / r, |F(r)| / r, suffix[i] )``

    — past peak, local value, or best future edge — and beyond the support
    ``M f(r) = prefix[n] / r``.
    """
    F = cumulative(f)
    edges = f.grid.edges
    F_edges = F.evaluate(edges)
    absF = np.abs(F_edges)
    prefix = np.maximum.accumulate(absF)
    ratios = absF[1:] / edges[1:]
    suffix = np.maximum.accumulate(ratios[::-1])[::-1]
    return F_edges, prefix, suffix


def inner_cumulative(f: StepFunction) -> PiecewisePoly:
    """Exact ``G(r) = \\int_0^r rellich_inner(f, tau) dtau``.

    For the non-negative ``|f|`` the cumulative ``F`` is non-decreasing, so
    ``rellich_inner(f, tau) = max( F(tau), tau * suffix[i] )`` on cell ``i``
    — piecewise affine with at most one branch crossing per cell.  Crossing
    radii become extra grid edges, making the returned quadratic-piece
    polynomial exact; beyond the support the slope is the total mass of |f|.
    All pieces are built at once; the running integral is a ``cumsum``,
    which adds in the same order as a loop over the pieces would.
    """
    absf = abs(f)
    F_edges, _, suffix = supmin_branches(absf)
    edges = absf.grid.edges
    a, u, v = edges[:-1], F_edges[:-1], absf.values
    # branch crossing; v == suffix gives inf or NaN, which _cell_cuts drops
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = (v * a - u) / (v - suffix)
    cuts = _cell_cuts(edges, t)
    lo, hi = cuts[:-1], cuts[1:]
    cell = np.searchsorted(edges, lo, side="right") - 1
    a, u, v, sb = a[cell], u[cell], v[cell], suffix[cell]
    mid = 0.5 * (lo + hi)
    local = u + v * (mid - a) >= sb * mid
    w0 = np.where(local, u + v * (lo - a), sb * lo)
    w1 = np.where(local, v, sb)
    width = hi - lo
    g = np.cumsum(np.concatenate(([0.0], (w0 + 0.5 * w1 * width) * width)))
    return PiecewisePoly(Grid(np.concatenate(([0.0], hi))),
                         np.column_stack((g[:-1], w0, 0.5 * w1)),
                         tail_value=g[-1], tail_slope=float(F_edges[-1]))
