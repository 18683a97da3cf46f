"""Weighted p-th power quadrature on batches of piecewise polynomials.

The central routine is :func:`integrate_weighted_power`, which evaluates
``\\int_0^\\infty r^alpha |P(r)|^p dr`` for every piecewise polynomial ``P`` of
a batch (a single :class:`PiecewisePoly` is a batch of one).  The integrand
is singular at the origin and algebraically decaying at infinity, so cells
are split at the roots of ``P`` (the only kinks of ``|P|^p``) and the first
cell is refined geometrically when ``alpha < 0``.  Beyond ``r_n`` a constant
tail has a closed form; a sloped one is integrated after the substitution
``u = r_n / r`` on (0, 1], refined the same way.  To dodge overflow for
radii far below 1 the integrand is always evaluated in the fused form
``(|P(r)| * r^(alpha/p))^p``.

The quadrature intervals of all cells of all functions are built with
whole-array numpy operations; they equal, bit for bit, those of the
per-cell loop kept in ``tests/interval_loops.py``.  Each integral job is
done in one place, shared with :mod:`hardylab.inequalities`: one
Gauss-Legendre routine, :func:`_quadrature`, for the body, the sloped tails
and the sup-min integrals; one geometric step table for the first cell and
the sloped tails; one closed form, :func:`_power_tail`, for every constant
tail.

The rule is fixed: :data:`QUAD_ORDER` (16) nodes per interval; the error
indicator compares it with the half-order rule, evaluated in the same pass.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DivergentIntegralError, InvalidParameterError
from .grid import (GridBatch, PiecewisePoly, PolyBatch, _fsums, _in_double_range, check_exponent,
                   check_real)

QUAD_ORDER = 16

# Geometric refinement of the leading cell (and of the tail in u-coordinates):
# 16 sub-cells with ratio 2 tame the r^alpha singularity for Gauss-Legendre.
_ORIGIN_SUBCELLS = 16

_EPS = float(np.finfo(float).eps)


# The interval functions below work in ragged form: arrays ``lo`` and
# ``hi`` over the intervals of all functions in turn, ``parent`` (the cell or
# interval each one came from) and ``bounds`` (function ``k`` owns intervals
# ``bounds[k]:bounds[k + 1]``).  None looks across a function boundary,
# so a function's intervals do not depend on the batch it is in.


@lru_cache(maxsize=None)
def _gauss_legendre(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _split_cells(lo, hi, bounds, points):
    """Cut every interval at its candidate points strictly inside it.

    ``points`` holds candidates with one column per interval (shape
    ``(k, n)`` or ``(n,)``); points outside their interval, inf, NaN and
    repeats are dropped.  Each kept point finds its place by counting the
    kept points of its interval below it, so no sort runs across intervals.
    The result equals sorting each function's edges and kept points
    together.  Returns ``(lo, hi, parent, bounds)``.
    """
    pts = np.atleast_2d(points)
    keep = (lo < pts) & (pts < hi)
    if not keep.any():
        return lo, hi, np.arange(lo.size), bounds
    rank = 0
    if pts.shape[0] > 1:
        pts = np.where(keep, pts, np.nan)
        earlier = np.tri(pts.shape[0], k=-1, dtype=bool)[:, :, None]  # [i, j]: j < i
        keep &= ~((pts[:, None] == pts[None, :]) & earlier).any(axis=1)
        rank = ((pts[None, :] < pts[:, None]) & keep[None, :]).sum(axis=1)[keep]
    counts = 1 + keep.sum(axis=0)
    stops = np.cumsum(counts)
    parent = np.repeat(np.arange(lo.size), counts)
    new_lo, new_hi = lo[parent], hi[parent]
    at = (stops - counts)[np.nonzero(keep)[1]] + 1 + rank
    new_lo[at] = new_hi[at - 1] = pts[keep]
    return new_lo, new_hi, parent, np.concatenate(([0], stops))[bounds]


_ORIGIN_STEPS = 2.0 ** np.arange(-(_ORIGIN_SUBCELLS - 1), 1.0)
_SUBCELL = np.arange(_ORIGIN_SUBCELLS)


def _refine_origin(lo, hi, parent, bounds):
    """Split each function's first interval ``(0, c]`` at ``c * 2^-j``,
    ``j = 1 .. 15``: geometric sub-cells that tame an ``r^alpha`` singularity."""
    first = bounds[:-1]
    shift = (_ORIGIN_SUBCELLS - 1) * np.arange(bounds.size)
    at = (first + shift[:-1])[:, None] + _SUBCELL   # new positions of the sub-cells
    reps = np.ones(lo.size, dtype=np.intp)
    reps[first] = _ORIGIN_SUBCELLS
    take = np.repeat(np.arange(lo.size), reps)
    sub = hi[first][:, None] * _ORIGIN_STEPS
    lo, hi = lo[take], hi[take]
    hi[at] = sub
    lo[at[:, 1:]] = sub[:, :-1]
    return lo, hi, parent[take], bounds + shift


def _cap_interval_ratio(lo, hi, parent, bounds):
    """Insert geometric points so no interval has hi/lo > 2 (for lo > 0).

    Gauss-Legendre accuracy on an interval near the r = 0 singularity is
    governed by hi/lo; capping the ratio keeps every interval spectrally
    resolved regardless of how coarse the caller's grid is.  Each interval
    ``(lo, hi)`` gains the points ``lo * 2^j`` (j = 1, 2, ...) below
    ``hi * (1 - 1e-12)``.  Doubling is exact, and the number of points is
    read off the binary exponents: ``log2(hi / lo)`` would overflow for
    ``lo`` below about 1e-308.  When no interval needs a point the
    intervals come back unchanged.
    """
    m_lo, e_lo = np.frexp(lo)
    m_thr, e_thr = np.frexp(hi * (1.0 - 1e-12))
    # lo * 2^j < thr  <=>  e_lo + j < e_thr, or e_lo + j == e_thr and m_lo < m_thr
    k = np.where(lo > 0.0, np.maximum(e_thr - e_lo - (m_lo >= m_thr), 0), 0)
    if not k.any():
        return lo, hi, parent, bounds
    reps = k + 1
    take = np.repeat(np.arange(lo.size), reps)
    j = np.arange(take.size) - np.repeat(np.cumsum(reps) - reps, reps)
    inserted = j < k[take]
    new_hi = hi[take]
    new_hi[inserted] = np.ldexp(lo[take[inserted]], j[inserted] + 1)
    return (np.ldexp(lo[take], j), new_hi, parent[take],
            np.concatenate(([0], np.cumsum(reps)))[bounds])


def _poly_batch(P) -> PolyBatch:
    """``P`` as a polynomial batch: a :class:`PiecewisePoly` becomes a batch
    of one; a :class:`PolyBatch` is returned as it is.  Anything else raises
    an :class:`InvalidParameterError`."""
    if isinstance(P, PolyBatch):
        return P
    if not isinstance(P, PiecewisePoly):
        raise InvalidParameterError(f"expected a piecewise polynomial, got {type(P).__name__}")
    return PolyBatch(GridBatch(P.grid.edges, np.array([0, P.grid.n_cells])), P.coeffs,
                     np.array([P.tail_value]), np.array([P.tail_slope]))


def _cell_intervals(P, alpha: float):
    """Quadrature intervals ``(lo, hi, x0, coefs, bounds)`` covering (0, r_n].

    Cells are split at interior roots of P (kinks of |P|^p), each
    function's first piece is refined geometrically towards the origin when
    alpha < 0, and interval edge ratios are then capped near the
    singularity.  ``x0`` and ``coefs`` are the left edge and coefficients
    of each interval's cell.
    """
    P = _poly_batch(P)
    grid = P.grid
    a = grid.a
    c0, c1, c2 = P.coeffs.T
    # Real roots of c0 + c1 t + c2 t^2 in the numerically stable form.  No
    # root (c1 = c2 = 0, or a negative discriminant) and a division by a
    # zero q come out as inf or NaN, which never lie strictly inside a cell.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sq = np.sqrt(c1 * c1 - 4.0 * c2 * c0)
        q = -0.5 * (c1 + np.where(c1 != 0.0, np.copysign(sq, c1), sq))
        linear = c2 == 0.0
        roots = a + np.stack((np.where(linear, -c0 / c1, q / c2),
                              np.where(linear, np.nan, c0 / q)))
    intervals = _split_cells(a, grid.b, grid.offsets, roots)
    if alpha < 0.0:
        intervals = _cap_interval_ratio(*_refine_origin(*intervals))
    lo, hi, cell, bounds = intervals
    return lo, hi, a[cell], P.coeffs[cell], bounds


# The nodes of the fine rule (QUAD_ORDER) and of the coarse, half-order one
# side by side, and per rule its column block ``(start, stop, weights)``.
_NODES = np.concatenate([_gauss_legendre(n)[0] for n in (QUAD_ORDER, QUAD_ORDER // 2)])
_RULES = ((0, QUAD_ORDER, _gauss_legendre(QUAD_ORDER)[1]),
          (QUAD_ORDER, _NODES.size, _gauss_legendre(QUAD_ORDER // 2)[1]))


# Intervals per node pass: a pass works on (intervals, nodes) matrices, and
# cutting a batch's intervals into chunks of this size bounds their memory.
_NODE_CHUNK = 512


def _quadrature(integrand, lo, hi, bounds, *columns):
    """Per-function Gauss-Legendre totals over the intervals ``(lo, hi)``.

    ``integrand(r, *rows)`` gets the nodes ``r`` of a chunk of intervals (one
    row per interval, the fine rule's column block, then the coarse one's)
    and the matching rows of ``columns``, and returns a list of integrand
    matrices.  The result holds, for each matrix, the pair (fine, coarse) of
    lists of per-function totals.  ``einsum`` adds each row in the same order
    whatever the matrix shape (BLAS ``gemv`` does not), so no total depends
    on the batch or the chunking.
    """
    terms = None
    for s in range(0, max(lo.size, 1), _NODE_CHUNK):
        e = s + _NODE_CHUNK
        c_lo, c_hi = lo[s:e], hi[s:e]
        half = 0.5 * (c_hi - c_lo)
        r = half[:, None] * _NODES
        r += 0.5 * (c_hi + c_lo)[:, None]
        parts = [(np.einsum("ij,j->i", v[:, i:j], w) * half).tolist()
                 for v in integrand(r, *[col[s:e] for col in columns]) for i, j, w in _RULES]
        if terms is None:
            terms = parts
        else:
            for acc, part in zip(terms, parts):
                acc += part
    sums = [_fsums(t, bounds) for t in terms]
    return [sums[k:k + 2] for k in range(0, len(sums), 2)]


def _fused_power(r, vals, alpha: float, p: float) -> np.ndarray:
    """``r^alpha |vals|^p`` as ``(|vals| * r^(alpha/p))^p``, which stays in range
    far below r = 1; computed in place, overwriting ``r`` and ``vals``."""
    np.abs(vals, out=vals)
    vals *= np.power(r, alpha / p, out=r)
    return np.power(vals, p, out=vals)


# The sub-cells of a sloped tail in u-coordinates: the steps _refine_origin
# cuts (0, 1] at, as one fixed table, which is cheaper than the ragged routine.
_TAIL_CUTS = np.concatenate([[0.0], _ORIGIN_STEPS])


def _power_tail(c: float, R: float, alpha: float, p: float) -> float:
    """``\\int_R^\\infty r^alpha |c|^p dr = |c|^p R^(alpha+1) / (-alpha-1)``
    (``alpha < -1``): the closed form of every constant tail."""
    return abs(c) ** p * R ** (alpha + 1.0) / (-(alpha + 1.0))


def _tail_integrals(P: PolyBatch, alpha: float, p: float) -> list[list[float]]:
    """``\\int_R^\\infty r^alpha |t0 + t1 (r - R)|^p dr`` for every function,
    one list for the fine rule and one for the coarse.

    A constant tail is :func:`_power_tail`.  For the others ``u = R / r``
    gives ``R^(alpha+1) * \\int_0^1 u^beta |t0 u + t1 R (1-u)|^p du`` with
    ``beta = -alpha - p - 2``, integrated on 16 geometric sub-cells of
    (0, 1) split at the root of the affine factor.  The per-function
    scalars are plain floats; the sub-cells of all functions share one pass.
    """
    tails = []
    lines = []  # (function, lin0, lin1, R^(alpha+1)) of the sloped tails
    ends = P.grid.edges[P.grid.ends].tolist()
    for k, (R, t0, t1) in enumerate(zip(ends, P.tail_value.tolist(), P.tail_slope.tolist())):
        tails.append(0.0)
        if t0 == 0.0 and t1 == 0.0:
            continue
        deg = 1 if t1 != 0.0 else 0
        if alpha + p * deg >= -1.0:
            raise DivergentIntegralError(
                f"tail integrand decays like r^{alpha + p * deg:g}, not integrable near infinity"
            )
        if t1 == 0.0:
            tails[k] = _power_tail(t0, R, alpha, p)
        else:
            lin0 = t1 * R   # affine integrand factor: lin0 + (t0 - lin0) * u
            lines.append((k, lin0, t0 - lin0, R ** (alpha + 1.0)))
    out = [tails, tails.copy()]
    if not lines:
        return out
    which, lin0, lin1, scale = map(np.array, zip(*lines))
    n_sub = _ORIGIN_SUBCELLS
    sub = np.arange(n_sub * which.size)
    fn, cell = sub // n_sub, sub % n_sub    # function and base sub-cell of each interval
    with np.errstate(divide="ignore", invalid="ignore"):
        u_root = -lin0 / lin1
    lo, hi, parent, bounds = _split_cells(_TAIL_CUTS[cell], _TAIL_CUTS[cell + 1],
                                          n_sub * np.arange(which.size + 1), u_root[fn])
    fn = fn[parent]
    beta = -alpha - p - 2.0

    def integrand(u, lin0, lin1):
        vals = lin1[:, None] * u
        vals += lin0[:, None]
        return [_fused_power(u, vals, beta, p)]

    (sums,) = _quadrature(integrand, lo, hi, bounds, lin0[fn], lin1[fn])
    for tail, total in zip(out, sums):
        for k, c, v in zip(which.tolist(), scale.tolist(), total):
            tail[k] = c * v
    return out


def _check_origin_convergence(P: PolyBatch, alpha: float, p: float) -> None:
    for c0, c1, c2 in P.coeffs[P.grid.offsets[:-1]].tolist():
        if c0 != 0.0:
            vanishing = 0
        elif c1 != 0.0:
            vanishing = 1
        elif c2 != 0.0:
            vanishing = 2
        else:
            continue  # P vanishes identically near the origin
        if alpha + p * vanishing <= -1.0:
            raise DivergentIntegralError(
                f"integrand behaves like r^{alpha + p * vanishing:g} near 0, not integrable"
            )


def _estimate(fine: float, coarse: float) -> float:
    """Error indicator: fine against coarse value, floored at 32 ulps of both."""
    return abs(fine - coarse) + 32.0 * _EPS * (abs(fine) + abs(coarse))


@_in_double_range
def integrate_weighted_power(P, alpha: float, p: float, *, return_estimate: bool = False):
    """``\\int_0^\\infty r^alpha |P(r)|^p dr``.

    ``P`` is one :class:`PiecewisePoly` (floats back) or a
    :class:`PolyBatch` (lists back, one float per function).  Divergence at
    either end raises :class:`DivergentIntegralError`.  With
    ``return_estimate=True`` the result is a pair ``(value, estimate)``
    where ``estimate`` compares the value against the half-order rule on
    the same intervals; it is an observed error indicator, not a rigorous
    bound.
    """
    p = check_exponent(p)
    alpha = check_real(alpha, "weight exponent")
    batch = _poly_batch(P)
    _check_origin_convergence(batch, alpha, p)

    def integrand(r, x0, coefs):  # r^alpha |P(r)|^p on the body intervals
        loc = r - x0[:, None]
        # c0 + loc * (c1 + loc * c2), in place
        vals = loc * coefs[:, 2, None]
        vals += coefs[:, 1, None]
        vals *= loc
        vals += coefs[:, 0, None]
        return [_fused_power(r, vals, alpha, p)]

    lo, hi, x0, coefs, bounds = _cell_intervals(batch, alpha)
    (body,) = _quadrature(integrand, lo, hi, bounds, x0, coefs)
    tails = _tail_integrals(batch, alpha, p)
    value, coarse = [[b + t for b, t in zip(*parts)] for parts in zip(body, tails)]
    for totals in (value, coarse):
        if not all(map(math.isfinite, totals)):
            raise DivergentIntegralError("quadrature produced a non-finite value")
    if not return_estimate:
        return value if batch is P else value[0]
    estimate = [_estimate(v, c) for v, c in zip(value, coarse)]
    return (value, estimate) if batch is P else (value[0], estimate[0])
