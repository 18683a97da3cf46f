"""Weighted p-th power quadrature on batches of piecewise polynomials.

The central routine is :func:`integrate_weighted_power`, which evaluates
``\\int_0^\\infty r^alpha |P(r)|^p dr`` for every piecewise polynomial ``P`` of
a batch (a single :class:`PiecewisePoly` is a batch of one).  Cells are split
at the roots of ``P`` (the only kinks of ``|P|^p``), with edge ratios capped
at 2 when ``alpha < 0``.  Beyond ``r_n`` a constant tail has a closed form; a
sloped one is integrated on ``u = r_n / r`` in (0, 1].  Both singular ends
take one end rule: a first interval ``(0, c]`` whose integrand is
``r^gamma |Q(r)|^p`` with ``Q`` smooth and ``gamma != 0`` gets the
Gauss-Jacobi rule for the weight ``r^gamma`` (Golub-Welsch), every other
interval Gauss-Legendre.  To dodge overflow for radii far below 1 the
integrand is always evaluated in the fused form ``(|P(r)| * r^(alpha/p))^p``.

The quadrature intervals of all cells of all functions are built with
whole-array numpy operations; they equal, bit for bit, those of the
per-cell loop kept in ``tests/interval_loops.py``.  Each integral job is
done in one place, shared with :mod:`hardylab.inequalities`: one Gauss
routine, :func:`_quadrature`, for the body, the sloped tails and the sup-min
integrals, and one closed form, :func:`_power_tail`, for every constant tail.

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


def _gauss_jacobi(order: int, gamma: float):
    """Gauss rule for the weight ``(1 + t)^gamma`` on [-1, 1], ``gamma > -1``:
    Gauss-Legendre at ``gamma = 0``, otherwise Golub-Welsch (the eigenvalues
    and eigenvectors of the Jacobi matrix of the three-term recurrence)."""
    if gamma == 0.0:
        return _gauss_legendre(order)
    s, n = 2.0 * np.arange(order) + gamma, np.arange(1.0, order)
    off = 2.0 * n * (n + gamma) / (s[1:] * np.sqrt(s[1:] ** 2 - 1.0))
    x, v = np.linalg.eigh(np.diag(gamma * gamma / (s * (s + 2.0))) + np.diag(off, -1))
    return x, 2.0 ** (gamma + 1.0) / (gamma + 1.0) * v[0] ** 2


@lru_cache(maxsize=None)
def _rule(gamma: float):
    """The fine (QUAD_ORDER) and coarse (half-order) rules for ``(1 + t)^gamma``:
    their nodes side by side, and per rule its column block (start, stop, weights)."""
    (x, w), (xc, wc) = (_gauss_jacobi(n, gamma) for n in (QUAD_ORDER, QUAD_ORDER // 2))
    return np.concatenate((x, xc)), ((0, QUAD_ORDER, w), (QUAD_ORDER, x.size + xc.size, wc))


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


def _real_roots(c0, c1, c2):
    """The real roots of ``c0 + c1 t + c2 t^2``, elementwise, in the numerically
    stable form, stacked as a ``(2, n)`` array.  No root (``c1 = c2 = 0``, or a
    negative discriminant) and a division by a zero ``q`` come out as inf or
    NaN, which :func:`_split_cells` drops; call it with those errors ignored."""
    sq = np.sqrt(c1 * c1 - 4.0 * c2 * c0)
    q = -0.5 * (c1 + np.where(c1 != 0.0, np.copysign(sq, c1), sq))
    linear = c2 == 0.0
    return np.stack((np.where(linear, -c0 / c1, q / c2), np.where(linear, np.nan, c0 / q)))


def _cell_intervals(P, alpha: float):
    """Quadrature intervals ``(lo, hi, x0, coefs, bounds)`` covering (0, r_n].

    Cells are split at interior roots of P (kinks of |P|^p), and when
    alpha < 0 interval edge ratios are capped near the singularity.  ``x0``
    and ``coefs`` are the left edge and coefficients of each interval's cell.
    """
    P = _poly_batch(P)
    grid = P.grid
    a = grid.a
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        roots = a + _real_roots(*P.coeffs.T)
    intervals = _split_cells(a, grid.b, grid.offsets, roots)
    if alpha < 0.0:
        intervals = _cap_interval_ratio(*intervals)
    lo, hi, cell, bounds = intervals
    return lo, hi, a[cell], P.coeffs[cell], bounds


# Intervals per node pass: a pass works on (intervals, nodes) matrices, and
# cutting a batch's intervals into chunks of this size bounds their memory.
_NODE_CHUNK = 512


def _quadrature(integrand, lo, hi, bounds, *columns, gamma: float = 0.0):
    """Per-function Gauss-Legendre totals over the intervals ``(lo, hi)``, or for
    ``gamma != 0`` Gauss-Jacobi ones for the weight ``(r - lo)^gamma``, left out of ``integrand``.

    ``integrand(r, *rows)`` gets the nodes ``r`` of a chunk of intervals (one
    row per interval, the fine rule's column block, then the coarse one's)
    and the matching rows of ``columns``, and returns a list of integrand
    matrices.  The result holds, for each matrix, the pair (fine, coarse) of
    lists of per-function totals.  ``einsum`` adds each row in the same order
    whatever the matrix shape (BLAS ``gemv`` does not), so no total depends
    on the batch or the chunking.
    """
    nodes, rules = _rule(gamma)
    terms = None
    for s in range(0, max(lo.size, 1), _NODE_CHUNK):
        e = s + _NODE_CHUNK
        c_lo, c_hi = lo[s:e], hi[s:e]
        half = 0.5 * (c_hi - c_lo)
        r = half[:, None] * nodes
        r += 0.5 * (c_hi + c_lo)[:, None]
        scale = half ** (gamma + 1.0) if gamma else half
        parts = [(np.einsum("ij,j->i", v[:, i:j], w) * scale).tolist()
                 for v in integrand(r, *[col[s:e] for col in columns]) for i, j, w in rules]
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


def _power_integrand(alpha: float, p: float):
    """The :func:`_quadrature` integrand ``r^alpha |P(r)|^p`` for intervals whose
    columns are the left edge ``x0`` and the coefficients of their piece."""
    def integrand(r, x0, coefs):
        loc = r - x0[:, None]
        # c0 + loc * (c1 + loc * c2), in place
        vals = loc * coefs[:, 2, None]
        vals += coefs[:, 1, None]
        vals *= loc
        vals += coefs[:, 0, None]
        return [_fused_power(r, vals, alpha, p)]
    return integrand


def _power_sums(lo, hi, bounds, x0, coefs, alpha: float, p: float, orders: list):
    """Per-function totals (fine, coarse) of ``r^alpha |P(r)|^p`` over the intervals.

    Function ``k``'s piece vanishes to order ``orders[k]`` at 0, where its
    first interval starts (``None``: identically).  Where ``gamma = alpha +
    orders[k] p`` is not 0 that interval takes the end rule for ``r^gamma`` on
    the piece divided by ``r^orders[k]`` (coefficients shifted down).  The rest
    share one Gauss-Legendre pass; with every gamma 0 it is the only pass.
    """
    end = [k is not None and alpha + p * k != 0.0 for k in orders]
    if not any(end):
        return _quadrature(_power_integrand(alpha, p), lo, hi, bounds, x0, coefs)[0]
    sums = [[0.0] * len(end), [0.0] * len(end)]
    if lo.size > sum(end):
        keep = np.ones(lo.size, dtype=bool)
        keep[bounds[:-1][end]] = False
        (sums,) = _quadrature(_power_integrand(alpha, p), lo[keep], hi[keep],
                              bounds - np.append(0, np.cumsum(end)), x0[keep], coefs[keep])
    for order in {k for k, e in zip(orders, end) if e}:
        fns = [i for i, k in enumerate(orders) if k == order]
        at = bounds[fns]
        (part,) = _quadrature(_power_integrand(0.0, p), lo[at], hi[at], np.arange(at.size + 1),
                              x0[at], coefs[at[:, None], [order, (order + 1) % 3, (order + 2) % 3]],
                              gamma=alpha + p * order)
        for total, extra in zip(sums, part):
            for k, v in zip(fns, extra):
                total[k] += v
    return sums


def _power_tail(c: float, R: float, alpha: float, p: float) -> float:
    """``\\int_R^\\infty r^alpha |c|^p dr = |c|^p R^(alpha+1) / (-alpha-1)``
    (``alpha < -1``): the closed form of every constant tail."""
    return abs(c) ** p * R ** (alpha + 1.0) / (-(alpha + 1.0))


def _tail_integrals(P: PolyBatch, alpha: float, p: float) -> list[list[float]]:
    """``\\int_R^\\infty r^alpha |t0 + t1 (r - R)|^p dr`` for every function,
    one list for the fine rule and one for the coarse.

    A constant tail is :func:`_power_tail`.  For the others ``u = R / r``
    gives ``R^(alpha+1) * \\int_0^1 u^beta |t0 u + t1 R (1-u)|^p du`` with
    ``beta = -alpha - p - 2``: one end-rule interval (0, 1], split at the
    root of the affine factor when it lies inside.  The per-function scalars
    are plain floats; all functions share the passes.
    """
    tails, lines = [], []  # lines: (function, R^(alpha+1), lin0, lin1, 0) of the sloped tails
    ends = P.grid.edges[P.grid.ends].tolist()
    for k, (R, t0, t1) in enumerate(zip(ends, P.tail_value.tolist(), P.tail_slope.tolist())):
        tails.append(0.0)
        if t0 == 0.0 and t1 == 0.0:
            continue
        decay = alpha + p * (t1 != 0.0)
        if decay >= -1.0:
            raise DivergentIntegralError(
                f"tail integrand decays like r^{decay:g}, not integrable near infinity")
        if t1 == 0.0:
            tails[k] = _power_tail(t0, R, alpha, p)
        else:
            lin0 = t1 * R   # affine integrand factor: lin0 + (t0 - lin0) * u
            lines.append((k, R ** (alpha + 1.0), lin0, t0 - lin0, 0.0))
    out = [tails, tails.copy()]
    if not lines:
        return out
    which, scale, *coefs = zip(*lines)
    n, coefs = len(which), np.array(coefs).T
    with np.errstate(divide="ignore", invalid="ignore"):
        u_root = -coefs[:, 0] / coefs[:, 1]
    lo, hi, parent, bounds = _split_cells(np.zeros(n), np.ones(n), np.arange(n + 1), u_root)
    if lo.size > n:  # a root inside: cap the intervals beyond it
        lo, hi, parent, bounds = _cap_interval_ratio(lo, hi, parent, bounds)
    sums = _power_sums(lo, hi, bounds, np.zeros(lo.size), coefs[parent], -alpha - p - 2.0, p,
                       [0] * n)
    for tail, total in zip(out, sums):
        for k, c, v in zip(which, scale, total):
            tail[k] = c * v
    return out


def _check_origin_convergence(P: PolyBatch, alpha: float, p: float) -> list:
    """Per function, the order ``k`` to which its first piece vanishes at 0
    (``None`` where it is 0); raises where ``r^(alpha + k p)`` is not integrable."""
    orders = []
    for c0, c1, c2 in P.coeffs[P.grid.offsets[:-1]].tolist():
        k = 0 if c0 != 0.0 else 1 if c1 != 0.0 else 2 if c2 != 0.0 else None
        if k is not None and alpha + p * k <= -1.0:
            raise DivergentIntegralError(f"integrand behaves like r^{alpha + p * k:g} near 0, "
                                         "not integrable")
        orders.append(k)
    return orders


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
    orders = _check_origin_convergence(batch, alpha, p)
    lo, hi, x0, coefs, bounds = _cell_intervals(batch, alpha)
    body = _power_sums(lo, hi, bounds, x0, coefs, alpha, p, orders)
    tails = _tail_integrals(batch, alpha, p)
    value, coarse = [[b + t for b, t in zip(*parts)] for parts in zip(body, tails)]
    for totals in (value, coarse):
        if not all(map(math.isfinite, totals)):
            raise DivergentIntegralError("quadrature produced a non-finite value")
    if not return_estimate:
        return value if batch is P else value[0]
    estimate = [_estimate(v, c) for v, c in zip(value, coarse)]
    return (value, estimate) if batch is P else (value[0], estimate[0])
