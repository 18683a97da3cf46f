"""Per-cell loop builders of quadrature intervals, kept as test references.

The package builds its quadrature intervals with whole-array numpy code.
These are the straightforward per-cell Python loops that code replaced; it
must reproduce their output bit for bit (``tests/test_intervals.py``).
"""

import math

import numpy as np

from hardylab.grid import Grid, PiecewisePoly
from hardylab.quadrature import _ORIGIN_SUBCELLS
from hardylab.operators import supmin_branches


def quadratic_roots(c0, c1, c2):
    """Real roots of ``c0 + c1 t + c2 t^2`` (numerically stable form)."""
    if c2 == 0.0:
        if c1 == 0.0:
            return []
        return [-c0 / c1]
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0.0:
        return []
    sq = math.sqrt(disc)
    q = -0.5 * (c1 + math.copysign(sq, c1) if c1 != 0.0 else c1 + sq)
    if q == 0.0:
        return [0.0]
    return [q / c2, c0 / q]


def cap_interval_ratio(cuts):
    """Insert doublings of ``lo`` until no interval has hi/lo > 2 (lo > 0)."""
    out = [cuts[0]]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if lo > 0.0:
            t = 2.0 * lo
            while t < hi * (1.0 - 1e-12):
                out.append(t)
                t *= 2.0
        out.append(hi)
    return out


def cell_intervals(P: PiecewisePoly, alpha: float):
    """Loop form of ``quadrature._cell_intervals``: (lo, hi, x0, coefs)."""
    edges = P.grid.edges
    lo_list, hi_list, x0_list, coef_list = [], [], [], []
    for i in range(P.grid.n_cells):
        a = float(edges[i])
        b = float(edges[i + 1])
        c0, c1, c2 = (float(c) for c in P.coeffs[i])
        cuts = [a, b]
        for t in quadratic_roots(c0, c1, c2):
            r = a + t
            if a < r < b:
                cuts.append(r)
        cuts = sorted(set(cuts))
        if i == 0 and alpha < 0.0:
            first_hi = cuts[1]
            sub = first_hi * 2.0 ** np.arange(-(_ORIGIN_SUBCELLS - 1), 1.0)
            cuts = [0.0] + sub.tolist() + cuts[2:]
        if alpha < 0.0:
            cuts = cap_interval_ratio(cuts)
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            lo_list.append(lo)
            hi_list.append(hi)
            x0_list.append(a)
            coef_list.append((c0, c1, c2))
    return (np.array(lo_list), np.array(hi_list), np.array(x0_list),
            np.array(coef_list))


def supmin_rows(f):
    """Loop form of ``inequalities._supmin_rows``."""
    F_edges, prefix, suffix = supmin_branches(f)
    edges = f.grid.edges
    vals = f.values
    rows = []
    for i in range(f.grid.n_cells):
        a = float(edges[i])
        b = float(edges[i + 1])
        u = float(F_edges[i])
        v = float(vals[i])
        mp = float(prefix[i])
        sb = float(suffix[i])
        cuts = [a, b]

        def add(r):
            if a < r < b:
                cuts.append(r)

        if v != 0.0:
            add(a - u / v)
            add(a + (mp - u) / v)
            add(a + (-mp - u) / v)
        if sb > 0.0:
            add(mp / sb)
            for target in (sb, -sb):
                d = v - target
                if d != 0.0:
                    add((v * a - u) / d)
        cuts = cap_interval_ratio(sorted(set(cuts)))
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            rows.append((lo, hi, a, u, v, mp, sb))
    arrays = tuple(np.asarray(col) for col in zip(*rows))
    return arrays, float(prefix[-1]), float(F_edges[-1])


def inner_cumulative(f) -> PiecewisePoly:
    """Loop form of ``operators.inner_cumulative``."""
    absf = abs(f)
    F_edges, _, suffix = supmin_branches(absf)
    edges = absf.grid.edges
    vals = absf.values
    new_edges = [0.0]
    coeffs = []
    g = 0.0
    for i in range(absf.grid.n_cells):
        a = float(edges[i])
        b = float(edges[i + 1])
        u = float(F_edges[i])
        v = float(vals[i])
        sb = float(suffix[i])
        cuts = [a, b]
        if v != sb:
            t = (v * a - u) / (v - sb)
            if a < t < b:
                cuts.append(t)
        cuts = sorted(set(cuts))
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            mid = 0.5 * (lo + hi)
            if u + v * (mid - a) >= sb * mid:
                w0, w1 = u + v * (lo - a), v
            else:
                w0, w1 = sb * lo, sb
            new_edges.append(hi)
            coeffs.append((g, w0, 0.5 * w1))
            g += (w0 + 0.5 * w1 * (hi - lo)) * (hi - lo)
    return PiecewisePoly(Grid(np.asarray(new_edges)), np.asarray(coeffs),
                         tail_value=g, tail_slope=float(F_edges[-1]))
