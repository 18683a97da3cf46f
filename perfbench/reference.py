"""Independent high-precision reference for the integrals hardylab reports.

Nothing here imports hardylab: step functions arrive as plain sequences of
edges and cell values, and every transform is rebuilt from them in mpmath
arithmetic.  At p = 2 the integrands are squared polynomials against a power
weight, integrated with their exact rational-plus-log antiderivative; at any
other p each smooth piece goes through ``mpmath.quad``.
"""

from __future__ import annotations

import mpmath as mp

DPS = 30


def _mpf_list(xs):
    return [mp.mpf(x) for x in xs]


def _pieces_first(edges, values):
    """Global-coordinate pieces ``(a, b, (c0, c1))`` of ``F(r) = int_0^r f``."""
    e = _mpf_list(edges)
    v = _mpf_list(values)
    pieces, F = [], mp.mpf(0)
    for a, b, vi in zip(e[:-1], e[1:], v):
        pieces.append((a, b, (F - vi * a, vi)))
        F += vi * (b - a)
    pieces.append((e[-1], mp.inf, (F,)))
    return pieces


def _pieces_second(edges, values):
    """Global-coordinate pieces of ``D(r) = int_0^r int_0^t |f|``."""
    e = _mpf_list(edges)
    v = [abs(x) for x in _mpf_list(values)]
    pieces, F, D = [], mp.mpf(0), mp.mpf(0)
    for a, b, vi in zip(e[:-1], e[1:], v):
        pieces.append((a, b, (D - F * a + vi * a * a / 2, F - vi * a, vi / 2)))
        w = b - a
        D += F * w + vi * w * w / 2
        F += vi * w
    R = e[-1]
    pieces.append((R, mp.inf, (D - F * R, F)))
    return pieces


def _power_integral(a, b, e):
    """``int_a^b r^e dr`` exactly (``b`` may be infinite when ``e < -1``)."""
    if b == mp.inf:
        return -a ** (e + 1) / (e + 1)
    if e == -1:
        return mp.log(b / a)
    if a == 0:
        return b ** (e + 1) / (e + 1)
    return (b ** (e + 1) - a ** (e + 1)) / (e + 1)


def _square_piece(a, b, coeffs, alpha):
    """``int_a^b r^alpha q(r)^2 dr`` for the polynomial ``q`` with ``coeffs``."""
    square = [mp.mpf(0)] * (2 * len(coeffs) - 1)
    for i, ci in enumerate(coeffs):
        for j, cj in enumerate(coeffs):
            square[i + j] += ci * cj
    return mp.fsum(ck * _power_integral(a, b, alpha + k)
                   for k, ck in enumerate(square) if ck != 0)


def _real_roots(coeffs, a, b):
    """Roots of the polynomial ``coeffs`` strictly inside ``(a, b)``."""
    nz = list(coeffs)
    while len(nz) > 1 and nz[-1] == 0:
        nz.pop()
    if len(nz) < 2:
        return []
    roots = mp.polyroots(nz[::-1], maxsteps=100, extraprec=40)
    return sorted(mp.re(r) for r in roots
                  if abs(mp.im(r)) <= mp.mpf(10) ** (-DPS + 5) * (1 + abs(r))
                  and a < mp.re(r) < b)


def _power_piece(a, b, coeffs, alpha, p):
    """``int_a^b r^alpha |q(r)|^p dr`` by tanh-sinh quadrature."""
    def q(r):
        return mp.fsum(c * r ** k for k, c in enumerate(coeffs))
    if b == mp.inf:
        # r = a / u maps the slowly decaying tail onto (0, 1]
        def tail(u):
            r = a / u
            return r ** alpha * abs(q(r)) ** p * a / (u * u)
        cuts = [mp.mpf(0)] + [a / r for r in reversed(_real_roots(coeffs, a, mp.inf))] + [mp.mpf(1)]
        return mp.quad(tail, cuts)
    return mp.quad(lambda r: r ** alpha * abs(q(r)) ** p,
                   [a] + _real_roots(coeffs, a, b) + [b])


def _weighted_power(pieces, alpha, p):
    p = mp.mpf(p)
    alpha = mp.mpf(alpha)
    integrate = _square_piece if p == 2 else (
        lambda a, b, coeffs, alpha: _power_piece(a, b, coeffs, alpha, p))
    return mp.fsum(integrate(a, b, coeffs, alpha) for a, b, coeffs in pieces
                   if any(c != 0 for c in coeffs))


def hardy_numerator(edges, values, p) -> float:
    """``int_0^inf |F(r) / r|^p dr`` with ``F`` the running integral of ``f``."""
    with mp.workdps(DPS):
        return float(_weighted_power(_pieces_first(edges, values), -float(p), p))


def rellich_numerator(edges, values, p) -> float:
    """``int_0^inf r^(-2p) D(r)^p dr`` with ``D`` the double integral of ``|f|``."""
    with mp.workdps(DPS):
        return float(_weighted_power(_pieces_second(edges, values), -2.0 * float(p), p))


def p_mass(edges, values, p) -> float:
    """``int_0^inf |f|^p dr`` summed exactly."""
    with mp.workdps(DPS):
        e = _mpf_list(edges)
        return float(mp.fsum(abs(v) ** mp.mpf(p) * (b - a)
                             for a, b, v in zip(e[:-1], e[1:], _mpf_list(values))))


def partial_mass(edges, values, s) -> float:
    """``int_0^s |f| dr`` summed exactly."""
    with mp.workdps(DPS):
        e = _mpf_list(edges)
        s = mp.mpf(float(s))
        return float(mp.fsum(abs(v) * (min(b, s) - a)
                             for a, b, v in zip(e[:-1], e[1:], _mpf_list(values)) if a < s))


def rearranged(edges, values):
    """Decreasing rearrangement ``(edges*, values*)`` with exactly summed edges."""
    with mp.workdps(DPS):
        e = _mpf_list(edges)
        cells = sorted(((abs(v), b - a) for a, b, v in zip(e[:-1], e[1:], _mpf_list(values))),
                       key=lambda cell: -cell[0])
        out_edges, pos = [mp.mpf(0)], mp.mpf(0)
        for _, w in cells:
            pos += w
            out_edges.append(pos)
        return out_edges, [v for v, _ in cells]


def sharp_constant(kind: str, p) -> float:
    """The sharp constants of the source paper, from their closed forms."""
    with mp.workdps(DPS):
        p = mp.mpf(p)
        if kind in ("hardy", "new_hardy"):
            return float((p / (p - 1)) ** p)
        if kind in ("hardy_rellich_int", "improved_hardy_rellich"):
            return 4.0
        return float(p ** (2 * p) / ((p - 1) ** p * (2 * p - 1) ** p))


def rel_err(value: float, ref: float) -> float:
    """``|value - ref| / |ref|`` (absolute error when ``ref`` is 0)."""
    return abs(value - ref) / abs(ref) if ref != 0.0 else abs(value)
