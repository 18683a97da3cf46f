"""Closed-form antiderivative oracles used to cross-check the quadrature.

Everything the library integrates at p = 2 is a squared polynomial against a
power weight r^alpha, and those integrals have elementary antiderivatives
(rational plus a logarithm at exponent -1).  The functions here evaluate them
directly from global-coordinate polynomial coefficients, sharing no code with
the package, so an agreement is a genuine two-sided check.
"""

import math


def power_integral(a, b, e):
    """Exact ``int_a^b r^e dr``; ``b = math.inf`` is allowed when e < -1."""
    if math.isinf(b):
        if e >= -1.0:
            raise ValueError(f"divergent tail integral (exponent {e})")
        return -(a ** (e + 1.0)) / (e + 1.0)
    if e == -1.0:
        return math.log(b / a)
    return (b ** (e + 1.0) - a ** (e + 1.0)) / (e + 1.0)


def weighted_square_integral(segments, alpha):
    """Exact ``sum_i int_{a_i}^{b_i} q_i(r)^2 r^alpha dr``.

    Each segment is ``(a, b, coeffs)`` with ``coeffs`` the global-coordinate
    polynomial coefficients ``(c0, c1, ...)`` of ``q_i`` on ``(a, b)``; the
    last segment may have ``b = math.inf`` when the integrand decays.
    """
    parts = []
    for a, b, coeffs in segments:
        square = [0.0] * (2 * len(coeffs) - 1)
        for i, ci in enumerate(coeffs):
            for j, cj in enumerate(coeffs):
                square[i + j] += ci * cj
        for k, ck in enumerate(square):
            if ck != 0.0:
                parts.append(ck * power_integral(a, b, alpha + k))
    return math.fsum(parts)


def segments_from_cells(edges, coeffs, tail_value, tail_slope):
    """Segments for a piecewise polynomial given in local coordinates.

    ``coeffs[i] = (c0, c1, c2)`` describes ``c0 + c1 (r - a_i) + c2 (r - a_i)^2``
    on ``(edges[i], edges[i+1])``; beyond the last edge the function is
    ``tail_value + tail_slope * (r - edges[-1])``.  Returns global-coordinate
    segments suitable for :func:`weighted_square_integral`.
    """
    segments = []
    for i in range(len(edges) - 1):
        a = float(edges[i])
        c0, c1, c2 = (float(c) for c in coeffs[i])
        segments.append((a, float(edges[i + 1]),
                         (c0 - c1 * a + c2 * a * a, c1 - 2.0 * c2 * a, c2)))
    R = float(edges[-1])
    if tail_value != 0.0 or tail_slope != 0.0:
        segments.append((R, math.inf, (tail_value - tail_slope * R, tail_slope)))
    return segments


def weighted_power_integral_mp(edges, coeffs, tail_value, tail_slope, alpha, p, dps=30):
    """``int_0^inf r^alpha |P(r)|^p dr`` by mpmath in ``dps``-digit arithmetic.

    ``P`` is given in local coordinates as for :func:`segments_from_cells`
    and is evaluated exactly in that form.  Each cell is integrated by
    ``mpmath.quad`` split at the real roots of ``P`` inside it (the kinks of
    ``|P|^p``).  On a first cell ``(0, c]`` where ``P`` has a zero of order
    ``k`` at 0 and ``gamma = alpha + k p != 0``, the ``r^gamma`` end is taken
    out by ``r = c u^(1/(gamma+1))``, which turns ``r^gamma dr`` into
    ``c^(gamma+1) / (gamma+1) du`` and leaves ``|P(r) / r^k|^p``, smooth at
    ``u = 0`` (``mpmath.quad`` in ``r`` is about 5e-11 off on ``r^-0.7``).
    The tail must be constant; it is integrated in closed form.
    """
    import mpmath as mp

    if tail_slope != 0.0:
        raise ValueError("only a constant tail has a closed form here")
    with mp.workdps(dps):
        alpha, p = mp.mpf(alpha), mp.mpf(p)
        total = mp.mpf(0)
        for i in range(len(edges) - 1):
            a, b = mp.mpf(float(edges[i])), mp.mpf(float(edges[i + 1]))
            c0, c1, c2 = (mp.mpf(float(c)) for c in coeffs[i])
            if c0 == c1 == c2 == 0:
                continue
            if c2 != 0:
                disc = c1 * c1 - 4 * c2 * c0
                roots = [] if disc < 0 else [(-c1 + sign * mp.sqrt(disc)) / (2 * c2)
                                             for sign in (-1, 1)]
            else:
                roots = [] if c1 == 0 else [-c0 / c1]
            cuts = sorted(a + t for t in roots if 0 < t < b - a)

            k = next(j for j, c in enumerate((c0, c1, c2)) if c != 0)
            gamma = alpha + k * p
            if a == 0 and gamma != 0:
                q = (c0, c1, c2)[k:]  # P(r) / r^k

                def smooth(u, b=b, q=q, e=1 / (gamma + 1)):
                    r = b * u ** e
                    return abs(sum(c * r ** j for j, c in enumerate(q))) ** p

                u_cuts = [(t / b) ** (gamma + 1) for t in cuts]
                total += b ** (gamma + 1) / (gamma + 1) * mp.quad(smooth, [0, *u_cuts, 1])
                continue

            def integrand(r, a=a, c0=c0, c1=c1, c2=c2):
                t = r - a
                return r ** alpha * abs(c0 + t * (c1 + t * c2)) ** p

            total += mp.quad(integrand, [a, *cuts, b])
        if tail_value != 0.0:
            R = mp.mpf(float(edges[-1]))
            total += abs(mp.mpf(float(tail_value))) ** p * R ** (alpha + 1) / -(alpha + 1)
        return float(total)


def tail_integral_mp(R, t0, t1, alpha, p, dps=30):
    """``int_R^inf r^alpha |t0 + t1 (r - R)|^p dr`` in closed form, in
    ``dps``-digit arithmetic (the tail must decay: ``alpha + p < -1`` when
    ``t1 != 0``, ``alpha < -1`` otherwise).

    A constant tail is ``|t0|^p R^(alpha+1) / (-alpha-1)``.  For a sloped one
    ``u = R / r`` gives ``R^(alpha+1) int_0^1 u^beta |lin0 + lin1 u|^p du``
    with ``beta = -alpha - p - 2``, ``lin0 = t1 R`` and ``lin1 = t0 - lin0``:
    ``|lin0|^p / (beta+1) 2F1(-p, beta+1; beta+2; -lin1/lin0)`` when the
    affine factor keeps its sign on (0, 1).  Otherwise it is split at its
    root ``u0``: ``|lin0|^p u0^(beta+1) B(beta+1, p+1)`` below, and
    ``|lin1|^p (1-u0)^(p+1) u0^beta / (p+1) 2F1(-beta, p+1; p+2; 1 - 1/u0)``
    above.  No quadrature is involved: ``mpmath.quad`` is percent-level
    wrong on these tails for p near 1.
    """
    import mpmath as mp

    with mp.workdps(dps):
        R, t0, t1, alpha, p = (mp.mpf(float(x)) for x in (R, t0, t1, alpha, p))
        if t1 == 0:
            return float(abs(t0) ** p * R ** (alpha + 1) / -(alpha + 1))
        beta, lin0 = -alpha - p - 2, t1 * R
        lin1 = t0 - lin0
        u0 = -lin0 / lin1 if lin1 != 0 else mp.inf
        if not 0 < u0 < 1:
            body = abs(lin0) ** p / (beta + 1) * mp.hyp2f1(-p, beta + 1, beta + 2, -lin1 / lin0)
        else:
            body = (abs(lin0) ** p * u0 ** (beta + 1) * mp.beta(beta + 1, p + 1)
                    + abs(lin1) ** p * (1 - u0) ** (p + 1) * u0 ** beta / (p + 1)
                    * mp.hyp2f1(-beta, p + 1, p + 2, 1 - 1 / u0))
        return float(R ** (alpha + 1) * body)



def running_average_maxform_mp(edges, values, ps, dps=40):
    """``int_0^inf max{ sup_{s<=r} |A(s)|^p / r^p, sup_{s>=r} |A(s)|^p / s^p } dr``
    with ``A(s) = F(s) / s``, for each ``p`` in ``ps``, by mpmath from that
    definition (``f`` must vanish on its first cell).

    ``F`` is summed exactly from the cells.  On a cell ``F(s) = w + v s``, so
    ``A`` is monotone there and the first sup is taken over the edges up to
    ``r`` and ``r`` itself; ``|A(s)| / s = |w + v s| / s^2`` has its only
    interior peak at ``s* = -2w/v``, so the second sup is taken over ``r``,
    the edges from ``r`` on and each in-cell ``s* >= r``.  Beyond the
    support the integrand is ``(max over the edges of |A|)^p / r^p``, which
    has a closed form.  Each cell is cut wherever the site that attains the
    larger sup, or the sign of ``F(r)`` there, changes: a change between two
    of 65 points (geometric in ``r`` where the cell starts above 0) is
    located by bisection in ``dps`` digits.  On each piece that site's
    expression is integrated: ``|A(r)| / r`` by ``mpmath.quad``, a constant
    or ``c / r`` in closed form.
    """
    import mpmath as mp

    if values[0] != 0.0:
        raise ValueError("f must vanish on its first cell")
    with mp.workdps(dps):
        x = [mp.mpf(float(e)) for e in edges]
        v = [mp.mpf(float(c)) for c in values]
        F = [mp.mpf(0)]
        for a, b, c in zip(x, x[1:], v):
            F.append(F[-1] + c * (b - a))
        n = len(v)
        w = [F[i] - v[i] * x[i] for i in range(n)]
        star = [-2 * w[i] / v[i] if v[i] != 0 and x[i] < -2 * w[i] / v[i] < x[i + 1] else None
                for i in range(n)]
        at_edge = [abs(F[j] / x[j]) for j in range(1, n + 1)]  # |A| at edges 1..n
        # per cell: the sup of |A| over the edges up to its left end, and that
        # of |A(s)|/s over the sites beyond its right end (edges and peaks)
        before = [max([mp.mpf(0)] + at_edge[:i]) for i in range(n)]
        later = [max([at_edge[j - 1] / x[j] for j in range(i + 1, n + 1)]
                     + [abs(v[k]) / (2 * star[k]) for k in range(i + 1, n) if star[k] is not None])
                 for i in range(n)]
        # the sites' expressions at r in cell i: edges up to r over r, |A(r)| / r
        # (the "r itself" site of both sups), later sites, this cell's peak
        terms = [lambda i, r: before[i] / r, lambda i, r: abs(w[i] + v[i] * r) / r ** 2,
                 lambda i, r: later[i], lambda i, r: abs(v[i]) / (2 * star[i])]

        def label(i, r):
            """The site attaining the larger sup at r, and the sign of F(r)."""
            sites = range(4 if star[i] is not None and r <= star[i] else 3)
            k = max(sites, key=lambda k: terms[k](i, r))
            return k, mp.sign(w[i] + v[i] * r) if k == 1 else 0

        pieces = []  # (a, b, cell, site)
        samples, tiny = 64, mp.mpf(10) ** (5 - dps)
        for i in range(n):
            a, b = x[i], x[i + 1]
            ts = ([a * (b / a) ** (mp.mpf(k) / samples) for k in range(samples + 1)] if a > 0
                  else [b * mp.mpf(k) / samples for k in range(samples + 1)])
            ts[0], ts[-1] = a + (b - a) * tiny, b - (b - a) * tiny
            labels = [label(i, t) for t in ts]
            cuts = [a]
            for lo, hi, l_lo, l_hi in zip(ts, ts[1:], labels, labels[1:]):
                if l_lo != l_hi:
                    while hi - lo > hi * tiny:
                        mid = (lo + hi) / 2
                        lo, hi = (mid, hi) if label(i, mid) == l_lo else (lo, mid)
                    cuts.append(lo)
            cuts.append(b)
            pieces += [(lo, hi, i, label(i, (lo + hi) / 2)[0]) for lo, hi in zip(cuts, cuts[1:])]
        top = max(at_edge)
        out = []
        for p in ps:
            p = mp.mpf(p)
            total = top ** p * x[-1] ** (1 - p) / (p - 1)
            for lo, hi, i, k in pieces:
                if k == 1:
                    total += mp.quad(lambda r: terms[1](i, r) ** p, [lo, hi])
                elif k == 0:
                    total += before[i] ** p * (lo ** (1 - p) - hi ** (1 - p)) / (p - 1)
                else:
                    total += terms[k](i, lo) ** p * (hi - lo)
            out.append(float(total))
        return out
