"""Ratio reports for the Hardy / Rellich family of integral inequalities.

Every checker returns a :class:`RatioReport` comparing a weighted integral
of some transform of ``f`` (the numerator) against the sharp multiple of
``\\int |f|^p`` (the denominator).  The report is a plain value object; its
:meth:`RatioReport.violations` method spells out the contract the kind is
supposed to satisfy, gated by a single relative tolerance.

Kinds
-----
hardy                   ``\\int |F(r)/r|^p  <=  (p/(p-1))^p \\int |f|^p``
new_hardy               the same bound with ``|F(r)|/r`` replaced by the
                        pointwise larger sup-min transform ``M f(r)``
hardy_rellich_int       the p = 2 instance written for ``f = g'``, sharp 4
improved_hardy_rellich  its sup-min strengthening, sharp 4
rellich_p               ``\\int r^{-2p} D(r)^p  <=  sharp * \\int |f|^p``
rellich_chain           rellich_p together with the intermediate term built
                        from ``rellich_inner``, reported as ``middle``

For ``new_hardy`` and ``improved_hardy_rellich`` the ``middle`` field
carries the classical numerator on the same quadrature nodes (it is a lower
bound for the improved one); for ``rellich_chain`` it is the intermediate
integral sitting between numerator and ``sharp * denominator``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import default_tolerance
from .errors import DivergentIntegralError, InvalidParameterError, ZeroDenominatorError
from .grid import (DEFAULT_QUAD_ORDER, StepFunction, check_exponent,
                   integrate_weighted_power, p_norm)
from .grid import _cap_interval_ratio, _cell_cuts, _estimate, _gauss_legendre  # shared helpers
from .operators import cumulative, double_cumulative, inner_cumulative, supmin_branches
from .rearrange import decreasing_rearrangement

SHARP_KINDS = ("hardy", "new_hardy", "hardy_rellich_int", "rellich_p", "rellich_chain")

# kinds accepted by ratio_evaluator / the CLI (the two p = 2 strengthened
# forms are reported under their own names but share the sharp constant 4)
REPORT_KINDS = ("hardy", "new_hardy", "hardy_rellich_int", "improved_hardy_rellich",
                "rellich_p", "rellich_chain")


def sharp_constant(kind: str, p: float) -> float:
    """The sharp constant of the requested inequality kind."""
    p = check_exponent(p)
    if kind in ("hardy", "new_hardy"):
        return (p / (p - 1.0)) ** p
    if kind == "hardy_rellich_int":
        if p != 2.0:
            raise InvalidParameterError(f"hardy_rellich_int is stated for p = 2 only, got p = {p}")
        return 4.0
    if kind in ("rellich_p", "rellich_chain"):
        return p ** (2.0 * p) / ((p - 1.0) ** p * (2.0 * p - 1.0) ** p)
    raise InvalidParameterError(f"unknown inequality kind {kind!r}")


@dataclass(frozen=True)
class RatioReport:
    """Outcome of one inequality evaluation.

    ``middle`` is ``None`` for the plain kinds; for ``rellich_chain`` it is
    the intermediate chain term, for ``new_hardy``/``improved_hardy_rellich``
    the classical numerator evaluated on the same nodes.  ``slack`` is
    ``sharp - ratio`` and ``refinement_estimate`` the observed quadrature
    error indicator (half-order comparison).
    """

    kind: str
    p: float
    numerator: float
    middle: float | None
    denominator: float
    sharp: float
    ratio: float
    slack: float
    quad_order: int
    refinement_estimate: float

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "p": self.p,
            "numerator": self.numerator,
            "middle": self.middle,
            "denominator": self.denominator,
            "sharp": self.sharp,
            "ratio": self.ratio,
            "slack": self.slack,
            "quad_order": self.quad_order,
            "refinement_estimate": self.refinement_estimate,
        }

    def violations(self, tol: float | None = None) -> list[str]:
        """Contract violations at relative tolerance ``tol`` (default config)."""
        if tol is None:
            tol = default_tolerance()
        msgs: list[str] = []
        if self.ratio - self.sharp > tol * self.sharp:
            msgs.append(f"ratio {self.ratio!r} exceeds sharp constant {self.sharp!r}")
        if self.middle is not None:
            scale = max(abs(self.numerator), abs(self.middle))
            if self.kind == "rellich_chain":
                if self.numerator - self.middle > tol * scale:
                    msgs.append(f"numerator {self.numerator!r} exceeds middle term {self.middle!r}")
                bound = self.sharp * self.denominator
                if self.middle - bound > tol * bound:
                    msgs.append(f"middle term {self.middle!r} exceeds sharp * denominator {bound!r}")
            else:
                if self.middle - self.numerator > tol * scale:
                    msgs.append(
                        f"classical numerator {self.middle!r} exceeds improved numerator "
                        f"{self.numerator!r}"
                    )
        return msgs


def _nonzero_mass(f: StepFunction, p: float) -> float:
    den = p_norm(f, p)
    if den <= 0.0:
        raise ZeroDenominatorError("input function vanishes identically")
    return den


def _build(kind: str, p: float, numerator: float, denominator: float, sharp: float,
           quad_order: int, estimate: float, middle: float | None = None) -> RatioReport:
    ratio = numerator / denominator
    return RatioReport(kind=kind, p=float(p), numerator=float(numerator),
                       middle=None if middle is None else float(middle),
                       denominator=float(denominator), sharp=float(sharp),
                       ratio=float(ratio), slack=float(sharp - ratio),
                       quad_order=int(quad_order), refinement_estimate=float(estimate))


# --------------------------------------------------------------------------
# Classical Hardy and the Rellich pair via the generic quadrature
# --------------------------------------------------------------------------


def hardy_ratio(f: StepFunction, p: float, quad_order: int = DEFAULT_QUAD_ORDER) -> RatioReport:
    """``\\int |F(r)/r|^p dr`` against ``(p/(p-1))^p \\int |f|^p dr``."""
    p = check_exponent(p)
    den = _nonzero_mass(f, p)
    num, est = integrate_weighted_power(cumulative(f), -p, p, quad_order, return_estimate=True)
    return _build("hardy", p, num, den, sharp_constant("hardy", p), quad_order, est)


def hardy_rellich_int_ratio(gprime: StepFunction,
                            quad_order: int = DEFAULT_QUAD_ORDER) -> RatioReport:
    """The p = 2 Hardy bound read as a second-order inequality (sharp 4)."""
    den = _nonzero_mass(gprime, 2.0)
    num, est = integrate_weighted_power(cumulative(gprime), -2.0, 2.0, quad_order,
                                        return_estimate=True)
    return _build("hardy_rellich_int", 2.0, num, den, 4.0, quad_order, est)


def rellich_p_ratio(f: StepFunction, p: float,
                    quad_order: int = DEFAULT_QUAD_ORDER) -> RatioReport:
    """``\\int r^{-2p} D(r)^p dr`` against its sharp multiple of ``\\int |f|^p``."""
    p = check_exponent(p)
    den = _nonzero_mass(f, p)
    D = double_cumulative(abs(f))
    num, est = integrate_weighted_power(D, -2.0 * p, p, quad_order, return_estimate=True)
    return _build("rellich_p", p, num, den, sharp_constant("rellich_p", p), quad_order, est)


def rellich_chain(f: StepFunction, p: float,
                  quad_order: int = DEFAULT_QUAD_ORDER) -> RatioReport:
    """Rellich bound with the intermediate sup-min term reported as ``middle``.

    numerator = ``\\int r^{-2p} D(r)^p`` with ``D`` the double cumulative of
    ``|f|``; middle = ``\\int r^{-2p} G(r)^p`` where ``G`` accumulates
    ``rellich_inner(f, .)`` exactly; the chain contract is
    numerator <= middle <= sharp * denominator.
    """
    p = check_exponent(p)
    den = _nonzero_mass(f, p)
    absf = abs(f)
    D = double_cumulative(absf)
    num, est_num = integrate_weighted_power(D, -2.0 * p, p, quad_order, return_estimate=True)
    G = inner_cumulative(absf)
    mid, est_mid = integrate_weighted_power(G, -2.0 * p, p, quad_order, return_estimate=True)
    return _build("rellich_chain", p, num, den, sharp_constant("rellich_chain", p),
                  quad_order, est_num + est_mid, middle=mid)


# --------------------------------------------------------------------------
# Sup-min integrals (improved Hardy forms and the corollary checks)
# --------------------------------------------------------------------------


def _supmin_rows(f: StepFunction):
    """Quadrature intervals on which the sup-min integrand is smooth.

    Within cell ``i`` the transform is ``max(prefix/r, |F(r)|/r, suffix)``;
    cells are split wherever two branches cross or ``F`` changes sign, so
    every interval carries a single analytic formula.  The breakpoint
    formulas are evaluated for all cells at once and those strictly inside
    their cell join the edges in one capped cut array.  Returns the interval
    arrays together with the global peak of ``|F|`` (tail coefficient) and
    ``F(r_n)``.
    """
    F_edges, prefix, suffix = supmin_branches(f)
    edges = f.grid.edges
    a = edges[:-1]
    u, v, mp, sb = F_edges[:-1], f.values, prefix[:-1], suffix
    # a division by zero gives inf or NaN, which _cell_cuts drops
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cand = np.stack((
            a - u / v,                      # zero of F: kink of |F|
            a + (mp - u) / v,               # |F(r)| overtakes the past peak
            a + (-mp - u) / v,
            mp / sb,                        # past-peak branch meets the future one
            (v * a - u) / (v - sb),         # F(r) = +-(future branch) * r
            (v * a - u) / (v - -sb),
        ))
    cand[3:, sb <= 0.0] = np.nan  # no future branch to meet
    cuts = _cap_interval_ratio(_cell_cuts(edges, cand))
    lo, hi = cuts[:-1], cuts[1:]
    cell = np.searchsorted(edges, lo, side="right") - 1
    rows = (lo, hi, a[cell], u[cell], v[cell], mp[cell], sb[cell])
    return rows, float(prefix[-1]), float(F_edges[-1])


def _supmin_integrals(rows, peak: float, F_end: float, R: float, p: float,
                      order: int) -> tuple[float, float, float]:
    """(sup-min, classical, max-form) p-th power integrals over ``(0, inf)``.

    All three share nodes: sup-min integrates ``(M f)^p``, classical
    ``(|F|/r)^p``, and max-form the two-branch maximum of the corollary —
    the latter two bracket the same object, so sharing nodes makes their
    expected identities hold to rounding.
    """
    lo, hi, a, u, v, mp, sb = rows
    x, w = _gauss_legendre(order)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    r = mid[:, None] + half[:, None] * x[None, :]
    absF = np.abs(u[:, None] + v[:, None] * (r - a[:, None]))
    classic = absF / r
    m = np.maximum(np.maximum(mp[:, None] / r, classic), sb[:, None])
    branch1 = (np.maximum(mp[:, None], absF) / r) ** p
    branch2 = np.maximum(classic, sb[:, None]) ** p
    supmin_val = math.fsum(((m ** p) @ w * half).tolist())
    classic_val = math.fsum(((classic ** p) @ w * half).tolist())
    maxform_val = math.fsum((np.maximum(branch1, branch2) @ w * half).tolist())
    # beyond the support M f(r) = peak / r and F is constant
    tail_scale = R ** (1.0 - p) / (p - 1.0)
    supmin_tail = peak ** p * tail_scale
    return (supmin_val + supmin_tail,
            classic_val + abs(F_end) ** p * tail_scale,
            maxform_val + supmin_tail)


def _supmin_with_estimate(f: StepFunction, p: float, order: int):
    rows, peak, F_end = _supmin_rows(f)
    R = f.grid.support_end
    fine = _supmin_integrals(rows, peak, F_end, R, p, order)
    coarse = _supmin_integrals(rows, peak, F_end, R, p, max(2, order // 2))
    return fine, _estimate(fine[0], coarse[0])


def new_hardy_ratio(f: StepFunction, p: float,
                    quad_order: int = DEFAULT_QUAD_ORDER) -> RatioReport:
    """Hardy with ``|F(r)|/r`` replaced by the sup-min transform.

    Same sharp constant; the classical numerator on the same nodes is
    reported as ``middle`` (always a lower bound).
    """
    p = check_exponent(p)
    den = _nonzero_mass(f, p)
    (num, classic, _), est = _supmin_with_estimate(f, p, int(quad_order))
    return _build("new_hardy", p, num, den, sharp_constant("new_hardy", p),
                  quad_order, est, middle=classic)


def improved_hardy_rellich_ratio(gprime: StepFunction,
                                 quad_order: int = DEFAULT_QUAD_ORDER) -> RatioReport:
    """The p = 2 sup-min strengthening of the second-order bound (sharp 4)."""
    den = _nonzero_mass(gprime, 2.0)
    (num, classic, _), est = _supmin_with_estimate(gprime, 2.0, int(quad_order))
    return _build("improved_hardy_rellich", 2.0, num, den, 4.0, quad_order, est,
                  middle=classic)


def weighted_supmin_check(f: StepFunction, p: float,
                          quad_order: int = DEFAULT_QUAD_ORDER) -> tuple[float, float]:
    """``\\int (M f)^p dr`` against ``\\int |F*(r)/r|^p dr`` (rearranged side).

    The rearranged side dominates; both sides are 0 for ``f = 0``.
    """
    p = check_exponent(p)
    rows, peak, F_end = _supmin_rows(f)
    lhs = _supmin_integrals(rows, peak, F_end, f.grid.support_end, p, int(quad_order))[0]
    fstar = decreasing_rearrangement(f).step
    rhs = integrate_weighted_power(cumulative(fstar), -p, p, quad_order)
    return lhs, rhs


def corollary_int_check(f: StepFunction, p: float,
                        quad_order: int = DEFAULT_QUAD_ORDER) -> tuple[float, float]:
    """Two-branch max form of the improved Hardy bound.

    lhs = ``\\int max{ sup_{s<=r} |F(s)|^p / r^p, sup_{s>=r} |F(s)|^p / s^p } dr``
    (equal to the new_hardy numerator), rhs = ``(p/(p-1))^p \\int |f|^p``.
    """
    p = check_exponent(p)
    den = _nonzero_mass(f, p)
    rows, peak, F_end = _supmin_rows(f)
    lhs = _supmin_integrals(rows, peak, F_end, f.grid.support_end, p, int(quad_order))[2]
    rhs = sharp_constant("hardy", p) * den
    return lhs, rhs


# --------------------------------------------------------------------------
# Running-average corollary
# --------------------------------------------------------------------------


def _inverse_power_mass(f: StepFunction, p: float) -> float:
    """``\\int r^{-p} |f|^p dr`` in closed form (f must vanish near 0)."""
    edges = f.grid.edges
    terms = []
    for a, b, v in zip(edges[:-1], edges[1:], f.values):
        if v == 0.0:
            continue
        if a == 0.0:
            raise DivergentIntegralError("r^-p weight diverges: f does not vanish near 0")
        terms.append(abs(v) ** p * (a ** (1.0 - p) - b ** (1.0 - p)) / (p - 1.0))
    return math.fsum(terms)


def _mass_tail_integral(f: StepFunction, p: float) -> float:
    """``\\int r^{-2p} (\\int_0^r |f|^p dt) dr`` in closed form."""
    edges = f.grid.edges
    w = f.grid.widths
    q = np.abs(f.values) ** p
    H_left = np.concatenate([[0.0], np.cumsum(q * w)])
    terms = []
    for i in range(f.grid.n_cells):
        a = float(edges[i])
        b = float(edges[i + 1])
        h = float(H_left[i])
        qi = float(q[i])
        if h == 0.0 and qi == 0.0:
            continue
        if a == 0.0:
            raise DivergentIntegralError("r^-2p weight diverges: f does not vanish near 0")
        # H(r) = (h - qi a) + qi r on the cell
        terms.append((h - qi * a) * (a ** (1.0 - 2.0 * p) - b ** (1.0 - 2.0 * p)) / (2.0 * p - 1.0))
        terms.append(qi * (a ** (2.0 - 2.0 * p) - b ** (2.0 - 2.0 * p)) / (2.0 * p - 2.0))
    R = float(edges[-1])
    terms.append(float(H_left[-1]) * R ** (1.0 - 2.0 * p) / (2.0 * p - 1.0))
    return math.fsum(terms)


_AVG_SUBDIV = 8  # even subdivision per cell for the kinked integrand below


def _running_average_maxform_integral(f: StepFunction, p: float, order: int) -> float:
    """``\\int max{ sup_{s<=r} |A(s)|^p / r^p, sup_{s>=r} |A(s)|^p / s^p } dr``
    with ``A(s) = F(s)/s`` the running average."""
    edges = f.grid.edges
    vals = f.values
    n = f.grid.n_cells
    F_edges = cumulative(f).evaluate(edges)
    A_edges = np.zeros(n + 1)
    A_edges[1:] = F_edges[1:] / edges[1:]
    prefixA = np.maximum.accumulate(np.abs(A_edges))

    # per-cell sup of |A(s)| / s over the closure: A is monotone on each cell,
    # but A/s may peak at the interior critical point of (v s + w)/s^2
    def cell_peak(i: int, lo: float) -> float:
        a, b = float(edges[i]), float(edges[i + 1])
        u, v = float(F_edges[i]), float(vals[i])
        wc = u - v * a
        best = abs(A_edges[i + 1]) / b
        if lo > 0.0:
            best = max(best, abs(u + v * (lo - a)) / lo ** 2)
        if v != 0.0:
            s_star = -2.0 * wc / v
            if lo < s_star < b:
                best = max(best, abs(v * s_star + wc) / s_star ** 2)
        return best

    T = np.array([cell_peak(i, float(edges[i])) for i in range(n)])
    suffixT = np.zeros(n + 1)
    suffixT[:-1] = np.maximum.accumulate(T[::-1])[::-1]

    x, wq = _gauss_legendre(order)
    total_parts: list[float] = []
    for i in range(n):
        a, b = float(edges[i]), float(edges[i + 1])
        u, v = float(F_edges[i]), float(vals[i])
        wc = u - v * a
        sub = np.linspace(a, b, _AVG_SUBDIV + 1)
        half = 0.5 * np.diff(sub)
        r = (0.5 * (sub[:-1] + sub[1:]))[:, None] + half[:, None] * x[None, :]
        absA = np.abs(u + v * (r - a)) / r
        b1 = (np.maximum(prefixA[i], absA) / r) ** p
        partial = np.maximum(absA / r, abs(A_edges[i + 1]) / b)
        if v != 0.0:
            s_star = -2.0 * wc / v
            if a < s_star < b:
                peak = abs(v * s_star + wc) / s_star ** 2
                partial = np.where(r < s_star, np.maximum(partial, peak), partial)
        b2 = np.maximum(partial, suffixT[i + 1]) ** p
        total_parts.append(float(np.maximum(b1, b2) @ wq @ half))
    R = float(edges[-1])
    tail = prefixA[-1] ** p * R ** (1.0 - p) / (p - 1.0)
    return math.fsum(total_parts) + tail


def corollary_avg_check(f: StepFunction, p: float,
                        quad_order: int = DEFAULT_QUAD_ORDER) -> tuple[float, float]:
    """Running-average max-form bound for functions supported away from 0.

    lhs integrates the two-branch max of ``A(s) = F(s)/s``; rhs is
    ``(p/(p-1))^p * 2^(p-1) * ( \\int r^-p |f|^p + \\int r^-2p \\int_0^r |f|^p )``,
    which is finite only when ``f`` vanishes on a neighbourhood of 0.
    """
    p = check_exponent(p)
    if not np.any(f.values != 0.0):
        raise ZeroDenominatorError("input function vanishes identically")
    if f.values[0] != 0.0:
        raise DivergentIntegralError(
            "right-hand side diverges: f must vanish on the first cell (support away from 0)"
        )
    lhs = _running_average_maxform_integral(f, p, int(quad_order))
    rhs = sharp_constant("hardy", p) * 2.0 ** (p - 1.0) * (
        _inverse_power_mass(f, p) + _mass_tail_integral(f, p))
    return lhs, rhs


# --------------------------------------------------------------------------
# Kind dispatch
# --------------------------------------------------------------------------


def ratio_evaluator(kind: str, p: float,
                    quad_order: int = DEFAULT_QUAD_ORDER) -> Callable[[StepFunction], RatioReport]:
    """A ``StepFunction -> RatioReport`` closure for the requested kind."""
    p = check_exponent(p)
    if kind in ("hardy_rellich_int", "improved_hardy_rellich") and p != 2.0:
        raise InvalidParameterError(f"{kind} is stated for p = 2 only, got p = {p}")
    if kind == "hardy":
        return lambda f: hardy_ratio(f, p, quad_order)
    if kind == "new_hardy":
        return lambda f: new_hardy_ratio(f, p, quad_order)
    if kind == "hardy_rellich_int":
        return lambda f: hardy_rellich_int_ratio(f, quad_order)
    if kind == "improved_hardy_rellich":
        return lambda f: improved_hardy_rellich_ratio(f, quad_order)
    if kind == "rellich_p":
        return lambda f: rellich_p_ratio(f, p, quad_order)
    if kind == "rellich_chain":
        return lambda f: rellich_chain(f, p, quad_order)
    raise InvalidParameterError(f"unknown inequality kind {kind!r}")
