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

Each kind is one row of :data:`KINDS` (numerator, sharp constant, p = 2
restriction, the kind its sweep evaluates); the per-kind functions
``hardy_ratio`` ... ``improved_hardy_rellich_ratio`` are shorthands for
:func:`ratio_evaluator`.
For ``new_hardy`` and ``improved_hardy_rellich`` the ``middle`` field
carries the classical numerator on the same quadrature nodes (it is a lower
bound for the improved one); for ``rellich_chain`` it is the intermediate
integral sitting between numerator and ``sharp * denominator``.

Every integral uses the fixed Gauss rules of :mod:`hardylab.quadrature`, and
``refinement_estimate`` compares them with the half-order rules.  The
half-order rules and the ``middle`` term are formed only where a report is
built; the sweeps, the maximize ascent and the checks read numerators and
denominators alone, which are the same without them.

The two-branch max form of :func:`corollary_int_check` is ``(M f)^p``
exactly, in floating point too (division by ``r`` and the p-th power are
monotone), so it reads both sides off the new_hardy values;
:func:`corollary_avg_check` is that form for the average ``F/s``, its
integral cut at its kinks and capped like the sup-min one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable

import numpy as np

from .errors import (DivergentIntegralError, DoubleRangeError, HardyLabError,
                     InvalidParameterError, ZeroDenominatorError)
from .grid import (StepBatch, StepFunction, _in_double_range, _step_function, as_batch,
                   check_exponent, check_real, p_norm)
from .quadrature import QUAD_ORDER, integrate_weighted_power
from .quadrature import (_cap_interval_ratio, _power_tail, _quadrature, _real_roots,  # shared
                         _split_cells, _totals)
from .operators import (_cumulative_edges, cumulative, double_cumulative, inner_cumulative,
                        supmin_branches)
from .rearrange import decreasing_rearrangement


@dataclass(frozen=True)
class Kind:
    """One inequality kind.

    ``numerator(f, p, estimate)`` takes a :class:`StepBatch` and returns,
    per function, the numerator, the ``middle`` term and the error estimate;
    without ``estimate`` (no report is built) the last two are ``None``, not
    computed, and the plain kinds' middle term is ``None`` always.
    ``sharp(p)`` is the sharp constant.
    ``p2_only`` kinds are stated for p = 2 only.  ``sweep`` names the kind a
    sweep of this kind evaluates (``None``: no sweep); ``new_hardy`` sweeps
    ``hardy`` (see ``sharpness_sweep``), every other sweep kind itself.
    """

    numerator: Callable
    sharp: Callable[[float], float]
    p2_only: bool = False
    sweep: str | None = None


DEFAULT_TOLERANCE = 1e-6  # relative; every contract check defaults to it
_TINY = float(np.finfo(float).tiny)


def check_tolerance(value, name: str) -> float:
    """``value`` as a float if it is positive and finite; otherwise an
    :class:`InvalidParameterError` naming its source ``name``."""
    return check_real(value, name, 0.0)


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
    refinement_estimate: float

    def to_json_dict(self) -> dict:
        return dict(vars(self))

    def violations(self, tol: float | None = None) -> list[str]:
        """Contract violations at relative tolerance ``tol`` (``None``:
        :data:`DEFAULT_TOLERANCE`); ``tol`` must be a positive finite number."""
        tol = DEFAULT_TOLERANCE if tol is None else check_tolerance(tol, "tol")
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


def _check_normal(name: str, values) -> None:
    """A :class:`DoubleRangeError` if a value is below the smallest normal
    double: a mass or integral that underflowed has lost its digits."""
    low = min(values, default=_TINY)
    if low < _TINY:
        raise DoubleRangeError(f"the {name} underflows to {'a subnormal' if low else '0'}; "
                               "rescale the input")


@_in_double_range
def _evaluate(f: StepBatch, kind: str, p: float, estimate: bool = True) -> list:
    """The reports of ``kind`` for a batch (``p`` already checked), or the
    error of a failing function; callers read them through :func:`_results`.
    Without ``estimate``, the ``(numerator, denominator)`` pairs instead: the
    reports' values, checked alike, with no middle term or estimate formed
    (so neither can raise)."""
    spec = KINDS[kind]
    den = p_norm(f, p)
    if not f.values.any():
        raise ZeroDenominatorError("input function vanishes identically")
    _check_normal("p-th power mass", den)
    num, middle, est = spec.numerator(f, p, estimate)
    _check_normal("numerator", num)
    _check_normal("middle term", middle or ())
    if not estimate:
        return list(zip(num, den))
    sharp = spec.sharp(p)
    return [RatioReport(kind, p, n, m, d, sharp, n / d, sharp - n / d, e)
            for n, m, d, e in zip(num, middle or repeat(None), den, est)]


def _results(f: StepBatch, kind: str, p: float, estimate: bool = True) -> Callable:
    """``k -> the result of function k`` (as :func:`_evaluate` gives it), from
    one pass over the batch.  Where that pass raises, function ``k`` is
    evaluated alone when it is asked for: an error is the one its function
    raises alone, and a function never asked for never raises."""
    try:
        return _evaluate(f, kind, p, estimate).__getitem__
    except HardyLabError:
        if len(f) == 1:
            raise
        return lambda k: _evaluate(f[k:k + 1], kind, p, estimate)[0]


# --------------------------------------------------------------------------
# Numerators.  Each looks the transforms and integrate_weighted_power up as
# module globals when called, so a wrapper set on this module sees the call.
# --------------------------------------------------------------------------


def _integral(P, alpha: float, p: float, estimate: bool):
    """``integrate_weighted_power``'s values and estimates (``None`` without ``estimate``)."""
    out = integrate_weighted_power(P, alpha, p, return_estimate=estimate)
    return out if estimate else (out, None)


def _classical(f: StepBatch, p: float, estimate: bool):
    """``\\int |F(r)/r|^p dr``: Hardy, and at p = 2 the second-order form for ``f = g'``."""
    num, est = _integral(cumulative(f), -p, p, estimate)
    return num, None, est


def _rellich(f: StepBatch, p: float, estimate: bool):
    """``\\int r^{-2p} D(r)^p dr`` with ``D`` the double cumulative of ``|f|``."""
    num, est = _integral(double_cumulative(abs(f)), -2.0 * p, p, estimate)
    return num, None, est


def _rellich_chain(f: StepBatch, p: float, estimate: bool):
    """The Rellich numerator, and as ``middle`` ``\\int r^{-2p} G(r)^p dr`` where
    ``G`` accumulates ``rellich_inner(f, .)`` exactly; the chain contract is
    numerator <= middle <= sharp * denominator.  Without ``estimate`` no report
    is built, so this is :func:`_rellich`: no ``G`` and no middle integral."""
    if not estimate:
        return _rellich(f, p, False)
    num, _, est_num = _rellich(f, p, True)
    mid, est_mid = _integral(inner_cumulative(f), -2.0 * p, p, True)
    return num, mid, [a + b for a, b in zip(est_num, est_mid)]


def _supmin(f: StepBatch, p: float, estimate: bool):
    """``\\int (M f)^p dr``, with the classical numerator on the same nodes as
    ``middle``: ``(|F|/r)^p <= (M f)^p`` holds to rounding.  The sup-min
    integral is also the corollary_int_check lhs: the two-branch max form is
    ``(M f)^p`` bit for bit (see there).  The middle term's estimate is never
    read, so its integrand keeps the fine rule's nodes only.  Without
    ``estimate`` no report is built, so no middle term is formed: ``|F|/r``
    is only a branch of ``M f``."""
    def integrand(r, a, u, v, mp, sb):
        # in place where possible: the matrices are the large arrays
        absF = r - a[:, None]
        absF *= v[:, None]
        absF += u[:, None]
        np.abs(absF, out=absF)                                  # |F(r)|
        classic = np.divide(absF, r, out=absF)
        supmin = np.divide(mp[:, None], r)
        np.maximum(supmin, classic, out=supmin)
        np.maximum(supmin, sb[:, None], out=supmin)             # M f(r)
        powers = [np.power(supmin, p, out=supmin)]
        if estimate:
            powers.append(np.power(classic, p, out=classic)[:, :QUAD_ORDER])
        return powers

    (lo, hi, *columns), bounds, peak, F_end = _supmin_rows(f)
    supmin, *classic = _quadrature(integrand, lo, hi, bounds, columns, estimate)
    # beyond the support M f(r) = peak / r and F is constant
    ends = f.grid.edges[f.grid.ends].tolist()
    beyond = [_power_tail(top, R, -p, p) for top, R in zip(peak, ends)]
    num, est = _totals(supmin, [beyond] * len(supmin))
    if not estimate:
        return num, None, None
    classic_beyond = [_power_tail(end, R, -p, p) for end, R in zip(F_end, ends)]
    middle, _ = _totals(classic[0], [classic_beyond])
    return num, middle, est


def _hardy_sharp(p: float) -> float:
    return (p / (p - 1.0)) ** p


def _rellich_sharp(p: float) -> float:
    """``p^(2p) / ((p-1)^p (2p-1)^p)``; from p = 76.03, where its powers leave the
    double range, the ratio form ``(p^2 / ((p-1)(2p-1)))^p``."""
    try:
        sharp = p ** (2.0 * p) / ((p - 1.0) ** p * (2.0 * p - 1.0) ** p)
    except OverflowError:
        sharp = 0.0
    if sharp == 0.0:
        sharp = (p * p / ((p - 1.0) * (2.0 * p - 1.0))) ** p
    if not sharp >= _TINY:  # p * p overflows to inf from p = 1.34e154, and inf / inf is NaN
        raise DoubleRangeError(f"the Rellich sharp constant at p = {p} underflows")
    return sharp


KINDS = {
    "hardy": Kind(_classical, _hardy_sharp, sweep="hardy"),
    "new_hardy": Kind(_supmin, _hardy_sharp, sweep="hardy"),
    "hardy_rellich_int": Kind(_classical, _hardy_sharp, p2_only=True, sweep="hardy_rellich_int"),
    "improved_hardy_rellich": Kind(_supmin, _hardy_sharp, p2_only=True),
    "rellich_p": Kind(_rellich, _rellich_sharp),
    "rellich_chain": Kind(_rellich_chain, _rellich_sharp, sweep="rellich_chain"),
}

# kinds accepted by ratio_evaluator / the CLI
REPORT_KINDS = tuple(KINDS)


def _kind(kind: str, p: float) -> Kind:
    """The table row of ``kind``, checked against the exponent ``p``."""
    if not isinstance(kind, str) or kind not in KINDS:
        raise InvalidParameterError(f"unknown inequality kind {kind!r}")
    if KINDS[kind].p2_only and p != 2.0:
        raise InvalidParameterError(f"{kind} is stated for p = 2 only, got p = {p}")
    return KINDS[kind]


def sharp_constant(kind: str, p: float) -> float:
    """The sharp constant of the requested inequality kind."""
    p = check_exponent(p)
    return _kind(kind, p).sharp(p)


def ratio_evaluator(kind: str, p: float) -> Callable:
    """An evaluator for the requested kind: ``StepFunction -> RatioReport``,
    and ``StepBatch -> list[RatioReport]`` with one report per function."""
    p = check_exponent(p)
    _kind(kind, p)

    def evaluate(f):
        """One report, or for a batch a list read in order through
        :func:`_results`: an error is the lowest-index failing function's own."""
        result = _results(as_batch(f), kind, p)
        return [result(k) for k in range(len(f))] if isinstance(f, StepBatch) else result(0)
    return evaluate


# Shorthands: each takes one StepFunction (and returns its RatioReport) or a
# StepBatch (and returns one report per function).


def hardy_ratio(f, p: float):
    """``\\int |F(r)/r|^p dr`` against ``(p/(p-1))^p \\int |f|^p dr``."""
    return ratio_evaluator("hardy", p)(f)


def new_hardy_ratio(f, p: float):
    """Hardy with ``|F(r)|/r`` replaced by the sup-min transform (same sharp constant)."""
    return ratio_evaluator("new_hardy", p)(f)


def hardy_rellich_int_ratio(gprime):
    """The p = 2 Hardy bound read as a second-order inequality (sharp 4)."""
    return ratio_evaluator("hardy_rellich_int", 2.0)(gprime)


def improved_hardy_rellich_ratio(gprime):
    """The p = 2 sup-min strengthening of the second-order bound (sharp 4)."""
    return ratio_evaluator("improved_hardy_rellich", 2.0)(gprime)


def rellich_p_ratio(f, p: float):
    """``\\int r^{-2p} D(r)^p dr`` against its sharp multiple of ``\\int |f|^p``."""
    return ratio_evaluator("rellich_p", p)(f)


def rellich_chain(f, p: float):
    """Rellich bound with the intermediate sup-min term reported as ``middle``."""
    return ratio_evaluator("rellich_chain", p)(f)


# --------------------------------------------------------------------------
# Sup-min integrals (improved Hardy forms and the corollary checks)
# --------------------------------------------------------------------------


def _supmin_rows(f):
    """Quadrature intervals on which the sup-min integrand is smooth.

    Within cell ``i`` the transform is ``max(prefix/r, |F(r)|/r, suffix)``;
    cells are split wherever two branches cross or ``F`` changes sign, so
    every interval carries a single analytic formula.  The breakpoint
    formulas are evaluated for all cells at once and those strictly inside
    their cell split it; interval ratios are then capped.  Returns the
    interval arrays, the per-function interval offsets, and per function the
    global peak of ``|F|`` (tail coefficient) and ``F(r_n)``.
    """
    f = as_batch(f)
    F_edges, prefix, suffix = supmin_branches(f)
    grid = f.grid
    a = grid.a
    u, v, mp, sb = F_edges[grid.left], f.values, prefix[grid.left], suffix
    # a division by zero gives inf or NaN, which _split_cells drops
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cand = np.stack((
            # zero of F: no kink of M f, but one of the classical |F|/r that new_hardy's
            # middle integrates on these same nodes, so the cut stays
            a - u / v,
            a + (mp - u) / v,               # |F(r)| overtakes the past peak
            a + (-mp - u) / v,
            mp / sb,                        # past-peak branch meets the future one
            (v * a - u) / (v - sb),         # F(r) = +-(future branch) * r
            (v * a - u) / (v - -sb),
        ))
    cand[3:, sb <= 0.0] = np.nan  # no future branch to meet
    lo, hi, cell, bounds = _cap_interval_ratio(*_split_cells(a, grid.b, grid.offsets, cand))
    rows = (lo, hi, a[cell], u[cell], v[cell], mp[cell], sb[cell])
    return rows, bounds, prefix[grid.ends].tolist(), F_edges[grid.ends].tolist()


@_in_double_range
def weighted_supmin_check(f: StepFunction, p: float) -> tuple[float, float]:
    """``\\int (M f)^p dr`` against ``\\int |F*(r)/r|^p dr`` (rearranged side).

    The rearranged side dominates; both sides are 0 for ``f = 0``.
    """
    p = check_exponent(p)
    (lhs,), _, _ = _supmin(as_batch(_step_function(f)), p, False)
    fstar = decreasing_rearrangement(f).step
    rhs = integrate_weighted_power(cumulative(fstar), -p, p)
    return lhs, rhs


def corollary_int_check(f: StepFunction, p: float) -> tuple[float, float]:
    """Two-branch max form of the improved Hardy bound.

    lhs = ``\\int max{ sup_{s<=r} |F(s)|^p / r^p, sup_{s>=r} |F(s)|^p / s^p } dr``,
    rhs = ``(p/(p-1))^p \\int |f|^p``.  On a cell the branches are
    ``(max(prefix, |F(r)|) / r)^p`` and ``max(|F(r)| / r, suffix)^p``.  Division
    by ``r > 0`` and the p-th power are monotone in floating point too, so
    their maximum is ``max(prefix / r, |F(r)| / r, suffix)^p = (M f(r))^p``
    exactly: the lhs is the new_hardy numerator and the rhs the report's
    sharp multiple of its denominator.
    """
    f, p = _step_function(f), check_exponent(p)
    ((lhs, den),) = _evaluate(as_batch(f), "new_hardy", p, False)
    rhs = _hardy_sharp(p) * den
    if not math.isfinite(rhs):  # a product of Python floats: no np.errstate sees it
        raise DoubleRangeError("the right-hand side leaves the double range; rescale the input")
    return lhs, rhs


# --------------------------------------------------------------------------
# Running-average corollary
# --------------------------------------------------------------------------


def _power_moment(f: StepFunction, p: float, beta: float) -> float:
    """``\\int r^beta |f|^p dr`` (``beta < -1``) in closed form, summed over the
    nonzero cells only: an edge power on a zero cell may overflow."""
    nonzero = f.values != 0.0
    a, b, e = f.grid.edges[:-1][nonzero], f.grid.edges[1:][nonzero], beta + 1.0
    return math.fsum((np.abs(f.values[nonzero]) ** p * (a ** e - b ** e) / -e).tolist())


def _running_average_maxform_integral(f: StepFunction, p: float) -> float:
    """``\\int max{ sup_{s<=r} |A(s)|^p / r^p, sup_{s>=r} |A(s)|^p / s^p } dr``
    with ``A(s) = F(s)/s`` the running average.

    On a cell ``F(s) = v s + w``: ``A`` is monotone, and ``|A(s)|/s`` has one
    interior peak, ``|v| / (2 s*)`` at ``s* = -2w/v``.  Cut there, each piece has
    the integrand ``max(prefix / r, |A(r)| / r, suffix)^p`` (the two branches
    joined as in :func:`corollary_int_check`): ``prefix`` is the running max of
    ``|A|`` at the earlier edges, ``suffix`` the reverse running max of
    ``|A(e)| / e`` from the piece's right edge on.  As in :func:`_supmin_rows`
    the pieces are cut where two branches cross, then capped; beyond the
    support the integrand is ``(prefix / r)^p``.  A zero of ``F`` needs no cut:
    there ``|A(r)| / r = 0`` lies below a positive ``prefix / r`` or ``suffix``.
    """
    a, b, v = f.grid.edges[:-1], f.grid.edges[1:], f.values
    F_edges = _cumulative_edges(f.grid.edges, f.values)
    u, absA = F_edges[:-1], np.abs(F_edges[1:] / b)         # |A| at the right edges
    prefix = np.maximum.accumulate(np.concatenate(([0.0], absA)))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = u - v * a
        s_star = -2.0 * w / v              # inf or NaN for v = 0: never inside a cell
    lo, hi, cell, bounds = _split_cells(a, b, np.array([0, a.size]), s_star)
    a, u, v, w, mp = a[cell], u[cell], v[cell], w[cell], prefix[cell]
    peak = hi < b[cell]
    at_edge = absA[cell] / hi
    at_edge[peak] = np.abs(v[peak]) / (2.0 * hi[peak])
    sb = np.maximum.accumulate(at_edge[::-1])[::-1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cand = np.concatenate(([-w / (v - mp),    # |A(r)| overtakes the past peak
                                -w / (v + mp),
                                mp / sb],         # past-peak branch meets the future one
                               _real_roots(-w, -v, sb),   # F(r) = +-suffix * r^2
                               _real_roots(w, v, sb)))
    lo, hi, piece, bounds = _cap_interval_ratio(*_split_cells(lo, hi, bounds, cand))

    def integrand(r, a, u, v, mp, sb):
        top = np.abs(u[:, None] + v[:, None] * (r - a[:, None])) / r     # |A(r)|
        np.maximum(top, mp[:, None], out=top)
        top /= r
        np.maximum(top, sb[:, None], out=top)
        return [np.power(top, p, out=top)]

    (body,) = _quadrature(integrand, lo, hi, bounds, [c[piece] for c in (a, u, v, mp, sb)], False)
    tail = [float(_power_tail(prefix[-1], f.grid.support_end, -p, p))]
    return _totals(body, [tail])[0][0]


@_in_double_range
def corollary_avg_check(f: StepFunction, p: float) -> tuple[float, float]:
    """Running-average max-form bound for functions supported away from 0.

    lhs integrates the two-branch max of ``A(s) = F(s)/s``; rhs is
    ``(p/(p-1))^p * 2^(p-1) * ( \\int r^-p |f|^p + \\int r^-2p \\int_0^r |f|^p )``,
    which is finite only when ``f`` vanishes on a neighbourhood of 0.  By
    parts the second integral is ``\\int r^(1-2p) |f|^p / (2p-1)``: the inner
    integral is 0 on the first cell and constant beyond the support.
    """
    p = check_exponent(p)
    if not np.any(_step_function(f).values != 0.0):
        raise ZeroDenominatorError("input function vanishes identically")
    if f.values[0] != 0.0:
        raise DivergentIntegralError(
            "right-hand side diverges: f must vanish on the first cell (support away from 0)"
        )
    lhs = _running_average_maxform_integral(f, p)
    rhs = sharp_constant("hardy", p) * 2.0 ** (p - 1.0) * (
        _power_moment(f, p, -p) + _power_moment(f, p, 1.0 - 2.0 * p) / (2.0 * p - 1.0))
    if not math.isfinite(rhs):  # as in corollary_int_check
        raise DoubleRangeError("the right-hand side leaves the double range; rescale the input")
    return lhs, rhs
