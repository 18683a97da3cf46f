"""Decreasing rearrangement of step functions.

The rearrangement ``f*`` of a step function sorts the cells of ``|f|`` by
value (stable, descending) and re-lays them out from the origin, keeping
each cell's width.  It is non-negative, non-increasing, equimeasurable with
``|f|`` and preserves every p-th power mass.  A cell too narrow to move the
running edge sum in double precision (a width below an ulp of the edge it
follows) is dropped from ``f*``.  The edges then come from a compensated
running sum that carries each dropped width into the next kept cell, so the
p-th power masses stay within rounding of ``f``'s however many are dropped.

:func:`check_partial_domination` accepts one upper limit ``s`` or a 1-D
array of them.  ``f*`` and the running sums of ``|f|`` and ``f*`` are built
once per ``f`` and kept while it lives, so the same frozen ``f*`` comes back
for the same ``f`` (a :class:`StepFunction` is immutable).  Each partial mass
is read off those sums by the reader of :mod:`hardylab.operators`, the one
code that evaluates ``F(s)`` at a point, in the floats of evaluating
:func:`cumulative`.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DoubleRangeError, InvalidParameterError
from .grid import Grid, StepFunction, _real_array, _step_function, p_norm
# cumulative is not called here; perfbench's span recorder looks the name up
from .operators import _CumulativeReader, cumulative


@dataclass(frozen=True, eq=False)
class RearrangedFunction:
    """A decreasing rearrangement, validated non-negative and non-increasing."""

    step: StepFunction

    def __post_init__(self) -> None:
        vals = self.step.values
        if np.any(vals < 0.0) or np.any(np.diff(vals) > 0.0):
            raise InvalidParameterError("rearranged values must be non-negative and non-increasing")


def _rearranged_cells(f: StepFunction) -> tuple[np.ndarray, np.ndarray]:
    """The edges and values of ``f*``: cells of ``|f|`` sorted by descending
    value (stable for ties), laid out from 0 by a running sum of widths that
    ends at ``f``'s support end; cells the sum cannot advance are dropped."""
    absvals = np.abs(_step_function(f).values)
    order = (-absvals).argsort(kind="stable")
    end = f.grid.support_end
    widths = f.grid.widths[order]
    sums = widths.cumsum()
    # carry the width of each step that left the sum unchanged into the edges
    # after it, so dropped widths move the next kept edge instead of being
    # lost one by one (with none lost this adds zeros)
    lost = sums == np.concatenate([[0.0], sums[:-1]])
    edges = np.minimum(np.concatenate([[0.0], sums + (widths * lost).cumsum()]), end)
    edges[-1] = end
    keep = edges[1:] > edges[:-1]
    return np.concatenate([[0.0], edges[1:][keep]]), absvals[order][keep]


class _Entry(NamedTuple):
    """What :func:`_rearranged` keeps per function; no entry refers to ``f``."""

    star: RearrangedFunction
    absf: _CumulativeReader
    fstar: _CumulativeReader
    finite: bool  # both total masses are finite


_MEMO = weakref.WeakKeyDictionary()


def _rearranged(f: StepFunction) -> _Entry:
    entry = _MEMO.get(_step_function(f))
    if entry is None:
        # the same entry whichever caller builds it: an overflowing running sum
        # is kept as inf and reported by check_partial_domination
        with np.errstate(over="ignore"):
            edges, values = _rearranged_cells(f)
            absf = _CumulativeReader(f.grid.edges, np.abs(f.values))
            fstar = _CumulativeReader(edges, values)
        # sums of non-negative terms never decrease, so the totals are the largest
        entry = _MEMO[f] = _Entry(RearrangedFunction(step=StepFunction(Grid(edges), values)),
                                  absf, fstar,
                                  math.isfinite(absf.left[-1]) and math.isfinite(fstar.left[-1]))
    return entry


def decreasing_rearrangement(f: StepFunction) -> RearrangedFunction:
    """Sort the cells of ``|f|`` by descending value (stable for ties).  The same
    frozen object comes back for the same ``f``, as a :class:`StepFunction` is immutable."""
    return _rearranged(f).star


def check_norm_preservation(f: StepFunction, p: float) -> tuple[float, float]:
    """Return ``(p_norm(f, p), p_norm(f*, p))``; they agree up to summation order."""
    return p_norm(f, p), p_norm(decreasing_rearrangement(f).step, p)


def check_partial_domination(f: StepFunction, s: float | np.ndarray) -> tuple:
    """Return ``(int_0^s |f|, int_0^s f*)``; the rearrangement dominates.

    ``s`` is one positive finite upper limit, giving two floats, or a 1-D
    array of them, giving two arrays whose elements equal the scalar calls.
    A mass that leaves the double range raises :class:`DoubleRangeError`.
    """
    if type(s) is float and 0.0 < s < math.inf:
        entry = _rearranged(f)
        # below the finite totals neither side can overflow
        if entry.finite:
            return entry.absf.at(s), entry.fstar.at(s)
    s_arr = _real_array(s, "upper limits")
    if s_arr.ndim > 1:
        raise InvalidParameterError(f"upper limits must be a scalar or 1-D, got shape {s_arr.shape}")
    if not (s_arr > 0.0).all():
        raise InvalidParameterError(f"upper limits must be positive, got {s}")
    entry = _rearranged(f)
    if not entry.finite:
        raise DoubleRangeError("values leave the double-precision range (overflow); rescale the input")
    lhs, rhs, points = entry.absf.at, entry.fstar.at, s_arr.tolist()
    if s_arr.ndim == 0:
        return lhs(points), rhs(points)
    return np.array([lhs(x) for x in points]), np.array([rhs(x) for x in points])
