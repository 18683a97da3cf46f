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
array of them, and reads both partial masses off the running sums of
:func:`cumulative` without building it.  ``f*`` and both sums are built once
per ``f`` and kept while it lives, so the same frozen ``f*`` comes back for
the same ``f`` (a :class:`StepFunction` is immutable).  A positive finite
``float`` limit is read in Python floats off lists kept with them: the same
two operations on the same doubles as the array path, so each result equals
that path's element bit for bit.
"""

from __future__ import annotations

import math
import weakref
from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DoubleRangeError, InvalidParameterError
from .grid import Grid, StepFunction, _real_array, _step_function, p_norm
# cumulative is not called here; perfbench's span recorder looks the name up
from .operators import _cumulative_at, _cumulative_edges, cumulative


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


class _Side(NamedTuple):
    """One step function's edges, values and ``F`` at its edges (its
    :func:`_cumulative_edges`), as arrays and as lists of Python floats."""

    edges: np.ndarray
    values: np.ndarray
    left: np.ndarray
    lists: tuple[list, list, list]

    @classmethod
    def of(cls, edges: np.ndarray, values: np.ndarray) -> _Side:
        left = _cumulative_edges(edges, values)
        return cls(edges, values, left, (edges.tolist(), values.tolist(), left.tolist()))

    def mass_at(self, s: float) -> float:
        """:func:`_cumulative_at` for one positive float ``s``, in Python
        floats: the same two operations on the same doubles, so the same float."""
        edges, values, left = self.lists
        n = len(values)
        if s >= edges[n]:
            return left[n]
        i = bisect_left(edges, s, 1, n) - 1
        return left[i] + (s - edges[i]) * values[i]


class _Entry(NamedTuple):
    """What :func:`_rearranged` keeps per function; no entry refers to ``f``."""

    star: RearrangedFunction
    absf: _Side
    fstar: _Side
    finite: bool  # both total masses are finite


_MEMO = weakref.WeakKeyDictionary()


def _rearranged(f: StepFunction) -> _Entry:
    entry = _MEMO.get(_step_function(f))
    if entry is None:
        # the same entry whichever caller builds it: an overflowing running sum
        # is kept as inf and reported by check_partial_domination
        with np.errstate(over="ignore"):
            edges, values = _rearranged_cells(f)
            absf, fstar = _Side.of(f.grid.edges, np.abs(f.values)), _Side.of(edges, values)
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
            return entry.absf.mass_at(s), entry.fstar.mass_at(s)
    return _partial_masses(f, s)


def _partial_masses(f: StepFunction, s) -> tuple:
    s_arr = _real_array(s, "upper limits")
    if s_arr.ndim > 1:
        raise InvalidParameterError(f"upper limits must be a scalar or 1-D, got shape {s_arr.shape}")
    if not (s_arr > 0.0).all():
        raise InvalidParameterError(f"upper limits must be positive, got {s}")
    entry = _rearranged(f)
    if not entry.finite:
        raise DoubleRangeError("values leave the double-precision range (overflow); rescale the input")
    lhs, rhs = (_cumulative_at(side.edges, side.values, side.left, s_arr)
                for side in (entry.absf, entry.fstar))
    return (float(lhs), float(rhs)) if s_arr.ndim == 0 else (lhs, rhs)
