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
the same ``f`` (a :class:`StepFunction` is immutable).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .grid import Grid, StepFunction, _in_double_range, _real_array, _step_function, p_norm
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
    edges = np.minimum(np.concatenate([[0.0], sums]), end)
    edges[-1] = end
    values = absvals[order]
    keep = edges[1:] > edges[:-1]
    if not keep.all():
        # carry the width of each step that left the sum unchanged into the
        # edges after it, so dropped widths move the next kept edge instead
        # of being lost one by one
        lost = sums == np.concatenate([[0.0], sums[:-1]])
        edges = np.minimum(np.concatenate([[0.0], sums + (widths * lost).cumsum()]), end)
        edges[-1] = end
        keep = edges[1:] > edges[:-1]
        edges, values = np.concatenate([[0.0], edges[1:][keep]]), values[keep]
    return edges, values


_MEMO = weakref.WeakKeyDictionary()


def _rearranged(f: StepFunction) -> tuple[RearrangedFunction, np.ndarray, np.ndarray]:
    """``(f*, F of |f| at f's edges, F* at f*'s edges)``; no entry refers to ``f``."""
    entry = _MEMO.get(_step_function(f))
    if entry is None:
        edges, values = _rearranged_cells(f)
        entry = _MEMO[f] = (RearrangedFunction(step=StepFunction(Grid(edges), values)),
                            _cumulative_edges(f.grid.edges, np.abs(f.values)),
                            _cumulative_edges(edges, values))
    return entry


def decreasing_rearrangement(f: StepFunction) -> RearrangedFunction:
    """Sort the cells of ``|f|`` by descending value (stable for ties).  The same
    frozen object comes back for the same ``f``, as a :class:`StepFunction` is immutable."""
    return _rearranged(f)[0]


def check_norm_preservation(f: StepFunction, p: float) -> tuple[float, float]:
    """Return ``(p_norm(f, p), p_norm(f*, p))``; they agree up to summation order."""
    return p_norm(f, p), p_norm(decreasing_rearrangement(f).step, p)


@_in_double_range
def check_partial_domination(f: StepFunction, s: float | np.ndarray) -> tuple:
    """Return ``(int_0^s |f|, int_0^s f*)``; the rearrangement dominates.

    ``s`` is one positive finite upper limit, giving two floats, or a 1-D
    array of them, giving two arrays whose elements equal the scalar calls.
    """
    s_arr = _real_array(s, "upper limits")
    if s_arr.ndim > 1:
        raise InvalidParameterError(f"upper limits must be a scalar or 1-D, got shape {s_arr.shape}")
    if not (s_arr > 0.0).all():
        raise InvalidParameterError(f"upper limits must be positive, got {s}")
    star, left, star_left = _rearranged(f)
    lhs = _cumulative_at(f.grid.edges, np.abs(f.values), left, s_arr)
    rhs = _cumulative_at(star.step.grid.edges, star.step.values, star_left, s_arr)
    return (float(lhs), float(rhs)) if s_arr.ndim == 0 else (lhs, rhs)
