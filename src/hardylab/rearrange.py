"""Decreasing rearrangement of step functions.

The rearrangement ``f*`` of a step function sorts the cells of ``|f|`` by
value (stable, descending) and re-lays them out from the origin, keeping
each cell's width.  It is non-negative, non-increasing, equimeasurable with
``|f|`` and preserves every p-th power mass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .grid import Grid, StepFunction, p_norm
from .operators import cumulative


@dataclass(frozen=True, eq=False)
class RearrangedFunction:
    """A decreasing rearrangement, validated non-negative and non-increasing."""

    step: StepFunction

    def __post_init__(self) -> None:
        vals = self.step.values
        if np.any(vals < 0.0) or np.any(np.diff(vals) > 0.0):
            raise InvalidParameterError("rearranged values must be non-negative and non-increasing")


def decreasing_rearrangement(f: StepFunction) -> RearrangedFunction:
    """Sort the cells of ``|f|`` by descending value (stable for ties)."""
    absvals = np.abs(f.values)
    order = np.argsort(-absvals, kind="stable")
    widths = f.grid.widths[order]
    edges = np.concatenate([[0.0], np.cumsum(widths)])
    edges[-1] = f.grid.support_end
    step = StepFunction(Grid(edges), absvals[order])
    return RearrangedFunction(step=step)


def check_norm_preservation(f: StepFunction, p: float) -> tuple[float, float]:
    """Return ``(p_norm(f, p), p_norm(f*, p))``; they agree up to summation order."""
    fstar = decreasing_rearrangement(f).step
    return p_norm(f, p), p_norm(fstar, p)


def check_partial_domination(f: StepFunction, s: float) -> tuple[float, float]:
    """Return ``(int_0^s |f|, int_0^s f*)``; the rearrangement dominates."""
    s = float(s)
    if not s > 0.0:
        raise InvalidParameterError(f"upper limit must be positive, got {s}")
    fstar = decreasing_rearrangement(f).step
    lhs = cumulative(abs(f)).evaluate(s)
    rhs = cumulative(fstar).evaluate(s)
    return lhs, rhs
