"""Seeded random step functions for property suites.

PRNG: ``numpy.random.default_rng`` (PCG64), seeded explicitly.  Per case the
draw order is fixed — r_min, then R, then n, then the n cell values — so a
seed pins the whole case stream.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import InvalidParameterError
from .grid import StepFunction, make_graded_grid


def make_rng(seed: int) -> np.random.Generator:
    """The PCG64 generator of a non-negative integer ``seed``: an ``int`` or a
    numpy integer, not a ``bool``, a float or a string."""
    try:
        index = operator.index(seed)
    except TypeError:
        index = None
    if index is None or isinstance(seed, bool) or index < 0:
        raise InvalidParameterError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.default_rng(index)


def random_step_function(rng: np.random.Generator) -> StepFunction:
    """Values uniform in [-1, 1] on a random geometric grid.

    r_min ~ U[1e-4, 1e-1], R ~ U[1, 10], n uniform in {8, ..., 64}.
    """
    r_min = rng.uniform(1e-4, 1e-1)
    R = rng.uniform(1.0, 10.0)
    n = int(rng.integers(8, 65))
    values = rng.uniform(-1.0, 1.0, n)
    return StepFunction(make_graded_grid(R, n, "geometric", r_min=r_min), values)


def random_step_function_away_from_zero(rng: np.random.Generator) -> StepFunction:
    """Like :func:`random_step_function` but vanishing on the first quarter
    of the cells (support bounded away from the origin)."""
    f = random_step_function(rng)
    values = f.values.copy()
    values[: max(1, f.grid.n_cells // 4)] = 0.0
    if not np.any(values != 0.0):
        values[-1] = 1.0
    return StepFunction(f.grid, values)
