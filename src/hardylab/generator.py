"""Seeded random step functions for property suites.

PRNG: ``numpy.random.default_rng`` (PCG64), seeded explicitly.  Per case the
draw order is fixed — r_min, then R, then n, then the n cell values — so a
seed pins the whole case stream.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError
from .grid import MAX_SIZE, Grid, StepBatch, StepFunction, check_integer, geometric_grids


def make_rng(seed: int) -> np.random.Generator:
    """The PCG64 generator of a non-negative integer ``seed``: an ``int`` or a
    numpy integer, not a ``bool``, a float or a string."""
    return np.random.default_rng(check_integer(seed, "seed", 0))


def random_step_function(rng: np.random.Generator,
                         count: int | None = None) -> StepFunction | StepBatch:
    """Values uniform in [-1, 1] on a random geometric grid.

    r_min ~ U[1e-4, 1e-1], R ~ U[1, 10], n uniform in {8, ..., 64}.  One
    :class:`StepFunction`, or with a ``count`` the next ``count`` functions of
    the stream as one :class:`StepBatch`: the same draws, in the same order,
    as that many single calls, with every grid built and checked at once.
    The per-case parameters go to arrays of length ``count``, allocated first:
    a count too large for them raises ``MemoryError`` before the first draw.
    """
    if not isinstance(rng, np.random.Generator):
        raise InvalidParameterError(f"rng must be a numpy.random.Generator, got {rng!r}")
    size = 1 if count is None else check_integer(count, "count", 1, MAX_SIZE)
    r_min, R, n, values = np.empty(size), np.empty(size), np.empty(size, np.int64), []
    for k in range(size):
        r_min[k] = rng.uniform(1e-4, 1e-1)
        R[k] = rng.uniform(1.0, 10.0)
        n[k] = rng.integers(8, 65)
        values.append(rng.uniform(-1.0, 1.0, n[k]))
    grid = geometric_grids(r_min, R, n)
    if count is None:
        return StepFunction(Grid(grid.edges), values[0])
    return StepBatch.checked(grid, np.concatenate(values))


def random_step_function_away_from_zero(rng: np.random.Generator) -> StepFunction:
    """Like :func:`random_step_function` but vanishing on the first quarter
    of the cells (support bounded away from the origin)."""
    f = random_step_function(rng)
    values = f.values.copy()
    values[: max(1, f.grid.n_cells // 4)] = 0.0
    if not np.any(values != 0.0):
        values[-1] = 1.0
    return StepFunction(f.grid, values)
