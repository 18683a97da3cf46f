"""Minimizing sequences, sharpness sweeps, and a falsification probe.

The sharp constants are approached (never attained) by the family
``f_eps(r) = r^((eps-1)/p) * chi(r)`` where ``chi`` is a decreasing cutoff
equal to 1 on [0,1] and 0 beyond 2.  This module discretises ``f_eps`` on a
geometric grid with cell averages (closed form below 1, the quadrature
module's Gauss-Legendre rule on the cutoff band, all band cells in one
pass), sweeps ``eps`` downward, and extrapolates the ratio to ``eps -> 0``
with an affine fit.  A sweep of any report kind evaluates that kind, all
its profiles as one batch with no refinement estimate, and its points equal
those of one report per profile bit for bit.  A derivative-free
coordinate-ascent maximizer provides an independent probe from the other
side: it tries to push a ratio above its sharp constant and must fail.  It
evaluates its proposals in lookahead batches, one pass for several, that
read ratios alone (no estimate, no ``middle`` term), and builds one report,
for its best function, at the end; its results equal the one-at-a-time
ascent's bit for bit.  Both read their batches through
``inequalities._results``, so an error is the one-at-a-time loop's.

The singular mass of ``f_eps`` concentrates like ``r^(eps-1)`` at the
origin, so the truncation radius must shrink rapidly as ``eps`` does: the
sweep keeps the *discarded mass fraction* roughly constant by choosing
``r_min(eps) = rho^(1/eps)`` (clamped to the double-precision range), which
turns the truncation deficit into a smooth, affine-in-eps contribution that
the extrapolation removes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DoubleRangeError, FitDegenerateError, InvalidParameterError
from .grid import (MAX_SIZE, GridBatch, StepBatch, StepFunction, _real_array, check_exponent,
                   check_integer, check_real, make_graded_grid)
from .generator import make_rng
from .quadrature import _quadrature
from .inequalities import RatioReport, _results, ratio_evaluator, sharp_constant

# the cutoff profiles: each kind's ramp, rising from 0 to 1 on [0, 1]
_RAMPS = {"quintic_smoothstep": lambda t: t * t * t * (10.0 + t * (-15.0 + 6.0 * t)),
          "linear": lambda t: t}

CUTOFF_KINDS = tuple(_RAMPS)

DEFAULT_EPS_LIST = (0.2, 0.1, 0.05, 0.02, 0.01, 0.005)

DEFAULT_SWEEP_RESOLUTION = 2048

# discarded-mass fraction of the r^(eps-1) profile kept constant across eps
_TRUNCATION_RHO = 0.2

_MAXIMIZE_R_MIN = 1e-3

# proposals per estimate-free pass in ratio_maximize
_LOOKAHEAD = 4


@dataclass(frozen=True)
class CutoffSpec:
    """Cutoff profile: 1 on [0,1], 0 on [2,inf), monotone in between."""

    kind: str = "quintic_smoothstep"

    def __post_init__(self) -> None:
        if self.kind not in CUTOFF_KINDS:
            raise InvalidParameterError(
                f"cutoff kind must be one of {CUTOFF_KINDS}, got {self.kind!r}")


def _chi(spec: CutoffSpec, r: np.ndarray) -> np.ndarray:
    """``chi(r) = 1 - ramp(r - 1)``, the ramp of ``spec.kind`` clipped to [0, 1]."""
    if not isinstance(spec, CutoffSpec):
        raise InvalidParameterError(f"cutoff spec must be a CutoffSpec, got {type(spec).__name__}")
    t = np.clip(np.asarray(r, dtype=float) - 1.0, 0.0, 1.0)
    return 1.0 - _RAMPS[spec.kind](t)


def cutoff_value(spec: CutoffSpec, r: float) -> float:
    """``chi(r)`` for the given cutoff profile."""
    r = check_real(r, "cutoff argument", -math.ulp(0.0))  # r >= 0
    return float(_chi(spec, np.asarray([r]))[0])


def minimizing_function(p: float, eps: float, spec: CutoffSpec = CutoffSpec(),
                        n_cells: int = 512, r_min: float = 1e-6) -> StepFunction:
    """Cell-averaged discretisation of ``r^((eps-1)/p) * chi(r)`` on (0, 2].

    Cells inside [0, 1] get the exact average of the pure power (closed-form
    antiderivative); cells beyond 2 are zero.  The cells meeting the cutoff
    transition (1, 2) are averaged over their part in [1, 2] by one
    :func:`~hardylab.quadrature._quadrature` pass, the package's one Gauss
    routine, with its fixed 16-point Gauss-Legendre rule; each cell's total
    is the one it gets alone.  The one cell straddling r = 1 adds
    the closed-form integral of its part below 1, in scalar arithmetic
    (``1 - lo**s`` cancels, so an ulp in the power would show).
    """
    p = check_exponent(p)
    eps = check_real(eps, "eps", 0.0, 1.0)
    n_cells = check_integer(n_cells, "n_cells", 8, MAX_SIZE)
    r_min = check_real(r_min, "r_min", 0.0, 1.0)
    grid = make_graded_grid(2.0, n_cells, "geometric", r_min=r_min)
    a = grid.edges[:-1]
    b = grid.edges[1:]
    q = (eps - 1.0) / p
    s = q + 1.0  # > 0 since p > 1 - eps
    values = np.zeros(n_cells)
    pure = b <= 1.0
    values[pure] = (b[pure] ** s - a[pure] ** s) / (s * (b[pure] - a[pure]))
    band = np.nonzero(~pure & (a < 2.0))[0]
    (total,) = _quadrature(lambda r: [r ** q * _chi(spec, r)], np.maximum(a[band], 1.0),
                           np.minimum(b[band], 2.0), np.arange(band.size + 1), (), False)[0]
    if a[band[0]] < 1.0:  # the pure-power part of the cell straddling r = 1
        total[0] += (1.0 - float(a[band[0]]) ** s) / s
    values[band] = np.array(total) / (b[band] - a[band])
    return StepFunction(grid, values)


@dataclass(frozen=True)
class SweepPoint:
    eps: float
    ratio: float
    numerator: float
    denominator: float


@dataclass(frozen=True)
class SweepResult:
    """One sharpness sweep: per-eps ratios plus the extrapolated limit."""

    kind: str
    p: float
    points: tuple[SweepPoint, ...]
    limit: float
    sharp: float
    relative_gap: float

    def __post_init__(self) -> None:
        eps = [pt.eps for pt in self.points]
        if any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])):
            raise InvalidParameterError("sweep points must have strictly decreasing eps")
        if not all(math.isfinite(pt.ratio) for pt in self.points):
            raise InvalidParameterError("sweep ratios must be finite")

    def to_json_dict(self) -> dict:
        return asdict(self)

    def to_csv_text(self) -> str:
        lines = ["eps,ratio,numerator,denominator"]
        for pt in self.points:
            lines.append(f"{pt.eps:.17g},{pt.ratio:.17g},{pt.numerator:.17g},"
                         f"{pt.denominator:.17g}")
        return "\n".join(lines) + "\n"


def _sweep_r_min(eps: float) -> float:
    return float(min(max(_TRUNCATION_RHO ** (1.0 / eps), 1e-140), 1e-2))


def sharpness_sweep(kind: str, p: float, eps_list=DEFAULT_EPS_LIST,
                    spec: CutoffSpec = CutoffSpec(),
                    resolution: int = DEFAULT_SWEEP_RESOLUTION) -> SweepResult:
    """Evaluate the kind's ratio on ``f_eps`` for each eps and extrapolate.

    The limit is the intercept of a least-squares affine fit ``ratio(eps)
    ~= c0 + c1 eps`` over the smallest half of the eps list.

    Every report kind can be swept, the p = 2 kinds at p = 2 only.  Each
    ``f_eps`` is non-negative and non-increasing, where ``M f = F/r``: at
    the defaults the sup-min kinds' sweeps equal their classical twins' bit
    for bit (elsewhere within an ulp), as ``rellich_p`` equals ``rellich_chain``.

    The profiles are built one eps at a time and evaluated as one batch, in
    one pass that forms no refinement estimate (a point reads none).  A
    value depends neither on its batch nor on the half-order rule, so every
    point is bit for bit the one a report per profile gives.  All profiles
    are held at once, so memory grows with ``len(eps_list) * resolution``: a
    default sweep (6 x 2048 cells) peaks at 33.1 MB resident in a fresh
    CPython 3.11 / numpy 2.4 process, 30.0 MB of it after the import alone
    (a sup-min kind's, which builds the sup-min rows, at 35.1 MB).

    ``resolution`` (at least 8) is checked under its own name before any
    profile is built.  At a p too large for doubles the
    :class:`DoubleRangeError` names p: the sharp constant's underflow is
    checked first, then the profiles' ratios.  The points are read in eps
    order through ``_results``, so when the batch fails the first profile
    that fails alone raises its error, naming its eps if it leaves the
    double range.
    """
    p = check_exponent(p)
    try:
        eps_values = [check_real(e, "eps", 0.0, 1.0) for e in eps_list]
    except TypeError:
        raise InvalidParameterError(f"eps_list must be iterable, got {eps_list!r}") from None
    if len(eps_values) < 2:
        raise FitDegenerateError("affine extrapolation needs at least 2 eps values")
    if any(e2 >= e1 for e1, e2 in zip(eps_values, eps_values[1:])):
        raise InvalidParameterError("eps values must be strictly decreasing")
    resolution = check_integer(resolution, "resolution", 8, MAX_SIZE)
    sharp = sharp_constant(kind, p)
    profiles = [minimizing_function(p, eps, spec, resolution, _sweep_r_min(eps))
                for eps in eps_values]
    fraction = _results(StepBatch.of(profiles), kind, p, False)
    points = []
    for k, eps in enumerate(eps_values):
        try:
            num, den = fraction(k)
        except DoubleRangeError as err:  # the profile is the sweep's own, not the caller's
            raise DoubleRangeError(f"the {kind} ratio of the sweep profile f_eps leaves the "
                                   f"double-precision range at p = {p}, eps = {eps}") from err
        points.append(SweepPoint(eps=eps, ratio=num / den, numerator=num, denominator=den))
    k = max(2, len(points) // 2)
    tail = points[-k:]
    coeffs = np.polyfit([pt.eps for pt in tail], [pt.ratio for pt in tail], 1)
    limit = float(coeffs[1])
    return SweepResult(kind=kind, p=p, points=tuple(points), limit=limit, sharp=sharp,
                       relative_gap=(limit - sharp) / sharp)


def _chained_trials(values: np.ndarray, cells: np.ndarray, delta: float) -> np.ndarray:
    """The trials of the proposals ``cells``, each built as if the ones before
    it were accepted: row ``2j`` is ``values`` with ``cells[:j + 1]`` times
    ``(1+delta)``, row ``2j+1`` is ``values`` with ``cells[:j]`` times
    ``(1+delta)`` and ``cells[j]`` times ``(1-delta)``.  Each entry is one
    product, as in ``trial[i] *= factor``."""
    factors = np.ones((2 * cells.size, values.size))
    for j, i in enumerate(cells):
        factors[2 * j:, i] = 1.0 + delta
        factors[2 * j + 1, i] = 1.0 - delta
    return values * factors


def _trial_ratios(kind: str, p: float, grid, grids: dict, trials: np.ndarray):
    """``k -> ratio of trials[k]``, read through ``_results`` without an estimate.
    ``grids`` keeps the trial grid of each batch size, built on first use by tiling the
    checked ``grid``, so it needs no check of its own; the values are checked every pass."""
    n = len(trials)
    if n not in grids:
        grids[n] = GridBatch(np.tile(grid.edges, n), np.arange(n + 1) * grid.n_cells)
    batch = StepBatch(grids[n], _real_array(trials.ravel(), "cell values", (trials.size,)))
    fraction = _results(batch, kind, p, False)
    return lambda k: operator.truediv(*fraction(k))


def ratio_maximize(kind: str, p: float, n_cells: int = 32, seed: int = 0,
                   iters: int = 200) -> tuple[StepFunction, RatioReport]:
    """Coordinate ascent over cell values, trying to beat the sharp constant.

    Starts from the indicator profile on a fixed geometric grid over (0, 1]
    and perturbs one cell at a time with multiplicative steps ``x(1+delta)``
    / ``x(1-delta)``, halving ``delta`` after a full pass without
    improvement.  ``iters`` counts single-cell proposals.  Deterministic for
    a fixed seed (the seed only shuffles the cell visiting order).

    The ascent reads ratios alone.  Every trial is evaluated without a
    report: numerator and denominator only, with no refinement estimate and
    no ``middle`` term, whose ratio is the float its report would hold.  The
    one report returned is built after the loop, by one evaluator call on
    the best function; only that call can raise a range error of the middle
    term or of the estimate.  Trials are read through ``_results``, so only one
    the walk reaches can raise; a value that overflowed to inf fails its batch's check.
    A run tiles its checked grid into one trial grid per batch size and reuses
    it, with the arrays it keeps (see :class:`GridBatch`), in every pass of that size.

    Proposals are evaluated in lookahead batches: the next ``_LOOKAHEAD`` = 4
    of the pass (fewer at its end or where the iterations run out), each
    built as if the ones before it were accepted, go to one pass as a batch
    of both their trials.  The walk through them stops after the first
    proposal whose ``x(1+delta)`` trial is rejected, and the next batch
    starts from there.  A value does not depend on its batch, so the result
    equals the one-at-a-time ascent's bit for bit.  Four was measured on the
    14 criterion-10 probes at ``iters=40``: a run makes 14.1 passes and one
    report where the one-at-a-time ascent makes 50.4 reports (17.0 passes at
    3, 12.2 at 6), and past it the trials evaluated and not used cost more
    than the passes saved; at ``iters=200``, where most proposals are
    rejected, larger batches only add waste.
    """
    p = check_exponent(p)
    n_cells = check_integer(n_cells, "n_cells", 4, MAX_SIZE)
    iters = check_integer(iters, "iters", 1)
    rng = make_rng(seed)
    evaluator = ratio_evaluator(kind, p)
    grid = make_graded_grid(1.0, n_cells, "geometric", r_min=_MAXIMIZE_R_MIN)
    values = np.ones(n_cells)
    grids = {}
    best = _trial_ratios(kind, p, grid, grids, values[None])(0)
    delta = 0.5
    visit = rng.permutation(n_cells)
    pos = 0
    improved_in_pass = False
    left = iters
    while left:
        if pos == n_cells:
            if not improved_in_pass:
                delta *= 0.5
                if delta < 1e-9:
                    break
            improved_in_pass = False
            visit = rng.permutation(n_cells)
            pos = 0
        trials = _chained_trials(values, visit[pos:pos + min(_LOOKAHEAD, left)], delta)
        ratio = _trial_ratios(kind, p, grid, grids, trials)
        for j in range(0, len(trials), 2):
            pos += 1
            left -= 1
            for k in (j, j + 1):
                trial_ratio = ratio(k)
                if trial_ratio > best:
                    values, best = trials[k], trial_ratio
                    improved_in_pass = True
                    break
            if k > j:  # the x(1+delta) trial was rejected: later trials assumed it
                break
    best_function = StepFunction(grid, values)
    return best_function, evaluator(best_function)
