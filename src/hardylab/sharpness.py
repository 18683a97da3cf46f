"""Minimizing sequences, sharpness sweeps, and a falsification probe.

The sharp constants are approached (never attained) by the family
``f_eps(r) = r^((eps-1)/p) * chi(r)`` where ``chi`` is a decreasing cutoff
equal to 1 on [0,1] and 0 beyond 2.  This module discretises ``f_eps`` on a
geometric grid with cell averages (closed form below 1, Gauss-Legendre on
the cutoff band, built for all band cells at once), sweeps ``eps``
downward, and extrapolates the ratio to ``eps -> 0`` with an affine fit.  A
derivative-free coordinate-ascent maximizer provides an independent probe
from the other side: it tries to push a ratio above its sharp constant and
must fail.

The singular mass of ``f_eps`` concentrates like ``r^(eps-1)`` at the
origin, so the truncation radius must shrink rapidly as ``eps`` does: the
sweep keeps the *discarded mass fraction* roughly constant by choosing
``r_min(eps) = rho^(1/eps)`` (clamped to the double-precision range), which
turns the truncation deficit into a smooth, affine-in-eps contribution that
the extrapolation removes.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import FitDegenerateError, InvalidParameterError
from .grid import StepFunction, check_exponent, check_integer, check_real, make_graded_grid
from .generator import make_rng
from .quadrature import _gauss_legendre
from .inequalities import KINDS, RatioReport, ratio_evaluator, sharp_constant

CUTOFF_KINDS = ("quintic_smoothstep", "linear")

SWEEP_KINDS = tuple(kind for kind, spec in KINDS.items() if spec.sweep)

DEFAULT_EPS_LIST = (0.2, 0.1, 0.05, 0.02, 0.01, 0.005)

DEFAULT_SWEEP_RESOLUTION = 2048

# discarded-mass fraction of the r^(eps-1) profile kept constant across eps
_TRUNCATION_RHO = 0.2

_MAXIMIZE_R_MIN = 1e-3


@dataclass(frozen=True)
class CutoffSpec:
    """Cutoff profile: 1 on [0,1], 0 on [2,inf), monotone in between."""

    kind: str = "quintic_smoothstep"

    def __post_init__(self) -> None:
        if self.kind not in CUTOFF_KINDS:
            raise InvalidParameterError(
                f"cutoff kind must be one of {CUTOFF_KINDS}, got {self.kind!r}")


def _chi(spec: CutoffSpec, r: np.ndarray) -> np.ndarray:
    t = np.clip(np.asarray(r, dtype=float) - 1.0, 0.0, 1.0)
    if spec.kind == "quintic_smoothstep":
        ramp = t * t * t * (10.0 + t * (-15.0 + 6.0 * t))
    else:
        ramp = t
    return 1.0 - ramp


def cutoff_value(spec: CutoffSpec, r: float) -> float:
    """``chi(r)`` for the given cutoff profile."""
    r = check_real(r, "cutoff argument", -math.ulp(0.0))  # r >= 0
    return float(_chi(spec, np.asarray([r]))[0])


def minimizing_function(p: float, eps: float, spec: CutoffSpec = CutoffSpec(),
                        n_cells: int = 512, r_min: float = 1e-6) -> StepFunction:
    """Cell-averaged discretisation of ``r^((eps-1)/p) * chi(r)`` on (0, 2].

    Cells inside [0, 1] get the exact average of the pure power (closed-form
    antiderivative); cells beyond 2 are zero.  The cells meeting the cutoff
    transition (1, 2) are averaged with 32-point Gauss-Legendre over their
    part in [1, 2], all at once: one node matrix, one evaluation of the
    integrand, one 1-D dot product per row.  The one cell straddling r = 1 adds
    the closed-form integral of its part below 1, in scalar arithmetic
    (``1 - lo**s`` cancels, so an ulp in the power would show).
    """
    p = check_exponent(p)
    eps = check_real(eps, "eps", 0.0, 1.0)
    n_cells = check_integer(n_cells, "n_cells", 8)
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
    lo = np.maximum(a[band], 1.0)
    hi = np.minimum(b[band], 2.0)
    half = 0.5 * (hi - lo)
    x, w = _gauss_legendre(32)
    r = (0.5 * (hi + lo))[:, None] + half[:, None] * x
    # one 1-D dot per row: a matrix-vector product sums in another order
    total = np.fromiter(map(w.dot, r ** q * _chi(spec, r)), float, band.size) * half
    if a[band[0]] < 1.0:  # the pure-power part of the cell straddling r = 1
        total[0] += (1.0 - float(a[band[0]]) ** s) / s
    values[band] = total / (b[band] - a[band])
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
    """
    if kind not in SWEEP_KINDS:
        raise InvalidParameterError(f"sweep kind must be one of {SWEEP_KINDS}, got {kind!r}")
    p = check_exponent(p)
    try:
        eps_values = [check_real(e, "eps", 0.0, 1.0) for e in eps_list]
    except TypeError:
        raise InvalidParameterError(f"eps_list must be iterable, got {eps_list!r}") from None
    if len(eps_values) < 2:
        raise FitDegenerateError("affine extrapolation needs at least 2 eps values")
    if any(e2 >= e1 for e1, e2 in zip(eps_values, eps_values[1:])):
        raise InvalidParameterError("eps values must be strictly decreasing")
    evaluator = ratio_evaluator(kind, p)
    points = []
    for eps in eps_values:
        f_eps = minimizing_function(p, eps, spec, resolution, _sweep_r_min(eps))
        rep = evaluator(f_eps)
        points.append(SweepPoint(eps=eps, ratio=rep.ratio, numerator=rep.numerator,
                                 denominator=rep.denominator))
    k = max(2, len(points) // 2)
    tail = points[-k:]
    coeffs = np.polyfit([pt.eps for pt in tail], [pt.ratio for pt in tail], 1)
    limit = float(coeffs[1])
    sharp = sharp_constant(kind, p)
    return SweepResult(kind=kind, p=p, points=tuple(points), limit=limit, sharp=sharp,
                       relative_gap=(limit - sharp) / sharp)


def ratio_maximize(kind: str, p: float, n_cells: int = 32, seed: int = 0,
                   iters: int = 200) -> tuple[StepFunction, RatioReport]:
    """Coordinate ascent over cell values, trying to beat the sharp constant.

    Starts from the indicator profile on a fixed geometric grid over (0, 1]
    and perturbs one cell at a time with multiplicative steps ``x(1+delta)``
    / ``x(1-delta)``, halving ``delta`` after a full pass without
    improvement.  ``iters`` counts single-cell proposals.  Deterministic for
    a fixed seed (the seed only shuffles the cell visiting order).
    """
    p = check_exponent(p)
    n_cells = check_integer(n_cells, "n_cells", 4)
    iters = check_integer(iters, "iters", 1)
    rng = make_rng(seed)
    evaluator = ratio_evaluator(kind, p)
    grid = make_graded_grid(1.0, n_cells, "geometric", r_min=_MAXIMIZE_R_MIN)
    values = np.ones(n_cells)
    best_report = evaluator(StepFunction(grid, values))
    best = best_report.ratio
    delta = 0.5
    visit = rng.permutation(n_cells)
    pos = 0
    improved_in_pass = False
    for _ in range(iters):
        if pos == n_cells:
            if not improved_in_pass:
                delta *= 0.5
                if delta < 1e-9:
                    break
            improved_in_pass = False
            visit = rng.permutation(n_cells)
            pos = 0
        i = int(visit[pos])
        pos += 1
        for factor in (1.0 + delta, 1.0 - delta):
            trial = values.copy()
            trial[i] *= factor
            rep = evaluator(StepFunction(grid, trial))
            if rep.ratio > best:
                values, best, best_report = trial, rep.ratio, rep
                improved_in_pass = True
                break
    return StepFunction(grid, values), best_report
