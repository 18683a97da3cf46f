"""Tests for the sharpness machinery: cutoff profiles, the near-extremal
power profiles, extrapolation sweeps, and the coordinate-ascent maximizer."""

import functools
import math

import numpy as np
import pytest

import case_loops as loops
from hardylab import inequalities, sharpness
from hardylab.errors import (DoubleRangeError, FitDegenerateError, HardyLabError,
                             InvalidParameterError, ZeroDenominatorError)
from hardylab.grid import StepBatch, StepFunction, p_norm
from hardylab.inequalities import REPORT_KINDS, rellich_chain, sharp_constant
from hardylab.sharpness import (CUTOFF_KINDS, DEFAULT_EPS_LIST, DEFAULT_SWEEP_RESOLUTION,
                                CutoffSpec, SweepPoint, SweepResult,
                                cutoff_value, minimizing_function,
                                ratio_maximize, sharpness_sweep, _sweep_r_min)


# --------------------------------------------------------------------------
# Cutoff profiles
# --------------------------------------------------------------------------


class TestCutoff:
    def test_quintic_worked_values(self):
        spec = CutoffSpec()
        assert cutoff_value(spec, 0.5) == 1.0
        assert cutoff_value(spec, 3.0) == 0.0
        assert cutoff_value(spec, 1.5) == 0.5  # midpoint of the ramp, exactly
        assert cutoff_value(spec, 1.0) == 1.0
        assert cutoff_value(spec, 2.0) == 0.0

    def test_linear_ramp(self):
        spec = CutoffSpec(kind="linear")
        assert cutoff_value(spec, 1.25) == 0.75
        assert cutoff_value(spec, 1.5) == 0.5
        assert cutoff_value(spec, 0.0) == 1.0
        assert cutoff_value(spec, 2.5) == 0.0

    @pytest.mark.parametrize("kind", CUTOFF_KINDS)
    def test_monotone_and_bounded(self, kind):
        spec = CutoffSpec(kind=kind)
        mesh = np.linspace(0.0, 3.0, 1201)
        vals = np.array([cutoff_value(spec, r) for r in mesh])
        assert np.all(vals[1:] <= vals[:-1] + 1e-15), f"{kind}: not non-increasing"
        assert np.all((0.0 <= vals) & (vals <= 1.0)), f"{kind}: leaves [0, 1]"

    def test_rejects_bad_arguments(self):
        spec = CutoffSpec()
        with pytest.raises(InvalidParameterError):
            cutoff_value(spec, -0.5)
        with pytest.raises(InvalidParameterError):
            cutoff_value(spec, math.nan)

    def test_rejects_unknown_kind(self):
        with pytest.raises(InvalidParameterError):
            CutoffSpec(kind="cosine")

    @pytest.mark.parametrize("call", [
        lambda spec: cutoff_value(spec, 1.5),
        lambda spec: minimizing_function(2.0, 0.1, spec, 16),
        lambda spec: sharpness_sweep("hardy", 2.0, (0.2, 0.1), spec, 16)])
    def test_rejects_a_spec_that_is_not_a_cutoff_spec(self, call):
        with pytest.raises(InvalidParameterError, match="CutoffSpec, got str"):
            call("linear")


# --------------------------------------------------------------------------
# Near-extremal profiles
# --------------------------------------------------------------------------


class TestMinimizingFunction:
    def test_first_cell_matches_closed_form_average(self):
        # cells inside [0, 1] are exact averages of r^((eps-1)/p)
        f = minimizing_function(2.0, 0.5)
        b = float(f.grid.edges[1])
        s = (0.5 - 1.0 + 2.0) / 2.0
        exact = b ** s / (s * b)
        assert abs(f.values[0] - exact) <= 1e-12 * exact

    def test_vanishes_beyond_the_cutoff(self):
        f = minimizing_function(1.5, 0.2)
        assert f.grid.support_end == 2.0
        assert f.evaluate(2.5) == 0.0
        assert f.evaluate(1.999) > 0.0

    @pytest.mark.parametrize("p,eps", [(1.5, 0.3), (2.0, 0.1), (3.0, 0.05)])
    def test_values_positive_and_non_increasing(self, p, eps):
        f = minimizing_function(p, eps)
        vals = f.values
        assert np.all(vals >= 0.0)
        assert vals[0] > 0.0
        assert np.all(vals[1:] <= vals[:-1] * (1.0 + 1e-12)), \
            f"p={p} eps={eps}: profile not non-increasing"

    def test_mass_concentrates_like_one_over_eps(self):
        f = minimizing_function(2.0, 0.1, r_min=1e-30, n_cells=2048)
        mass = p_norm(f, 2.0)
        assert 10.0 < mass < 11.0, f"p-mass {mass} should be close to 1/eps = 10"

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_eps_outside_unit_interval(self, bad):
        with pytest.raises(InvalidParameterError):
            minimizing_function(2.0, bad)

    def test_rejects_bad_discretisation(self):
        with pytest.raises(InvalidParameterError):
            minimizing_function(2.0, 0.1, n_cells=7)
        with pytest.raises(InvalidParameterError):
            minimizing_function(2.0, 0.1, r_min=0.0)
        with pytest.raises(InvalidParameterError):
            minimizing_function(2.0, 0.1, r_min=1.5)
        with pytest.raises(InvalidParameterError):
            minimizing_function(1.0, 0.1)


# the case grid of the whole-array build against the per-cell loop
GRID_EPS = DEFAULT_EPS_LIST + (0.5, 0.9)
GRID_RESOLUTIONS = (8, 9, 64, 512, 2048, 8192)
GRID_R_MINS = (None, 0.3, 0.9, 1e-300)  # None: the sweep's r_min(eps)


@pytest.mark.parametrize("cutoff", CUTOFF_KINDS)
@pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 3.0, 4.0])
def test_band_build_equals_per_cell_loop(cutoff, p):
    spec = CutoffSpec(cutoff)
    for eps in GRID_EPS:
        for n_cells in GRID_RESOLUTIONS:
            for r_min in GRID_R_MINS:
                r_min = _sweep_r_min(eps) if r_min is None else r_min
                # grids with over 1000 cells in (1, 2) take the per-cell loop
                # seconds each: run them at p = 2 only
                if n_cells * math.log(2.0) / math.log(2.0 / r_min) > 1000 and p != 2.0:
                    continue
                f = minimizing_function(p, eps, spec, n_cells, r_min)
                g = loops.minimizing_function(p, eps, spec, n_cells, r_min)
                assert f.grid.edges.tobytes() == g.grid.edges.tobytes()
                assert np.all(f.values == g.values), (eps, n_cells, r_min)


@pytest.mark.parametrize("cutoff", CUTOFF_KINDS)
def test_band_build_of_an_eight_cell_grid_straddling_one(cutoff):
    # the band is the last cell alone: it holds r = 1 and ends at 2
    spec = CutoffSpec(cutoff)
    for p in (1.1, 1.5, 2.0, 3.0, 4.0):
        for eps in GRID_EPS:
            f = minimizing_function(p, eps, spec, 8, 1e-6)
            a, b = f.grid.edges[-2:]
            assert a < 1.0 < b == 2.0
            g = loops.minimizing_function(p, eps, spec, 8, 1e-6)
            assert np.all(f.values == g.values), (p, eps)


@pytest.mark.parametrize("cutoff", CUTOFF_KINDS)
@pytest.mark.parametrize("p", [1.5, 3.0])
def test_band_cells_against_mpmath(cutoff, p):
    """Each band cell's average against a 30-digit ``mpmath.quad`` of
    ``r^q chi(r)`` over the cell (its part below 1 in closed form).  Where
    ``chi`` at the cell's right end is below 1e-3, ``1 - ramp`` cancels in
    ``_chi`` and the cells sit on that noise; they are left out."""
    mp = pytest.importorskip("mpmath")
    spec = CutoffSpec(cutoff)
    for eps in (0.2, 0.005):
        f = minimizing_function(p, eps, spec, 2048, _sweep_r_min(eps))
        edges, values = f.grid.edges.tolist(), f.values.tolist()
        checked = 0
        with mp.workdps(30):
            q = (mp.mpf(eps) - 1) / p

            def integrand(r):
                t = r - 1
                ramp = t ** 3 * (10 + t * (-15 + 6 * t)) if cutoff == "quintic_smoothstep" else t
                return r ** q * (1 - ramp)

            for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
                if b <= 1.0 or a >= 2.0 or cutoff_value(spec, min(b, 2.0)) < 1e-3:
                    continue
                lo, total = mp.mpf(a), mp.mpf(0)
                if a < 1.0:
                    total += (1 - lo ** (q + 1)) / (q + 1)
                    lo = mp.mpf(1)
                total += mp.quad(integrand, [lo, mp.mpf(min(b, 2.0))])
                exact = total / (mp.mpf(b) - mp.mpf(a))
                assert abs(values[i] - exact) <= 2e-13 * exact, (eps, i)
                checked += 1
        assert checked >= 4, (eps, checked)


def test_denominator_diverges_like_one_over_eps():
    # eps * \int f_eps^p -> 1 once the grid reaches far enough towards 0
    eps = 0.005
    for p in (1.5, 2.0, 3.0):
        f = minimizing_function(p, eps, r_min=1e-300, n_cells=2048)
        scaled = eps * p_norm(f, p)
        assert abs(scaled - 1.0) <= 0.05, f"p={p}: eps * mass = {scaled}"


def test_chain_numerator_grows_with_the_predicted_rate():
    # the double-cumulative numerator keeps pace with the power-profile rate
    from hardylab.sharpness import _sweep_r_min

    for eps in (0.1, 0.02):
        for p in (1.5, 2.0, 3.0):
            f = minimizing_function(p, eps, r_min=_sweep_r_min(eps), n_cells=2048)
            rep = rellich_chain(f, p)
            rate = (p / (eps - 1.0 + p)) ** p * (p / (eps - 1.0 + 2.0 * p)) ** p
            floor = rate / eps - 100.0
            assert rep.numerator >= floor, (
                f"eps={eps} p={p}: numerator {rep.numerator} below {floor}")


# --------------------------------------------------------------------------
# Extrapolation sweeps
# --------------------------------------------------------------------------


class TestSharpnessSweep:
    @pytest.mark.parametrize("kind,p", [("hardy", 2.0), ("rellich_chain", 2.0)])
    def test_default_sweep_converges_from_below(self, kind, p):
        res = sharpness_sweep(kind, p)
        assert res.kind == kind and res.p == p
        assert res.sharp == sharp_constant(kind, p)
        ratios = [pt.ratio for pt in res.points]
        diffs = np.diff(ratios)
        assert np.all(diffs >= -1e-4), f"{kind}: ratios not monotone, diffs {diffs}"
        assert all(r < res.sharp for r in ratios), f"{kind}: some ratio at/above sharp"
        assert abs(res.relative_gap) <= 0.01, (
            f"{kind} p={p}: limit {res.limit} vs sharp {res.sharp}")
        print(f"{kind} p={p}: limit {res.limit:.6f} gap {res.relative_gap:.2e}")

    def test_small_sweep_structure(self):
        res = sharpness_sweep("hardy", 2.0, eps_list=(0.2, 0.1), resolution=256)
        assert len(res.points) == 2
        assert [pt.eps for pt in res.points] == [0.2, 0.1]
        assert res.relative_gap == (res.limit - res.sharp) / res.sharp
        for pt in res.points:
            assert pt.numerator > 0.0 and pt.denominator > 0.0
            assert pt.ratio == pytest.approx(pt.numerator / pt.denominator, rel=1e-12)

    def test_supmin_variant_stays_below_sharp(self):
        res = sharpness_sweep("new_hardy", 2.0, eps_list=(0.2, 0.1, 0.05),
                              resolution=512)
        assert all(pt.ratio < res.sharp for pt in res.points)
        assert res.limit < res.sharp

    def test_csv_round_trip_text(self):
        res = sharpness_sweep("hardy", 2.0, eps_list=(0.2, 0.1), resolution=256)
        text = res.to_csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == "eps,ratio,numerator,denominator"
        assert len(lines) == 3
        first = [float(tok) for tok in lines[1].split(",")]
        assert first[0] == 0.2
        assert first[1] == pytest.approx(res.points[0].ratio, rel=1e-15)

    def test_json_dict_fields(self):
        res = sharpness_sweep("hardy", 2.0, eps_list=(0.2, 0.1), resolution=256)
        d = res.to_json_dict()
        assert list(d) == ["kind", "p", "points", "limit", "sharp", "relative_gap"]
        assert list(d["points"][0]) == ["eps", "ratio", "numerator", "denominator"]

    def test_rejects_unknown_kind(self):
        with pytest.raises(InvalidParameterError, match="^unknown inequality kind 'rellich'$"):
            sharpness_sweep("rellich", 2.0)

    def test_single_eps_cannot_be_extrapolated(self):
        with pytest.raises(FitDegenerateError):
            sharpness_sweep("hardy", 2.0, eps_list=(0.1,))

    def test_rejects_bad_eps_lists(self):
        with pytest.raises(InvalidParameterError):
            sharpness_sweep("hardy", 2.0, eps_list=(0.2, 1.2))
        with pytest.raises(InvalidParameterError):
            sharpness_sweep("hardy", 2.0, eps_list=(0.1, 0.1))
        with pytest.raises(InvalidParameterError):
            sharpness_sweep("hardy", 2.0, eps_list=(0.05, 0.1))

    def test_an_underflowing_sharp_constant_is_reported_before_any_profile(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("minimizing_function called")

        monkeypatch.setattr(sharpness, "minimizing_function", forbidden)
        with pytest.raises(DoubleRangeError,
                           match=r"^the Rellich sharp constant at p = 1030\.0 underflows$"):
            sharpness_sweep("rellich_chain", 1030.0, (0.2, 0.1), resolution=64)

    def test_an_overflowing_profile_names_p_and_eps(self):
        with pytest.raises(DoubleRangeError,
                           match=r"^the hardy ratio of the sweep profile f_eps leaves the "
                                 r"double-precision range at p = 2000\.0, eps = 0\.2$"):
            sharpness_sweep("hardy", 2000.0, (0.2, 0.1), resolution=64)

    def test_a_nan_ratio_form_is_reported_before_any_profile(self, monkeypatch):
        # from p = 1.34e154 the ratio form of the Rellich constant is inf / inf
        def forbidden(*args, **kwargs):
            raise AssertionError("minimizing_function called")

        monkeypatch.setattr(sharpness, "minimizing_function", forbidden)
        with pytest.raises(DoubleRangeError,
                           match=r"^the Rellich sharp constant at p = 1e\+155 underflows$"):
            sharpness_sweep("rellich_chain", 1e155, (0.2, 0.1), resolution=64)

    def test_sweep_kinds_have_sharp_constants(self):
        for kind in REPORT_KINDS:
            assert sharp_constant(kind, 2.0) > 0.0


# each kind with the kind whose sweep it equals: on f_eps, non-negative and
# non-increasing, M f = F/r, and the chain's numerator is the Rellich one
TWIN_SWEEPS = ([(kind, twin, p) for kind, twin in (("new_hardy", "hardy"),
                                                   ("rellich_p", "rellich_chain"))
                for p in (1.5, 2.0, 3.0)]
               + [("improved_hardy_rellich", "hardy_rellich_int", 2.0)])


@pytest.mark.parametrize("cutoff", CUTOFF_KINDS)
@pytest.mark.parametrize("kind, twin, p", TWIN_SWEEPS)
def test_a_sweep_equals_its_twin_kinds_sweep(kind, twin, p, cutoff):
    spec = CutoffSpec(cutoff)
    res, ref = sharpness_sweep(kind, p, spec=spec), sharpness_sweep(twin, p, spec=spec)
    assert res.kind == kind and res.sharp == ref.sharp
    assert (res.points, res.limit) == (ref.points, ref.limit)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_new_hardy_reports_equal_hardy_on_the_sweep_profiles(p):
    # f_eps is non-negative and non-increasing, so M f = F/r
    for eps in DEFAULT_EPS_LIST:
        f = minimizing_function(p, eps, CutoffSpec(), DEFAULT_SWEEP_RESOLUTION, _sweep_r_min(eps))
        new, old = inequalities.new_hardy_ratio(f, p), inequalities.hardy_ratio(f, p)
        assert (new.ratio, new.numerator, new.denominator) == (
            old.ratio, old.numerator, old.denominator), eps


def test_chain_sweep_builds_no_inner_cumulative(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("inner_cumulative called")

    monkeypatch.setattr(inequalities, "inner_cumulative", forbidden)
    f = minimizing_function(2.0, 0.1, n_cells=256)
    with pytest.raises(AssertionError, match="inner_cumulative called"):
        rellich_chain(f, 2.0)  # the patch reaches the chain's own evaluation
    res = sharpness_sweep("rellich_chain", 2.0, resolution=256)
    assert res.kind == "rellich_chain" and len(res.points) == len(DEFAULT_EPS_LIST)


def test_chain_ascent_builds_one_inner_cumulative(monkeypatch):
    # the ascent reads ratios alone: G is built once, for the returned report
    calls, build = [], inequalities.inner_cumulative

    def counted(f):
        calls.append(len(f))
        return build(f)

    monkeypatch.setattr(inequalities, "inner_cumulative", counted)
    best, rep = ratio_maximize("rellich_chain", 2.0, iters=40)
    assert calls == [1]
    assert rep.middle is not None and rep == rellich_chain(best, 2.0)


@functools.cache
def _chain_sweep_and_reports(p, cutoff):
    """A default ``rellich_chain`` sweep, and the full chain report of each of its profiles."""
    spec = CutoffSpec(cutoff)
    res = sharpness_sweep("rellich_chain", p, spec=spec)
    evaluator = inequalities.ratio_evaluator("rellich_chain", p)
    reports = [evaluator(minimizing_function(p, pt.eps, spec, DEFAULT_SWEEP_RESOLUTION,
                                             _sweep_r_min(pt.eps))) for pt in res.points]
    return res, reports


CHAIN_SWEEPS = [(p, cutoff) for p in (1.5, 2.0, 3.0) for cutoff in CUTOFF_KINDS]


@pytest.mark.parametrize("p, cutoff", CHAIN_SWEEPS)
def test_chain_sweep_points_equal_the_chain_reports(p, cutoff):
    res, reports = _chain_sweep_and_reports(p, cutoff)
    assert res.sharp == sharp_constant("rellich_chain", p)
    for pt, rep in zip(res.points, reports, strict=True):
        assert (pt.ratio, pt.numerator, pt.denominator) == (
            rep.ratio, rep.numerator, rep.denominator), pt.eps


@pytest.mark.parametrize("p, cutoff", CHAIN_SWEEPS)
def test_chain_contract_holds_on_the_sweep_profiles(p, cutoff):
    # the profiles nearest to sharp: a sweep reads no middle term, so check it here
    _, reports = _chain_sweep_and_reports(p, cutoff)
    for rep in reports:
        assert rep.middle is not None
        assert rep.violations(1e-6) == [], rep


# --------------------------------------------------------------------------
# The batched sweep against the one-eps-at-a-time loop
# --------------------------------------------------------------------------

SWEEP_CASES = [(kind, p) for kind in REPORT_KINDS
               for p in ((2.0,) if inequalities.KINDS[kind].p2_only else (1.5, 2.0, 3.0))]


@pytest.mark.parametrize("cutoff", CUTOFF_KINDS)
@pytest.mark.parametrize("kind, p", SWEEP_CASES)
def test_batched_sweep_equals_one_eps_at_a_time(kind, p, cutoff):
    spec = CutoffSpec(cutoff)
    for eps_list, resolution in ((DEFAULT_EPS_LIST, DEFAULT_SWEEP_RESOLUTION), ((0.2, 0.1), 64)):
        assert sharpness_sweep(kind, p, eps_list, spec, resolution) == loops.sharpness_sweep(
            kind, p, eps_list, spec, resolution)


def test_a_sweep_makes_one_evaluator_call(monkeypatch):
    calls = []
    _patch_evaluator(monkeypatch, calls.append)
    sharpness_sweep("hardy", 2.0, resolution=64)
    # one call on all six 64-cell profiles, seen as rows of 32 values
    assert len(calls) == 1 and len(calls[0]) == len(DEFAULT_EPS_LIST) * 2


def _patch_profiles(monkeypatch, changes):
    """Patch the sweep profile of each eps in ``changes``: ``"overflow"``
    scales it so that its largest value is 1e300, whose square leaves the
    double range, and ``"zero"`` makes it vanish."""
    real = sharpness.minimizing_function

    def profile(p, eps, *args):
        f = real(p, eps, *args)
        scale = {"overflow": 1e300 / f.values.max(), "zero": 0.0}.get(changes.get(eps), 1.0)
        return StepFunction(f.grid, f.values * scale)
    monkeypatch.setattr(sharpness, "minimizing_function", profile)


@pytest.mark.parametrize("changes, error, eps", [
    ({0.05: "overflow"}, DoubleRangeError, 0.05),
    ({0.005: "overflow"}, DoubleRangeError, 0.005),
    ({0.02: "overflow", 0.01: "overflow"}, DoubleRangeError, 0.02),
    ({0.05: "overflow", 0.01: "zero"}, DoubleRangeError, 0.05),
    ({0.05: "zero", 0.01: "overflow"}, ZeroDenominatorError, None),
])
def test_a_later_profile_error_is_raised_as_one_eps_at_a_time(monkeypatch, changes, error, eps):
    _patch_profiles(monkeypatch, changes)
    with pytest.raises(HardyLabError) as want:
        loops.sharpness_sweep("hardy", 2.0, resolution=64)
    with pytest.raises(HardyLabError) as got:
        sharpness_sweep("hardy", 2.0, resolution=64)
    assert got.type is want.type is error and str(got.value) == str(want.value)
    if eps is not None:
        assert str(got.value).endswith(f"double-precision range at p = 2.0, eps = {eps}")


class TestSweepResultValidation:
    def test_rejects_non_decreasing_points(self):
        pts = (SweepPoint(0.1, 3.0, 3.0, 1.0), SweepPoint(0.2, 3.5, 3.5, 1.0))
        with pytest.raises(InvalidParameterError):
            SweepResult(kind="hardy", p=2.0, points=pts, limit=4.0, sharp=4.0,
                        relative_gap=0.0)

    def test_rejects_non_finite_ratio(self):
        pts = (SweepPoint(0.2, 3.0, 3.0, 1.0), SweepPoint(0.1, math.inf, 1.0, 0.0))
        with pytest.raises(InvalidParameterError):
            SweepResult(kind="hardy", p=2.0, points=pts, limit=4.0, sharp=4.0,
                        relative_gap=0.0)


def test_default_eps_list_is_strictly_decreasing():
    assert all(b < a for a, b in zip(DEFAULT_EPS_LIST, DEFAULT_EPS_LIST[1:]))


# --------------------------------------------------------------------------
# Coordinate-ascent maximizer
# --------------------------------------------------------------------------


class TestRatioMaximize:
    def test_indicator_start_is_already_at_two(self):
        # the hardy ratio of the indicator of (0, 1] is exactly 2 at p = 2,
        # so even a single proposal can only improve on that
        best, rep = ratio_maximize("hardy", 2.0, seed=0, iters=1)
        assert rep.ratio >= 2.0 - 1e-12
        assert best.grid.support_end == 1.0

    def test_long_run_approaches_but_never_beats_sharp(self):
        best, rep = ratio_maximize("hardy", 2.0, seed=7, iters=200)
        assert rep.ratio > 3.2, f"ascent stalled at {rep.ratio}"
        assert rep.ratio <= 4.0 * (1.0 + 1e-6)
        assert rep.violations() == []
        print(f"hardy p=2 maximized ratio: {rep.ratio:.6f}")

    def test_chain_stays_admissible(self):
        best, rep = ratio_maximize("rellich_chain", 2.0, seed=3, iters=30)
        assert rep.ratio <= (16.0 / 9.0) * (1.0 + 1e-6)
        assert rep.violations(1e-6) == []

    def test_deterministic_for_fixed_seed(self):
        best_a, rep_a = ratio_maximize("new_hardy", 1.5, seed=11, iters=25)
        best_b, rep_b = ratio_maximize("new_hardy", 1.5, seed=11, iters=25)
        assert rep_a.ratio == rep_b.ratio
        assert np.array_equal(best_a.values, best_b.values)
        assert np.array_equal(best_a.grid.edges, best_b.grid.edges)

    def test_rejects_degenerate_searches(self):
        with pytest.raises(InvalidParameterError):
            ratio_maximize("hardy", 2.0, n_cells=3)
        with pytest.raises(InvalidParameterError):
            ratio_maximize("hardy", 2.0, iters=0)
        with pytest.raises(InvalidParameterError):
            ratio_maximize("hardy", 2.0, seed=-1)


# --------------------------------------------------------------------------
# Lookahead batches against the one-trial-at-a-time ascent
# --------------------------------------------------------------------------

# the criterion-10 kind/p pairs
PROBE_CASES = ([(kind, p) for kind in ("hardy", "new_hardy", "rellich_p", "rellich_chain")
                for p in (1.5, 2.0, 3.0)]
               + [("hardy_rellich_int", 2.0), ("improved_hardy_rellich", 2.0)])


def _assert_same_probe(got, want):
    assert got[0].values.tobytes() == want[0].values.tobytes()
    assert got[1] == want[1]


@pytest.mark.parametrize("kind, p", PROBE_CASES)
def test_lookahead_equals_one_trial_at_a_time(kind, p):
    for seed in range(4):
        for iters in (1, 7, 40, 200):
            _assert_same_probe(ratio_maximize(kind, p, seed=seed, iters=iters),
                               loops.ratio_maximize(kind, p, seed=seed, iters=iters))


@pytest.mark.parametrize("kind, p", PROBE_CASES[:3])
def test_lookahead_equals_one_trial_at_a_time_down_to_the_last_delta(kind, p):
    # 4 cells: many pass ends and halvings of delta, then the delta < 1e-9
    # exit, which the unchanged result at 100 times the iterations shows
    probe = ratio_maximize(kind, p, n_cells=4, seed=1, iters=400)
    _assert_same_probe(probe, loops.ratio_maximize(kind, p, n_cells=4, seed=1, iters=400))
    _assert_same_probe(probe, ratio_maximize(kind, p, n_cells=4, seed=1, iters=40000))


@pytest.mark.parametrize("kind, p", PROBE_CASES)
def test_the_returned_report_is_the_best_functions_report(kind, p):
    best, rep = ratio_maximize(kind, p, seed=0, iters=40)
    assert rep == inequalities.ratio_evaluator(kind, p)(best)


_EVALUATE = inequalities._evaluate  # captured once: patches never wrap each other


def _patch_evaluator(monkeypatch, on_call):
    """Route every evaluation pass of ``ratio_maximize`` and ``sharpness_sweep``
    (and of their reference loops) through ``on_call(rows)``, ``rows`` the
    functions' values in rows of 32, as bytes.  Every pass, with or without
    an estimate, is one ``inequalities._evaluate`` call."""
    def evaluate(f, *args):
        on_call([row.tobytes() for row in np.reshape(f.values, (-1, 32))])
        return _EVALUATE(f, *args)
    monkeypatch.setattr(inequalities, "_evaluate", evaluate)


def _trials_evaluated(monkeypatch, maximize):
    seen = []
    _patch_evaluator(monkeypatch, seen.extend)
    maximize("hardy", 2.0, seed=0, iters=40)
    return seen


def _poison(monkeypatch, trial, message):
    def on_call(rows):
        if trial in rows:
            raise DoubleRangeError(message)
    _patch_evaluator(monkeypatch, on_call)


def test_an_error_on_a_lookahead_only_trial_is_not_raised(monkeypatch):
    reached = _trials_evaluated(monkeypatch, loops.ratio_maximize)
    unused = [t for t in _trials_evaluated(monkeypatch, ratio_maximize) if t not in reached]
    assert unused
    want = loops.ratio_maximize("hardy", 2.0, seed=0, iters=40)
    for trial in unused[:3]:
        _poison(monkeypatch, trial, "lookahead-only trial")
        _assert_same_probe(ratio_maximize("hardy", 2.0, seed=0, iters=40), want)


def test_an_error_on_a_reached_trial_is_raised_as_it_was(monkeypatch):
    reached = _trials_evaluated(monkeypatch, loops.ratio_maximize)
    for index in (1, 2, len(reached) // 2, len(reached) - 1):
        _poison(monkeypatch, reached[index], f"trial {index}")
        with pytest.raises(DoubleRangeError) as want:
            loops.ratio_maximize("hardy", 2.0, seed=0, iters=40)
        with pytest.raises(DoubleRangeError) as got:
            ratio_maximize("hardy", 2.0, seed=0, iters=40)
        assert got.type is want.type and str(got.value) == str(want.value) == f"trial {index}"


def _passes(monkeypatch, run):
    """The number of evaluation passes ``run()`` makes, and the error it raises."""
    calls = []
    _patch_evaluator(monkeypatch, calls.append)
    with pytest.raises(HardyLabError) as err:
        run()
    return len(calls), err.value


def test_a_failed_batch_evaluates_its_functions_alone_only_up_to_the_first_failure(monkeypatch):
    grid = sharpness.make_graded_grid(1.0, 32, "geometric", r_min=1e-3)
    functions = [StepFunction(grid, np.full(32, 1e300 if k == 1 else 1.0 + k)) for k in range(8)]
    evaluate = inequalities.ratio_evaluator("hardy", 2.0)
    # the batch, then functions 0 and 1 alone
    passes, got = _passes(monkeypatch, lambda: evaluate(StepBatch.of(functions)))
    assert passes == 3
    # a single function is its own batch: its one pass raises
    passes, want = _passes(monkeypatch, lambda: evaluate(functions[1]))
    assert passes == 1
    assert type(got) is type(want) is DoubleRangeError and str(got) == str(want)


def test_a_failed_sweep_evaluates_its_profiles_alone_only_up_to_the_first_failure(monkeypatch):
    _patch_profiles(monkeypatch, {DEFAULT_EPS_LIST[2]: "overflow"})
    passes, err = _passes(monkeypatch, lambda: sharpness_sweep("hardy", 2.0, resolution=64))
    assert passes == 1 + 3
    assert type(err) is DoubleRangeError
    assert str(err).endswith(f"double-precision range at p = 2.0, eps = {DEFAULT_EPS_LIST[2]}")


def test_lookahead_cuts_the_evaluator_calls(monkeypatch):
    calls = []
    _patch_evaluator(monkeypatch, calls.append)
    for kind, p in PROBE_CASES:
        ratio_maximize(kind, p, seed=0, iters=40)
    # one trial per call, the reference makes 50.4 calls per run here
    assert len(calls) <= 20 * len(PROBE_CASES)


# --------------------------------------------------------------------------
# Integer parameters
# --------------------------------------------------------------------------

NOT_INTEGERS = [math.nan, math.inf, -math.inf, 1.9, 40.0, True, "40", None]


@pytest.mark.parametrize("bad", NOT_INTEGERS)
def test_integer_parameters_reject_non_integers(bad):
    with pytest.raises(InvalidParameterError):
        minimizing_function(2.0, 0.1, n_cells=bad)
    with pytest.raises(InvalidParameterError):
        sharpness_sweep("hardy", 2.0, eps_list=(0.2, 0.1), resolution=bad)
    with pytest.raises(InvalidParameterError):
        ratio_maximize("hardy", 2.0, n_cells=bad)
    with pytest.raises(InvalidParameterError):
        ratio_maximize("hardy", 2.0, iters=bad)
    with pytest.raises(InvalidParameterError):
        ratio_maximize("hardy", 2.0, seed=bad)


def test_integer_parameters_keep_their_results():
    for n_cells in (64, np.int64(64), np.uint16(64)):
        f = minimizing_function(2.0, 0.1, n_cells=n_cells)
        assert f.values.tobytes() == minimizing_function(2.0, 0.1, n_cells=64).values.tobytes()
    best, rep = ratio_maximize("hardy", 2.0, n_cells=np.int32(8), seed=np.int64(3),
                               iters=np.int64(6))
    ref_best, ref_rep = ratio_maximize("hardy", 2.0, n_cells=8, seed=3, iters=6)
    assert best.values.tobytes() == ref_best.values.tobytes() and rep == ref_rep
    res = sharpness_sweep("hardy", 2.0, eps_list=(0.2, 0.1), resolution=np.int64(64))
    assert res == sharpness_sweep("hardy", 2.0, eps_list=(0.2, 0.1), resolution=64)
