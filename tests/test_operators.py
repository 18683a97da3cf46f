"""Tests for cumulative integrals, the sup-min transform, and the max-form identity."""

import math

import numpy as np
import pytest

from hardylab import (
    InvalidParameterError,
    StepFunction,
    cumulative,
    decreasing_rearrangement,
    double_cumulative,
    make_rng,
    maxform_value,
    random_step_function,
    rellich_inner,
    step_function,
    supmin_candidates,
    supmin_pointwise_identity_check,
    supmin_transform,
)
from hardylab.operators import inner_cumulative, supmin_branches

INDICATOR = step_function([0.0, 1.0], [1.0])
SHIFTED = step_function([0.0, 1.0, 2.0], [0.0, 1.0])
ZERO = step_function([0.0, 1.0], [0.0])


def radii_mesh(f, rng, count):
    """Positive test radii covering the support and the tail beyond it."""
    return rng.uniform(1e-3, 1.5 * f.grid.support_end, size=count)


# ---------------------------------------------------------------------------
# Cumulative integrals
# ---------------------------------------------------------------------------


class TestCumulative:
    def test_indicator(self):
        F = cumulative(INDICATOR)
        assert np.allclose(F.evaluate(np.array([0.0, 0.5, 1.0, 2.0])),
                           [0.0, 0.5, 1.0, 1.0], rtol=0.0, atol=0.0)

    def test_zero(self):
        F = cumulative(ZERO)
        assert F.evaluate(0.7) == 0.0 and F.tail_value == 0.0

    def test_two_cells_piecewise_linear(self):
        f = step_function([0.0, 1.0, 2.0], [2.0, -1.0])
        F = cumulative(f)
        assert F.evaluate(1.0) == 2.0
        assert F.evaluate(2.0) == 1.0
        assert F.evaluate(0.5) == 1.0
        assert F.evaluate(1.5) == 1.5
        assert F.tail_slope == 0.0 and F.tail_value == 1.0


class TestDoubleCumulative:
    def test_indicator(self):
        D = double_cumulative(INDICATOR)
        assert np.allclose(D.evaluate(np.array([0.5, 1.0, 2.0])),
                           [0.125, 0.5, 1.5], rtol=0.0, atol=0.0)
        assert D.tail_slope == 1.0

    def test_zero(self):
        D = double_cumulative(ZERO)
        assert D.evaluate(3.0) == 0.0

    def test_scaling(self):
        c = 3.0
        D1 = double_cumulative(INDICATOR)
        Dc = double_cumulative(step_function([0.0, 1.0], [c]))
        r = np.array([0.3, 1.0, 2.5])
        assert np.allclose(Dc.evaluate(r), c * D1.evaluate(r), rtol=1e-15)

    def test_derivative_is_cumulative_on_random_input(self):
        rng = make_rng(41)
        for _ in range(20):
            f = random_step_function(rng)
            D = double_cumulative(f)
            F = cumulative(f)
            # D' = F, checked with a central difference (D is C^1)
            r = radii_mesh(f, rng, 10)
            h = 1e-6 * f.grid.support_end
            approx = (D.evaluate(r + h) - D.evaluate(r - h)) / (2.0 * h)
            assert np.all(np.abs(approx - F.evaluate(r)) <= 1e-3 * (1.0 + np.abs(F.evaluate(r))))


# ---------------------------------------------------------------------------
# Sup-min transform
# ---------------------------------------------------------------------------


class TestSupminTransform:
    def test_decreasing_indicator_sup_at_r(self):
        assert supmin_transform(INDICATOR, 0.5) == 1.0

    def test_shifted_indicator(self):
        # F(s) = s - 1 on (1,2]; best candidate is (s-1)/s at s = 2
        assert supmin_transform(SHIFTED, 1.0) == 0.5

    def test_zero(self):
        for r in (0.2, 1.0, 7.0):
            assert supmin_transform(ZERO, r) == 0.0

    def test_radius_validation(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(InvalidParameterError):
                supmin_transform(INDICATOR, bad)

    def test_dominates_classical_integrand(self):
        rng = make_rng(43)
        for _ in range(30):
            f = random_step_function(rng)
            F = cumulative(f)
            for r in radii_mesh(f, rng, 10):
                m = supmin_transform(f, float(r))
                classical = abs(F.evaluate(float(r))) / float(r)
                assert m >= classical - 1e-12 * max(1.0, classical)

    def test_r_times_transform_nondecreasing(self):
        rng = make_rng(47)
        for _ in range(30):
            f = random_step_function(rng)
            rs = np.sort(radii_mesh(f, rng, 20))
            vals = np.array([float(r) * supmin_transform(f, float(r)) for r in rs])
            assert np.all(np.diff(vals) >= -1e-12 * np.maximum(1.0, vals[:-1]))

    def test_nonincreasing_beyond_support(self):
        rng = make_rng(53)
        for _ in range(30):
            f = random_step_function(rng)
            R = f.grid.support_end
            rs = R * np.array([1.0, 1.2, 1.9, 3.4, 10.0])
            vals = np.array([supmin_transform(f, float(r)) for r in rs])
            assert np.all(np.diff(vals) <= 1e-12 * np.maximum(1.0, vals[:-1]))

    def test_scaling_covariance(self):
        # with g(t) = lam * f(lam t): M g(r) = lam * M f(lam r)
        rng = make_rng(59)
        for _ in range(20):
            f = random_step_function(rng)
            for lam in (0.5, 2.0, 3.7):
                g = StepFunction(type(f.grid)(f.grid.edges / lam), lam * f.values)
                for r in radii_mesh(f, rng, 5):
                    lhs = supmin_transform(g, float(r) / lam)
                    rhs = lam * supmin_transform(f, float(r))
                    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs)), \
                        f"lam={lam}, r={r}: {lhs} vs {rhs}"


class TestDecreasingCaseEquality:
    def test_sup_attained_at_r_on_rearranged_inputs(self):
        rng = make_rng(61)
        for _ in range(30):
            fstar = decreasing_rearrangement(random_step_function(rng)).step
            F = cumulative(fstar)
            for r in radii_mesh(fstar, rng, 10):
                r = float(r)
                target = F.evaluate(r)
                m = supmin_transform(fstar, r)
                assert abs(r * m - target) <= 1e-12 * max(1.0, target)
                # the candidate at s = r must itself attain the sup
                trace = dict(supmin_candidates(fstar, r))
                assert abs(trace[r] - m) <= 1e-12 * max(1.0, m)

    def test_integrated_equality_with_double_cumulative(self):
        # accumulating tau * M(tau) reproduces D for decreasing inputs
        rng = make_rng(67)
        for _ in range(20):
            fstar = decreasing_rearrangement(random_step_function(rng)).step
            G = inner_cumulative(fstar)
            D = double_cumulative(fstar)
            r = radii_mesh(fstar, rng, 20)
            g, d = G.evaluate(r), D.evaluate(r)
            assert np.all(np.abs(g - d) <= 1e-10 * np.maximum(1.0, np.abs(d)))


# ---------------------------------------------------------------------------
# Rellich inner transform and its cumulative
# ---------------------------------------------------------------------------


class TestRellichInner:
    def test_indicator_small_tau(self):
        assert rellich_inner(INDICATOR, 0.5) == 0.5

    def test_indicator_large_tau(self):
        assert rellich_inner(INDICATOR, 2.0) == 1.0

    def test_zero(self):
        assert rellich_inner(ZERO, 1.0) == 0.0

    def test_tau_validation(self):
        with pytest.raises(InvalidParameterError):
            rellich_inner(INDICATOR, 0.0)

    def test_uses_absolute_value(self):
        f = step_function([0.0, 1.0, 2.0], [1.0, -1.0])
        for tau in (0.5, 1.0, 1.5, 2.0, 3.0):
            assert rellich_inner(f, tau) == rellich_inner(abs(f), tau)


class TestInnerCumulative:
    def test_matches_pointwise_transform_quadrature(self):
        # integrate rellich_inner over each refined cell with 2-point Gauss
        # (the integrand is affine there) and compare the running sums
        rng = make_rng(71)
        x2 = np.array([-1.0, 1.0]) / math.sqrt(3.0)
        for _ in range(20):
            f = random_step_function(rng)
            G = inner_cumulative(f)
            edges = G.grid.edges
            running = 0.0
            for lo, hi in zip(edges[:-1], edges[1:]):
                mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
                nodes = mid + half * x2
                running += half * sum(rellich_inner(f, float(t)) for t in nodes)
                got = G.evaluate(float(hi))
                assert abs(got - running) <= 1e-10 * max(1.0, abs(running)), \
                    f"G({hi}) = {got} vs accumulated {running}"

    def test_tail_slope_is_total_mass(self):
        rng = make_rng(73)
        for _ in range(20):
            f = random_step_function(rng)
            G = inner_cumulative(f)
            mass = float(np.sum(np.abs(f.values) * f.grid.widths))
            assert abs(G.tail_slope - mass) <= 1e-12 * max(1.0, mass)
            R = f.grid.support_end
            assert abs((G.evaluate(R + 1.0) - G.evaluate(R)) - mass) <= 1e-12 * max(1.0, mass)

    def test_refined_grid_spans_the_support(self):
        f = step_function([0.0, 1.0, 2.0], [0.25, 1.0])
        G = inner_cumulative(f)
        assert G.grid.edges[0] == 0.0
        assert G.grid.support_end == 2.0
        original = set(f.grid.edges.tolist())
        assert original.issubset(set(G.grid.edges.tolist()))


# ---------------------------------------------------------------------------
# Max-form identity
# ---------------------------------------------------------------------------


class TestMaxformValue:
    def test_indicator_right_of_support(self):
        assert maxform_value(INDICATOR, 2.0, 2.0) == 0.25

    def test_indicator_inside_support(self):
        assert maxform_value(INDICATOR, 0.5, 2.0) == 4.0

    def test_zero(self):
        assert maxform_value(ZERO, 1.0, 2.0) == 0.0

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            maxform_value(INDICATOR, 0.0, 2.0)
        with pytest.raises(InvalidParameterError):
            maxform_value(INDICATOR, 1.0, 1.0)


class TestPointwiseIdentity:
    def test_indicator(self):
        assert supmin_pointwise_identity_check(INDICATOR, 0.5, 2.0) == (4.0, 4.0)

    def test_zero(self):
        assert supmin_pointwise_identity_check(ZERO, 1.0, 2.0) == (0.0, 0.0)

    def test_two_cells(self):
        f = step_function([0.0, 1.0, 2.0], [1.0, 2.0])
        lhs, rhs = supmin_pointwise_identity_check(f, 1.5, 2.0)
        assert lhs == rhs

    def test_random_inputs(self):
        rng = make_rng(79)
        for _ in range(100):
            f = random_step_function(rng)
            for r in radii_mesh(f, rng, 5):
                for p in (1.5, 2.0, 3.0):
                    lhs, rhs = supmin_pointwise_identity_check(f, float(r), p)
                    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs)), \
                        f"identity off at r={r}, p={p}: {lhs} vs {rhs}"


# ---------------------------------------------------------------------------
# Branch decomposition (shared by the integral evaluators)
# ---------------------------------------------------------------------------


def test_supmin_branches_reproduce_transform():
    rng = make_rng(83)
    for _ in range(30):
        f = random_step_function(rng)
        F_edges, prefix, suffix = supmin_branches(f)
        edges = f.grid.edges
        F = cumulative(f)
        for i in range(f.grid.n_cells):
            for t in (0.25, 0.75):
                r = float(edges[i] + t * (edges[i + 1] - edges[i]))
                via_branches = max(prefix[i] / r, abs(F.evaluate(r)) / r, suffix[i])
                direct = supmin_transform(f, r)
                assert abs(via_branches - direct) <= 1e-12 * max(1.0, direct)
        peak = prefix[-1]
        for r in (1.5 * edges[-1], 4.0 * edges[-1]):
            direct = supmin_transform(f, float(r))
            assert abs(peak / r - direct) <= 1e-12 * max(1.0, direct)


def test_supmin_branches_take_F_from_the_running_sums():
    # F at the edges is cumulative's constant coefficients plus its tail
    # value; it must equal evaluating F on its own edges
    rng = make_rng(2025)
    for _ in range(300):
        f = random_step_function(rng)
        F_edges, _, _ = supmin_branches(f)
        assert np.array_equal(F_edges, cumulative(f).evaluate(f.grid.edges))
