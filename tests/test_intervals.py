"""The whole-array interval builders against their per-cell loop forms.

Every array the builders return must equal the loop reference bit for bit
(same shape, same bytes, so signed zeros count too): the quadrature sums the
same intervals in the same order, and the reports cannot move.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import interval_loops as loops
from hardylab import PiecewisePoly, StepFunction, make_graded_grid, make_rng, random_step_function
from hardylab.grid import step_function
from hardylab.quadrature import _cap_interval_ratio, _cell_intervals
from hardylab.inequalities import _supmin_rows
from hardylab.operators import cumulative, double_cumulative, inner_cumulative
from hardylab.sharpness import (_MAXIMIZE_R_MIN, DEFAULT_EPS_LIST, DEFAULT_SWEEP_RESOLUTION,
                                CutoffSpec, _sweep_r_min, minimizing_function)


def assert_identical(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        g, w = np.asarray(g), np.asarray(w)
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w)
        assert g.tobytes() == w.tobytes()


def assert_same_poly(got, want):
    assert_identical((got.grid.edges, got.coeffs), (want.grid.edges, want.coeffs))
    assert_identical((got.tail_value, got.tail_slope), (want.tail_value, want.tail_slope))


def cell_intervals(P, alpha):
    """``_cell_intervals`` on one polynomial: its four interval arrays."""
    *intervals, bounds = _cell_intervals(P, alpha)
    assert bounds.tolist() == [0, intervals[0].size]
    return intervals


def check_function(f, p=2.0):
    """Every builder on ``f`` at the weights the ratio kinds use."""
    for P, alpha in ((cumulative(f), -p), (double_cumulative(abs(f)), -2.0 * p)):
        assert_identical(cell_intervals(P, alpha), loops.cell_intervals(P, alpha))
    G = inner_cumulative(f)
    assert_same_poly(G, loops.inner_cumulative(f))
    assert_identical(cell_intervals(G, -2.0 * p), loops.cell_intervals(G, -2.0 * p))
    rows, bounds, peak, F_end = _supmin_rows(f)
    want_rows, want_peak, want_F_end = loops.supmin_rows(f)
    assert_identical(rows, want_rows)
    assert bounds.tolist() == [0, rows[0].size]
    assert (peak, F_end) == ([want_peak], [want_F_end])


def test_random_functions_match_loops():
    rng = make_rng(2024)
    for _ in range(300):
        check_function(random_step_function(rng))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_sweep_profiles_match_loops(p):
    for eps in DEFAULT_EPS_LIST:
        f = minimizing_function(p, eps, CutoffSpec(), DEFAULT_SWEEP_RESOLUTION,
                                _sweep_r_min(eps))
        check_function(f, p)


def test_maximize_grid_matches_loops():
    grid = make_graded_grid(1.0, 32, "geometric", r_min=_MAXIMIZE_R_MIN)
    rng = make_rng(7)
    check_function(StepFunction(grid, np.ones(32)))
    for _ in range(20):
        check_function(StepFunction(grid, rng.uniform(0.0, 2.0, 32)), 1.5)


def test_random_polynomials_match_loops():
    rng = make_rng(99)
    for _ in range(300):
        f = random_step_function(rng)
        n = f.grid.n_cells
        coeffs = rng.normal(size=(n, 3)) * rng.choice([0.0, 1.0], size=(n, 3))
        P = PiecewisePoly(f.grid, coeffs)
        for alpha in (-2.0, 0.0):
            assert_identical(cell_intervals(P, alpha), loops.cell_intervals(P, alpha))


@pytest.mark.parametrize("coeffs", [
    [(0.0, 0.0, 0.0), (0.0, 0.0, 0.0)],       # zero cells
    [(0.25, -1.0, 1.0), (0.0, 0.0, 1.0)],     # double roots (t - 0.5)^2 and t^2
    [(1.0, -2.0, 0.0), (-0.5, 0.0, 0.0)],     # linear pieces (c2 = 0)
    [(1.0, -1.0, 0.0), (0.0, 1.0, -1.0)],     # roots exactly on an edge
    [(-0.1, 0.0, 1.0), (2.0, -3.0, 1.0)],     # two roots in one cell
])
@pytest.mark.parametrize("alpha", [-3.0, 0.0, 1.5])
def test_hand_cases_match_loops(coeffs, alpha):
    P = PiecewisePoly(step_function([0.0, 1.0, 2.0], [0.0, 0.0]).grid, coeffs)
    assert_identical(cell_intervals(P, alpha), loops.cell_intervals(P, alpha))


@pytest.mark.parametrize("edges, values", [
    ([0.0, 1.0, 1.5, 2.0], [0.0, 0.0, 1.0]),
    ([0.0, 1.0, 1.5, 2.0], [1.0, 0.0, 0.0]),
    ([0.0, 1.0, 1.5, 2.0], [1.0, -1.0, 1.0]),
    ([0.0, 2.0], [0.5]),
    # F returns to exactly 0 at the last edge, so the future branch is 0 on
    # the last cell; its crossing formulas must not add a cut there
    ([0.0, 0.19739816838584662, 2.586472402103951],
     [1.4863453482168938, -0.12280985043743006]),
])
def test_hand_step_functions_match_loops(edges, values):
    check_function(step_function(edges, values))


def test_cap_only_for_negative_alpha():
    P = cumulative(step_function([0.0, 1e-300, 1.0], [1.0, 2.0]))
    assert _cell_intervals(P, 0.0)[0].tolist() == [0.0, 1e-300]
    lo = _cell_intervals(P, -1.0)[0]
    assert lo.size == 1 + 997  # the first cell whole, then doublings of 1e-300 up to 1
    assert_identical(cell_intervals(P, -1.0), loops.cell_intervals(P, -1.0))


# edges from the smallest subnormal up to 1e300; log2(hi / lo) overflows here.
# The second strategy spreads the binary exponents evenly over that range.
positive_edges = st.one_of(
    st.floats(min_value=5e-324, max_value=1e300),
    st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-1074, 996))
    .filter(lambda x: x > 0.0),
)


@given(edges=st.lists(positive_edges, min_size=1, max_size=12, unique=True),
       origin=st.booleans())
@settings(max_examples=300, deadline=None)
def test_property_cap_matches_loop(edges, origin):
    cuts = ([0.0] if origin else []) + sorted(edges)
    if len(cuts) < 2:
        cuts = [cuts[0], 2.0 * cuts[0] + 1.0]
    c = np.array(cuts)
    lo, hi, parent, bounds = _cap_interval_ratio(c[:-1], c[1:], np.arange(c.size - 1),
                                                 np.array([0, c.size - 1]))
    got = np.concatenate((c[:1], hi))
    assert_identical((got,), (np.array(loops.cap_interval_ratio(cuts)),))
    assert_identical((lo[1:],), (hi[:-1],))
    assert bounds.tolist() == [0, hi.size]
    # every interval lies in the input interval it came from
    assert np.all((c[:-1][parent] <= lo) & (hi <= c[1:][parent]))
