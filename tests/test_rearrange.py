"""Tests for the decreasing rearrangement and its two integral facts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab import (
    InvalidParameterError,
    RearrangedFunction,
    check_norm_preservation,
    check_partial_domination,
    decreasing_rearrangement,
    make_rng,
    p_norm,
    random_step_function,
    step_function,
)

P_SWEEP = (1.1, 1.5, 2.0, 3.0)


def merged_positive_edges(f, fstar):
    return np.unique(np.concatenate([f.grid.edges[1:], fstar.grid.edges[1:]]))


# ---------------------------------------------------------------------------
# Worked examples
# ---------------------------------------------------------------------------


def test_sorts_equal_width_cells():
    f = step_function([0.0, 1.0, 2.0, 3.0], [1.0, 3.0, 2.0])
    fstar = decreasing_rearrangement(f).step
    assert np.array_equal(fstar.values, [3.0, 2.0, 1.0])
    assert np.array_equal(fstar.grid.edges, f.grid.edges)


def test_signed_cells_keep_their_widths():
    f = step_function([0.0, 1.0, 3.0], [-2.0, 1.0])
    fstar = decreasing_rearrangement(f).step
    assert np.array_equal(fstar.values, [2.0, 1.0])
    assert np.array_equal(fstar.grid.widths, [1.0, 2.0])


def test_decreasing_input_is_fixed_point():
    f = step_function([0.0, 0.5, 2.0, 3.0], [3.0, 1.5, 0.0])
    fstar = decreasing_rearrangement(f).step
    assert np.array_equal(fstar.values, f.values)
    assert np.array_equal(fstar.grid.edges, f.grid.edges)


def test_stable_tie_breaking():
    # equal values keep their original relative order, so widths do too
    f = step_function([0.0, 1.0, 3.0, 6.0], [1.0, 2.0, 1.0])
    fstar = decreasing_rearrangement(f).step
    assert np.array_equal(fstar.values, [2.0, 1.0, 1.0])
    assert np.array_equal(fstar.grid.widths, [2.0, 1.0, 3.0])


def test_rearranged_invariants_enforced():
    source = step_function([0.0, 1.0, 2.0], [1.0, 2.0])
    with pytest.raises(InvalidParameterError):
        RearrangedFunction(step=source)  # increasing values
    with pytest.raises(InvalidParameterError):
        RearrangedFunction(step=step_function([0.0, 1.0], [-1.0]))


def test_norm_preservation_examples():
    f = step_function([0.0, 1.0, 2.0, 3.0], [1.0, 3.0, 2.0])
    assert check_norm_preservation(f, 2.0) == (14.0, 14.0)
    zero = step_function([0.0, 1.0], [0.0])
    assert check_norm_preservation(zero, 2.0) == (0.0, 0.0)
    g = step_function([0.0, 1.0, 3.0], [-2.0, 1.0])
    assert check_norm_preservation(g, 3.0) == (10.0, 10.0)


def test_partial_domination_examples():
    f = step_function([0.0, 1.0, 2.0], [1.0, 3.0])
    assert check_partial_domination(f, 1.0) == (1.0, 3.0)
    # at or beyond the support end both sides are the full mass
    lhs, rhs = check_partial_domination(f, 2.0)
    assert lhs == rhs == 4.0
    lhs, rhs = check_partial_domination(f, 10.0)
    assert lhs == rhs == 4.0
    # decreasing input: equality everywhere
    g = step_function([0.0, 1.0, 2.0], [3.0, 1.0])
    for s in (0.3, 1.0, 1.7, 5.0):
        lhs, rhs = check_partial_domination(g, s)
        assert lhs == rhs
    with pytest.raises(InvalidParameterError):
        check_partial_domination(f, 0.0)


# ---------------------------------------------------------------------------
# Invariants on random inputs
# ---------------------------------------------------------------------------


def test_equimeasurable_at_value_thresholds():
    rng = make_rng(101)
    for _ in range(50):
        f = random_step_function(rng)
        fstar = decreasing_rearrangement(f).step
        absvals = np.abs(f.values)
        thresholds = [0.0]
        for v in absvals:
            thresholds.extend([np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)])
        scale = max(1.0, f.grid.support_end)
        for tau in thresholds:
            w_f = math.fsum(f.grid.widths[absvals > tau].tolist())
            w_star = math.fsum(fstar.grid.widths[fstar.values > tau].tolist())
            # widths are re-derived from accumulated edges, so allow rounding
            assert abs(w_f - w_star) <= 1e-12 * scale, \
                f"level widths differ at tau={tau}: {w_f} vs {w_star}"


def test_norm_preserved_across_p_sweep():
    rng = make_rng(103)
    for _ in range(50):
        f = random_step_function(rng)
        for p in P_SWEEP:
            lhs, rhs = check_norm_preservation(f, p)
            assert abs(lhs - rhs) <= 1e-12 * max(lhs, 1e-30), f"p={p}: {lhs} vs {rhs}"


def test_partial_domination_at_merged_edges():
    rng = make_rng(107)
    for _ in range(50):
        f = random_step_function(rng)
        fstar = decreasing_rearrangement(f).step
        for s in merged_positive_edges(f, fstar):
            lhs, rhs = check_partial_domination(f, float(s))
            assert lhs <= rhs + 1e-12 * max(1.0, rhs), \
                f"domination fails at s={s}: {lhs} > {rhs}"


def test_idempotence():
    rng = make_rng(109)
    for _ in range(50):
        f = random_step_function(rng)
        once = decreasing_rearrangement(f).step
        twice = decreasing_rearrangement(once).step
        assert np.array_equal(once.grid.edges, twice.grid.edges)
        assert np.array_equal(once.values, twice.values)


def test_rearrangement_of_signed_input_matches_absolute_value():
    rng = make_rng(113)
    for _ in range(20):
        f = random_step_function(rng)
        a = decreasing_rearrangement(f).step
        b = decreasing_rearrangement(abs(f)).step
        assert np.array_equal(a.grid.edges, b.grid.edges)
        assert np.array_equal(a.values, b.values)


@given(
    cells=st.lists(
        st.tuples(st.floats(-5.0, 5.0, allow_nan=False),
                  st.floats(0.01, 3.0, allow_nan=False)),
        min_size=1, max_size=12,
    )
)
@settings(max_examples=200, deadline=None)
def test_property_rearrangement_contract(cells):
    values = [v for v, _ in cells]
    widths = [w for _, w in cells]
    edges = [0.0]
    for w in widths:
        edges.append(edges[-1] + w)
    f = step_function(edges, values)
    fstar = decreasing_rearrangement(f).step
    # non-negative, non-increasing, same support length
    assert np.all(fstar.values >= 0.0)
    assert np.all(np.diff(fstar.values) <= 0.0)
    assert fstar.grid.support_end == f.grid.support_end
    # mass preserved
    lhs, rhs = check_norm_preservation(f, 2.0)
    assert abs(lhs - rhs) <= 1e-12 * max(lhs, 1e-30)
    # domination at the rearranged edges
    for s in fstar.grid.edges[1:]:
        a, b = check_partial_domination(f, float(s))
        assert a <= b + 1e-12 * max(1.0, b)
