"""Tests for the decreasing rearrangement and its two integral facts."""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab import (
    DoubleRangeError,
    InvalidParameterError,
    RearrangedFunction,
    check_norm_preservation,
    check_partial_domination,
    decreasing_rearrangement,
    make_rng,
    p_norm,
    random_step_function,
    step_function,
    weighted_supmin_check,
)
from hardylab import rearrange
from hardylab.operators import _CumulativeReader, cumulative

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
    lhs, rhs = check_partial_domination(f, [1.0, 2.0, 10.0])
    assert lhs.tolist() == [1.0, 4.0, 4.0] and rhs.tolist() == [3.0, 4.0, 4.0]
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InvalidParameterError):
            check_partial_domination(f, bad)
        with pytest.raises(InvalidParameterError):
            check_partial_domination(f, np.array([1.0, bad, 2.0]))
    for bad in (np.ones((2, 2)), "abc", [1.0, "x"]):
        with pytest.raises(InvalidParameterError):
            check_partial_domination(f, bad)


def test_partial_domination_overflow_is_a_range_error():
    f = step_function([0.0, 1e300], [1e300])
    with pytest.raises(DoubleRangeError):
        check_partial_domination(f, 1.0)


@pytest.mark.parametrize("edges, values", [([0.0, 1e300], [1e300]),
                                           ([0.0, 10.0, 20.0], [1e308, 1.0])])
def test_an_overflowing_mass_is_a_range_error_after_the_rearrangement(edges, values):
    """The rearrangement is built without a warning, and the partial masses
    raise whether or not it was built first."""
    f = step_function(edges, values)
    assert decreasing_rearrangement(f).step.values[0] == max(values)
    for s in (1.0, 15.0, [1.0, 15.0]):
        with pytest.raises(DoubleRangeError, match="double-precision range"):
            check_partial_domination(f, s)


def test_limits_far_past_the_support_end_give_the_total_mass():
    """``1e308 * 10`` of the last cell's affine piece is not computed."""
    f = step_function([0.0, 1.0, 2.0], [1.0, 10.0])
    assert check_partial_domination(f, 1e308) == (11.0, 11.0)
    lhs, rhs = check_partial_domination(f, [3.0, 1e308, np.finfo(float).max])
    assert lhs.tolist() == rhs.tolist() == [11.0, 11.0, 11.0]


# the InvalidParameterError message of each rejected upper limit
BAD_LIMITS = [
    (0.0, "upper limits must be positive, got 0.0"),
    (-0.0, "upper limits must be positive, got -0.0"),
    (-1.0, "upper limits must be positive, got -1.0"),
    (math.nan, "upper limits must be finite real numbers"),
    (math.inf, "upper limits must be finite real numbers"),
    (True, "upper limits must be finite real numbers"),
    (np.float64("nan"), "upper limits must be finite real numbers"),
    ("1", "upper limits must be finite real numbers"),
    (None, "upper limits must be finite real numbers"),
]


@pytest.mark.parametrize("bad, message", BAD_LIMITS)
def test_rejected_limits_name_their_fault(bad, message):
    filled = step_function([0.0, 1.0, 2.0], [1.0, 3.0])
    check_partial_domination(filled, 1.0)
    for f in (filled, step_function([0.0, 1.0, 2.0], [1.0, 3.0])):  # the memo filled and empty
        with pytest.raises(InvalidParameterError) as err:
            check_partial_domination(f, bad)
        assert str(err.value) == message


def test_numpy_and_integer_limits_give_the_float_results():
    f = random_step_function(make_rng(43))
    limits = [(s, np.float64(s), np.array(s)) for s in f.grid.edges[1:].tolist() + [1e300]]
    limits += [(float(n), n, np.int64(n)) for n in (1, 2, 3, 2**53)]
    for s, *others in limits:
        expect = check_partial_domination(f, s)
        for limit in others:
            got = check_partial_domination(f, limit)
            assert [type(x) for x in got] == [float, float]
            assert [x.hex() for x in got] == [x.hex() for x in expect], limit


# cells narrower than an ulp of the running edge sum: the 1e-20 cell, and the
# one-ulp last cell of a grid whose re-summed widths overshoot its support end
SUB_ULP_CELLS = [
    ([0.0, 1e-20, 1.0], [0.5, 1.0]),
    ([0.0, 0.005808552530188255, 0.44339832425413067, 0.44429964419230394,
      0.5118906753806659, 0.7370232730912986, 0.9025706550479363, 1.72978480076659,
      1.7297848007665901],
     [0.5830137555479241, 0.26504148252045107, 0.42046803914087083, 0.3847550581832317,
      0.6358378788974904, 0.6562954066446856, 0.8640151693667462, 0.1]),
]


@pytest.mark.parametrize("edges, values", SUB_ULP_CELLS)
def test_sub_ulp_cells_are_dropped_from_the_rearrangement(edges, values):
    f = step_function(edges, values)
    fstar = decreasing_rearrangement(f).step
    assert fstar.grid.n_cells == f.grid.n_cells - 1
    assert fstar.grid.support_end == f.grid.support_end
    assert np.array_equal(fstar.values, np.sort(np.abs(values))[::-1][:-1])
    for p in P_SWEEP:
        before, after = check_norm_preservation(f, p)
        assert abs(before - after) <= 1e-12 * max(1.0, before)
    merged = merged_positive_edges(f, fstar)
    lhs, rhs = check_partial_domination(f, merged)
    assert np.all(lhs <= rhs + 1e-12 * np.maximum(1.0, rhs))
    bound, rearranged = weighted_supmin_check(f, 2.0)
    assert bound <= rearranged * (1.0 + 1e-6)


@pytest.mark.parametrize("p", [1.1, 2.0])
def test_many_sub_ulp_cells_keep_their_mass(p):
    """400,000 cells of width 1e-17 sorted behind a unit cell each fall below
    an ulp of the edge sum; their widths carry over instead of adding up to
    a lost mass of about 1e-12."""
    n = 400_000
    edges = np.concatenate([np.arange(n + 1) * 1e-17, n * 1e-17 + np.array([1.0, 2.0])])
    f = step_function(edges, np.concatenate([np.full(n, 0.5), [1.0, 0.1]]))
    before, after = check_norm_preservation(f, p)
    assert abs(before - after) <= 1e-12 * before
    fstar = decreasing_rearrangement(f).step
    assert fstar.grid.support_end == f.grid.support_end
    assert fstar.values[0] == 1.0 and fstar.values[-1] == 0.1


def test_rearrangement_without_dropped_cells_is_unchanged():
    """With no cell dropped, f* is the plain running sum of sorted widths."""
    rng = make_rng(21)
    for _ in range(50):
        f = random_step_function(rng)
        order = (-np.abs(f.values)).argsort(kind="stable")
        edges = np.minimum(np.concatenate([[0.0], f.grid.widths[order].cumsum()]),
                           f.grid.support_end)
        edges[-1] = f.grid.support_end
        fstar = decreasing_rearrangement(f).step
        assert fstar.grid.edges.tobytes() == edges.tobytes()
        assert fstar.values.tobytes() == np.abs(f.values)[order].tobytes()


def test_partial_domination_equals_cumulative_evaluate():
    """The running-sum form gives the exact floats of evaluating the two
    validated cumulatives, and the array form the exact scalar results."""
    rng = make_rng(3)
    for _ in range(300):
        f = random_step_function(rng)
        fstar = decreasing_rearrangement(f).step
        merged = np.union1d(f.grid.edges, fstar.grid.edges)
        points = np.concatenate([merged[1:], 0.5 * (merged[:-1] + merged[1:]),
                                 [1.5 * f.grid.support_end, 1e-9]])
        expect_lhs = cumulative(abs(f)).evaluate(points)
        expect_rhs = cumulative(fstar).evaluate(points)
        lhs, rhs = check_partial_domination(f, points)
        assert np.array_equal(lhs, expect_lhs) and np.array_equal(rhs, expect_rhs)
        for k, s in enumerate(points.tolist()):
            assert check_partial_domination(f, s) == (lhs[k], rhs[k])


def test_float_limits_equal_the_array_elements():
    """A float limit, read in Python floats, gives the array path's element
    bit for bit: at every edge of f and f*, at the doubles next to them, inside
    the cells, at the smallest subnormal and past the support end."""
    rng = make_rng(47)
    functions = [random_step_function(rng) for _ in range(100)]
    for edges, values in SUB_ULP_CELLS:
        functions += [step_function(edges, values), step_function(edges, -np.asarray(values))]
    for f in functions:
        fstar = decreasing_rearrangement(f).step
        edges = np.union1d(f.grid.edges, fstar.grid.edges)[1:]
        end = f.grid.support_end
        points = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                                 0.5 * (edges[:-1] + edges[1:]),
                                 [5e-324, 1.5 * end, 1e300, 1e308]])
        points = points[points > 0.0]
        lhs, rhs = check_partial_domination(f, points)
        for k, s in enumerate(points.tolist()):
            got = check_partial_domination(f, s)
            assert [type(x) for x in got] == [float, float]
            assert [x.hex() for x in got] == [float(lhs[k]).hex(), float(rhs[k]).hex()], s


def test_cumulative_at_equals_cumulative_evaluate():
    """``F(s)`` read off the running sums in Python floats is the float that
    evaluating the validated cumulative gives: at the edges, inside the cells
    and beyond the support, for signed values and for the sub-ulp cells and
    their rearrangements."""
    rng = make_rng(5)
    functions = [random_step_function(rng) for _ in range(200)]
    for edges, values in SUB_ULP_CELLS:
        f = step_function(edges, values)
        functions += [f, step_function(edges, -np.asarray(values)),
                      decreasing_rearrangement(f).step]
    for f in functions:
        edges = f.grid.edges
        end = edges[-1]
        points = np.concatenate([edges[1:], 0.5 * (edges[:-1] + edges[1:]),
                                 rng.uniform(0.0, end, 20) + 5e-324,
                                 [np.nextafter(end, np.inf), 1.5 * end, 1e300]])
        F = _CumulativeReader(edges, f.values)
        assert [F.at(s) for s in points.tolist()] == cumulative(f).evaluate(points).tolist()


# ---------------------------------------------------------------------------
# One rearrangement per function
# ---------------------------------------------------------------------------


def test_same_function_gives_the_same_rearrangement():
    f = random_step_function(make_rng(29))
    assert decreasing_rearrangement(f) is decreasing_rearrangement(f)


def test_one_check_sequence_sorts_twice(monkeypatch):
    """The criterion-5/6 checks on one function (the rearrangement, four
    norms, domination at every merged edge, the weighted sup-min check on
    ``f`` and on ``f*``) sort ``|f|`` once and ``f*`` once."""
    sorted_functions = []
    original = rearrange._rearranged_cells

    def counting(f):
        sorted_functions.append(f)
        return original(f)

    monkeypatch.setattr(rearrange, "_rearranged_cells", counting)
    f = random_step_function(make_rng(31))
    fstar = decreasing_rearrangement(f).step
    for p in P_SWEEP:
        check_norm_preservation(f, p)
    merged = np.union1d(f.grid.edges, fstar.grid.edges)
    for s in merged[merged > 0.0].tolist():
        check_partial_domination(f, s)
    weighted_supmin_check(f, 2.0)
    weighted_supmin_check(fstar, 2.0)
    assert len(merged) > 20
    assert sorted_functions == [f, fstar]


def test_memo_entry_goes_with_its_function():
    f = random_step_function(make_rng(37))
    fstar = decreasing_rearrangement(f).step
    check_partial_domination(fstar, 1.0)  # an entry keyed by f* as well
    refs = weakref.ref(f), weakref.ref(fstar)
    gc.collect()
    size = len(rearrange._MEMO)
    del f, fstar
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
    assert len(rearrange._MEMO) == size - 2


def fresh_partial_masses(f, s):
    """Both partial masses from a fresh sort, evaluating the validated cumulatives."""
    edges, values = rearrange._rearranged_cells(f)
    return (cumulative(abs(f)).evaluate(s),
            cumulative(step_function(edges, values)).evaluate(s))


def test_kept_rearrangement_gives_fresh_results():
    """Per-point and whole-array partial masses, on the first call for a
    function and on later ones, equal a fresh computation, and the kept
    ``f*`` is the fresh one."""
    rng = make_rng(41)
    functions = [random_step_function(rng) for _ in range(40)]
    functions += [step_function(edges, values) for edges, values in SUB_ULP_CELLS]
    for g in functions:
        edges, values = rearrange._rearranged_cells(g)
        merged = np.union1d(g.grid.edges, edges)
        points = np.concatenate([merged[1:], 0.5 * (merged[:-1] + merged[1:]),
                                 [1.5 * g.grid.support_end]])
        expect_lhs, expect_rhs = fresh_partial_masses(g, points)
        scalar_first = step_function(g.grid.edges, g.values)
        array_first = step_function(g.grid.edges, g.values)
        assert check_partial_domination(scalar_first, float(points[0])) == \
            (expect_lhs[0], expect_rhs[0])
        for f in (array_first, array_first, scalar_first):
            lhs, rhs = check_partial_domination(f, points)
            assert np.array_equal(lhs, expect_lhs) and np.array_equal(rhs, expect_rhs)
            for k, s in enumerate(points.tolist()):
                assert check_partial_domination(f, s) == (expect_lhs[k], expect_rhs[k])
            fstar = decreasing_rearrangement(f).step
            assert fstar.grid.edges.tobytes() == edges.tobytes()
            assert fstar.values.tobytes() == values.tobytes()


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
        points = merged_positive_edges(f, fstar)
        lhs, rhs = check_partial_domination(f, points)
        bad = ~(lhs <= rhs + 1e-12 * np.maximum(1.0, rhs))
        assert not bad.any(), \
            f"domination fails at s={points[bad]}: {lhs[bad]} > {rhs[bad]}"


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
