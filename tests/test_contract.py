"""The input contract: a value that is not a valid number, or not a function,
raises InvalidParameterError.

Every row of :data:`CALLS` passes one argument of a public call each value of
:data:`BAD` in turn (None, text, a list, NaN, inf, a bool, a bool or text in a
list, and an int beyond the double range) and expects an
:class:`InvalidParameterError`, never a raw ``TypeError`` or ``ValueError``.
Every size parameter does the same with the :data:`SIZES` numpy cannot index.
Every row of :data:`FUNCTION_CALLS` does the same with None, a list, text
and a function of the other kind where a step function or piecewise
polynomial belongs (never a raw ``AttributeError``); the calls that read one
function's grid reject a batch too.
"""

import math
import os
import re

import numpy as np
import pytest

from hardylab import (
    Grid,
    InvalidParameterError,
    PiecewisePoly,
    StepBatch,
    check_exponent,
    check_norm_preservation,
    check_partial_domination,
    corollary_avg_check,
    corollary_int_check,
    cutoff_value,
    CutoffSpec,
    decreasing_rearrangement,
    HardyLabError,
    hardy_rellich_int_ratio,
    improved_hardy_rellich_ratio,
    integrate_weighted_power,
    make_graded_grid,
    make_rng,
    minimizing_function,
    new_hardy_ratio,
    p_norm,
    random_step_function,
    ratio_evaluator,
    ratio_maximize,
    read_step_csv,
    rellich_chain,
    rellich_p_ratio,
    sharp_constant,
    sharpness_sweep,
    step_function,
    weighted_supmin_check,
    write_step_csv,
)
from hardylab.grid import MAX_SIZE, as_batch, check_integer, check_real, step_csv_text
from hardylab.inequalities import check_tolerance, hardy_ratio
from hardylab.operators import (cumulative, double_cumulative, inner_cumulative, maxform_value,
                                rellich_inner, supmin_branches, supmin_candidates,
                                supmin_pointwise_identity_check, supmin_transform)

BAD = {"none": None, "text": "x", "list": [1.0], "nan": math.nan, "inf": math.inf, "bool": True,
       "bool_in_list": [1.0, True], "text_in_list": [1.0, "2"], "huge_int": 10**400}

F = step_function([0.0, 0.5, 1.0, 2.0], [1.0, -0.5, 0.25])
AWAY = step_function([0.0, 0.5, 1.0, 2.0], [0.0, -0.5, 0.25])
P = cumulative(F)
CELL = Grid([0.0, 1.0])
REPORT = hardy_ratio(F, 2.0)


class NoDraws(np.random.Generator):
    """A generator that fails on its first draw, so that a count which passed
    its check fails at once instead of drawing cases until memory runs out."""

    def uniform(self, *args, **kwargs):
        raise AssertionError("a case was drawn")


# Calls taking a size (cells, functions); :data:`SIZES` are too large for
# numpy to index, and are rejected before anything is allocated.
SIZE_CALLS = {
    "make_graded_grid-uniform": lambda n: make_graded_grid(1.0, n),
    "make_graded_grid-geometric": lambda n: make_graded_grid(1.0, n, "geometric", r_min=0.1),
    "minimizing_function": lambda n: minimizing_function(2.0, 0.1, n_cells=n),
    "ratio_maximize": lambda n: ratio_maximize("hardy", 2.0, n_cells=n, iters=1),
    "sharpness_sweep": lambda n: sharpness_sweep("hardy", 2.0, resolution=n),
    "random_step_function": lambda n: random_step_function(NoDraws(np.random.PCG64(0)), n),
}
SIZES = {"1e20": 10**20, "MAX_SIZE+1": MAX_SIZE + 1}

CALLS = {
    "check_real": lambda v: check_real(v, "value"),
    "check_exponent": check_exponent,
    "check_tolerance": lambda v: check_tolerance(v, "tol"),
    "p_norm": lambda v: p_norm(F, v),
    "make_graded_grid-R": lambda v: make_graded_grid(v, 4),
    "make_graded_grid-r_min": lambda v: make_graded_grid(1.0, 4, "geometric", r_min=v),
    "make_graded_grid-grading": lambda v: make_graded_grid(1.0, 4, v),
    "Grid": Grid,
    "step_function-values": lambda v: step_function([0.0, 1.0], [v]),
    "StepBatch.checked": lambda v: StepBatch.checked(as_batch(F).grid, v),
    "StepBatch.of": StepBatch.of,
    "PiecewisePoly-grid": lambda v: PiecewisePoly(v, np.zeros((1, 3))),
    "PiecewisePoly-coeffs": lambda v: PiecewisePoly(CELL, v),
    "PiecewisePoly-tail_value": lambda v: PiecewisePoly(CELL, np.zeros((1, 3)), tail_value=v),
    "PiecewisePoly-tail_slope": lambda v: PiecewisePoly(CELL, np.zeros((1, 3)), tail_slope=v),
    "StepFunction.evaluate": F.evaluate,
    "PiecewisePoly.evaluate": P.evaluate,
    "integrate_weighted_power-alpha": lambda v: integrate_weighted_power(P, v, 2.0),
    "integrate_weighted_power-p": lambda v: integrate_weighted_power(P, -2.0, v),
    "supmin_candidates": lambda v: supmin_candidates(F, v),
    "supmin_transform": lambda v: supmin_transform(F, v),
    "rellich_inner": lambda v: rellich_inner(F, v),
    "maxform_value-r": lambda v: maxform_value(F, v, 2.0),
    "maxform_value-p": lambda v: maxform_value(F, 1.0, v),
    "supmin_pointwise_identity_check-r": lambda v: supmin_pointwise_identity_check(F, v, 2.0),
    "supmin_pointwise_identity_check-p": lambda v: supmin_pointwise_identity_check(F, 1.0, v),
    "RatioReport.violations": REPORT.violations,
    "ratio_evaluator-kind": lambda v: ratio_evaluator(v, 2.0),
    "ratio_evaluator-p": lambda v: ratio_evaluator("hardy", v),
    "sharp_constant-kind": lambda v: sharp_constant(v, 2.0),
    "sharp_constant-p": lambda v: sharp_constant("hardy", v),
    "weighted_supmin_check": lambda v: weighted_supmin_check(F, v),
    "corollary_int_check": lambda v: corollary_int_check(F, v),
    "corollary_avg_check": lambda v: corollary_avg_check(AWAY, v),
    "check_norm_preservation": lambda v: check_norm_preservation(F, v),
    "check_partial_domination": lambda v: check_partial_domination(F, v),
    "CutoffSpec": CutoffSpec,
    "cutoff_value": lambda v: cutoff_value(CutoffSpec(), v),
    "cutoff_value-spec": lambda v: cutoff_value(v, 1.5),
    "minimizing_function-p": lambda v: minimizing_function(v, 0.1, n_cells=16),
    "minimizing_function-eps": lambda v: minimizing_function(2.0, v, n_cells=16),
    "minimizing_function-r_min": lambda v: minimizing_function(2.0, 0.1, n_cells=16, r_min=v),
    "minimizing_function-spec": lambda v: minimizing_function(2.0, 0.1, v, n_cells=16),
    "sharpness_sweep-kind": lambda v: sharpness_sweep(v, 2.0, resolution=16),
    "sharpness_sweep-p": lambda v: sharpness_sweep("hardy", v, resolution=16),
    "sharpness_sweep-eps_list": lambda v: sharpness_sweep("hardy", 2.0, v, resolution=16),
    "sharpness_sweep-eps": lambda v: sharpness_sweep("hardy", 2.0, [0.2, v], resolution=16),
    "sharpness_sweep-spec": lambda v: sharpness_sweep("hardy", 2.0, (0.2, 0.1), v, 16),
    "ratio_maximize-kind": lambda v: ratio_maximize(v, 2.0, iters=1),
    "ratio_maximize-p": lambda v: ratio_maximize("hardy", v, iters=1),
    "make_rng": make_rng,
    **{f"{name}-size": call for name, call in SIZE_CALLS.items()},
}

# (call, value) pairs that are valid input: a list of evaluation points or of
# upper limits, the default tolerance, a seed beyond the double range and no
# count (one function)
VALID = {("StepFunction.evaluate", "list"), ("PiecewisePoly.evaluate", "list"),
         ("check_partial_domination", "list"), ("RatioReport.violations", "none"),
         ("make_rng", "huge_int"), ("random_step_function-size", "none")}


@pytest.mark.parametrize("call, value", [
    pytest.param(CALLS[name], BAD[value], id=f"{name}-{value}")
    for name in CALLS for value in BAD if (name, value) not in VALID])
def test_bad_value_is_an_invalid_parameter(call, value):
    with pytest.raises(InvalidParameterError):
        call(value)


@pytest.mark.parametrize("call, size", [
    pytest.param(SIZE_CALLS[name], SIZES[size], id=f"{name}-{size}")
    for name in SIZE_CALLS for size in SIZES])
def test_a_size_numpy_cannot_index_is_an_invalid_parameter(call, size):
    with pytest.raises(InvalidParameterError, match=rf"must be an integer in \[\d+, {MAX_SIZE}\]"):
        call(size)


def test_the_size_bound_is_inclusive():
    assert check_integer(MAX_SIZE, "n_cells", 1, MAX_SIZE) == MAX_SIZE


# Calls whose first argument must be a step function or a piecewise
# polynomial (or a batch of them); each routes it through ``as_batch``.
BATCH_CALLS = {
    "as_batch": as_batch,
    "p_norm": lambda f: p_norm(f, 2.0),
    "step_csv_text": step_csv_text,
    "cumulative": cumulative,
    "double_cumulative": double_cumulative,
    "inner_cumulative": inner_cumulative,
    "supmin_branches": supmin_branches,
    "integrate_weighted_power": lambda P: integrate_weighted_power(P, -2.0, 2.0),
    "hardy_ratio": lambda f: hardy_ratio(f, 2.0),
    "new_hardy_ratio": lambda f: new_hardy_ratio(f, 2.0),
    "rellich_p_ratio": lambda f: rellich_p_ratio(f, 2.0),
    "rellich_chain": lambda f: rellich_chain(f, 2.0),
    "hardy_rellich_int_ratio": hardy_rellich_int_ratio,
    "improved_hardy_rellich_ratio": improved_hardy_rellich_ratio,
    "ratio_evaluator()": ratio_evaluator("hardy", 2.0),
}
# Calls that read one step function's grid and values, so a batch is not one
# of their functions either; each routes it through ``grid._step_function``.
SINGLE_CALLS = {
    "StepBatch.of-first": lambda f: StepBatch.of([f]),
    "StepBatch.of-second": lambda f: StepBatch.of([F, f]),
    "PiecewisePoly.from_step": PiecewisePoly.from_step,
    "write_step_csv": lambda f: write_step_csv(f, os.devnull),
    "decreasing_rearrangement": decreasing_rearrangement,
    "check_norm_preservation": lambda f: check_norm_preservation(f, 2.0),
    "check_partial_domination": lambda f: check_partial_domination(f, 1.0),
    "maxform_value": lambda f: maxform_value(f, 1.0, 2.0),
    "supmin_pointwise_identity_check": lambda f: supmin_pointwise_identity_check(f, 1.0, 2.0),
    "supmin_candidates": lambda f: supmin_candidates(f, 1.0),
    "supmin_transform": lambda f: supmin_transform(f, 1.0),
    "rellich_inner": lambda f: rellich_inner(f, 1.0),
    "corollary_avg_check": lambda f: corollary_avg_check(f, 2.0),
    "weighted_supmin_check": lambda f: weighted_supmin_check(f, 2.0),
    "corollary_int_check": lambda f: corollary_int_check(f, 2.0),
}
FUNCTION_CALLS = {**BATCH_CALLS, **SINGLE_CALLS}
NOT_A_FUNCTION = {"none": None, "list": [1.0], "text": "x"}
POLYNOMIAL_CALLS = {"integrate_weighted_power"}


@pytest.mark.parametrize("call, value", [
    pytest.param(FUNCTION_CALLS[name], NOT_A_FUNCTION[value], id=f"{name}-{value}")
    for name in FUNCTION_CALLS for value in NOT_A_FUNCTION])
def test_a_non_function_is_an_invalid_parameter(call, value):
    with pytest.raises(InvalidParameterError):
        call(value)


@pytest.mark.parametrize("name", FUNCTION_CALLS)
def test_a_function_of_the_other_kind_is_an_invalid_parameter(name):
    if name in POLYNOMIAL_CALLS:
        other, expected = F, "a piecewise polynomial, got StepFunction"
    else:
        other, expected = P, "a step function, got PiecewisePoly"
    with pytest.raises(InvalidParameterError, match=f"^expected {expected}$"):
        FUNCTION_CALLS[name](other)


@pytest.mark.parametrize("name", SINGLE_CALLS)
def test_a_batch_is_not_one_step_function(name):
    with pytest.raises(InvalidParameterError, match="^expected a step function, got StepBatch$"):
        SINGLE_CALLS[name](as_batch(AWAY))


def test_a_polynomial_is_not_built_on_a_batch_grid():
    # integrate_weighted_power would read its cells against one function's coefficients
    grid = random_step_function(make_rng(0), 2).grid
    with pytest.raises(InvalidParameterError, match="^a piecewise polynomial needs a Grid, got "
                                                    "GridBatch$"):
        PiecewisePoly(grid, np.zeros((grid.n_cells, 3)))


@pytest.mark.parametrize("rng", [0, None, np.random.RandomState(0)])
def test_random_step_function_needs_a_generator(rng):
    with pytest.raises(InvalidParameterError, match="numpy.random.Generator"):
        random_step_function(rng)
    with pytest.raises(InvalidParameterError, match="numpy.random.Generator"):
        random_step_function(rng, 3)


@pytest.mark.parametrize("path", [None, 1.5])
def test_read_step_csv_of_a_non_path_is_a_hardylab_error(path):
    with pytest.raises(HardyLabError):
        read_step_csv(path)


@pytest.mark.parametrize("path", [None, 3.5])
def test_write_step_csv_of_a_non_path_is_an_invalid_parameter(path):
    with pytest.raises(InvalidParameterError, match="^a CSV path must be a str or path, got "):
        write_step_csv(F, path)


@pytest.mark.parametrize("name", ["missing/f.csv", "."])
def test_unwritable_csv_path_is_a_hardylab_error_naming_it(tmp_path, name):
    path = tmp_path / name
    with pytest.raises(HardyLabError, match=f"^cannot write {re.escape(str(path))}: "):
        write_step_csv(F, path)


def test_valid_pairs_of_the_table_are_accepted():
    assert F.evaluate([1.0]).tolist() == [-0.5]
    assert P.evaluate([1.0]).tolist() == [0.25]
    lhs, rhs = check_partial_domination(F, [1.0])
    assert lhs.tolist() == [0.75] and rhs.tolist() == [0.75]
    assert REPORT.violations(None) == []
    sharp = sharp_constant("rellich_p", 81)
    assert type(sharp) is float and sharp > 0.0


@pytest.mark.parametrize("value, expected", [
    (2, 2.0), (np.float32(0.5), 0.5), (np.int64(-3), -3.0), ("1e-3", 1e-3), (-0.0, -0.0)])
def test_check_real_returns_a_float(value, expected):
    x = check_real(value, "value")
    assert type(x) is float and x == expected


@pytest.mark.parametrize("value, lower, upper", [
    (np.True_, -math.inf, math.inf), (False, -math.inf, math.inf), (1.0, 1.0, math.inf),
    (2.0, 1.0, 2.0), (-math.inf, -math.inf, 0.0), (1j, -math.inf, math.inf),
    (np.array([1.0, 2.0]), -math.inf, math.inf)])
def test_check_real_rejects_bools_bounds_and_non_reals(value, lower, upper):
    with pytest.raises(InvalidParameterError):
        check_real(value, "value", lower, upper)


def test_messages_name_the_parameter_and_its_interval():
    with pytest.raises(InvalidParameterError, match=r"^eps must be a real number in \(0\.0, 1\.0\), got 'x'$"):
        minimizing_function(2.0, "x")
    with pytest.raises(InvalidParameterError, match=r"^exponent .* got 1\.0$"):
        check_exponent(1.0)
    with pytest.raises(InvalidParameterError, match="^--gap "):
        check_tolerance(-1.0, "--gap")


def test_cutoff_argument_zero_is_accepted_and_negatives_are_not():
    assert cutoff_value(CutoffSpec(), 0.0) == cutoff_value(CutoffSpec(), -0.0) == 1.0
    with pytest.raises(InvalidParameterError):
        cutoff_value(CutoffSpec(), -5e-324)


@pytest.mark.parametrize("values", [[True], ["1.0"], [None], [[1.0], 2.0], [1j], [1.0, True],
                                    [1.0, np.True_], [1.0, "1.0"], [10**400]])
def test_cell_values_must_be_real_numbers(values):
    with pytest.raises(InvalidParameterError, match="cell values must be finite real numbers"):
        step_function(range(len(values) + 1), values)


def test_integer_edges_and_values_become_floats():
    f = step_function([0, 1, 3], [2, -1])
    assert f.grid.edges.dtype == float and f.values.dtype == float
    assert f.evaluate(2) == -1.0 and type(f.evaluate(2)) is float


def test_python_ints_beyond_int64_are_real_numbers():
    """``float`` takes an int beyond the int64 range, and so does every check."""
    f = step_function([0, 1, 2], [1, 3])
    assert check_partial_domination(f, 10**300) == (4.0, 4.0)
    lhs, rhs = check_partial_domination(f, [1.0, 10**300])
    assert lhs.tolist() == [1.0, 4.0] and rhs.tolist() == [3.0, 4.0]
    assert supmin_transform(f, 10**300) == 4.0 / 1e300
    assert step_function([0, 10**300], [2**70]).values.tolist() == [2.0**70]
