"""Batch evaluation: a function's report does not depend on its batch.

``ratio_evaluator`` accepts one step function or a ``StepBatch``.  A batch
is evaluated in groups of at most ``MAX_GROUP_CELLS`` cells with whole-array
passes; every report must equal, bit for bit, the report of the same
function evaluated alone, whatever the batch order or grouping.  numpy
warnings are errors here: overflow must surface as ``DoubleRangeError``.
"""

import json
import struct

import numpy as np
import pytest

from hardylab import (DoubleRangeError, StepBatch, StepFunction, ZeroDenominatorError,
                      make_graded_grid, make_rng, p_norm, random_step_function,
                      random_step_function_away_from_zero, ratio_evaluator, step_function)
from hardylab.grid import as_batch, step_csv_text
from hardylab.inequalities import MAX_GROUP_CELLS, _supmin_rows
from hardylab.operators import cumulative, double_cumulative, inner_cumulative, supmin_branches
from hardylab.quadrature import _cell_intervals, integrate_weighted_power
from hardylab.sharpness import _MAXIMIZE_R_MIN
from test_cli import run_cli

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

KINDS = ([(kind, p) for kind in ("hardy", "new_hardy", "rellich_p", "rellich_chain")
          for p in (1.5, 2.0, 3.0)]
         + [("hardy_rellich_int", 2.0), ("improved_hardy_rellich", 2.0)])


def inputs():
    """200 seeded functions, the maximize grid, a one-cell function and
    functions vanishing on their first cells, in a fixed order."""
    rng = make_rng(11)
    functions = [random_step_function(rng) for _ in range(200)]
    grid = make_graded_grid(1.0, 32, "geometric", r_min=_MAXIMIZE_R_MIN)
    functions += [StepFunction(grid, np.ones(32)),
                  StepFunction(grid, rng.uniform(0.0, 2.0, 32))]
    functions.append(step_function([0.0, 1.5], [0.7]))
    functions += [random_step_function_away_from_zero(rng) for _ in range(5)]
    # mix the special cases into the random ones, so groups hold all sorts
    order = make_rng(12).permutation(len(functions))
    return [functions[i] for i in order]


FUNCTIONS = inputs()


def bits(report):
    """Every field of a report, floats by their bytes (signed zeros count)."""
    return tuple(struct.pack("<d", value) if isinstance(value, float) else value
                 for value in report.__dict__.values())


@pytest.mark.parametrize("kind, p", KINDS)
def test_reports_do_not_depend_on_the_batch(kind, p):
    evaluate = ratio_evaluator(kind, p)
    alone = [bits(evaluate(f)) for f in FUNCTIONS]
    batch = [bits(r) for r in evaluate(StepBatch.of(FUNCTIONS))]
    backwards = [bits(r) for r in evaluate(StepBatch.of(FUNCTIONS[::-1]))][::-1]
    # a split that moves every later group boundary
    split = [bits(r) for part in (FUNCTIONS[:37], FUNCTIONS[37:])
             for r in evaluate(StepBatch.of(part))]
    assert batch == alone
    assert backwards == alone
    assert split == alone


def test_groups_hold_at_most_the_cell_limit():
    n_big = MAX_GROUP_CELLS + 300
    big = step_function(np.linspace(0.0, 1.0, n_big + 1), np.ones(n_big))
    functions = FUNCTIONS[:40] + [big] + FUNCTIONS[40:60]
    batch = StepBatch.of(functions)
    groups = list(batch.groups(MAX_GROUP_CELLS))
    assert sum(len(g) for g in groups) == len(functions)
    assert [g.grid.n_cells for g in groups if len(g) == 1 and
            g.grid.n_cells > MAX_GROUP_CELLS] == [big.grid.n_cells]
    assert all(g.grid.n_cells <= MAX_GROUP_CELLS for g in groups if len(g) > 1)
    # consecutive: the groups put back together are the batch
    assert np.array_equal(np.concatenate([g.values for g in groups]), batch.values)
    assert np.array_equal(np.concatenate([g.grid.edges for g in groups]), batch.grid.edges)
    # every group is full: adding the next function would cross the limit
    starts = np.cumsum([0] + [len(g) for g in groups])
    for g, nxt in zip(groups[:-1], starts[1:-1]):
        assert g.grid.n_cells + functions[nxt].grid.n_cells > MAX_GROUP_CELLS


def test_slices_are_the_functions_they_name():
    batch = StepBatch.of(FUNCTIONS[:9])
    part = batch[3:5]
    assert len(part) == 2
    assert np.array_equal(part.values, np.concatenate([f.values for f in FUNCTIONS[3:5]]))
    assert np.array_equal(part.grid.edges,
                          np.concatenate([f.grid.edges for f in FUNCTIONS[3:5]]))
    assert part.grid.offsets.tolist() == [0, FUNCTIONS[3].grid.n_cells,
                                          FUNCTIONS[3].grid.n_cells + FUNCTIONS[4].grid.n_cells]


def test_batch_transforms_concatenate_the_single_ones():
    functions = FUNCTIONS[:30]
    batch = StepBatch.of(functions)
    assert p_norm(batch, 1.5) == [p_norm(f, 1.5) for f in functions]
    for build in (cumulative, double_cumulative, inner_cumulative):
        got = build(batch)
        want = [build(f) for f in functions]
        assert got.grid.edges.tobytes() == b"".join(P.grid.edges.tobytes() for P in want)
        assert got.coeffs.tobytes() == b"".join(P.coeffs.tobytes() for P in want)
        assert got.tail_value.tolist() == [P.tail_value for P in want]
        assert got.tail_slope.tolist() == [P.tail_slope for P in want]
        for alpha in (-3.0, 0.0):
            *arrays, bounds = _cell_intervals(got, alpha)
            singles = [_cell_intervals(P, alpha) for P in want]
            for k, col in enumerate(arrays):
                assert col.tobytes() == b"".join(s[k].tobytes() for s in singles)
            assert np.diff(bounds).tolist() == [s[0].size for s in singles]
    F_edges, prefix, suffix = supmin_branches(batch)
    singles = [supmin_branches(f) for f in functions]
    for got, k in ((F_edges, 0), (prefix, 1), (suffix, 2)):
        assert got.tobytes() == b"".join(s[k].tobytes() for s in singles)
    rows, bounds, peak, F_end = _supmin_rows(batch)
    singles = [_supmin_rows(f) for f in functions]
    for k, col in enumerate(rows):
        assert col.tobytes() == b"".join(s[0][k].tobytes() for s in singles)
    assert np.diff(bounds).tolist() == [s[0][0].size for s in singles]
    assert (peak, F_end) == ([s[2][0] for s in singles], [s[3][0] for s in singles])


def test_weighted_power_of_a_batch_is_one_value_per_function():
    functions = FUNCTIONS[:20]
    values, estimates = integrate_weighted_power(double_cumulative(StepBatch.of(functions)),
                                                 -4.0, 2.0, return_estimate=True)
    singles = [integrate_weighted_power(double_cumulative(f), -4.0, 2.0, return_estimate=True)
               for f in functions]
    assert list(zip(values, estimates)) == singles


def test_a_single_function_is_a_batch_of_one():
    f = FUNCTIONS[0]
    batch = as_batch(f)
    assert len(batch) == 1 and batch.values is f.values
    report = ratio_evaluator("rellich_chain", 2.0)(f)
    assert ratio_evaluator("rellich_chain", 2.0)(StepBatch.of([f])) == [report]


def overflowing():
    return step_function([0.0, 1.0], [1e300])


def zero():
    return step_function([0.0, 0.5, 1.0], [0.0, 0.0])


@pytest.mark.parametrize("kind, p", KINDS)
def test_a_batch_raises_its_lowest_index_error(kind, p):
    evaluate = ratio_evaluator(kind, p)
    functions = FUNCTIONS[:8]
    functions[3], functions[5] = zero(), overflowing()
    with pytest.raises(ZeroDenominatorError, match="vanishes identically"):
        evaluate(StepBatch.of(functions))
    functions[3], functions[5] = overflowing(), zero()
    with pytest.raises(DoubleRangeError) as batch_error:
        evaluate(StepBatch.of(functions))
    with pytest.raises(DoubleRangeError) as alone_error:
        evaluate(functions[3])
    assert str(batch_error.value) == str(alone_error.value)


def test_overflow_is_not_reported_as_divergence():
    # an edge at 1e-300 puts the weight r^-4 out of range; the integral is finite
    f = step_function([0.0, 1e-300, 1.0], [1.0, 1.0])
    with pytest.raises(DoubleRangeError, match="double-precision range"):
        ratio_evaluator("rellich_chain", 2.0)(f)


def test_overflowing_csv_exits_2_without_warnings(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("edge,value\n0,\n1,1e200\n", encoding="utf-8")
    for kind in ("hardy", "new_hardy", "rellich_chain"):
        res = run_cli("verify", "--kind", kind, "--p", "2", "--input", str(path))
        assert res.returncode == 2, res.stderr
        assert "error:" in res.stderr
        assert "RuntimeWarning" not in res.stderr and "Traceback" not in res.stderr


def test_verify_rows_do_not_depend_on_count():
    args = ("verify", "--kind", "rellich_chain", "--p", "1.5", "--seed", "5", "--no-timestamp")
    few = run_cli(*args, "--count", "7")
    many = run_cli(*args, "--count", "100")
    assert few.returncode == many.returncode == 0, few.stderr + many.stderr
    assert json.loads(few.stdout) == json.loads(many.stdout)[:7]


def test_csv_text_matches_per_row_formatting():
    for f in FUNCTIONS[:50]:
        rows = [f"{e:.17g},{v:.17g}" for e, v in zip(f.grid.edges[1:], f.values)]
        assert step_csv_text(f) == "\n".join(["edge,value", "0,", *rows]) + "\n"
