"""Batch evaluation: a function's report does not depend on its batch.

``ratio_evaluator`` accepts one step function or a ``StepBatch``.  A batch
is evaluated in one pass of whole-array operations; every report must
equal, bit for bit, the report of the same function evaluated alone,
whatever the batch order or split.  numpy warnings are errors here:
overflow must surface as ``DoubleRangeError``.
"""

import struct

import numpy as np
import pytest

from hardylab import (DoubleRangeError, InvalidParameterError, StepBatch, StepFunction,
                      ZeroDenominatorError, make_graded_grid, make_rng, p_norm,
                      random_step_function, random_step_function_away_from_zero,
                      ratio_evaluator, step_function)
from hardylab import inequalities, sharpness
from hardylab.grid import GridBatch, PolyBatch, as_batch, step_csv_text
from hardylab.inequalities import _supmin_rows
from hardylab.operators import cumulative, double_cumulative, inner_cumulative, supmin_branches
from hardylab.quadrature import (_cap_interval_ratio, _cell_intervals, _poly_batch,
                                 integrate_weighted_power)
from hardylab.sharpness import (_MAXIMIZE_R_MIN, DEFAULT_EPS_LIST, CutoffSpec,
                                minimizing_function, ratio_maximize, _sweep_r_min)
from test_cli import run_cli, strict_json

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
    # mix the special cases into the random ones, so a batch holds all sorts
    order = make_rng(12).permutation(len(functions))
    return [functions[i] for i in order]


FUNCTIONS = inputs()
# a function far longer than the others: per-function sums and maxima must
# not depend on the longest function of the batch
LONG = step_function(np.linspace(0.0, 1.0, 1325), np.ones(1324))


def bits(report):
    """Every field of a report, floats by their bytes (signed zeros count)."""
    return tuple(struct.pack("<d", value) if isinstance(value, float) else value
                 for value in report.__dict__.values())


@pytest.mark.parametrize("kind, p", KINDS)
def test_reports_do_not_depend_on_the_batch(kind, p):
    evaluate = ratio_evaluator(kind, p)
    functions = FUNCTIONS[:40] + [LONG] + FUNCTIONS[40:]
    alone = [bits(evaluate(f)) for f in functions]
    batch = [bits(r) for r in evaluate(StepBatch.of(functions))]
    backwards = [bits(r) for r in evaluate(StepBatch.of(functions[::-1]))][::-1]
    split = [bits(r) for part in (functions[:37], functions[37:])
             for r in evaluate(StepBatch.of(part))]
    assert batch == alone
    assert backwards == alone
    assert split == alone


@pytest.mark.parametrize("kind, p", KINDS)
def test_the_fraction_pass_gives_the_reports_numerator_and_denominator(kind, p, monkeypatch):
    """``_evaluate`` without an estimate builds no report: it forms no
    ``middle`` term (the chain builds no ``G``) and no estimate, yet each
    pair is its report's ``(numerator, denominator)`` to the bit.  Every
    Rellich tail of the batch is sloped, and at p != 2 its first interval
    takes the end rule for ``u^(p-2)``."""
    batch = StepBatch.of(FUNCTIONS + [LONG])
    assert np.all(double_cumulative(abs(batch)).tail_slope > 0.0)
    with monkeypatch.context() as patch:
        patch.setattr(inequalities, "inner_cumulative", None)
        pairs = inequalities._evaluate(batch, kind, p, False)
    reports = ratio_evaluator(kind, p)(batch)
    assert [(num.hex(), den.hex()) for num, den in pairs] == [
        (rep.numerator.hex(), rep.denominator.hex()) for rep in reports]


def test_slices_are_the_functions_they_name():
    batch = StepBatch.of(FUNCTIONS[:9])
    part = batch[3:5]
    assert len(part) == 2
    assert np.array_equal(part.values, np.concatenate([f.values for f in FUNCTIONS[3:5]]))
    assert np.array_equal(part.grid.edges,
                          np.concatenate([f.grid.edges for f in FUNCTIONS[3:5]]))
    assert part.grid.offsets.tolist() == [0, FUNCTIONS[3].grid.n_cells,
                                          FUNCTIONS[3].grid.n_cells + FUNCTIONS[4].grid.n_cells]


@pytest.mark.parametrize("index", [slice(None, None, 2), slice(None, None, -1), 1,
                                   slice(0, 3, 0)],
                         ids=["step-2", "reversed", "integer", "step-0"])
def test_a_batch_takes_only_a_slice_with_step_1(index):
    batch = StepBatch.of(FUNCTIONS[:3])
    with pytest.raises(InvalidParameterError, match="^a batch takes a slice with step 1, got"):
        batch[index]


@pytest.mark.parametrize("index", [slice(1, 1), slice(0, 0), slice(2, 1)], ids=str)
def test_an_empty_slice_is_not_a_batch(index):
    # it used to make a batch of none, on which the numeric functions raised raw errors
    batch = StepBatch.of(FUNCTIONS[:3])
    with pytest.raises(InvalidParameterError, match="^a batch needs at least one function$"):
        batch[index]


def test_a_batch_of_no_functions_is_refused():
    with pytest.raises(InvalidParameterError, match="^a batch needs at least one function$"):
        StepBatch.of([])


def test_batch_transforms_concatenate_the_single_ones():
    functions = FUNCTIONS[:15] + [LONG] + FUNCTIONS[15:30]
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


@pytest.mark.parametrize("kind, p", KINDS)
def test_an_underflowing_mass_keeps_its_batch_order(kind, p):
    """``|f|^p`` of a tiny nonzero function underflows to 0: a range error,
    not a zero function, and a batch still raises its lowest-index error."""
    evaluate = ratio_evaluator(kind, p)
    tiny = step_function([0.0, 1.0], [1e-250])
    functions = FUNCTIONS[:4]
    functions[1], functions[2] = tiny, zero()
    with pytest.raises(DoubleRangeError, match="underflows"):
        evaluate(StepBatch.of(functions))
    functions[1], functions[2] = zero(), tiny
    with pytest.raises(ZeroDenominatorError, match="vanishes identically"):
        evaluate(StepBatch.of(functions))


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
    assert strict_json(few.stdout) == strict_json(many.stdout)[:7]


def test_csv_text_matches_per_row_formatting():
    for f in FUNCTIONS[:50]:
        rows = [f"{e:.17g},{v:.17g}" for e, v in zip(f.grid.edges[1:], f.values)]
        assert step_csv_text(f) == "\n".join(["edge,value", "0,", *rows]) + "\n"


# --------------------------------------------------------------------------
# The arrays a grid batch derives once
# --------------------------------------------------------------------------


def trial_grids(monkeypatch, kind, p):
    """The trial grids one ``ratio_maximize(kind, p, iters=40)`` run builds."""
    built = []

    class Recorded(GridBatch):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(sharpness, "GridBatch", Recorded)
    ratio_maximize(kind, p, seed=0, iters=40)
    return built


def built_grids(which, monkeypatch):
    """The grids of a default sweep's batch, a 100-case verify batch, one
    maximize run's trial batches or one function's grid, each after an
    evaluation pass and a capped-cell build on its own cells (a polynomial
    with no roots)."""
    if which == "maximize":
        grids = trial_grids(monkeypatch, "rellich_chain", 2.0)
    elif which == "single":
        f = FUNCTIONS[0]
        ratio_evaluator("rellich_chain", 2.0)(f)
        grids = [f.grid.batch]
    else:
        batch = (random_step_function(make_rng(0), 100) if which == "verify" else
                 StepBatch.of([minimizing_function(2.0, eps, CutoffSpec(), 2048, _sweep_r_min(eps))
                               for eps in DEFAULT_EPS_LIST]))
        ratio_evaluator("hardy", 2.0)(batch)
        grids = [batch.grid]
    for grid in grids:
        n = len(grid)
        _cell_intervals(PolyBatch(grid, np.tile([1.0, 0.0, 0.0], (grid.n_cells, 1)),
                                  np.zeros(n), np.zeros(n)), -2.0)
    return grids


def hexes(x):
    return [v.hex() for v in x.tolist()]


@pytest.mark.parametrize("which", ["sweep", "verify", "maximize", "single"])
def test_a_grids_kept_arrays_equal_a_fresh_derivation(which, monkeypatch):
    for grid in built_grids(which, monkeypatch):
        a, b = grid.edges[grid.left], grid.edges[grid.right]
        assert hexes(grid.a) == hexes(a) and hexes(grid.b) == hexes(b)
        assert hexes(grid.widths) == hexes(b - a)
        lo, hi, cell, bounds = _cap_interval_ratio(a, b, np.arange(a.size), grid.offsets)
        assert hexes(grid.capped[0]) == hexes(lo) and hexes(grid.capped[1]) == hexes(hi)
        assert grid.capped[2].tolist() == cell.tolist()
        assert grid.capped[3].tolist() == bounds.tolist()


@pytest.mark.parametrize("which", ["sweep", "verify", "maximize", "single"])
def test_a_built_grids_edges_and_kept_arrays_are_read_only(which, monkeypatch):
    grids = built_grids(which, monkeypatch)
    grids.append(inner_cumulative(StepBatch(grids[0], np.ones(grids[0].n_cells))).grid)
    for grid in grids:
        for arr in (grid.edges, grid.a, grid.b, grid.widths, *(grid.capped or ())):
            with pytest.raises(ValueError):
                arr[0] = 1


def test_a_functions_batches_share_its_grids_batch():
    f = FUNCTIONS[0]
    assert as_batch(f).grid is f.grid.batch
    assert _poly_batch(cumulative(f)).grid is f.grid.batch
    assert f.grid.widths is f.grid.batch.widths


@pytest.mark.parametrize("kind, p", KINDS)
def test_a_maximize_run_builds_one_trial_grid_per_batch_size(kind, p, monkeypatch):
    sizes = []
    evaluate = inequalities._evaluate
    monkeypatch.setattr(inequalities, "_evaluate",
                        lambda f, *args: sizes.append(len(f)) or evaluate(f, *args))
    built = [len(grid) for grid in trial_grids(monkeypatch, kind, p)]
    # the start and the final report are batches of one; every pass reads a built grid
    assert sorted(built) == sorted(set(sizes))
    assert len(sizes) > len(built)
