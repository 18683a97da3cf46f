"""``verify``'s whole-array bookkeeping against its per-case reference forms.

The batch generator, the batch CSV text and the C-encoded rows must give
exactly what the per-case code in ``case_loops`` gives: the same edges and
values bit for bit, the same generator state after the draws, and the same
output bytes, on the passing path and on the exit-1 (violation) path.
"""

import dataclasses
import hashlib
import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import case_loops as loops
from hardylab import StepBatch, StepFunction, cli, make_rng, random_step_function, step_function
from hardylab.errors import InvalidParameterError
from hardylab.grid import MAX_SIZE, GridBatch, as_batch, read_step_csv, step_csv_text
from hardylab.inequalities import DEFAULT_TOLERANCE, KINDS, REPORT_KINDS, ratio_evaluator
from test_cli import run_cli

TIMESTAMP = "2026-01-01T00:00:00+00:00"


def concatenated(functions):
    return (np.concatenate([f.grid.edges for f in functions]),
            np.concatenate([f.values for f in functions]))


# --------------------------------------------------------------------------
# generator
# --------------------------------------------------------------------------


@pytest.mark.parametrize("count", [1, 7, 100])
def test_batch_draws_equal_per_case_draws(count):
    for seed in range(50):
        rng, ref_rng = make_rng(seed), make_rng(seed)
        batch = random_step_function(rng, count)
        cases = [loops.random_step_function(ref_rng) for _ in range(count)]
        edges, values = concatenated(cases)
        assert isinstance(batch, StepBatch) and len(batch) == count
        assert batch.grid.offsets.tolist() == np.cumsum(
            [0] + [f.grid.n_cells for f in cases]).tolist()
        assert batch.grid.edges.tobytes() == edges.tobytes()
        assert batch.values.tobytes() == values.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_single_draw_is_a_step_function():
    rng, ref_rng = make_rng(8), make_rng(8)
    for _ in range(20):
        f, g = random_step_function(rng), loops.random_step_function(ref_rng)
        assert isinstance(f, StepFunction)
        assert f.grid.edges.tobytes() == g.grid.edges.tobytes()
        assert f.values.tobytes() == g.values.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("count", [0, -3, 2.0, True, "3"])
def test_bad_count_is_rejected(count):
    with pytest.raises(InvalidParameterError):
        random_step_function(make_rng(0), count)


@pytest.mark.parametrize("edges, values, message", [
    ([0.0, 1.0, 0.0, np.inf], [1.0, 1.0], "finite"),
    ([0.0, 1.0, 0.5, 2.0], [1.0, 1.0], "first grid edge"),
    ([0.0, 1.0, 0.0, 0.0], [1.0, 1.0], "strictly increasing"),
    ([0.0, 1.0, 0.0, 2.0], [1.0, np.nan], "finite"),
    ([0.0, 1.0, 0.0, 2.0], [1.0], "cell values"),
])
def test_batch_check_has_the_checks_of_grid_and_step_function(edges, values, message):
    grid = GridBatch(np.array(edges), np.array([0, 1, 2]))
    with pytest.raises(InvalidParameterError, match=message):
        StepBatch.checked(grid, np.array(values))


def test_a_count_memory_cannot_hold_fails_before_the_first_draw():
    rng = make_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(MemoryError):
        random_step_function(rng, MAX_SIZE)
    assert rng.bit_generator.state == state


def test_batch_check_passes_a_valid_batch():
    batch = StepBatch.of([step_function([0.0, 2.0, 3.0], [1.0, -1.0]),
                          step_function([0.0, 0.5], [0.25])])
    assert StepBatch.checked(batch.grid, batch.values).values is batch.values


# --------------------------------------------------------------------------
# CSV text
# --------------------------------------------------------------------------

SPECIAL = [
    step_function([0.0, 1e-300, 1.0, 2.0 ** 60], [-0.0, 1e-300, -1.5e300]),
    step_function([0.0, 5e-324, 0.1], [5e-324, 0.1]),
    step_function([0.0, 1.0], [1.0]),
]


def test_csv_text_of_a_batch_equals_per_function_text():
    batch = random_step_function(make_rng(4), 100)
    ref_rng = make_rng(4)
    cases = [loops.random_step_function(ref_rng) for _ in range(100)]
    assert step_csv_text(batch) == [loops.step_csv_text(f) for f in cases]
    assert step_csv_text(StepBatch.of(SPECIAL)) == [loops.step_csv_text(f) for f in SPECIAL]
    for f in SPECIAL + cases[:10]:
        assert step_csv_text(f) == loops.step_csv_text(f)
        assert step_csv_text(as_batch(f)) == [loops.step_csv_text(f)]


# Cells at the ends of the range where ``%.17g`` is fixed notation, 0 or
# 1e-4 <= |x| < 1e17: the first function is all inside it, the second holds
# the double below 1e-4 (9.9999999999999991e-05).
BOUNDARY = [
    step_function([0.0, 1e-4, 1.0, 1e16, 9.999999999999999e16],
                  [1e-4, -9.999999999999999e16, 1e16, -0.0]),
    step_function([0.0, np.nextafter(1e-4, 0.0), 1e16], [np.nextafter(1e-4, 0.0), 1e16]),
]


def test_kernel_and_percent_functions_in_one_batch():
    ref_rng = make_rng(6)
    functions = []
    for special in SPECIAL + BOUNDARY:
        functions += [loops.random_step_function(ref_rng), special]
    functions += [loops.random_step_function(ref_rng) for _ in range(20)]
    assert step_csv_text(StepBatch.of(functions)) == [loops.step_csv_text(f) for f in functions]
    assert cli._input_hashes(StepBatch.of(functions)) == [
        h for f in functions for h in cli._input_hashes(f)] == [
        loops.input_hash(f) for f in functions]


def test_input_hash_is_the_sha256_of_the_little_endian_numbers():
    assert cli._input_hashes(step_function([0, 1], [1.0])) == [
        "sha256:" + hashlib.sha256(struct.pack("<2d", 1.0, 1.0)).hexdigest()]


def test_signed_zero_values_hash_apart():
    zero, negative_zero = (step_function([0.0, 1.0], [x]) for x in (0.0, -0.0))
    assert step_csv_text(zero) != step_csv_text(negative_zero)
    assert cli._input_hashes(zero) != cli._input_hashes(negative_zero)


def in_fixed_notation(x):
    return x == 0.0 or 1e-4 <= abs(x) < 1e17


def assert_formatted_as_percent(numbers):
    """Each function of one cell as ``%`` writes it."""
    functions = [step_function([0.0, 1.0], [x]) for x in numbers]
    assert step_csv_text(StepBatch.of(functions)) == [
        "edge,value\n0,\n1,%.17g\n" % x for x in numbers]


def powers_of_ten_and_neighbours():
    powers = [float(f"1e{j}") for j in range(-5, 18)]
    return [y for x in powers for y in (np.nextafter(x, 0.0), x, np.nextafter(x, np.inf))]


def decimal_ties():
    """Doubles ``M * 2**(k - 17)``, M odd, whose 17-digit rounding is an
    exact tie: ``M * 5**(16 - k) / 2`` is half an odd integer in [1e16, 1e17)."""
    rng = np.random.default_rng(0)
    ties = []
    for k in range(-4, 16):
        low, high = -(-2 * 10 ** 16 // 5 ** (16 - k)), min(2 * 10 ** 17 // 5 ** (16 - k), 2 ** 53)
        ties += [(int(m) | 1) * 2.0 ** (k - 17) for m in rng.integers(low, high - 1, 20)]
    return ties


# 0.3 and 0.7 are written with runs of 9s, 0.1 + 0.2 with a run of 0s
FIXED_NUMBERS = (powers_of_ten_and_neighbours() + decimal_ties()
                 + [0.0, 1e-4, 1e17, 5e-324, 2.0 ** 60, 0.3, 0.7, 0.1 + 0.2, 2.675,
                    1.0 - 2.0 ** -53, 99999999999999984.0, 123456789.0, 1.5e300,
                    1.7976931348623157e308])


def test_kernel_equals_percent_on_fixed_numbers():
    numbers = FIXED_NUMBERS + [-x for x in FIXED_NUMBERS]
    assert sum(map(in_fixed_notation, numbers)) > 300
    assert_formatted_as_percent(numbers)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.floats(1e-4, 1e17, exclude_max=True),
                          st.floats(-1e17, -1e-4, exclude_min=True)), min_size=1, max_size=20))
def test_kernel_equals_percent_on_every_double(numbers):
    assert_formatted_as_percent(numbers)


# --------------------------------------------------------------------------
# JSON rows
# --------------------------------------------------------------------------


def report_row(index, **fields):
    row = {"index": index, "input_hash": "sha256:" + "0" * 64, "kind": "new_hardy", "p": 2.0,
           "numerator": 1.0, "middle": None, "denominator": 1.0, "sharp": 4.0,
           "ratio": 1.0, "slack": 3.0, "refinement_estimate": 0.0,
           "violations": []}
    row.update(fields)
    return row


ROWS = [
    report_row(0, numerator=-0.0, denominator=1e-300, ratio=-0.0),
    report_row(10 ** 30, middle=None, slack=5e-324, denominator=2 ** 70),
    report_row(-7, middle=1.7976931348623157e308, refinement_estimate=1e-300,
               input_hash='"quoted" \\ é'),
    report_row(3, timestamp=TIMESTAMP, middle=0.1),
]


@pytest.mark.parametrize("rows", [ROWS, ROWS[:1], ROWS[1:2]])
def test_c_encoded_rows_equal_indented_json(rows):
    assert cli._json_rows(rows) == json.dumps(rows, indent=2)


@pytest.mark.parametrize("violations", [["one"], ["one", "two"]])
def test_rows_with_violations_keep_the_nested_layout(violations):
    rows = ROWS + [report_row(4, violations=violations)]
    assert cli._json_rows(rows) == json.dumps(rows, indent=2)
    assert '    "violations": [\n      "one"' in cli._json_rows(rows)


# --------------------------------------------------------------------------
# CSV rows
# --------------------------------------------------------------------------


@pytest.mark.parametrize("violations", [[], ["one"], ["one", "two"]])
def test_csv_rows_equal_per_field_formatting(violations):
    # None and float middles, -0.0, subnormals, huge ints, a timestamp field
    rows = ROWS + [report_row(4, violations=violations), report_row(5, middle=np.float64(0.1))]
    assert cli._csv_rows(rows) == loops.verify_csv(rows)
    assert cli._csv_rows(rows[:1]) == loops.verify_csv(rows[:1])


@pytest.mark.parametrize("kind", REPORT_KINDS)
def test_verify_csv_of_every_kind_equals_per_field_formatting(kind, capsys):
    p = 2.0 if KINDS[kind].p2_only else 1.5
    argv = ["verify", "--kind", kind, "--p", str(p), "--count", "12", "--seed", "5",
            "--format", "csv", "--no-timestamp"]
    assert cli.main(argv) == 0
    out, _ = capsys.readouterr()
    ref_rng = make_rng(5)
    cases = [loops.random_step_function(ref_rng) for _ in range(12)]
    reports = ratio_evaluator(kind, p)(StepBatch.of(cases))
    rows = loops.verify_rows(cases, reports, DEFAULT_TOLERANCE, None)
    assert out == loops.verify_csv(rows)
    middles = {row["middle"] is None for row in rows}
    assert middles == {kind not in ("rellich_chain", "new_hardy", "improved_hardy_rellich")}


# --------------------------------------------------------------------------
# the exit-1 path
# --------------------------------------------------------------------------

VIOLATING = (3, 5)


def violating_evaluator(kind, p):
    """``ratio_evaluator`` with case 3 above the sharp constant, and case 5
    above it and with its middle term out of order too."""
    evaluate = ratio_evaluator(kind, p)

    def wrapped(f):
        reports = list(evaluate(f))
        reports[3] = dataclasses.replace(reports[3], ratio=2.0 * reports[3].sharp)
        five = reports[5]
        reports[5] = dataclasses.replace(five, ratio=3.0 * five.sharp,
                                         middle=2.0 * five.numerator)
        return reports
    return wrapped


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("timestamp", [None, TIMESTAMP])
def test_verify_violations_exit_1_with_unchanged_output(fmt, timestamp, monkeypatch, tmp_path,
                                                        capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "ratio_evaluator", violating_evaluator)
    monkeypatch.setattr(cli, "_timestamp", lambda: TIMESTAMP)
    argv = ["verify", "--kind", "new_hardy", "--p", "2", "--count", "8", "--seed", "2",
            "--format", fmt] + (["--no-timestamp"] if timestamp is None else [])
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()

    ref_rng = make_rng(2)
    cases = [loops.random_step_function(ref_rng) for _ in range(8)]
    reports = violating_evaluator("new_hardy", 2.0)(StepBatch.of(cases))
    rows = loops.verify_rows(cases, reports, DEFAULT_TOLERANCE, timestamp)
    assert [len(row["violations"]) for row in rows] == [0, 0, 0, 1, 0, 2, 0, 0]
    assert out == (loops.verify_json(rows) if fmt == "json" else loops.verify_csv(rows))

    lines = err.splitlines()
    assert len(lines) == len(VIOLATING)
    for line, index in zip(lines, VIOLATING):
        dump = f"hardylab-verify-violation-{index}.csv"
        assert line == (f"violation in case {index}: {'; '.join(rows[index]['violations'])} "
                        f"(function dumped to {dump})")
        text = (tmp_path / dump).read_text(encoding="utf-8")
        assert text == step_csv_text(cases[index]) == loops.step_csv_text(cases[index])
        assert cli._input_hashes(read_step_csv(tmp_path / dump)) == [rows[index]["input_hash"]]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        f"hardylab-verify-violation-{index}.csv" for index in VIOLATING]


@pytest.mark.parametrize("output", ["report", "."])
def test_an_unwritable_report_leaves_no_violation_dump(output, monkeypatch, tmp_path, capsys):
    """The dumps are written with the report, and removed when it cannot be
    written (here ``--output`` is a directory); no violation line either.
    ``.`` has no name to derive the dump names from, which is no internal error."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "ratio_evaluator", violating_evaluator)
    Path(output).mkdir(exist_ok=True)
    argv = ["verify", "--kind", "new_hardy", "--p", "2", "--count", "8", "--seed", "2",
            "--output", output]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: cannot write {output}: ")
    assert len(err.splitlines()) == 1
    assert [path.name for path in tmp_path.iterdir()] == ([] if output == "." else [output])


# --------------------------------------------------------------------------
# main called again in the same process
# --------------------------------------------------------------------------


def test_repeated_main_calls_equal_fresh_processes(capsys):
    calls = [
        ["verify", "--kind", "rellich_chain", "--p", "1.5", "--count", "5", "--seed", "4",
         "--no-timestamp"],
        ["sweep", "--kind", "hardy", "--p", "2", "--no-timestamp"],
        ["verify", "--kind", "hardy", "--p", "3", "--count", "5", "--seed", "4",
         "--format", "csv", "--no-timestamp"],
    ]
    for argv in calls:
        code = cli.main(argv)
        out, err = capsys.readouterr()
        fresh = run_cli(*argv)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
