"""End-to-end tests of the command-line interface.

Each test drives ``python -m hardylab`` as a subprocess, checking output
formats, determinism, and the exit-code contract (0 ok, 1 violation, 2
usage/input error, 3 internal error).
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import textwrap
from datetime import datetime
from pathlib import Path

import pytest

import hardylab
from hardylab import cli
from hardylab.errors import InvalidParameterError
from hardylab.grid import MAX_SIZE, read_step_csv, step_function, write_step_csv
from hardylab.inequalities import RatioReport, ratio_evaluator


def child_env():
    """``os.environ`` with the imported package's parent first on PYTHONPATH,
    and a ``RuntimeWarning`` an error.

    The path is absolute, so a child started in any working directory runs
    the same ``hardylab`` as this process.  pytest's ``filterwarnings`` only
    reaches this process, so ``PYTHONWARNINGS`` repeats its
    ``error::RuntimeWarning`` for a child: a numpy floating-point warning
    there fails the test too.
    """
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning")
    package_parent = str(Path(hardylab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_parent, env.get("PYTHONPATH")]))
    return env


def run_cli(*args, env_extra=None, cwd=None):
    env = child_env()
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "hardylab", *args],
                          capture_output=True, text=True, env=env, cwd=cwd)


def strict_json(text: str):
    """``json.loads`` that rejects ``NaN`` and ``Infinity``: neither is JSON, and
    a report holding one has a value that left the double range."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------


def test_verify_is_byte_identical_without_timestamp():
    args = ("verify", "--kind", "hardy", "--p", "2", "--count", "5",
            "--seed", "3", "--no-timestamp")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0, first.stderr
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.strip(), "expected a JSON report on stdout"


# SHA-256 of ``verify --count 1000 --seed 0 --no-timestamp`` stdout, each
# ``input_hash`` the SHA-256 of its case's data-row numbers as little-endian
# doubles
VERIFY_PINS = {
    ("hardy", "2", "json"): "bc27d3e5967e23e83a938f2b09d19b59b949bc1c983acf0698963697cc8503d1",
    ("new_hardy", "1.5", "json"): "d2e4dc3701713f5e51e7d7ef48175e587bf724a4a5def8584efcdaac0289d1d3",
    ("rellich_chain", "3", "json"):
        "3f126cf6a9f77c6c4a36ecfd99ffc549ad2e871045423443c4fe7c648add546e",
    ("hardy", "2", "csv"): "d5938242cb858738e9cb15f7309d3baf20a9acfb3b93d9b2b0455b615f6a6efa",
}


@pytest.mark.parametrize("kind, p, fmt", VERIFY_PINS, ids="-".join)
def test_verify_output_is_pinned(kind, p, fmt, capsys):
    argv = ["verify", "--kind", kind, "--p", p, "--count", "1000", "--seed", "0",
            "--format", fmt, "--no-timestamp"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == VERIFY_PINS[kind, p, fmt]


def test_verify_json_rows_have_the_advertised_shape():
    res = run_cli("verify", "--kind", "rellich_chain", "--p", "2",
                  "--count", "3", "--seed", "0", "--no-timestamp")
    assert res.returncode == 0, res.stderr
    rows = strict_json(res.stdout)
    assert [row["index"] for row in rows] == [0, 1, 2]
    for row in rows:
        assert row["input_hash"].startswith("sha256:")
        assert "timestamp" not in row
        for name in cli.REPORT_FIELDS:
            assert name in row, f"missing field {name}"
        assert row["kind"] == "rellich_chain"
        assert row["p"] == 2.0
        assert row["violations"] == []


def test_verify_rellich_at_large_p_exits_0(capsys):
    """At p = 78 the Rellich constant's powers overflow; a constant of 0.0 would
    make every case a violation."""
    rc = cli.main(["verify", "--kind", "rellich_p", "--p", "78", "--count", "3",
                   "--seed", "0", "--no-timestamp"])
    rows = strict_json(capsys.readouterr().out)
    assert rc == 0
    assert all(row["sharp"] > 0.0 and row["violations"] == [] for row in rows)


def test_verify_timestamp_is_present_by_default():
    res = run_cli("verify", "--kind", "hardy", "--p", "2", "--count", "1",
                  "--seed", "0")
    assert res.returncode == 0, res.stderr
    row = strict_json(res.stdout)[0]
    assert "timestamp" in row
    datetime.fromisoformat(row["timestamp"])  # parses


def test_verify_csv_format():
    res = run_cli("verify", "--kind", "hardy", "--p", "1.5", "--count", "4",
                  "--seed", "2", "--format", "csv", "--no-timestamp")
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().split("\n")
    expected_header = "index,input_hash," + ",".join(cli.REPORT_FIELDS) + ",violations"
    assert lines[0] == expected_header
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "0" and first[1].startswith("sha256:")


def test_verify_reads_a_csv_input(tmp_path):
    path = tmp_path / "indicator.csv"
    write_step_csv(step_function([0.0, 1.0], [1.0]), path)
    res = run_cli("verify", "--kind", "hardy", "--p", "2", "--input", str(path),
                  "--no-timestamp")
    assert res.returncode == 0, res.stderr
    rows = strict_json(res.stdout)
    assert len(rows) == 1
    assert abs(rows[0]["ratio"] - 2.0) <= 1e-9


def test_verify_writes_to_a_file(tmp_path):
    out = tmp_path / "report.json"
    res = run_cli("verify", "--kind", "hardy", "--p", "2", "--count", "2",
                  "--seed", "1", "--no-timestamp", "--output", str(out))
    assert res.returncode == 0, res.stderr
    assert res.stdout == ""
    rows = strict_json(out.read_text(encoding="utf-8"))
    assert len(rows) == 2


@pytest.mark.parametrize("args", [
    ("verify", "--kind", "hardy", "--p", "0.5", "--count", "1"),
    ("verify", "--kind", "hardy", "--p", "2", "--count", "0"),
    ("sweep", "--kind", "hardy_rellich_int", "--p", "3",
     "--eps", "0.2,0.1", "--resolution", "256"),
    ("sweep", "--kind", "hardy", "--p", "2", "--eps", "0.2,oops"),
    ("verify", "--kind", "new_hardy", "--p", "2", "--count", "2", "--quad-order", "0"),
    # flags a command does not read are not accepted
    ("rearrange", "--input", "{csv}", "--tol", "1e-3"),
    ("rearrange", "--input", "{csv}", "--quad-order", "8"),
    ("rearrange", "--input", "{csv}", "--format", "json"),
    ("rearrange", "--input", "{csv}", "--no-timestamp"),
    ("sweep", "--kind", "hardy", "--p", "2", "--eps", "0.2,0.1", "--resolution", "256",
     "--tol", "1e-3"),
    ("maximize", "--kind", "hardy", "--p", "2", "--iters", "1", "--format", "csv"),
    # --tol is checked like HARDYLAB_DEFAULT_TOL
    *[("verify", "--kind", "hardy", "--p", "2", "--count", "1", "--tol", tol)
      for tol in ("-1", "0", "nan", "inf")],
    *[("maximize", "--kind", "hardy", "--p", "2", "--iters", "1", "--tol", tol)
      for tol in ("-1", "0", "nan", "inf")],
    # the quadrature rule is fixed: even the value it has is not an option
    ("verify", "--kind", "hardy", "--p", "2", "--count", "1", "--quad-order", "16"),
    ("sweep", "--kind", "hardy", "--p", "2", "--eps", "0.2,0.1", "--resolution", "256",
     "--quad-order", "16"),
    ("maximize", "--kind", "hardy", "--p", "2", "--iters", "1", "--quad-order", "16"),
    # --gap is checked like --tol, before the sweep runs
    *[("sweep", "--kind", "hardy", "--p", "2", "--eps", "0.2,0.1", "--resolution", "256",
       "--gap", gap) for gap in ("nan", "-1", "0")],
    ("verify", "--kind", "hardy", "--p", "2", "--count", "1", "--seed", "-1"),
    ("maximize", "--kind", "hardy", "--p", "2", "--iters", "1", "--seed", "-1"),
])
def test_bad_parameters_exit_2(args, tmp_path):
    csv = tmp_path / "in.csv"
    write_step_csv(step_function([0.0, 1.0], [1.0]), csv)
    res = run_cli(*[str(csv) if arg == "{csv}" else arg for arg in args], cwd=tmp_path)
    assert res.returncode == 2, f"{args}: rc={res.returncode} out={res.stdout}"
    assert res.stderr.strip(), "expected a diagnostic on stderr"


@pytest.mark.parametrize("args", [
    ("sweep", "--kind", "hardy", "--p", "2", "--resolution", str(10**20)),
    ("maximize", "--kind", "hardy", "--p", "2", "--cells", str(10**20)),
    ("verify", "--kind", "hardy", "--p", "2", "--count", str(10**20)),
])
def test_a_size_numpy_cannot_index_exits_2_without_a_traceback(args, monkeypatch, capsys):
    def no_draws(*args):  # a count that passed its check would draw until memory runs out
        raise AssertionError("cases were drawn")

    monkeypatch.setattr(cli, "random_step_function", no_draws)
    assert cli.main(list(args)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    assert "must be an integer in [" in err


@pytest.mark.parametrize("args", [
    ("sweep", "--kind", "hardy", "--p", "2", "--resolution", str(MAX_SIZE)),
    ("maximize", "--kind", "hardy", "--p", "2", "--cells", str(MAX_SIZE)),
    ("verify", "--kind", "hardy", "--p", "2", "--count", str(MAX_SIZE)),
])
def test_a_size_memory_cannot_hold_exits_2_without_a_traceback(args, capsys):
    assert cli.main(list(args)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: not enough memory: ") and len(err.splitlines()) == 1, err


@pytest.mark.parametrize("resolution", ["4", "7", str(10**20)])
def test_a_bad_sweep_resolution_exits_2_under_its_own_name(resolution, capsys):
    assert cli.main(["sweep", "--kind", "hardy", "--p", "2", "--resolution", resolution]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: resolution must be an integer in [8, {MAX_SIZE}], "
                   f"got {resolution}\n"), err


def test_a_p2_kind_swept_at_p_3_exits_2(capsys):
    assert cli.main(["sweep", "--kind", "improved_hardy_rellich", "--p", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: improved_hardy_rellich is stated for p = 2 only"), err


@pytest.mark.parametrize("args", [
    ("verify", "--p", "2"),          # missing --kind
    ("frobnicate",),                  # unknown command
    ("verify", "--kind", "nonsense", "--p", "2"),
])
def test_usage_errors_exit_2(args):
    res = run_cli(*args)
    assert res.returncode == 2, f"{args}: rc={res.returncode}"


@pytest.mark.parametrize("args", [
    ("verify", "--kind", "hardy", "--p", "2", "--count", "2"),
    ("maximize", "--kind", "hardy", "--p", "2", "--iters", "2"),
    ("rearrange", "--input", "{csv}"),
])
def test_unwritable_output_exits_2(args, tmp_path):
    csv = tmp_path / "in.csv"
    write_step_csv(step_function([0.0, 1.0], [1.0]), csv)
    output = tmp_path / "missing" / "out"
    res = run_cli(*[str(csv) if arg == "{csv}" else arg for arg in args], "--output", str(output))
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith(f"error: cannot write {output}: ")
    assert len(res.stderr.splitlines()) == 1 and res.stdout == ""


def test_unwritable_best_csv_exits_2(tmp_path, capsys):
    (tmp_path / "probe.best.csv").mkdir()
    argv = ["maximize", "--kind", "hardy", "--p", "2", "--iters", "2", "--no-timestamp",
            "--output", str(tmp_path / "probe.json")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {tmp_path / 'probe.best.csv'}: ")
    assert len(err.splitlines()) == 1


def test_unwritable_violation_dump_exits_2(monkeypatch, tmp_path, capsys):
    def violating_evaluator(kind, p):
        def evaluate(f):
            return [dataclasses.replace(report, ratio=2.0 * report.sharp)
                    for report in ratio_evaluator(kind, p)(f)]
        return evaluate

    monkeypatch.setattr(cli, "ratio_evaluator", violating_evaluator)
    (tmp_path / "report-violation-0.csv").mkdir()
    argv = ["verify", "--kind", "hardy", "--p", "2", "--count", "1",
            "--output", str(tmp_path / "report.json")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {tmp_path / 'report-violation-0.csv'}: ")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "report.json").exists()


def test_internal_error_exits_3(monkeypatch, capsys):
    def broken_evaluator(kind, p):
        def evaluate(f):
            raise RuntimeError("simulated bug")
        return evaluate

    monkeypatch.setattr(cli, "ratio_evaluator", broken_evaluator)
    rc = cli.main(["verify", "--kind", "hardy", "--p", "2", "--count", "1"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: simulated bug" in err


def test_an_unwritable_best_csv_leaves_no_report(tmp_path, capsys):
    """maximize writes its report and ``.best.csv`` together: an exit 2 on
    one leaves neither."""
    (tmp_path / "probe.best.csv").mkdir()
    argv = ["maximize", "--kind", "hardy", "--p", "2", "--iters", "2", "--no-timestamp",
            "--output", str(tmp_path / "probe.json")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().out == ""
    assert [path.name for path in tmp_path.iterdir()] == ["probe.best.csv"]


def test_a_nan_report_exits_2(tmp_path):
    """An edge at the smallest subnormal makes the sup-min quadrature 0 / 0:
    one error line, not a NaN report (invalid JSON) that passes."""
    path = tmp_path / "subnormal-edge.csv"
    path.write_text("edge,value\n0,\n5e-324,1\n1,1\n", encoding="utf-8")
    res = run_cli("verify", "--kind", "new_hardy", "--p", "2", "--input", str(path))
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.startswith("error: ") and len(res.stderr.splitlines()) == 1


# f = 0 on (0, 1] and 2.4e292 on (1, 2]: at p = 1.05 each numerator's body plus
# tail overflows, at p = 2 already the p-th power mass
OVERFLOW_CSV = "edge,value\n0,\n1,0\n2,2.404099183509882e+292\n"


@pytest.mark.parametrize("kind, p", [(kind, "1.05") for kind in
                                     ("hardy", "new_hardy", "rellich_p", "rellich_chain")]
                         + [("hardy_rellich_int", "2"), ("improved_hardy_rellich", "2")])
def test_an_overflowing_total_exits_2(kind, p, tmp_path, monkeypatch, capsys):
    """One error line and no dump: not new_hardy's ratio of inf reported as a
    violation with a NaN estimate, nor hardy's false divergence."""
    monkeypatch.chdir(tmp_path)
    Path("overflow.csv").write_text(OVERFLOW_CSV, encoding="utf-8")
    assert cli.main(["verify", "--kind", kind, "--p", p, "--input", "overflow.csv"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and len(err.splitlines()) == 1
    assert "double" in err and "diverg" not in err
    assert os.listdir() == ["overflow.csv"]


def test_a_near_max_numerator_reports_a_finite_estimate(tmp_path, capsys):
    """A Hardy numerator of 1.59e308 exits 0 with a finite estimate, not with
    ``"refinement_estimate": Infinity``, which is not JSON."""
    path = tmp_path / "near-max.csv"
    write_step_csv(step_function([0.0, 7.704937513157145e18], [-1.9024731655320482e274]), path)
    argv = ["verify", "--kind", "hardy", "--p", "1.05", "--input", str(path), "--no-timestamp"]
    assert cli.main(argv) == 0
    (row,) = strict_json(capsys.readouterr().out)
    assert row["numerator"] == 1.5932094818660367e308 and row["violations"] == []
    assert 0.0 < row["refinement_estimate"] < 1e-12 * row["numerator"]


def test_malformed_csv_input_exits_2(tmp_path):
    path = tmp_path / "broken.csv"
    path.write_text("edge,value\n0,\nnot-a-number,1\n", encoding="utf-8")
    res = run_cli("verify", "--kind", "hardy", "--p", "2", "--input", str(path))
    assert res.returncode == 2
    assert "error:" in res.stderr


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------


def test_sweep_end_to_end_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    res = run_cli("sweep", "--kind", "hardy", "--p", "2", "--eps", "0.1,0.05",
                  "--resolution", "512", "--gap", "0.5", "--format", "csv",
                  "--output", str(out), "--no-timestamp")
    assert res.returncode == 0, res.stderr
    assert "sharp 4" in res.stderr
    assert "limit" in res.stderr and "relative_gap" in res.stderr
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "eps,ratio,numerator,denominator"
    assert len(lines) == 3


SMALL_SWEEP = ("sweep", "--kind", "hardy", "--p", "2", "--eps", "0.2,0.1",
               "--resolution", "64", "--gap", "0.5", "--no-timestamp")


def test_sweep_stdout_is_a_json_document():
    res = run_cli(*SMALL_SWEEP)
    assert res.returncode == 0, res.stderr
    doc = strict_json(res.stdout)
    assert doc["kind"] == "hardy" and len(doc["points"]) == 2
    assert res.stderr.startswith("sharp 4  limit ")


def test_sweep_stdout_is_a_csv_document():
    res = run_cli(*SMALL_SWEEP, "--format", "csv")
    assert res.returncode == 0, res.stderr
    lines = res.stdout.split("\n")
    assert lines[0] == "eps,ratio,numerator,denominator"
    assert [float(line.split(",")[0]) for line in lines[1:3]] == [0.2, 0.1]
    assert lines[3:] == [""]


# SHA-256 of the ``sweep --no-timestamp --output`` JSON of the six acceptance
# sweeps (default eps list, resolution and cutoff).  ROADMAP item 2 (the
# C_p(h) correction) changes these on purpose and re-pins them.
SWEEP_PINS = {
    ("hardy_rellich_int", "2"): "e306ad68bb87e3165f8e86513dd738a4682f13a57c76d44c7103694a0ceceb3f",
    ("rellich_chain", "2"): "d535e5ff83fd173fc63d5b59538dead9c7c740ec8d1f5fd9310e0efd0afce82d",
    ("hardy", "1.5"): "2f24d7e686b578abf82338c5ddb47ac2f55f4ffa764c382fa8472b5a066c650b",
    ("hardy", "2"): "8dda4e9d541a564e74f692aff3d6373e23e5081894796978ed72141e69aa53b3",
    ("hardy", "3"): "cc9797a9fb753bc905785ab33d55b2379f1340a17e61424537b283cbb48f9014",
    ("rellich_chain", "3"): "56f88c6622afe94f703d5b20787a41f6aac3a9edcc8062b5a6b44f69b7d04fff",
}


@pytest.mark.parametrize("kind, p", SWEEP_PINS, ids="-".join)
def test_sweep_output_is_pinned(tmp_path, kind, p):
    out = tmp_path / "sweep.json"
    rc = cli.main(["sweep", "--kind", kind, "--p", p, "--output", str(out), "--no-timestamp"])
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_PINS[kind, p]


def test_sweep_json_timestamp_toggle(tmp_path):
    base = ("sweep", "--kind", "hardy", "--p", "2", "--eps", "0.2,0.1",
            "--resolution", "256", "--gap", "0.5")
    with_ts = run_cli(*base, "--output", str(tmp_path / "a.json"))
    without = run_cli(*base, "--no-timestamp", "--output", str(tmp_path / "b.json"))
    assert with_ts.returncode == 0 and without.returncode == 0
    doc_a = strict_json((tmp_path / "a.json").read_text(encoding="utf-8"))
    doc_b = strict_json((tmp_path / "b.json").read_text(encoding="utf-8"))
    assert "timestamp" in doc_a
    assert "timestamp" not in doc_b
    assert doc_b["kind"] == "hardy" and len(doc_b["points"]) == 2


def test_sweep_tight_gap_exits_1():
    # a deliberately coarse eps list cannot extrapolate to within 1e-6
    res = run_cli("sweep", "--kind", "hardy", "--p", "2", "--eps", "0.3,0.2",
                  "--resolution", "256", "--gap", "1e-6", "--no-timestamp")
    assert res.returncode == 1, res.stdout


# --------------------------------------------------------------------------
# rearrange
# --------------------------------------------------------------------------


def test_rearrange_round_trip(tmp_path):
    src = tmp_path / "in.csv"
    out = tmp_path / "out.csv"
    write_step_csv(step_function([0.0, 1.0, 2.0, 3.0], [1.0, 3.0, 2.0]), src)
    res = run_cli("rearrange", "--input", str(src), "--output", str(out),
                  "--p", "2")
    assert res.returncode == 0, res.stderr
    fstar = read_step_csv(out)
    assert list(fstar.values) == [3.0, 2.0, 1.0]
    assert "before 14" in res.stderr and "after 14" in res.stderr


def test_rearrange_signed_input_to_stdout(tmp_path):
    src = tmp_path / "in.csv"
    write_step_csv(step_function([0.0, 1.0, 3.0], [-2.0, 1.0]), src)
    res = run_cli("rearrange", "--input", str(src))
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().split("\n")
    assert lines[0] == "edge,value"
    values = [float(line.split(",")[1]) for line in lines[2:]]
    assert values == [2.0, 1.0]


def test_rearrange_zero_function(tmp_path):
    src = tmp_path / "in.csv"
    write_step_csv(step_function([0.0, 2.0], [0.0]), src)
    res = run_cli("rearrange", "--input", str(src))
    assert res.returncode == 0
    assert "before 0" in res.stderr


def test_rearrange_drops_sub_ulp_cell(tmp_path):
    src = tmp_path / "in.csv"
    write_step_csv(step_function([0.0, 1e-20, 1.0], [0.5, 1.0]), src)
    res = run_cli("rearrange", "--input", str(src))
    assert res.returncode == 0, res.stderr
    assert res.stdout == "edge,value\n0,\n1,1\n"
    assert "before 1  after 1" in res.stderr


# --------------------------------------------------------------------------
# maximize
# --------------------------------------------------------------------------


def test_maximize_writes_report_and_best_function(tmp_path):
    out = tmp_path / "probe.json"
    res = run_cli("maximize", "--kind", "hardy", "--p", "2", "--cells", "8",
                  "--iters", "5", "--output", str(out), "--no-timestamp")
    assert res.returncode == 0, res.stderr
    doc = strict_json(out.read_text(encoding="utf-8"))
    assert doc["command"] == "maximize"
    assert doc["best_hash"].startswith("sha256:")
    assert 2.0 - 1e-12 <= doc["ratio"] <= 4.0 * (1.0 + 1e-6)
    best = read_step_csv(tmp_path / "probe.best.csv")
    assert best.grid.support_end == 1.0
    assert best.grid.n_cells == 8


def test_maximize_stdout_only(tmp_path):
    res = run_cli("maximize", "--kind", "rellich_chain", "--p", "3",
                  "--cells", "8", "--iters", "5", "--no-timestamp",
                  cwd=str(tmp_path))
    assert res.returncode == 0, res.stderr
    doc = strict_json(res.stdout)
    assert doc["ratio"] <= 0.729 * (1.0 + 1e-6)
    assert list(tmp_path.glob("*.csv")) == []


# ``maximize --iters 200 --no-timestamp`` as the one-trial-at-a-time ascent
# wrote it; ``best_hash`` is the SHA-256 of the best function's data-row
# numbers as little-endian doubles, so ``.best.csv`` read back hashes to it
MAXIMIZE_PINS = [
    {"command": "maximize", "kind": "hardy", "p": 2.0, "cells": 32, "seed": 7, "iters": 200,
     "best_hash": "sha256:1ae896f61d40d20ef10a8ed763a7ccd87babfc172f0085f4a6d9fec73facaf59",
     "numerator": 4.916949099975158, "middle": None, "denominator": 1.5025697848089108,
     "sharp": 4.0, "ratio": 3.2723598928221964, "slack": 0.7276401071778036,
     "refinement_estimate": 7.076222772149034e-14},
    {"command": "maximize", "kind": "rellich_chain", "p": 3.0, "cells": 32, "seed": 2,
     "iters": 200,
     "best_hash": "sha256:e2a66b202b9d6049102bdedecb0d214fa882c4d38524c43a38680c6faf758a0d",
     "numerator": 1.46860343456069, "middle": 1.46860343456069,
     "denominator": 2.5578021281610566, "sharp": 0.729, "ratio": 0.5741661633601615,
     "slack": 0.15483383663983852, "refinement_estimate": 4.218430929542734e-14},
    {"command": "maximize", "kind": "new_hardy", "p": 1.5, "cells": 32, "seed": 11,
     "iters": 200,
     "best_hash": "sha256:7fe3075e4fe063c1ab0a8d4c9fe3527d79e78252cebdd928d76990e3b032a68c",
     "numerator": 4.190401214633281, "middle": 4.16297680427205,
     "denominator": 1.0139592010690495, "sharp": 5.196152422706632,
     "ratio": 4.1327118588353535, "slack": 1.0634405638712785,
     "refinement_estimate": 5.954918285955957e-14},
]


@pytest.mark.parametrize("doc", MAXIMIZE_PINS, ids=lambda doc: doc["kind"])
def test_maximize_output_is_pinned(tmp_path, doc):
    out = tmp_path / "probe.json"
    rc = cli.main(["maximize", "--kind", doc["kind"], "--p", str(doc["p"]), "--seed",
                   str(doc["seed"]), "--iters", "200", "--output", str(out), "--no-timestamp"])
    assert rc == 0
    assert out.read_text(encoding="utf-8") == json.dumps(doc, indent=2) + "\n"
    assert cli._input_hashes(read_step_csv(tmp_path / "probe.best.csv")) == [doc["best_hash"]]


def test_maximize_exits_1_on_any_violation(monkeypatch, capsys):
    # the ratio is below the sharp constant, but the chain's numerator
    # exceeds its middle term: a violation of the rellich_chain contract
    report = RatioReport(kind="rellich_chain", p=2.0, numerator=1.0, middle=0.5,
                         denominator=1.0, sharp=9.0 / 16.0, ratio=0.5,
                         slack=9.0 / 16.0 - 0.5, refinement_estimate=0.0)
    best = step_function([0.0, 1.0], [1.0])
    monkeypatch.setattr(cli, "ratio_maximize", lambda *args: (best, report))
    rc = cli.main(["maximize", "--kind", "rellich_chain", "--p", "2", "--no-timestamp"])
    out, err = capsys.readouterr()
    assert rc == 1
    assert strict_json(out)["middle"] == 0.5
    assert err == "violation at the best function: numerator 1.0 exceeds middle term 0.5\n"


# --------------------------------------------------------------------------
# tolerance
# --------------------------------------------------------------------------


def _verify_runs(monkeypatch, tmp_path, capsys):
    """Exit code, stdout, stderr and dumped files of ``verify --count 3``,
    run as it is and with case 1 planted a hundredth above the sharp
    constant."""
    def planted_evaluator(kind, p):
        def evaluate(f):
            reports = ratio_evaluator(kind, p)(f)
            reports[1] = dataclasses.replace(reports[1], ratio=1.01 * reports[1].sharp)
            return reports
        return evaluate

    monkeypatch.chdir(tmp_path)
    results = []
    for evaluator in (ratio_evaluator, planted_evaluator):
        monkeypatch.setattr(cli, "ratio_evaluator", evaluator)
        rc = cli.main(["verify", "--kind", "hardy", "--p", "2", "--count", "3",
                       "--no-timestamp"])
        files = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        for path in tmp_path.iterdir():
            path.unlink()
        results.append((rc, *capsys.readouterr(), files))
    return results


def test_env_tolerance_must_be_a_number(monkeypatch, tmp_path, capsys):
    """A tolerance must be a positive finite number where it is given,
    ``--tol`` or ``violations(tol)``; ``HARDYLAB_DEFAULT_TOL``, which once
    gave it, is not read, so a malformed value there changes no exit code,
    output byte or dumped file."""
    monkeypatch.delenv("HARDYLAB_DEFAULT_TOL", raising=False)
    expected = _verify_runs(monkeypatch, tmp_path, capsys)
    assert [result[0] for result in expected] == [0, 1]
    monkeypatch.setenv("HARDYLAB_DEFAULT_TOL", "abc")
    assert _verify_runs(monkeypatch, tmp_path, capsys) == expected
    assert cli.main(["verify", "--kind", "hardy", "--p", "2", "--count", "1",
                     "--tol", "abc"]) == 2
    report = hardylab.hardy_ratio(step_function([0.0, 1.0], [1.0]), 2.0)
    with pytest.raises(InvalidParameterError):
        report.violations("abc")


def test_env_tolerance_accepts_a_loose_value(monkeypatch, tmp_path, capsys):
    """A loose ``HARDYLAB_DEFAULT_TOL`` is no error, and it forgives no
    violation: the planted case still exits 1, byte for byte as without it."""
    monkeypatch.delenv("HARDYLAB_DEFAULT_TOL", raising=False)
    expected = _verify_runs(monkeypatch, tmp_path, capsys)
    monkeypatch.setenv("HARDYLAB_DEFAULT_TOL", "0.5")
    assert _verify_runs(monkeypatch, tmp_path, capsys) == expected
    assert expected[1][0] == 1


def test_default_tolerance_env_override(monkeypatch):
    """The default tolerance is the constant ``DEFAULT_TOLERANCE``; the
    environment overrides it neither way."""
    assert hardylab.DEFAULT_TOLERANCE == 1e-6
    report = hardylab.hardy_ratio(step_function([0.0, 1.0], [1.0]), 2.0)
    above = dataclasses.replace(report, ratio=(1 + 1e-3) * report.sharp)
    within = dataclasses.replace(report, ratio=(1 + 1e-7) * report.sharp)
    for value in ("0.25", "-1", "1e-9"):
        monkeypatch.setenv("HARDYLAB_DEFAULT_TOL", value)
        assert above.violations() and above.violations() == above.violations(1e-6)
        assert within.violations() == []


def test_runs_do_not_import_numpy_ma():
    """``numpy.ma`` costs about 10 ms and 1.7 MB at start-up; nothing needs it."""
    code = textwrap.dedent("""
        import contextlib, io, sys
        from hardylab import cli
        from hardylab.inequalities import REPORT_KINDS
        with contextlib.redirect_stdout(io.StringIO()):
            for kind in REPORT_KINDS:
                cli.main(["verify", "--kind", kind, "--p", "2", "--count", "20"])
            cli.main(["sweep", "--kind", "rellich_chain", "--p", "2"])
        print("numpy.ma" in sys.modules)
    """)
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=child_env())
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_main_is_callable_in_process(capsys):
    rc = cli.main(["verify", "--kind", "hardy", "--p", "2", "--count", "1",
                   "--seed", "0", "--no-timestamp"])
    assert rc == 0
    captured = capsys.readouterr()
    rows = strict_json(captured.out)
    assert rows[0]["kind"] == "hardy"
