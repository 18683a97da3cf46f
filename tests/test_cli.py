"""End-to-end tests of the command-line interface.

Each test drives ``python -m hardylab`` as a subprocess, checking output
formats, determinism, and the exit-code contract (0 ok, 1 violation, 2
usage/input error, 3 internal error).
"""

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
from hardylab.config import default_tolerance
from hardylab.errors import InvalidParameterError
from hardylab.grid import read_step_csv, step_function, write_step_csv
from hardylab.inequalities import RatioReport


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


def test_verify_json_rows_have_the_advertised_shape():
    res = run_cli("verify", "--kind", "rellich_chain", "--p", "2",
                  "--count", "3", "--seed", "0", "--no-timestamp")
    assert res.returncode == 0, res.stderr
    rows = json.loads(res.stdout)
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
    rows = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert all(row["sharp"] > 0.0 and row["violations"] == [] for row in rows)


def test_verify_timestamp_is_present_by_default():
    res = run_cli("verify", "--kind", "hardy", "--p", "2", "--count", "1",
                  "--seed", "0")
    assert res.returncode == 0, res.stderr
    row = json.loads(res.stdout)[0]
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
    rows = json.loads(res.stdout)
    assert len(rows) == 1
    assert abs(rows[0]["ratio"] - 2.0) <= 1e-9


def test_verify_writes_to_a_file(tmp_path):
    out = tmp_path / "report.json"
    res = run_cli("verify", "--kind", "hardy", "--p", "2", "--count", "2",
                  "--seed", "1", "--no-timestamp", "--output", str(out))
    assert res.returncode == 0, res.stderr
    assert res.stdout == ""
    rows = json.loads(out.read_text(encoding="utf-8"))
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
    ("verify", "--p", "2"),          # missing --kind
    ("frobnicate",),                  # unknown command
    ("verify", "--kind", "nonsense", "--p", "2"),
])
def test_usage_errors_exit_2(args):
    res = run_cli(*args)
    assert res.returncode == 2, f"{args}: rc={res.returncode}"


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
    assert "sharp 4" in res.stdout
    assert "limit" in res.stdout and "relative_gap" in res.stdout
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "eps,ratio,numerator,denominator"
    assert len(lines) == 3


def test_sweep_json_timestamp_toggle(tmp_path):
    base = ("sweep", "--kind", "hardy", "--p", "2", "--eps", "0.2,0.1",
            "--resolution", "256", "--gap", "0.5")
    with_ts = run_cli(*base, "--output", str(tmp_path / "a.json"))
    without = run_cli(*base, "--no-timestamp", "--output", str(tmp_path / "b.json"))
    assert with_ts.returncode == 0 and without.returncode == 0
    doc_a = json.loads((tmp_path / "a.json").read_text(encoding="utf-8"))
    doc_b = json.loads((tmp_path / "b.json").read_text(encoding="utf-8"))
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
    doc = json.loads(out.read_text(encoding="utf-8"))
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
    doc = json.loads(res.stdout)
    assert doc["ratio"] <= 0.729 * (1.0 + 1e-6)
    assert list(tmp_path.glob("*.csv")) == []


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
    assert json.loads(out)["middle"] == 0.5
    assert err == "violation at the best function: numerator 1.0 exceeds middle term 0.5\n"


# --------------------------------------------------------------------------
# tolerance configuration
# --------------------------------------------------------------------------


def test_env_tolerance_must_be_a_number():
    res = run_cli("verify", "--kind", "hardy", "--p", "2", "--count", "1",
                  env_extra={"HARDYLAB_DEFAULT_TOL": "abc"})
    assert res.returncode == 2
    assert "HARDYLAB_DEFAULT_TOL" in res.stderr


def test_env_tolerance_accepts_a_loose_value():
    res = run_cli("verify", "--kind", "hardy", "--p", "2", "--count", "2",
                  "--seed", "4", "--no-timestamp",
                  env_extra={"HARDYLAB_DEFAULT_TOL": "0.5"})
    assert res.returncode == 0, res.stderr


def test_default_tolerance_env_override(monkeypatch):
    monkeypatch.delenv("HARDYLAB_DEFAULT_TOL", raising=False)
    assert default_tolerance() == 1e-6
    monkeypatch.setenv("HARDYLAB_DEFAULT_TOL", "0.25")
    assert default_tolerance() == 0.25
    monkeypatch.setenv("HARDYLAB_DEFAULT_TOL", "-1")
    with pytest.raises(InvalidParameterError):
        default_tolerance()


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
    rows = json.loads(captured.out)
    assert rows[0]["kind"] == "hardy"
