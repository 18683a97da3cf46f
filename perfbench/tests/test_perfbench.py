"""Self-test of the benchmark harness: ``python3 -m pytest perfbench/tests``."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import reference
import run
import spans
from workloads import WORKLOADS, Maximize, Rearrange, Sweep, Verify

from hardylab import cli, inequalities, make_rng, random_step_function, ratio_maximize
from hardylab.sharpness import SweepPoint, SweepResult

BENCH = Path(run.__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_harness():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: unit for name, (unit, _) in run.E2E_METRICS.items()}
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in spans.LAYER_METRICS.items()}
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0.0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, section):
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "rearrange",
                           "--seed", "3", "--seconds", "0.2", "--trace", str(trace)],
                          capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert done.returncode == 0, done.stderr
    result = _last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    lines = done.stdout.splitlines()[:-1]
    for name, unit in [*expected.items(), ("fail_frac", "1")]:
        assert any(line.split()[1:2] == [name] and line.split()[3] == unit for line in lines), name


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_reference_on_the_indicator():
    # f = 1 on (0, 1]: F = min(r, 1), D = r^2/2 then r - 1/2
    edges, values = [0.0, 0.5, 1.0], [1.0, 1.0]
    assert reference.hardy_numerator(edges, values, 2.0) == pytest.approx(2.0, rel=1e-15)
    assert reference.hardy_numerator(edges, values, 3.0) == pytest.approx(1.5, rel=1e-15)
    assert reference.rellich_numerator(edges, values, 2.0) == pytest.approx(5 / 6, rel=1e-15)
    assert reference.rellich_numerator(edges, values, 2.0 + 1e-9) == pytest.approx(5 / 6, rel=1e-8)
    assert reference.p_mass(edges, [1.0, -2.0], 1.5) == pytest.approx(0.5 + 0.5 * 2 ** 1.5)
    assert reference.partial_mass(edges, [1.0, -2.0], 0.75) == pytest.approx(1.0)
    star_edges, star_values = reference.rearranged(edges, [1.0, -2.0])
    assert [float(e) for e in star_edges] == edges and star_values == [2.0, 1.0]
    assert reference.sharp_constant("rellich_chain", 2.0) == pytest.approx(16 / 9)


class _Corrupt:
    """A workload whose operations return a broken output or crash."""

    def __init__(self, problems):
        self.problems = problems

    def run(self, spec, work_dir):
        if spec == "crash":
            raise FloatingPointError("boom")
        return 0.001, self.problems


def test_corrupted_reports_count_as_failures(tmp_path):
    _, good = ratio_maximize("hardy", 2.0, iters=4)
    assert Maximize.check_report("hardy", 2.0, good) == []
    above = dataclasses.replace(good, ratio=good.sharp * 1.01)
    assert Maximize.check_report("hardy", 2.0, above)
    wrong_sharp = dataclasses.replace(good, sharp=good.sharp * 1.001)
    assert Maximize.check_report("hardy", 2.0, wrong_sharp)

    points = (SweepPoint(0.1, 3.9, 3.9, 1.0), SweepPoint(0.05, 4.1, 4.1, 1.0))
    beyond = SweepResult("hardy", 2.0, points, limit=4.2, sharp=4.0, relative_gap=0.05)
    assert len(Sweep.check_result("hardy", 2.0, beyond)) == 2

    row = {"index": 0, "kind": "hardy", "p": 2.0, "violations": ["ratio exceeds sharp"]}
    assert Verify.check_output("hardy", 2.0, 1, 0, json.dumps([row]))
    assert Verify.check_output("hardy", 2.0, 2, 0, json.dumps([{**row, "violations": []}]))
    assert Verify.check_output("hardy", 2.0, 1, 1, "")

    assert Rearrange.check_outputs([(1.0, 1.0 + 1e-9)], [], (1.0, 1.0), (1.0, 1.0))
    assert Rearrange.check_outputs([], [(2.0, 1.0)], (1.0, 1.0), (1.0, 1.0))
    assert Rearrange.check_outputs([], [], (1.0, 1.0), (1.0, 1.0 + 1e-8))

    tally = run.Tally()
    for spec, workload in [("ok", _Corrupt([])), ("bad", _Corrupt(["ratio above sharp"])),
                           ("crash", _Corrupt([]))]:
        tally.run(workload, spec, tmp_path)
    assert (tally.attempted, tally.failed) == (3, 2)


def test_span_recorder_nests_and_restores():
    originals = {(m, a): getattr(sys.modules[m], a) for m, a, _ in spans.TARGETS}
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        assert not recorder.missing
        evaluate = cli.ratio_evaluator("rellich_chain", 2.0)
        evaluate(random_step_function(make_rng(0)))
    finally:
        recorder.restore()
    assert all(getattr(sys.modules[m], a) is fn for (m, a), fn in originals.items())
    names = [f"{spans.TARGETS[s[0]][0]}.{spans.TARGETS[s[0]][1]}" for s in recorder.spans]
    assert names[0] == "hardylab.cli.ratio_evaluator" and recorder.spans[0][3] == -1
    assert "hardylab.inequalities.inner_cumulative" in names
    assert all(s[3] == 0 for s in recorder.spans[1:] if s[3] >= 0 and
               spans.TARGETS[recorder.spans[s[3]][0]][2] == "inequalities.eval")
    metrics = recorder.layer_metrics(1, 0.0)
    assert metrics["inequalities.evals"] == 1
    assert metrics["grid.quad_calls"] == 2
    # double_cumulative, and inner_cumulative with its nested supmin_branches
    # and cumulative: two transform builds, each input counted once
    assert "hardylab.operators.cumulative" in names
    assert metrics["operators.calls"] == 2
    n_cells = recorder.spans[0][4]
    assert metrics["operators.cells_in"] == 2 * n_cells
    assert metrics["operators.pieces_out"] >= metrics["operators.cells_in"] > 0
    assert inequalities.integrate_weighted_power is originals[
        ("hardylab.inequalities", "integrate_weighted_power")]
