"""hardylab benchmark: end-to-end and per-layer measurements of four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload verify --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
replays the same operations with the span recorder of :mod:`spans`
installed and reports the per-layer metrics instead.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it name every metric with its
unit, give sample counts and the failure fraction, and record the machine.
Timing metrics are scaled to a reference host speed (see ``host_speed`` and
``measure_setup``), so runs made while a shared host is busier or idler
compare; the raw readings are printed beside them.
The package is imported from ``src/`` of the checkout this file sits in.
Scratch files go to ``.perfbench-tmp/`` and span dumps to ``.perfbench-out/``,
both at the repository root.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
NAMES = ("verify", "sweep", "maximize", "rearrange")

# Enough operations that at least ten latency samples lie beyond p90.
MIN_OPS = 100
SETUP_REPEATS = 5
# Start-up time of a bare `python -c "import numpy"` that setup_s is scaled to
# (about what it takes on the 2-core box the baseline was measured on).
NUMPY_START_S = 0.25
# Time the calibration below takes on that box; see ``host_speed``.
CALIBRATION_REF_S = 0.0028
# rel_err_max is reported as at least this many ulps, so that rounding-level
# errors, which any reordering of a sum moves, cannot cross its bound.
REL_ERR_FLOOR = 8 * sys.float_info.epsilon
_CAL_SMALL = np.linspace(0.5, 2.0, 48)
_CAL_LARGE = np.linspace(0.5, 2.0, 1 << 15)
_CAL_OUT = np.empty_like(_CAL_LARGE)

# name -> (unit, how it is measured)
E2E_METRICS = {
    "setup_s": ("s", "fresh `python -m hardylab verify --count 1`: import plus first "
                     "report, over a bare numpy start times 0.25 s; median of 5 pairs"),
    "ops_per_s": ("1/s", "operations per second of time spent in hardylab calls, "
                         "over the round's host_speed, median over rounds"),
    "op_p50_ms": ("ms", "median operation latency, each times its round's host_speed"),
    "op_p90_ms": ("ms", "90th percentile operation latency, each times its round's "
                        "host_speed"),
    "rel_err_max": ("1", "largest relative error of a checked output against the "
                         "independent reference, on a fixed sample; at least 8 ulps"),
    "peak_rss_mb": ("MB", "process high-water mark (ru_maxrss) of this workload's "
                          "process, read before the accuracy pass"),
}


def calibration_seconds() -> float:
    """Time of fixed work that touches no hardylab code: interpreter loops
    with tiny arrays, then numpy passes over preallocated buffers (so the
    allocator state a workload leaves behind cannot change it).  No BLAS
    call: a multi-threaded BLAS dot of this size takes from 0.01 to 50 ms
    depending on whether its helper thread finds the other core free."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(150):
        acc += math.fsum((np.abs(_CAL_SMALL * (i + 1.0) - 3.0) ** 1.5).tolist())
        acc += sum(v * 0.5 for v in range(30))
    for i in range(6):
        np.multiply(_CAL_LARGE, i + 1.0, out=_CAL_OUT)
        np.subtract(_CAL_OUT, 3.0, out=_CAL_OUT)
        np.abs(_CAL_OUT, out=_CAL_OUT)
        np.power(_CAL_OUT, 1.5, out=_CAL_OUT)
        np.multiply(_CAL_OUT, _CAL_LARGE, out=_CAL_OUT)
        acc += float(_CAL_OUT.sum())
    return time.perf_counter() - t0


def host_speed(calibrations) -> float:
    """How much faster the host ran than the reference box during a round.

    The speed of a shared host drifts by up to ~40% over minutes, as other
    tenants come and go.  The calibration runs after every timed operation;
    a round's throughput is divided by this factor and its latencies are
    multiplied by it, so they read as on the reference box and compare
    across runs made at different times.
    """
    return CALIBRATION_REF_S / statistics.median(calibrations)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def provenance(args) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(),
        "scope": ("process-local timers (time.perf_counter) and getrusage only; no "
                  "system-wide tracing; the machine may be shared with other work"),
        "waits": ("none: hardylab is single-process with no queues, so no layer "
                  "waits on another and no wait time is reported"),
    }


def _wall(argv, env) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=120)
    return time.perf_counter() - t0, done


def measure_setup(work_dir: Path) -> tuple[float, float, list[str]]:
    """Cold start of ``python -m hardylab verify``: import plus first report.

    Process start-up on a shared host drifts by up to ~40% over minutes,
    several times more than steady-state compute does.  Each cold start is
    therefore paired with a bare ``python -c "import numpy"`` started right
    before it, and the reported time is the median ratio of the pairs times
    ``NUMPY_START_S``: seconds on a host where the bare start takes that long.
    Returns that, the median raw cold start, and any problems.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = work_dir / "setup.json"
    argv = [sys.executable, "-m", "hardylab", "verify", "--kind", "hardy", "--p", "2",
            "--count", "1", "--no-timestamp", "--output", str(out)]
    bare = [sys.executable, "-c", "import numpy"]
    ratios, raw, problems = [], [], []
    for _ in range(SETUP_REPEATS):
        t_bare, _ = _wall(bare, env)
        t_cli, done = _wall(argv, env)
        ratios.append(t_cli / t_bare)
        raw.append(t_cli)
        if done.returncode != 0 or len(json.loads(out.read_text(encoding="utf-8"))) != 1:
            problems.append(f"cold start exited {done.returncode}: {done.stderr[-300:]!r}")
    return NUMPY_START_S * statistics.median(ratios), statistics.median(raw), problems


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def run(self, workload, spec, work_dir: Path) -> float:
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            seconds, problems = workload.run(spec, work_dir)
        except Exception as exc:  # a crash is a failed operation, not a crashed run
            seconds, problems = time.perf_counter() - t0, [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.messages += problems[:3]
        return seconds


def timed_rounds(workload, rounds, tally: Tally, work_dir: Path, seconds: float,
                 min_ops: int = 0, max_rounds: int | None = None,
                 calibrations: list | None = None) -> list[list[float]]:
    """Run whole rounds until ``seconds`` have passed and ``min_ops`` operations
    are done (or exactly ``max_rounds`` rounds); return per-operation times,
    one list per round.  With ``calibrations``, a calibration follows each
    operation, and their times are appended to it, one list per round."""
    times: list[list[float]] = []
    deadline = time.perf_counter() + seconds
    while (len(times) < max_rounds if max_rounds is not None
           else time.perf_counter() < deadline or sum(map(len, times)) < min_ops):
        times.append([])
        if calibrations is not None:
            calibrations.append([])
        for spec in next(rounds):
            times[-1].append(tally.run(workload, spec, work_dir))
            if calibrations is not None:
                calibrations[-1].append(calibration_seconds())
    return times


def end_to_end(workload, args, work_dir: Path, tally: Tally):
    setup_s, setup_raw_s, problems = measure_setup(work_dir)
    timed_rounds(workload, workload.rounds(args.seed + 1), tally, work_dir, 0.0, max_rounds=1)
    gc.collect()
    calibrations: list[list[float]] = []
    rounds = timed_rounds(workload, workload.rounds(args.seed), tally, work_dir, args.seconds,
                          min_ops=MIN_OPS, calibrations=calibrations)
    speeds = [host_speed(c) for c in calibrations]
    speed = statistics.median(speeds)
    lat = [t for r in rounds for t in r]
    deciles = statistics.quantiles(lat, n=10, method="inclusive")
    raw = {"ops_per_s": statistics.median(len(r) / sum(r) for r in rounds),
           "op_p50_ms": 1e3 * deciles[4], "op_p90_ms": 1e3 * deciles[8]}
    scaled = [t * v for r, v in zip(rounds, speeds) for t in r]
    scaled_deciles = statistics.quantiles(scaled, n=10, method="inclusive")
    # before the accuracy pass, so the reference code and mpmath are not in it
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        rel_err_raw, accuracy_problems = workload.accuracy(work_dir)
    except Exception as exc:  # a crash in the reference pass is a wrong output
        rel_err_raw, accuracy_problems = 1.0, [f"accuracy pass: {type(exc).__name__}: {exc}"]
    problems += accuracy_problems
    if not rel_err_raw <= workload.ACCURACY_GATE:
        problems.append(f"rel_err_max {rel_err_raw:.3g} above {workload.ACCURACY_GATE:g}")
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": statistics.median(len(r) / sum(r) / v for r, v in zip(rounds, speeds)),
        "op_p50_ms": 1e3 * scaled_deciles[4],
        "op_p90_ms": 1e3 * scaled_deciles[8],
        "rel_err_max": max(rel_err_raw, REL_ERR_FLOOR),
        "peak_rss_mb": peak_rss_mb,
    }
    beyond = sum(1 for x in scaled if 1e3 * x > metrics["op_p90_ms"])
    notes = {name: what for name, (_, what) in E2E_METRICS.items()}
    notes["setup_s"] += f"; raw median {setup_raw_s:.4g} s"
    for name, value in raw.items():
        notes[name] += f"; raw {value:.6g} at median host speed {speed:.3f}"
    notes["ops_per_s"] += f"; {len(rounds)} rounds, n={len(lat)}"
    notes["op_p50_ms"] += f"; n={len(lat)}"
    notes["op_p90_ms"] += f"; n={len(lat)}, {beyond} beyond p90"
    notes["rel_err_max"] += f"; raw {rel_err_raw:.6g}"
    units = {name: unit for name, (unit, _) in E2E_METRICS.items()}
    return metrics, units, notes, problems


def per_layer(workload, args, work_dir: Path, tally: Tally):
    from spans import LAYER_METRICS, SpanRecorder

    timed_rounds(workload, workload.rounds(args.seed + 1), tally, work_dir, 0.0, max_rounds=1)
    gc.collect()
    # Each round runs twice on the same inputs, once plain and once traced,
    # alternating which goes first, so drift and warm caches cancel out of
    # the overhead estimate.  Inputs are drawn inside each mode, so input
    # generation is traced too.
    plain_rounds, traced_rounds = workload.rounds(args.seed), workload.rounds(args.seed)
    recorder = SpanRecorder()
    plain: list[float] = []
    traced: list[float] = []
    deadline = time.perf_counter() + args.seconds
    rounds_run = 0
    while rounds_run == 0 or time.perf_counter() < deadline:
        for with_trace in ((False, True) if rounds_run % 2 == 0 else (True, False)):
            if with_trace:
                recorder.install()
            try:
                times = timed_rounds(workload, traced_rounds if with_trace else plain_rounds,
                                     tally, work_dir, 0.0, max_rounds=1)[0]
            finally:
                recorder.restore()
            (traced if with_trace else plain).extend(times)
        rounds_run += 1
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    recorder.write_csv(out_dir / f"spans-{workload.name}.csv")
    metrics = recorder.layer_metrics(len(traced), sum(traced) / sum(plain) - 1.0)
    units = {name: unit for name, (unit, _, _) in LAYER_METRICS.items()}
    notes = {name: f"moves: {moves}" for name, (_, _, moves) in LAYER_METRICS.items()}
    notes["trace.overhead_frac"] = f"{len(traced)} operations traced, {len(recorder.spans)} spans"
    if recorder.missing:  # a renamed function is not a wrong output, so only say so
        notes["trace.overhead_frac"] += "; not found, so not traced: " + ", ".join(recorder.missing)
    return metrics, units, notes, []


def run_one(args) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    work_dir = ROOT / ".perfbench-tmp" / str(os.getpid())
    work_dir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        print(json.dumps({"provenance": provenance(args)}))
        print(f"# {workload.name}: one operation is {workload.operation}")
        measure = per_layer if args.trace else end_to_end
        metrics, units, notes, problems = measure(workload, args, work_dir, tally)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{workload.name:9s} {name:26s} {value:.6g} {units[name]}{note}")
    print(f"{workload.name:9s} {'fail_frac':26s} {tally.failed / tally.attempted:.6g} 1"
          f"  ({tally.failed} of {tally.attempted} operations failed)")
    for message in tally.messages[:10] + problems:
        print(f"{workload.name:9s} problem: {message}")
    result = {
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so each reads its own peak RSS."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return done.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{m}": v for m, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "hardylab" / "__init__.py").is_file():
        print(f"error: no hardylab package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
