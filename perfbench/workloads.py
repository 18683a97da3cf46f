"""The four benchmark workloads: what one operation is, and how it is checked.

Each workload exposes

* ``rounds(seed)``: an endless stream of rounds, each a list of operation
  specs.  The harness times whole rounds only, so every run holds the same
  mix of jobs and the latency percentiles do not jump between job clusters.
* ``run(spec, work_dir)``: performs one operation, timing only the calls
  into hardylab, and returns ``(seconds, problems)``.  A non-empty
  ``problems`` list (or an exception) makes the operation a failure.
* ``accuracy(work_dir)``: outside the timed phase, compares a fixed sample of
  outputs with the independent reference in :mod:`reference` and returns
  ``(rel_err_max, problems)``.  :mod:`reference` (and with it mpmath) is
  imported there only, after the harness has read the peak RSS.  The sample
  does not depend on the seed, so the accuracy reading is the same on every
  run of the same code.
* ``ACCURACY_GATE``: the ``rel_err_max`` above which the outputs count as
  wrong.  It flags gross errors only; smaller errors are a reading, such as
  the known ~1.7e-4 Rellich tail error at p = 1.5 on verify and maximize.

The program is always reached through module attributes looked up at call
time (``cli.main``, ``sharpness.sharpness_sweep``, ...), so the span recorder
in :mod:`spans` can wrap them.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

import numpy as np

from hardylab import cli, generator, inequalities, rearrange, sharpness

# Kind names are spelled out here rather than read from the package, so a
# change to the package's kind tables cannot change the workload.
ALL_KINDS = ("hardy", "new_hardy", "hardy_rellich_int", "improved_hardy_rellich",
             "rellich_p", "rellich_chain")
# Kinds whose ``numerator`` is the classical Hardy integral of the input, and
# kinds that report it as ``middle`` next to their sup-min numerator.
HARDY_NUMERATOR = ("hardy", "hardy_rellich_int")
HARDY_MIDDLE = ("new_hardy", "improved_hardy_rellich")
RELLICH_NUMERATOR = ("rellich_p", "rellich_chain")

MAXIMIZE_TOL = 1e-6


def _seed_stream(seed: int):
    """Per-round program seeds derived from the benchmark seed."""
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2 ** 31)


def closed_form_sharp(kind: str, p: float) -> float:
    """The sharp constants of the source paper in float arithmetic, for the
    checks in the timed phase (``reference.sharp_constant`` is the
    high-precision one)."""
    if kind in ("hardy", "new_hardy"):
        return (p / (p - 1.0)) ** p
    if kind in ("hardy_rellich_int", "improved_hardy_rellich"):
        return 4.0
    return p ** (2.0 * p) / ((p - 1.0) ** p * (2.0 * p - 1.0) ** p)


def _sharp_problem(kind: str, p: float, sharp: float) -> list[str]:
    ref = closed_form_sharp(kind, p)
    if abs(sharp - ref) > 1e-12 * ref:
        return [f"{kind} p={p:g}: sharp constant {sharp!r}, closed form {ref!r}"]
    return []


def _numerator_refs(f, p: float) -> dict:
    """Reference values for the fields of a report on ``f`` at exponent ``p``."""
    import reference

    edges, values = f.grid.edges.tolist(), f.values.tolist()
    return {
        "hardy": reference.hardy_numerator(edges, values, p),
        "rellich": reference.rellich_numerator(edges, values, p),
        "denominator": reference.p_mass(edges, values, p),
    }


def _report_errors(kind: str, row: dict, refs: dict) -> list[float]:
    """Relative errors of the referenced fields of one report (as a dict)."""
    import reference

    errs = [reference.rel_err(row["denominator"], refs["denominator"]),
            reference.rel_err(row["sharp"], reference.sharp_constant(kind, row["p"]))]
    if kind in HARDY_NUMERATOR:
        errs.append(reference.rel_err(row["numerator"], refs["hardy"]))
    elif kind in HARDY_MIDDLE:
        errs.append(reference.rel_err(row["middle"], refs["hardy"]))
    elif kind in RELLICH_NUMERATOR:
        errs.append(reference.rel_err(row["numerator"], refs["rellich"]))
    return errs


class Verify:
    name = "verify"
    # the CLI's default --count
    BATCH = 100
    operation = ("one in-process `hardylab.cli.main(['verify', ...])` call over "
                 f"{BATCH} seeded cases; a round is the 12 kind/p jobs")
    ACCURACY_GATE = 1e-3
    JOBS = ([(kind, 2.0) for kind in ALL_KINDS]
            + [(kind, p) for p in (1.5, 3.0) for kind in ("hardy", "new_hardy", "rellich_chain")])
    ACCURACY_SEED = 0
    ACCURACY_COUNT = 3

    def rounds(self, seed: int):
        for case_seed in _seed_stream(seed):
            yield [(kind, p, case_seed) for kind, p in self.JOBS]

    def _invoke(self, kind, p, case_seed, count, out: Path):
        argv = ["verify", "--kind", kind, "--p", repr(p), "--count", str(count),
                "--seed", str(case_seed), "--no-timestamp", "--output", str(out)]
        t0 = time.perf_counter()
        code = cli.main(argv)
        return time.perf_counter() - t0, code

    @staticmethod
    def check_output(kind, p, count, code, text: str) -> list[str]:
        if code != 0:
            return [f"{kind} p={p:g}: exit code {code}"]
        rows = json.loads(text)
        problems = []
        if len(rows) != count:
            problems.append(f"{kind} p={p:g}: {len(rows)} rows, expected {count}")
        for row in rows:
            if row["kind"] != kind or row["p"] != p:
                problems.append(f"row {row['index']}: kind/p {row['kind']}/{row['p']}")
            if row["violations"]:
                problems.append(f"{kind} p={p:g} row {row['index']}: {row['violations']}")
        return problems

    def run(self, spec, work_dir: Path):
        kind, p, case_seed = spec
        out = work_dir / "verify.json"
        dt, code = self._invoke(kind, p, case_seed, self.BATCH, out)
        text = out.read_text(encoding="utf-8") if code == 0 else ""
        return dt, self.check_output(kind, p, self.BATCH, code, text)

    def accuracy(self, work_dir: Path):
        rng = generator.make_rng(self.ACCURACY_SEED)
        cases = [generator.random_step_function(rng) for _ in range(self.ACCURACY_COUNT)]
        refs = {p: [_numerator_refs(f, p) for f in cases] for p in sorted({p for _, p in self.JOBS})}
        errs, problems = [], []
        for kind, p in self.JOBS:
            texts = []
            for attempt in range(2):
                out = work_dir / f"verify-accuracy-{attempt}.json"
                _, code = self._invoke(kind, p, self.ACCURACY_SEED, self.ACCURACY_COUNT, out)
                texts.append(out.read_text(encoding="utf-8") if code == 0 else "")
                problems += self.check_output(kind, p, self.ACCURACY_COUNT, code, texts[-1])
            if texts[0] != texts[1]:
                problems.append(f"{kind} p={p:g}: two passes with one seed differ")
            if not texts[0]:
                continue
            for row, ref in zip(json.loads(texts[0]), refs[p]):
                errs += _report_errors(kind, row, ref)
        # no output to compare against counts as a total error
        return max(errs, default=1.0), problems


class Sweep:
    name = "sweep"
    operation = ("one `sharpness_sweep(kind, p)` call at default settings; a round "
                 "is the six acceptance sweeps in a seeded order")
    JOBS = (("hardy_rellich_int", 2.0), ("rellich_chain", 2.0), ("hardy", 1.5),
            ("hardy", 2.0), ("hardy", 3.0), ("rellich_chain", 3.0))
    GAP = 0.01
    ACCURACY_GATE = GAP

    def rounds(self, seed: int):
        rng = random.Random(seed)
        while True:
            jobs = list(self.JOBS)
            rng.shuffle(jobs)
            yield jobs

    @classmethod
    def check_result(cls, kind, p, res) -> list[str]:
        problems = _sharp_problem(kind, p, res.sharp)
        if not abs(res.relative_gap) <= cls.GAP:
            problems.append(f"{kind} p={p:g}: relative gap {res.relative_gap!r}")
        if not all(pt.ratio < res.sharp for pt in res.points):
            problems.append(f"{kind} p={p:g}: a swept ratio reached the sharp constant")
        return problems

    def run(self, spec, work_dir: Path):
        kind, p = spec
        t0 = time.perf_counter()
        res = sharpness.sharpness_sweep(kind, p)
        dt = time.perf_counter() - t0
        return dt, self.check_result(kind, p, res)

    def accuracy(self, work_dir: Path):
        """Extrapolated limits against the closed-form sharp constants."""
        import reference

        errs, problems = [], []
        for kind, p in self.JOBS:
            res = sharpness.sharpness_sweep(kind, p)
            problems += self.check_result(kind, p, res)
            errs.append(reference.rel_err(res.limit, reference.sharp_constant(kind, p)))
        return max(errs), problems


class Maximize:
    name = "maximize"
    operation = ("one `ratio_maximize(kind, p, seed=s, iters=40)` run; a round is "
                 "the 14 criterion-10 kind/p combinations with one seeded s")
    ITERS = 40
    ACCURACY_GATE = 1e-3
    JOBS = ([(kind, p) for kind in ("hardy", "new_hardy", "rellich_p", "rellich_chain")
             for p in (1.5, 2.0, 3.0)]
            + [("hardy_rellich_int", 2.0), ("improved_hardy_rellich", 2.0)])
    ACCURACY_SEED = 0

    def rounds(self, seed: int):
        for visit_seed in _seed_stream(seed):
            yield [(kind, p, visit_seed) for kind, p in self.JOBS]

    @staticmethod
    def check_report(kind, p, rep) -> list[str]:
        problems = _sharp_problem(kind, p, rep.sharp)
        if not rep.ratio <= rep.sharp * (1.0 + MAXIMIZE_TOL):
            problems.append(f"{kind} p={p:g}: best ratio {rep.ratio!r} beats sharp {rep.sharp!r}")
        return problems

    def run(self, spec, work_dir: Path):
        kind, p, visit_seed = spec
        t0 = time.perf_counter()
        _, rep = sharpness.ratio_maximize(kind, p, seed=visit_seed, iters=self.ITERS)
        dt = time.perf_counter() - t0
        return dt, self.check_report(kind, p, rep)

    def accuracy(self, work_dir: Path):
        """Best functions of seed 0 re-integrated by the reference."""
        errs, problems = [], []
        for kind, p in self.JOBS:
            best, rep = sharpness.ratio_maximize(kind, p, seed=self.ACCURACY_SEED,
                                                 iters=self.ITERS)
            problems += self.check_report(kind, p, rep)
            errs += _report_errors(kind, rep.to_json_dict(), _numerator_refs(best, p))
        return max(errs), problems


class Rearrange:
    name = "rearrange"
    operation = ("all criterion-5/6 checks on one seeded random function: "
                 "rearrangement, norms at 4 exponents, domination at every merged "
                 "edge, weighted sup-min at p=2 on f and f*; a round is 10 functions")
    ROUND = 10
    ACCURACY_GATE = 1e-12
    NORM_PS = (1.1, 1.5, 2.0, 3.0)
    SUPMIN_P = 2.0
    ACCURACY_SEED = 0
    ACCURACY_COUNT = 2

    def rounds(self, seed: int):
        rng = generator.make_rng(seed)
        while True:
            yield [generator.random_step_function(rng) for _ in range(self.ROUND)]

    def _checks(self, f):
        fstar = rearrange.decreasing_rearrangement(f).step
        norms = [rearrange.check_norm_preservation(f, p) for p in self.NORM_PS]
        merged = np.union1d(f.grid.edges, fstar.grid.edges)
        points = [float(s) for s in merged[merged > 0.0]]
        dom = [rearrange.check_partial_domination(f, s) for s in points]
        bound = inequalities.weighted_supmin_check(f, self.SUPMIN_P)
        equal = inequalities.weighted_supmin_check(fstar, self.SUPMIN_P)
        return norms, points, dom, bound, equal

    @staticmethod
    def check_outputs(norms, dom, bound, equal) -> list[str]:
        problems = []
        for before, after in norms:
            if not abs(before - after) <= 1e-12 * max(1.0, before):
                problems.append(f"p-mass {before!r} became {after!r}")
        for lhs, rhs in dom:
            if not lhs <= rhs + 1e-12 * max(1.0, rhs):
                problems.append(f"partial mass {lhs!r} exceeds rearranged {rhs!r}")
        lhs, rhs = bound
        if not lhs <= rhs * (1.0 + 1e-6):
            problems.append(f"weighted sup-min {lhs!r} exceeds rearranged side {rhs!r}")
        lhs, rhs = equal
        if not abs(lhs - rhs) <= 1e-10 * rhs:
            problems.append(f"weighted sup-min on f* {lhs!r} differs from {rhs!r}")
        return problems

    def run(self, spec, work_dir: Path):
        t0 = time.perf_counter()
        norms, _, dom, bound, equal = self._checks(spec)
        dt = time.perf_counter() - t0
        return dt, self.check_outputs(norms, dom, bound, equal)

    def accuracy(self, work_dir: Path):
        import reference

        rng = generator.make_rng(self.ACCURACY_SEED)
        errs, problems = [], []
        for _ in range(self.ACCURACY_COUNT):
            f = generator.random_step_function(rng)
            norms, points, dom, bound, equal = self._checks(f)
            problems += self.check_outputs(norms, dom, bound, equal)
            edges, values = f.grid.edges.tolist(), f.values.tolist()
            star_edges, star_values = reference.rearranged(edges, values)
            for p, (before, after) in zip(self.NORM_PS, norms):
                ref = reference.p_mass(edges, values, p)
                errs += [reference.rel_err(before, ref), reference.rel_err(after, ref)]
            for s, (lhs, rhs) in zip(points, dom):
                errs += [reference.rel_err(lhs, reference.partial_mass(edges, values, s)),
                         reference.rel_err(rhs, reference.partial_mass(star_edges, star_values, s))]
            hardy_star = reference.hardy_numerator(star_edges, star_values, self.SUPMIN_P)
            errs += [reference.rel_err(bound[1], hardy_star),
                     reference.rel_err(equal[0], hardy_star),
                     reference.rel_err(equal[1], hardy_star)]
        return max(errs), problems


WORKLOADS = {w.name: w for w in (Verify(), Sweep(), Maximize(), Rearrange())}
