"""Span recorder for the traced run, and the per-layer metrics built from it.

The recorder replaces public hardylab functions under the names their callers
look them up by (``hardylab.inequalities.integrate_weighted_power``,
``hardylab.cli.random_step_function``, ...), records one span per call
(name, start, end, parent id) in memory, and puts every original back on
``restore``.  Nothing under ``src/`` is modified.

A layer's self time is the duration of its spans minus the time covered by
their child spans.  Its call and size counts take only the spans entered from
outside the layer: ``inner_cumulative`` calls ``supmin_branches``, which calls
``cumulative``, and that is one transform build, not three.  hardylab runs
in one process with no queues, so no layer waits on another and no wait
time is reported.
"""

from __future__ import annotations

import importlib
import time
from pathlib import Path

# (module, attribute, group).  The group names the layer a span belongs to;
# ``inequalities.eval`` marks the closures returned by ``ratio_evaluator``.
TARGETS = (
    ("hardylab.cli", "main", "cli"),
    ("hardylab.cli", "random_step_function", "generator"),
    ("hardylab.generator", "random_step_function", "generator"),
    ("hardylab.cli", "ratio_evaluator", "inequalities.eval"),
    ("hardylab.sharpness", "ratio_evaluator", "inequalities.eval"),
    ("hardylab.inequalities", "weighted_supmin_check", "inequalities"),
    ("hardylab.inequalities", "cumulative", "operators"),
    ("hardylab.inequalities", "double_cumulative", "operators"),
    ("hardylab.inequalities", "inner_cumulative", "operators"),
    ("hardylab.inequalities", "supmin_branches", "operators"),
    ("hardylab.operators", "cumulative", "operators"),
    ("hardylab.operators", "supmin_branches", "operators"),
    ("hardylab.rearrange", "cumulative", "operators"),
    ("hardylab.inequalities", "integrate_weighted_power", "grid.quad"),
    ("hardylab.inequalities", "p_norm", "grid.pnorm"),
    ("hardylab.rearrange", "p_norm", "grid.pnorm"),
    ("hardylab.inequalities", "decreasing_rearrangement", "rearrange"),
    ("hardylab.rearrange", "decreasing_rearrangement", "rearrange"),
    ("hardylab.rearrange", "check_norm_preservation", "rearrange"),
    ("hardylab.rearrange", "check_partial_domination", "rearrange"),
    ("hardylab.sharpness", "sharpness_sweep", "sharpness"),
    ("hardylab.sharpness", "ratio_maximize", "sharpness"),
    ("hardylab.sharpness", "minimizing_function", "sharpness.profile"),
)

# name -> (unit, better, what it should move).  The same names and units are
# listed under ``per_layer`` in BENCHMARK.json.  Times and counts are per
# operation of the workload, so runs of different length compare.
LAYER_METRICS = {
    "cli.self_s": ("s/op", "lower",
                   "ops_per_s on verify only: input_hash, row assembly, JSON, file write"),
    "generator.self_s": ("s/op", "lower", "ops_per_s on verify and rearrange"),
    "generator.cells": ("count/op", "lower", "work count for verify and rearrange"),
    "operators.self_s": ("s/op", "lower",
                         "ops_per_s on rearrange (most of it) and verify (inner_cumulative)"),
    "operators.calls": ("count/op", "lower", "ops_per_s on rearrange and verify"),
    "operators.cells_in": ("count/op", "lower", "ops_per_s on rearrange and verify"),
    "operators.pieces_out": ("count/op", "lower",
                             "pieces_out/cells_in: breakpoints added by inner_cumulative"),
    "grid.quad_self_s": ("s/op", "lower",
                         "ops_per_s and op_p90_ms on verify and sweep; none on rearrange"),
    "grid.quad_calls": ("count/op", "lower", "verify and sweep"),
    "grid.quad_pieces": ("count/op", "lower", "verify and sweep"),
    "grid.pnorm_self_s": ("s/op", "lower", "verify and sweep"),
    "inequalities.self_s": ("s/op", "lower",
                            "new_hardy/improved_hardy_rellich time on verify and maximize"),
    "inequalities.evals": ("count/op", "lower", "verify and maximize"),
    "rearrange.self_s": ("s/op", "lower", "ops_per_s on rearrange only"),
    "rearrange.calls": ("count/op", "lower", "ops_per_s on rearrange only"),
    "sharpness.profile_self_s": ("s/op", "lower", "ops_per_s on sweep only (minimizing_function)"),
    "sharpness.evals_per_op": ("count/op", "lower",
                               "maximize: evaluator calls per probe (batching shows here)"),
    "trace.overhead_frac": ("1", "lower", "traced over untraced time of the same ops, minus 1"),
}


def _cells(obj) -> int:
    grid = getattr(obj, "grid", None)
    return grid.n_cells if grid is not None else 0


class SpanRecorder:
    """Wraps the functions in ``TARGETS`` and records one span per call.

    Each span is ``[target index, start, end, parent span id, cells in,
    pieces out]``; the ids are positions in ``spans``.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, index: int, fn, factory: bool = False):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = len(spans)
            span = [index, clock(), 0.0, stack[-1] if stack else -1,
                    _cells(args[0]) if args else 0, 0]
            spans.append(span)
            stack.append(span_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            span[5] = _cells(out)
            return out

        if not factory:
            return traced

        def make_evaluator(*args, **kwargs):
            # ratio_evaluator builds a closure; the span goes on each call of it
            return self._wrap(index, fn(*args, **kwargs))
        return make_evaluator

    def install(self) -> None:
        self.missing = []
        for index, (module_name, attr, group) in enumerate(self.targets):
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(index, original, group == "inequalities.eval"))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write_csv(self, path: Path) -> None:
        names = [f"{m}.{a}" for m, a, _ in self.targets]
        lines = ["id,name,start,end,parent"]
        lines += [f"{i},{names[s[0]]},{s[1]!r},{s[2]!r},{s[3]}" for i, s in enumerate(self.spans)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def layer_metrics(self, ops: int, overhead_frac: float) -> dict[str, float]:
        """Per-operation layer metrics over every span recorded."""
        groups = [g for _, _, g in self.targets]
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        totals: dict[str, float] = dict.fromkeys(LAYER_METRICS, 0.0)
        self_time = dict.fromkeys(groups, 0.0)
        calls = dict.fromkeys(self_time, 0)
        for i, span in enumerate(self.spans):
            group = groups[span[0]]
            self_time[group] += span[2] - span[1] - child_time[i]
            if span[3] >= 0 and groups[self.spans[span[3]][0]] == group:
                continue  # nested in a span of its own layer: counted there
            calls[group] += 1
            if group == "generator":
                totals["generator.cells"] += span[5]
            elif group == "operators" and span[5]:  # transforms returning a PiecewisePoly
                totals["operators.cells_in"] += span[4]
                totals["operators.pieces_out"] += span[5]
            elif group == "grid.quad":
                totals["grid.quad_pieces"] += span[4]
            elif group == "inequalities.eval" and self._under(span, "sharpness", groups):
                totals["sharpness.evals_per_op"] += 1
        totals.update({
            "cli.self_s": self_time["cli"],
            "generator.self_s": self_time["generator"],
            "operators.self_s": self_time["operators"],
            "operators.calls": calls["operators"],
            "grid.quad_self_s": self_time["grid.quad"],
            "grid.quad_calls": calls["grid.quad"],
            "grid.pnorm_self_s": self_time["grid.pnorm"],
            "inequalities.self_s": self_time["inequalities"] + self_time["inequalities.eval"],
            "inequalities.evals": calls["inequalities.eval"],
            "rearrange.self_s": self_time["rearrange"],
            "rearrange.calls": calls["rearrange"],
            "sharpness.profile_self_s": self_time["sharpness.profile"],
        })
        out = {name: value / ops for name, value in totals.items()}
        out["trace.overhead_frac"] = overhead_frac
        return out

    def _under(self, span, group: str, groups) -> bool:
        parent = span[3]
        while parent >= 0:
            if groups[self.spans[parent][0]] == group:
                return True
            parent = self.spans[parent][3]
        return False
