"""Acceptance suite: one test per headline guarantee of the package.

Each test prints a single PASS line with the measured numbers so a log shows
at a glance which guarantees were exercised and how much slack they had.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

import oracles
from test_cli import child_env
from hardylab.errors import DivergentIntegralError
from hardylab.generator import (make_rng, random_step_function,
                                random_step_function_away_from_zero)
from hardylab.grid import step_function
from hardylab.inequalities import (corollary_avg_check, corollary_int_check,
                                   hardy_ratio, rellich_chain, sharp_constant,
                                   weighted_supmin_check)
from hardylab.operators import (cumulative, double_cumulative,
                                supmin_candidates,
                                supmin_pointwise_identity_check,
                                supmin_transform)
from hardylab.rearrange import (check_norm_preservation,
                                check_partial_domination,
                                decreasing_rearrangement)
from hardylab.sharpness import ratio_maximize, sharpness_sweep

INDICATOR = step_function([0.0, 1.0], [1.0])


def test_criterion_01_sharp_constant_formulas():
    sharp_constant("hardy", 2.0)  # warm import/caches before timing
    t0 = time.perf_counter()
    assert sharp_constant("hardy", 2.0) == 4.0
    assert sharp_constant("rellich_chain", 2.0) == 16.0 / 9.0
    assert sharp_constant("hardy", 3.0) == 27.0 / 8.0
    assert sharp_constant("rellich_chain", 3.0) == 0.729
    elapsed = time.perf_counter() - t0
    assert elapsed < 1e-3, f"constant lookups took {elapsed * 1e3:.3f} ms"
    print(f"criterion 1: PASS — 4 exact constants in {elapsed * 1e6:.0f} us")


def test_criterion_02_chain_verification_bulk():
    rng = make_rng(0)
    cases = [random_step_function(rng) for _ in range(1000)]
    t0 = time.perf_counter()
    checked = 0
    for f in cases:
        for p in (1.5, 2.0, 3.0):
            rep = rellich_chain(f, p)
            bad = rep.violations(1e-6)
            assert not bad, f"case {checked}: p={p}: {bad}"
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"bulk chain verification took {elapsed:.1f} s"
    print(f"criterion 2: PASS — {checked} chain reports, 0 violations, "
          f"{elapsed:.1f} s")


def test_criterion_03_sharpness_reproduction():
    targets = [
        ("hardy_rellich_int", 2.0),
        ("rellich_chain", 2.0),
        ("hardy", 1.5),
        ("hardy", 2.0),
        ("hardy", 3.0),
        ("rellich_chain", 3.0),
    ]
    t0 = time.perf_counter()
    gaps = []
    for kind, p in targets:
        res = sharpness_sweep(kind, p)
        assert abs(res.relative_gap) <= 0.01, (
            f"{kind} p={p}: limit {res.limit} vs sharp {res.sharp}")
        assert all(pt.ratio < res.sharp for pt in res.points), (
            f"{kind} p={p}: a swept ratio reached the sharp constant")
        gaps.append(f"{kind}/p={p:g}: {res.relative_gap:+.2e}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"sweeps took {elapsed:.1f} s"
    print(f"criterion 3: PASS — 6 limits within 1% ({'; '.join(gaps)}), "
          f"{elapsed:.1f} s")


def test_criterion_04_supmin_exactness_on_rearranged_inputs():
    rng = make_rng(4)
    checked = 0
    for _ in range(100):
        fstar = decreasing_rearrangement(random_step_function(rng)).step
        F = cumulative(fstar)
        radii = rng.uniform(1e-6, 1.25 * fstar.grid.support_end, size=50)
        for r in radii:
            r = float(r)
            lhs = r * supmin_transform(fstar, r)
            rhs = float(F.evaluate(r))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs)), (
                f"r={r}: r * M = {lhs} vs integral {rhs}")
            trace = supmin_candidates(fstar, r)
            peak = max(score for _, score in trace)
            at_r = max(score for s, score in trace if s == r)
            assert at_r >= peak * (1.0 - 1e-12), (
                f"r={r}: sup not attained at s=r ({at_r} < {peak})")
            checked += 1
    print(f"criterion 4: PASS — {checked} radii, sup-min equals the running "
          f"integral and peaks at s=r")


def test_criterion_05_weighted_supmin_bound_and_equality():
    rng = make_rng(5)
    for i in range(500):
        f = random_step_function(rng)
        for p in (1.5, 2.0, 3.0):
            lhs, rhs = weighted_supmin_check(f, p)
            assert lhs <= rhs * (1.0 + 1e-6), f"case {i} p={p}: {lhs} > {rhs}"
    worst = 0.0
    for i in range(100):
        fstar = decreasing_rearrangement(random_step_function(rng)).step
        for p in (1.5, 2.0, 3.0):
            lhs, rhs = weighted_supmin_check(fstar, p)
            rel = abs(lhs - rhs) / rhs
            worst = max(worst, rel)
            assert rel <= 1e-10, f"decreasing case {i} p={p}: relative gap {rel}"
    print(f"criterion 5: PASS — 1500 bound checks, 300 equality checks "
          f"(worst relative gap {worst:.2e})")


def test_criterion_06_rearrangement_invariants():
    rng = make_rng(6)
    for i in range(500):
        f = random_step_function(rng)
        fstar = decreasing_rearrangement(f).step
        for p in (1.1, 1.5, 2.0, 3.0):
            before, after = check_norm_preservation(f, p)
            assert abs(before - after) <= 1e-12 * max(1.0, before), (
                f"case {i} p={p}: mass {before} vs {after}")
        merged = np.union1d(f.grid.edges, fstar.grid.edges)
        points = merged[merged > 0.0]
        lhs, rhs = check_partial_domination(f, points)
        bad = ~(lhs <= rhs + 1e-12 * np.maximum(1.0, rhs))
        assert not bad.any(), (
            f"case {i} s={points[bad]}: partial mass {lhs[bad]} > rearranged {rhs[bad]}")
    print("criterion 6: PASS — 500 functions: norms preserved to 1e-12, "
          "partial masses dominated at every merged edge")


def test_criterion_07_pointwise_identity():
    rng = make_rng(7)
    checked = 0
    for i in range(100):
        f = random_step_function(rng)
        p = (1.5, 2.0, 3.0)[i % 3]
        radii = rng.uniform(1e-3, 1.5 * f.grid.support_end, size=20)
        for r in radii:
            lhs, rhs = supmin_pointwise_identity_check(f, float(r), p)
            scale = max(1.0, abs(lhs), abs(rhs))
            assert abs(lhs - rhs) <= 1e-12 * scale, (
                f"case {i} r={r} p={p}: {lhs} vs {rhs}")
            checked += 1
    print(f"criterion 7: PASS — {checked} pointwise identity pairs equal "
          f"to 1e-12")


def test_criterion_08_quadrature_vs_antiderivative_oracle():
    F = cumulative(INDICATOR)
    hardy_oracle = oracles.weighted_square_integral(
        oracles.segments_from_cells(F.grid.edges, F.coeffs, F.tail_value,
                                    F.tail_slope), -2.0)
    assert hardy_oracle == pytest.approx(2.0, rel=1e-14)
    hardy_quad = hardy_ratio(INDICATOR, 2.0).numerator
    assert abs(hardy_quad - hardy_oracle) <= 1e-9 * hardy_oracle

    D = double_cumulative(INDICATOR)
    rellich_oracle = oracles.weighted_square_integral(
        oracles.segments_from_cells(D.grid.edges, D.coeffs, D.tail_value,
                                    D.tail_slope), -4.0)
    assert rellich_oracle == pytest.approx(5.0 / 6.0, rel=1e-14)
    rellich_quad = rellich_chain(INDICATOR, 2.0).numerator
    assert abs(rellich_quad - rellich_oracle) <= 1e-9 * rellich_oracle
    print(f"criterion 8: PASS — indicator numerators {hardy_quad:.12f} vs 2 "
          f"and {rellich_quad:.12f} vs 5/6 (oracle, 1e-9)")


def test_criterion_09_corollary_checks():
    rng = make_rng(9)
    for i in range(200):
        f = random_step_function(rng)
        p = (1.5, 2.0, 3.0)[i % 3]
        lhs, rhs = corollary_int_check(f, p)
        assert lhs <= rhs * (1.0 + 1e-6), f"integral case {i} p={p}: {lhs} > {rhs}"
    for i in range(200):
        f = random_step_function_away_from_zero(rng)
        p = (1.5, 2.0, 3.0)[i % 3]
        lhs, rhs = corollary_avg_check(f, p)
        assert lhs <= rhs * (1.0 + 1e-6), f"average case {i} p={p}: {lhs} > {rhs}"
    with pytest.raises(DivergentIntegralError):
        corollary_avg_check(INDICATOR, 2.0)
    print("criterion 9: PASS — 400 corollary bounds hold; origin-supported "
          "average correctly diverges")


def test_criterion_10_falsification_probe_never_beats_sharp():
    combos = ([(kind, p) for kind in ("hardy", "new_hardy", "rellich_p",
                                      "rellich_chain")
               for p in (1.5, 2.0, 3.0)]
              + [("hardy_rellich_int", 2.0), ("improved_hardy_rellich", 2.0)])
    assert len(combos) == 14
    best_hardy_p2 = 0.0
    for kind, p in combos:
        for seed in range(10):
            _, rep = ratio_maximize(kind, p, seed=seed, iters=40)
            assert rep.ratio <= rep.sharp * (1.0 + 1e-6), (
                f"{kind} p={p} seed={seed}: ratio {rep.ratio} beats sharp "
                f"{rep.sharp}")
            if kind == "hardy" and p == 2.0:
                best_hardy_p2 = max(best_hardy_p2, rep.ratio)
    assert best_hardy_p2 >= 2.0, f"ascent never improved on the indicator: {best_hardy_p2}"
    print(f"criterion 10: PASS — 140 ascent runs all below sharp; best hardy "
          f"p=2 ratio {best_hardy_p2:.4f} >= 2")


def test_criterion_11_cli_determinism():
    args = [sys.executable, "-m", "hardylab", "verify", "--kind",
            "rellich_chain", "--p", "2", "--count", "50", "--seed", "1",
            "--no-timestamp"]
    env = child_env()
    first = subprocess.run(args, capture_output=True, text=True, env=env)
    second = subprocess.run(args, capture_output=True, text=True, env=env)
    assert first.returncode == 0, first.stderr
    assert second.returncode == 0
    assert first.stdout == second.stdout, "reruns are not byte-identical"
    assert first.stdout.strip()
    print("criterion 11: PASS — two verify runs byte-identical "
          f"({len(first.stdout)} bytes)")
