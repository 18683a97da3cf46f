"""Tests for the inequality ratio evaluators, sharp constants, and corollaries."""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hardylab.inequalities as inequalities
from hardylab import (
    DivergentIntegralError,
    DoubleRangeError,
    HardyLabError,
    InvalidParameterError,
    RatioReport,
    StepFunction,
    ZeroDenominatorError,
    corollary_avg_check,
    corollary_int_check,
    decreasing_rearrangement,
    hardy_ratio,
    hardy_rellich_int_ratio,
    improved_hardy_rellich_ratio,
    make_rng,
    minimizing_function,
    new_hardy_ratio,
    random_step_function,
    random_step_function_away_from_zero,
    ratio_evaluator,
    rellich_chain,
    rellich_p_ratio,
    sharp_constant,
    step_function,
    weighted_supmin_check,
)
import oracles
from hardylab import quadrature
from hardylab.grid import Grid, StepBatch
from hardylab.inequalities import KINDS, REPORT_KINDS
from hardylab.operators import cumulative, double_cumulative, inner_cumulative
from hardylab.sharpness import (DEFAULT_EPS_LIST, DEFAULT_SWEEP_RESOLUTION, CutoffSpec,
                                _sweep_r_min)

INDICATOR = step_function([0.0, 1.0], [1.0])
SHIFTED = step_function([0.0, 1.0, 2.0], [0.0, 1.0])
ZERO = step_function([0.0, 1.0], [0.0])

JSON_FIELD_ORDER = ("kind", "p", "numerator", "middle", "denominator", "sharp",
                    "ratio", "slack", "refinement_estimate")


def relclose(a, b, tol):
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-30)


def dilate(f, p, lam):
    """``t -> lam^(1/p) f(lam t)``, the transformation all ratios are blind to."""
    return StepFunction(Grid(f.grid.edges / lam), lam ** (1.0 / p) * f.values)


# ---------------------------------------------------------------------------
# Sharp constants
# ---------------------------------------------------------------------------


class TestSharpConstant:
    def test_frozen_values(self):
        assert sharp_constant("hardy", 2.0) == 4.0
        assert sharp_constant("hardy", 3.0) == 27.0 / 8.0
        assert sharp_constant("rellich_chain", 2.0) == 16.0 / 9.0
        assert sharp_constant("rellich_chain", 3.0) == 0.729
        assert sharp_constant("hardy_rellich_int", 2.0) == 4.0

    def test_new_hardy_shares_hardy_constant(self):
        for p in (1.1, 1.5, 2.0, 3.0):
            assert sharp_constant("new_hardy", p) == sharp_constant("hardy", p)

    def test_rellich_pair_share_constant(self):
        for p in (1.5, 2.0, 3.0):
            expected = p ** (2 * p) / ((p - 1.0) ** p * (2.0 * p - 1.0) ** p)
            assert sharp_constant("rellich_p", p) == expected
            assert sharp_constant("rellich_chain", p) == expected

    @pytest.mark.parametrize("p", [76.5, 78.0, 81.0, 100.0, 256.0])
    def test_rellich_at_large_p_against_mpmath(self, p):
        """From p = 76.03 the powers of ``p^(2p) / ((p-1)^p (2p-1)^p)`` leave
        the double range (the product overflows to inf, and from p = 80.8
        ``p^(2p)`` raises ``OverflowError``)."""
        mp = pytest.importorskip("mpmath")
        with mp.workdps(60):
            q = mp.mpf(p)
            exact = q ** (2 * q) / ((q - 1) ** q * (2 * q - 1) ** q)
        for kind in ("rellich_p", "rellich_chain"):
            assert abs(sharp_constant(kind, p) - exact) <= 2e-14 * exact

    def test_hardy_against_mpmath_at_log_uniform_p(self):
        """Within 1e-15 on (1.001, 1e300].  ``(p / (p - 1))^p`` loses digits as p
        grows, and from p = 9e15, where ``p - 1 == p``, it is 1, not about e."""
        mp = pytest.importorskip("mpmath")
        log_p = np.random.default_rng(32).uniform(math.log(1.001), math.log(1e300), 200)
        for p in np.exp(log_p).tolist():
            with mp.workdps(60):
                q = mp.mpf(p)
                exact = mp.exp(-q * mp.log1p(-1 / q))
            assert abs(sharp_constant("hardy", p) - exact) <= 1e-15 * exact, p

    def test_rellich_against_mpmath_at_log_uniform_p(self):
        """Within 1e-15 on [76.03, 1024], where the log1p form applies; near
        p = 1024 its power of 2 is subnormal."""
        mp = pytest.importorskip("mpmath")
        log_p = np.random.default_rng(32).uniform(math.log(76.03), math.log(1024.0), 200)
        for p in np.exp(log_p).tolist():
            with mp.workdps(60):
                q = mp.mpf(p)
                exact = q ** (2 * q) / ((q - 1) ** q * (2 * q - 1) ** q)
            assert abs(sharp_constant("rellich_p", p) - exact) <= 1e-15 * exact, p

    def test_rellich_below_the_normal_range_is_a_range_error(self):
        with pytest.raises(DoubleRangeError):
            sharp_constant("rellich_p", 1100.0)

    @pytest.mark.parametrize("p", [1e155, 1e300, sys.float_info.max], ids=str)
    @pytest.mark.parametrize("kind", ["rellich_p", "rellich_chain"])
    def test_rellich_where_the_ratio_form_overflows_is_a_range_error(self, kind, p):
        """From p = 1.34e154 ``p * p`` overflows and the ratio form is inf / inf,
        a NaN; the constant is far below the normal range there."""
        with pytest.raises(DoubleRangeError, match="^the Rellich sharp constant at p = .* underflows$"):
            sharp_constant(kind, p)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(REPORT_KINDS),
           st.floats(0.0, math.log(sys.float_info.max), exclude_min=True))
    def test_a_sharp_constant_is_finite_and_positive_or_an_error(self, kind, log_p):
        # p log-uniform over (1, max]; the p = 2 kinds at p = 2
        p = 2.0 if KINDS[kind].p2_only else max(math.exp(log_p), math.nextafter(1.0, 2.0))
        try:
            sharp = sharp_constant(kind, p)
        except HardyLabError:
            return
        assert math.isfinite(sharp) and sharp > 0.0, (kind, p, sharp)

    def test_restrictions(self):
        with pytest.raises(InvalidParameterError):
            sharp_constant("hardy_rellich_int", 3.0)
        with pytest.raises(InvalidParameterError):
            sharp_constant("hardy", 1.0)
        with pytest.raises(InvalidParameterError):
            sharp_constant("unknown", 2.0)
        # every report kind has a sharp constant, the p = 2 ones at p = 2 only
        assert sharp_constant("improved_hardy_rellich", 2.0) == 4.0
        with pytest.raises(InvalidParameterError):
            sharp_constant("improved_hardy_rellich", 3.0)


# ---------------------------------------------------------------------------
# RatioReport plumbing
# ---------------------------------------------------------------------------


class TestRatioReport:
    def test_json_field_order(self):
        report = hardy_ratio(INDICATOR, 2.0)
        assert tuple(report.to_json_dict().keys()) == JSON_FIELD_ORDER

    def make(self, **overrides):
        base = dict(kind="hardy", p=2.0, numerator=2.0, middle=None, denominator=1.0,
                    sharp=4.0, ratio=2.0, slack=2.0, refinement_estimate=0.0)
        base.update(overrides)
        return RatioReport(**base)

    def test_violations_clean_report(self):
        assert self.make().violations(1e-6) == []

    def test_violations_ratio_above_sharp(self):
        bad = self.make(numerator=4.1, ratio=4.1, slack=-0.1)
        msgs = bad.violations(1e-6)
        assert len(msgs) == 1 and "sharp" in msgs[0]

    def test_violations_chain_order(self):
        bad = self.make(kind="rellich_chain", sharp=16.0 / 9.0, numerator=1.0,
                        middle=0.5, ratio=1.0, slack=16.0 / 9.0 - 1.0)
        msgs = bad.violations(1e-6)
        assert any("middle" in m for m in msgs)

    def test_violations_chain_middle_above_bound(self):
        bad = self.make(kind="rellich_chain", sharp=16.0 / 9.0, numerator=1.0,
                        middle=2.0, ratio=1.0, slack=16.0 / 9.0 - 1.0)
        msgs = bad.violations(1e-6)
        assert any("sharp * denominator" in m for m in msgs)

    def test_violations_improvement_order(self):
        bad = self.make(kind="new_hardy", numerator=1.0, middle=1.5, ratio=1.0, slack=3.0)
        msgs = bad.violations(1e-6)
        assert any("classical" in m for m in msgs)

    def test_tolerance_gate(self):
        slightly = self.make(numerator=4.0 * (1.0 + 1e-9), ratio=4.0 * (1.0 + 1e-9))
        assert slightly.violations(1e-6) == []
        assert slightly.violations(1e-12) != []

    @pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0])
    def test_bad_tolerance_rejected(self, tol):
        # nan would pass every report and -1 would flag a passing one
        for report in (self.make(), self.make(numerator=10.0, ratio=10.0, slack=-6.0)):
            with pytest.raises(InvalidParameterError):
                report.violations(tol)


# ---------------------------------------------------------------------------
# Classical Hardy
# ---------------------------------------------------------------------------


class TestHardyRatio:
    def test_indicator_p2(self):
        report = hardy_ratio(INDICATOR, 2.0)
        assert relclose(report.ratio, 2.0, 1e-12)
        assert report.denominator == 1.0
        assert report.sharp == 4.0
        assert report.middle is None
        assert report.violations() == []

    def test_indicator_p3(self):
        report = hardy_ratio(INDICATOR, 3.0)
        # int_0^1 1 dr + int_1^inf r^-3 dr = 3/2
        assert relclose(report.numerator, 1.5, 1e-12)
        assert relclose(report.ratio, 1.5, 1e-12)

    def test_scale_invariance(self):
        base = hardy_ratio(INDICATOR, 2.0)
        scaled = hardy_ratio(step_function([0.0, 1.0], [7.5]), 2.0)
        assert relclose(base.ratio, scaled.ratio, 1e-12)

    def test_zero_function_rejected(self):
        with pytest.raises(ZeroDenominatorError):
            hardy_ratio(ZERO, 2.0)

    def test_never_exceeds_sharp_on_random_inputs(self):
        rng = make_rng(211)
        for _ in range(100):
            f = random_step_function(rng)
            for p in (1.5, 2.0, 3.0):
                assert hardy_ratio(f, p).violations(1e-6) == []


# ---------------------------------------------------------------------------
# Improved Hardy (sup-min numerator)
# ---------------------------------------------------------------------------


class TestNewHardyRatio:
    def test_indicator_equals_classical(self):
        improved = new_hardy_ratio(INDICATOR, 2.0)
        classical = hardy_ratio(INDICATOR, 2.0)
        assert relclose(improved.ratio, classical.ratio, 1e-12)
        assert relclose(improved.numerator, improved.middle, 1e-12)

    def test_shifted_indicator_strictly_larger(self):
        report = new_hardy_ratio(SHIFTED, 2.0)
        # numerator = int (M f)^2 = 1 exactly; classical = 2 - 2 ln 2
        assert relclose(report.numerator, 1.0, 1e-12)
        assert relclose(report.middle, 2.0 - 2.0 * math.log(2.0), 1e-12)
        assert report.numerator > report.middle * 1.2

    def test_two_quadrature_paths_agree_on_decreasing_inputs(self):
        rng = make_rng(223)
        for _ in range(30):
            fstar = decreasing_rearrangement(random_step_function(rng)).step
            for p in (1.5, 2.0, 3.0):
                sup_path = new_hardy_ratio(fstar, p).numerator
                classical_path = hardy_ratio(fstar, p).numerator
                assert relclose(sup_path, classical_path, 1e-10), \
                    f"p={p}: {sup_path} vs {classical_path}"

    def test_classical_never_exceeds_improved(self):
        rng = make_rng(227)
        for _ in range(100):
            f = random_step_function(rng)
            for p in (1.5, 2.0, 3.0):
                report = new_hardy_ratio(f, p)
                assert report.middle <= report.numerator * (1.0 + 1e-12)
                assert report.violations(1e-6) == []

    @pytest.mark.parametrize("p, gap", [(1.5, 1e-6), (3.0, 1e-12)])
    def test_middle_is_the_classical_numerator(self, p, gap):
        """``middle`` integrates ``(|F|/r)^p`` on the sup-min nodes, which cut
        each cell at the zero of ``F``, where ``|F|`` has a kink; without the
        cut the gap grew to 3.3e-5 at p = 1.5 and 5.7e-7 at p = 3 (at p = 2
        the integrand is a polynomial, so the cut changes nothing there)."""
        batch = random_step_function(make_rng(227), 100)
        for improved, classical in zip(new_hardy_ratio(batch, p), hardy_ratio(batch, p)):
            assert abs(improved.middle - classical.numerator) <= gap * classical.numerator

    def test_zero_function_rejected(self):
        with pytest.raises(ZeroDenominatorError):
            new_hardy_ratio(ZERO, 2.0)


# ---------------------------------------------------------------------------
# Second-order (p = 2) forms
# ---------------------------------------------------------------------------


class TestHardyRellichInt:
    def test_indicator(self):
        report = hardy_rellich_int_ratio(INDICATOR)
        assert relclose(report.ratio, 2.0, 1e-12)
        assert report.sharp == 4.0 and report.p == 2.0

    def test_zero_rejected(self):
        with pytest.raises(ZeroDenominatorError):
            hardy_rellich_int_ratio(ZERO)

    def test_minimizing_family_trends_to_sharp(self):
        ratios = []
        for eps in (0.2, 0.1):
            f_eps = minimizing_function(2.0, eps, n_cells=512, r_min=0.2 ** (1.0 / eps))
            ratios.append(hardy_rellich_int_ratio(f_eps).ratio)
        assert ratios[0] < ratios[1] < 4.0


class TestImprovedHardyRellich:
    def test_indicator(self):
        report = improved_hardy_rellich_ratio(INDICATOR)
        assert relclose(report.ratio, 2.0, 1e-12)
        assert report.kind == "improved_hardy_rellich" and report.sharp == 4.0

    def test_shifted_strictly_above_classical_form(self):
        improved = improved_hardy_rellich_ratio(SHIFTED)
        classical = hardy_rellich_int_ratio(SHIFTED)
        assert improved.numerator > classical.numerator

    def test_sign_flip_gives_identical_report(self):
        f = step_function([0.0, 0.5, 1.0, 2.0], [0.3, -0.9, 0.5])
        a = improved_hardy_rellich_ratio(f)
        b = improved_hardy_rellich_ratio(StepFunction(f.grid, -f.values))
        assert a.to_json_dict() == b.to_json_dict()


# ---------------------------------------------------------------------------
# Rellich forms
# ---------------------------------------------------------------------------


class TestRellich:
    def test_indicator_chain_values(self):
        report = rellich_chain(INDICATOR, 2.0)
        assert relclose(report.numerator, 5.0 / 6.0, 1e-12)
        assert relclose(report.middle, 5.0 / 6.0, 1e-10)  # decreasing input: equality
        assert report.denominator == 1.0
        assert report.sharp == 16.0 / 9.0
        assert report.violations() == []

    def test_plain_rellich_matches_chain_numerator(self):
        rng = make_rng(229)
        for _ in range(20):
            f = random_step_function(rng)
            for p in (1.5, 3.0):
                a = rellich_p_ratio(f, p)
                b = rellich_chain(f, p)
                assert relclose(a.numerator, b.numerator, 1e-12)
                assert a.middle is None and b.middle is not None

    def test_shifted_indicator_middle_value(self):
        report = rellich_chain(SHIFTED, 2.0)
        # G(r) = r^2/4 up to r = 2 and 1 + (r-2) beyond: middle = 5/12
        assert relclose(report.middle, 5.0 / 12.0, 1e-12)
        assert report.numerator < report.middle  # strict gap for this input

    def test_homogeneity(self):
        base = rellich_chain(SHIFTED, 2.0)
        for c in (-3.0, 0.5):
            scaled = rellich_chain(StepFunction(SHIFTED.grid, c * SHIFTED.values), 2.0)
            assert relclose(base.ratio, scaled.ratio, 1e-12)
            assert relclose(base.middle / base.denominator,
                            scaled.middle / scaled.denominator, 1e-12)

    def test_chain_contract_on_random_inputs(self):
        rng = make_rng(233)
        for _ in range(100):
            f = random_step_function(rng)
            for p in (1.5, 2.0, 3.0):
                report = rellich_chain(f, p)
                assert report.violations(1e-6) == [], \
                    f"p={p}: {report.violations(1e-6)}"

    def test_zero_rejected(self):
        with pytest.raises(ZeroDenominatorError):
            rellich_chain(ZERO, 2.0)
        with pytest.raises(ZeroDenominatorError):
            rellich_p_ratio(ZERO, 2.0)


# ---------------------------------------------------------------------------
# Dilation invariance (all ratio kinds)
# ---------------------------------------------------------------------------


def test_dilation_invariance():
    rng = make_rng(239)
    for _ in range(10):
        f = random_step_function(rng)
        for p in (1.5, 2.0):
            for lam in (0.25, 4.0):
                g = dilate(f, p, lam)
                assert relclose(hardy_ratio(f, p).ratio, hardy_ratio(g, p).ratio, 1e-10)
                a, b = rellich_chain(f, p), rellich_chain(g, p)
                assert relclose(a.ratio, b.ratio, 1e-10)
                assert relclose(a.middle / a.denominator, b.middle / b.denominator, 1e-10)


# ---------------------------------------------------------------------------
# Weighted sup-min comparison (rearranged majorant)
# ---------------------------------------------------------------------------


class TestWeightedSupmin:
    def test_decreasing_input_equality(self):
        rng = make_rng(241)
        for _ in range(20):
            fstar = decreasing_rearrangement(random_step_function(rng)).step
            for p in (1.5, 2.0, 3.0):
                lhs, rhs = weighted_supmin_check(fstar, p)
                assert relclose(lhs, rhs, 1e-10), f"p={p}: {lhs} vs {rhs}"

    def test_cancellation_makes_it_strict(self):
        f = step_function([0.0, 1.0, 2.0], [-1.0, 1.0])
        lhs, rhs = weighted_supmin_check(f, 2.0)
        assert lhs < rhs * 0.99

    def test_zero(self):
        assert weighted_supmin_check(ZERO, 2.0) == (0.0, 0.0)

    def test_lhs_is_the_new_hardy_numerator(self):
        # the check runs the fine rule alone, the report the coarse one beside it
        rng = make_rng(263)
        for _ in range(10):
            f = random_step_function(rng)
            for p in (1.05, 1.5, 2.0, 3.0):
                lhs, _ = weighted_supmin_check(f, p)
                assert lhs.hex() == new_hardy_ratio(f, p).numerator.hex(), p

    def test_rearranged_side_dominates_on_random_inputs(self):
        rng = make_rng(251)
        for _ in range(100):
            f = random_step_function(rng)
            for p in (1.5, 2.0, 3.0):
                lhs, rhs = weighted_supmin_check(f, p)
                assert lhs <= rhs * (1.0 + 1e-6), f"p={p}: {lhs} > {rhs}"


# ---------------------------------------------------------------------------
# Corollaries
# ---------------------------------------------------------------------------


class TestCorollaryInt:
    def test_indicator(self):
        lhs, rhs = corollary_int_check(INDICATOR, 2.0)
        assert relclose(lhs, 2.0, 1e-12)
        assert rhs == 4.0

    def test_zero_rejected(self):
        with pytest.raises(ZeroDenominatorError):
            corollary_int_check(ZERO, 2.0)

    def test_bound_and_identity_on_random_inputs(self):
        rng = make_rng(257)
        for _ in range(50):
            f = random_step_function(rng)
            for p in (1.5, 2.0, 3.0):
                lhs, rhs = corollary_int_check(f, p)
                assert lhs <= rhs * (1.0 + 1e-6)
                # the max-form integrand is the sup-min transform to the p-th power,
                # and the bound is the report's sharp multiple of its denominator
                report = new_hardy_ratio(f, p)
                assert lhs == report.numerator
                assert rhs == report.sharp * report.denominator


class TestCorollaryAvg:
    def test_shifted_indicator_frozen_values(self):
        lhs, rhs = corollary_avg_check(SHIFTED, 2.0)
        assert type(lhs) is float and type(rhs) is float
        assert relclose(lhs, 0.25, 1e-12)
        assert relclose(rhs, 5.0, 1e-12)
        assert lhs <= rhs

    def test_origin_supported_input_diverges(self):
        with pytest.raises(DivergentIntegralError):
            corollary_avg_check(INDICATOR, 2.0)

    def test_zero_rejected(self):
        with pytest.raises(ZeroDenominatorError):
            corollary_avg_check(ZERO, 2.0)

    def test_bound_on_random_inputs(self):
        """The bound holds, and the lhs does not move when one cell is split
        into two with the same value: its intervals follow the kinks, not the grid."""
        rng = make_rng(263)
        for _ in range(50):
            f = random_step_function_away_from_zero(rng)
            k = int(rng.integers(f.grid.n_cells))
            a, b = f.grid.edges[k:k + 2]
            split = step_function(np.insert(f.grid.edges, k + 1, a + rng.uniform(0.1, 0.9) * (b - a)),
                                  np.insert(f.values, k, f.values[k]))
            for p in (1.5, 2.0, 3.0):
                lhs, rhs = corollary_avg_check(f, p)
                assert lhs <= rhs * (1.0 + 1e-6), f"p={p}: {lhs} > {rhs}"
                assert relclose(corollary_avg_check(split, p)[0], lhs, 1e-13), f"p={p}, cell {k}"

    def test_lhs_against_maxform_oracle(self):
        """The lhs against the max form evaluated from its definition in 40
        digits, on random functions and on a cell with hi/lo = 1000, where
        intervals that miss a kink are percent-level low."""
        pytest.importorskip("mpmath")
        rng = make_rng(3)
        cases = [(random_step_function_away_from_zero(rng), (1.5, 2.0, 3.0)) for _ in range(20)]
        cases.append((step_function([0.0, 1e-3, 1.0, 1.5], [0.0, -2.0, 5.0]), (2.0, 3.0)))
        for i, (f, ps) in enumerate(cases):
            refs = oracles.running_average_maxform_mp(f.grid.edges.tolist(), f.values.tolist(), ps)
            for p, ref in zip(ps, refs):
                lhs, _ = corollary_avg_check(f, p)
                assert abs(lhs - ref) <= 1e-12 * ref, f"case {i} p={p}: {lhs!r} vs {ref!r}"

    def test_rhs_against_per_cell_oracle(self):
        """The closed-form rhs against the per-cell formula
        ``\\int r^-p |f|^p + \\int r^-2p H`` with ``H(r) = \\int_0^r |f|^p``,
        summed in 50-digit arithmetic."""
        mp = pytest.importorskip("mpmath")

        def rhs_oracle(f, p):
            with mp.workdps(50):
                p = mp.mpf(p)
                edges = [mp.mpf(e) for e in f.grid.edges.tolist()]
                total = h = mp.mpf(0)
                for a, b, v in zip(edges[:-1], edges[1:], f.values.tolist()):
                    q = abs(mp.mpf(v)) ** p
                    if q != 0:
                        total += q * (a ** (1 - p) - b ** (1 - p)) / (p - 1)
                    if h != 0 or q != 0:  # H(r) = (h - q a) + q r on the cell
                        total += (h - q * a) * (a ** (1 - 2 * p) - b ** (1 - 2 * p)) / (2 * p - 1)
                        total += q * (a ** (2 - 2 * p) - b ** (2 - 2 * p)) / (2 * p - 2)
                    h += q * (b - a)
                total += h * edges[-1] ** (1 - 2 * p) / (2 * p - 1)
                return (p / (p - 1)) ** p * 2 ** (p - 1) * total

        rng = make_rng(3)
        for i in range(300):
            f = random_step_function_away_from_zero(rng)
            for p in (1.2, 1.5, 2.0, 3.0, 6.0):
                _, rhs = corollary_avg_check(f, p)
                ref = rhs_oracle(f, p)
                assert abs(rhs - ref) <= 2e-15 * ref, f"case {i} p={p}: {rhs} vs {mp.nstr(ref, 20)}"

    def test_zero_cell_with_a_tiny_edge(self):
        """Edge powers on a zero cell may overflow; only nonzero cells count."""
        f = step_function([0.0, 1e-170, 1e-3, 1.0, 2.0], [0.0, 0.0, 1.0, 2.0])
        lhs, rhs = corollary_avg_check(f, 2.0)
        assert relclose(lhs, 417.582666750665993, 2e-15)  # the 40-digit max-form oracle
        assert relclose(rhs, 1341344.0, 2e-15)

    @pytest.mark.filterwarnings("error")
    def test_peak_on_tiny_cells(self):
        """The interior peak of ``|A(s)|/s`` is ``|v| / (2 s*)``: no ``s*^2`` to
        underflow, so no warning, and p = 2 overflows cleanly."""
        f = step_function([0.0, 1e-210, 1e-200, 1.0], [0.0, 1.0, 1.0])
        with pytest.raises(DoubleRangeError):
            corollary_avg_check(f, 2.0)
        lhs, rhs = corollary_avg_check(f, 1.01)
        assert math.isfinite(lhs) and math.isfinite(rhs)
        assert lhs <= rhs


# ---------------------------------------------------------------------------
# Closed-form constant tails
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [1.05, 1.1, 1.5, 2.0, 2.5, 3.0, 4.0])
def test_every_constant_tail_against_mpmath(p, monkeypatch):
    """With every Gauss-Legendre total set to 0, each integral that has a
    closed-form constant tail reads that tail alone, and it is within 2 ulps
    relative of ``|c|^p R^(1-p) / (p-1)`` in 200-bit arithmetic: the Hardy
    numerator (``c = F(r_n)``), the sup-min numerator (the peak of ``|F|``)
    and middle (``F(r_n)``), and the running-average lhs (the peak of
    ``|F(s)/s|`` over the edges)."""
    mp = pytest.importorskip("mpmath")
    import hardylab.quadrature as quadrature

    quad = quadrature._quadrature

    def no_body(*args):
        return [[[0.0 * total for total in rule] for rule in rules] for rules in quad(*args)]

    monkeypatch.setattr(quadrature, "_quadrature", no_body)
    monkeypatch.setattr(inequalities, "_quadrature", no_body)
    rng = make_rng(271)
    for _ in range(20):
        f = random_step_function_away_from_zero(rng)
        edges = f.grid.edges
        F = np.concatenate(([0.0], np.cumsum(f.values * np.diff(edges))))
        supmin = new_hardy_ratio(f, p)
        sites = [(hardy_ratio(f, p).numerator, F[-1]), (supmin.numerator, np.abs(F).max()),
                 (supmin.middle, F[-1]),
                 (corollary_avg_check(f, p)[0], np.abs(F[1:] / edges[1:]).max())]
        with mp.workprec(200):
            R, q = mp.mpf(float(edges[-1])), mp.mpf(p)
            for k, (got, c) in enumerate(sites):
                exact = abs(mp.mpf(float(c))) ** q * R ** (1 - q) / (q - 1)
                assert abs(got - exact) <= 2 * 2.0 ** -52 * exact, (k, got, mp.nstr(exact, 20))


# ---------------------------------------------------------------------------
# Closed-form sloped tails, and the Rellich numerators, at general p
# ---------------------------------------------------------------------------

GENERAL_P = [1.05, 1.1, 1.2, 1.5, 2.5, 3.0, 4.0]


@pytest.mark.parametrize("p", GENERAL_P)
def test_sloped_tails_against_closed_form(p):
    """The sloped tails of ``double_cumulative(|f|)`` and ``inner_cumulative(f)``
    on random functions and on the sweep profiles are within 1e-12 relative
    of their ``hyp2f1`` closed form (``oracles.tail_integral_mp``)."""
    pytest.importorskip("mpmath")
    rng = make_rng(53)
    functions = [random_step_function(rng) for _ in range(20)]
    functions += [minimizing_function(p, eps, CutoffSpec(), DEFAULT_SWEEP_RESOLUTION,
                                      _sweep_r_min(eps)) for eps in DEFAULT_EPS_LIST]
    batch = StepBatch.of(functions)
    for P in (double_cumulative(abs(batch)), inner_cumulative(batch)):
        (fine,) = quadrature._tail_integrals(P, -2.0 * p, p, False)
        ends = P.grid.edges[P.grid.ends].tolist()
        for k, (R, t0, t1) in enumerate(zip(ends, P.tail_value.tolist(), P.tail_slope.tolist())):
            assert t1 != 0.0
            assert fine[k] == pytest.approx(oracles.tail_integral_mp(R, t0, t1, -2.0 * p, p),
                                            rel=1e-12), k


@pytest.mark.parametrize("p", GENERAL_P)
def test_rellich_numerators_within_their_estimates(p):
    """The ``rellich_p`` numerator and the ``rellich_chain`` middle term are
    within their refinement estimates of an oracle that integrates the body
    with mpmath (``D`` and ``G`` have no roots, so no kinks) and the sloped
    tail in closed form."""
    pytest.importorskip("mpmath")
    rng = make_rng(59)
    for _ in range(2):
        f = random_step_function(rng)
        report = rellich_p_ratio(f, p)
        middle, middle_estimate = quadrature.integrate_weighted_power(
            inner_cumulative(f), -2.0 * p, p, return_estimate=True)
        assert middle == rellich_chain(f, p).middle
        for got, estimate, P in ((report.numerator, report.refinement_estimate,
                                  double_cumulative(abs(f))),
                                 (middle, middle_estimate, inner_cumulative(f))):
            exact = (oracles.weighted_power_integral_mp(P.grid.edges, P.coeffs, 0.0, 0.0,
                                                        -2.0 * p, p)
                     + oracles.tail_integral_mp(P.grid.edges[-1], P.tail_value, P.tail_slope,
                                                -2.0 * p, p))
            assert abs(got - exact) <= estimate, (got, exact, estimate)


def test_rellich_of_the_indicator_at_p_near_1():
    """f = 1 on (0, 1] at p = 1.1: ``2^-1.1`` on the body plus the tail
    ``2F1(-p, p - 1; p; 1/2) / (p - 1)``, 9.97388773899773 (the 16 geometric
    Gauss-Legendre sub-cells of the tail once gave 8.189)."""
    report = rellich_p_ratio(INDICATOR, 1.1)
    assert report.numerator == pytest.approx(9.973887738997739, rel=1e-14)
    assert report.refinement_estimate < 1e-12


@pytest.mark.parametrize("value", [1e-200, 1e-170])
@pytest.mark.parametrize("kind", REPORT_KINDS)
def test_an_underflowing_mass_is_not_a_zero_function(kind, value):
    """``|f|^2`` underflows to 0 although f is not 0: a DoubleRangeError, not
    the false "vanishes identically" of a ZeroDenominatorError."""
    f = step_function([0.0, 1.0], [value])
    with pytest.raises(DoubleRangeError, match="underflows to 0; rescale the input"):
        ratio_evaluator(kind, 2.0)(f)


@pytest.mark.parametrize("f", [
    step_function([0.0, 1e-300, 1e-299], [0.0, 1e-10]),   # mass 9e-320
    step_function([0.0, 1.0, 10.0], [0.0, 1e-160]),       # mass 9e-320
    step_function([0.0, 1e10, 1e10 + 1.0], [0.0, 2e-154]),  # mass 4e-308, numerator 4e-318
], ids=["tiny-cells", "tiny-value", "tiny-numerator"])
@pytest.mark.parametrize("kind", REPORT_KINDS)
def test_a_subnormal_mass_or_integral_is_a_range_error(kind, f):
    """A subnormal has lost digits: the first two read hardy 0.588 and
    new_hardy 0.900 where their rescaled copy reads 1.488 and 1.800, and the
    third reads new_hardy 1e-10 where 2e-10 is right."""
    with pytest.raises(DoubleRangeError, match="underflows to a subnormal; rescale the input"):
        ratio_evaluator(kind, 2.0)(f)


@pytest.mark.parametrize("kind", REPORT_KINDS)
def test_the_smallest_normal_masses_keep_their_ratio(kind):
    """Value 1e-154 on (1, 10]: mass 9e-308, just above the smallest normal,
    and the ratio of the same function with value 1."""
    report = ratio_evaluator(kind, 2.0)(step_function([0.0, 1.0, 10.0], [0.0, 1e-154]))
    scaled = ratio_evaluator(kind, 2.0)(step_function([0.0, 1.0, 10.0], [0.0, 1.0]))
    assert report.ratio == pytest.approx(scaled.ratio, rel=1e-14)
    if kind == "hardy":
        assert report.ratio == pytest.approx(1.4883144237791, rel=1e-13)


# f = 1 on (0, 1] with an edge at the smallest subnormal: the Gauss nodes of
# the doubling intervals next to it round to 0, where the sup-min integrand
# is 0 / 0
SUBNORMAL_EDGE = step_function([0.0, 5e-324, 1.0], [1.0, 1.0])


@pytest.mark.parametrize("check", [
    lambda f: new_hardy_ratio(f, 2.0), improved_hardy_rellich_ratio,
    lambda f: weighted_supmin_check(f, 2.0), lambda f: corollary_int_check(f, 2.0),
], ids=["new_hardy", "improved_hardy_rellich", "weighted_supmin_check", "corollary_int_check"])
def test_a_node_rounding_to_0_is_a_range_error(check):
    """Not a NaN report that passes its contract, and no RuntimeWarning
    (which pytest makes an error)."""
    with pytest.raises(DoubleRangeError, match="quadrature total"):
        check(SUBNORMAL_EDGE)


@pytest.mark.parametrize("kind", ["hardy", "new_hardy"])
def test_an_overflowing_gauss_sum_is_a_range_error(kind):
    """f = 1e154 on (0, 1]: the integrand is 1e308 at every node, and the
    weighted node sum overflows inside ``einsum``, which raises no
    floating-point error.  Not hardy's false DivergentIntegralError, nor
    new_hardy's ratio of inf."""
    with pytest.raises(DoubleRangeError, match="quadrature total"):
        ratio_evaluator(kind, 2.0)(step_function([0.0, 1.0], [1e154]))


# f = 0 on (0, 1] and 2.4e292 on (1, 2]: at p = 1.05 each integral's body plus
# its tail overflows (the CSV of tests/test_cli.py's OVERFLOW_CSV)
OVERFLOW = step_function([0.0, 1.0, 2.0], [0.0, 2.404099183509882e292])
# one cell whose Hardy numerator at p = 1.05 is 1.59e308, near the largest double
NEAR_MAX = step_function([0.0, 7.704937513157145e18], [-1.9024731655320482e274])


@pytest.mark.parametrize("check", [
    lambda f: quadrature.integrate_weighted_power(cumulative(f), -1.05, 1.05),
    lambda f: weighted_supmin_check(f, 1.05), lambda f: rellich_chain(f, 1.05),
], ids=["integrate_weighted_power", "weighted_supmin_check", "rellich_chain"])
def test_an_overflowing_total_is_a_range_error(check):
    """A finite body and a finite tail whose sum overflows: a range error, not
    a false DivergentIntegralError (the integral converges)."""
    with pytest.raises(DoubleRangeError, match="quadrature total"):
        check(OVERFLOW)


def test_a_near_max_numerator_keeps_a_finite_estimate():
    """The estimate's 32-ulp floor of fine + coarse would overflow to inf;
    each term is scaled before the sum."""
    report = hardy_ratio(NEAR_MAX, 1.05)
    assert report.numerator == 1.5932094818660367e308
    assert 0.0 < report.refinement_estimate < 1e-12 * report.numerator


@pytest.mark.parametrize("check, f", [
    (corollary_int_check, NEAR_MAX),
    (corollary_avg_check, step_function([0.0, 1.0, 2.0], [0.0, 4.207935289042065e292])),
], ids=["corollary_int_check", "corollary_avg_check"])
def test_an_overflowing_corollary_rhs_is_a_range_error(check, f):
    """The right-hand side is a product of Python floats, whose overflow to
    inf no ``np.errstate`` sees; the left-hand side stays finite."""
    with pytest.raises(DoubleRangeError, match="right-hand side"):
        check(f, 1.05)


# ---------------------------------------------------------------------------
# Kind dispatch
# ---------------------------------------------------------------------------


class TestRatioEvaluator:
    def test_dispatch_kind_round_trip(self):
        for kind in REPORT_KINDS:
            p = 2.0
            report = ratio_evaluator(kind, p)(SHIFTED)
            assert report.kind == kind
            assert report.p == p

    def test_p2_only_kinds_rejected_elsewhere(self):
        for kind in ("hardy_rellich_int", "improved_hardy_rellich"):
            with pytest.raises(InvalidParameterError):
                ratio_evaluator(kind, 3.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidParameterError):
            ratio_evaluator("nope", 2.0)


# ---------------------------------------------------------------------------
# The kind table
# ---------------------------------------------------------------------------

# the public per-kind functions, called the way their signatures allow
# (the p = 2 kinds take no p)
SHORTHANDS = {
    "hardy": lambda f, p, **kw: hardy_ratio(f, p, **kw),
    "new_hardy": lambda f, p, **kw: new_hardy_ratio(f, p, **kw),
    "hardy_rellich_int": lambda f, p, **kw: hardy_rellich_int_ratio(f, **kw),
    "improved_hardy_rellich": lambda f, p, **kw: improved_hardy_rellich_ratio(f, **kw),
    "rellich_p": lambda f, p, **kw: rellich_p_ratio(f, p, **kw),
    "rellich_chain": lambda f, p, **kw: rellich_chain(f, p, **kw),
}


def kind_p_pairs():
    for kind in REPORT_KINDS:
        for p in ((2.0,) if KINDS[kind].p2_only else (1.5, 2.0, 3.0)):
            yield kind, p


class TestKindTable:
    def test_shorthands_cover_the_table(self):
        assert set(SHORTHANDS) == set(KINDS)

    @pytest.mark.parametrize("kind,p", list(kind_p_pairs()))
    def test_shorthand_equals_evaluator_bitwise(self, kind, p):
        rng = make_rng(41)
        evaluate = ratio_evaluator(kind, p)
        for f in [random_step_function(rng) for _ in range(20)] + [INDICATOR, SHIFTED]:
            report = SHORTHANDS[kind](f, p)
            # repr shows every float exactly, signed zeros included
            assert repr(report) == repr(evaluate(f))

    @pytest.mark.parametrize("p2_kind,general_kind", [("hardy_rellich_int", "hardy"),
                                                      ("improved_hardy_rellich", "new_hardy")])
    def test_p2_kinds_are_their_general_kind_at_p2(self, p2_kind, general_kind):
        rng = make_rng(43)
        for f in [random_step_function(rng) for _ in range(20)] + [INDICATOR, SHIFTED]:
            special = SHORTHANDS[p2_kind](f, 2.0)
            general = SHORTHANDS[general_kind](f, 2.0)
            assert special.kind == p2_kind
            assert repr(replace(special, kind=general_kind)) == repr(general)

    def test_globals_are_looked_up_at_call_time(self, monkeypatch):
        """Every kind calls the transforms and quadrature through this module's
        globals, which is where span tracing puts its wrappers."""
        expected = {
            "hardy": {"p_norm", "cumulative", "integrate_weighted_power"},
            "hardy_rellich_int": {"p_norm", "cumulative", "integrate_weighted_power"},
            "new_hardy": {"p_norm", "supmin_branches"},
            "improved_hardy_rellich": {"p_norm", "supmin_branches"},
            "rellich_p": {"p_norm", "double_cumulative", "integrate_weighted_power"},
            "rellich_chain": {"p_norm", "double_cumulative", "inner_cumulative",
                              "integrate_weighted_power"},
        }
        called: set[str] = set()

        def recording(name, fn):
            def wrapper(*args, **kwargs):
                called.add(name)
                return fn(*args, **kwargs)
            return wrapper

        for name in set().union(*expected.values()):
            monkeypatch.setattr(inequalities, name, recording(name, getattr(inequalities, name)))
        for kind, names in expected.items():
            called.clear()
            SHORTHANDS[kind](SHIFTED, 2.0)
            assert called == names, kind
