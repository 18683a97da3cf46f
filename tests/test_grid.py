"""Tests for the grid / step-function model and the weighted-power quadrature."""

import math

import numpy as np
import pytest

import oracles
from hardylab import (
    DivergentIntegralError,
    Grid,
    InvalidParameterError,
    MalformedCSVError,
    PiecewisePoly,
    StepFunction,
    check_exponent,
    integrate_weighted_power,
    make_graded_grid,
    make_rng,
    p_norm,
    random_step_function,
    read_step_csv,
    step_function,
    write_step_csv,
)
from hardylab import (corollary_avg_check, corollary_int_check, quadrature, ratio_evaluator,
                      random_step_function_away_from_zero, weighted_supmin_check)
from hardylab.grid import MAX_SIZE, PolyBatch
from hardylab.inequalities import REPORT_KINDS
from hardylab.sharpness import ratio_maximize, sharpness_sweep
from hardylab.grid import step_csv_text
from hardylab.operators import cumulative, double_cumulative


def indicator(a=0.0, b=1.0, value=1.0):
    if a == 0.0:
        return step_function([0.0, b], [value])
    return step_function([0.0, a, b], [0.0, value])


def oracle_square_integral(P, alpha):
    """Independent closed-form value of ``int r^alpha P(r)^2 dr``."""
    segments = oracles.segments_from_cells(P.grid.edges, P.coeffs,
                                           P.tail_value, P.tail_slope)
    return oracles.weighted_square_integral(segments, alpha)


# ---------------------------------------------------------------------------
# Exponents and basic containers
# ---------------------------------------------------------------------------


def test_check_exponent_accepts_valid():
    assert check_exponent(2) == 2.0
    assert check_exponent(1.0000001) == 1.0000001
    assert check_exponent("3") == 3.0  # float() coercion


@pytest.mark.parametrize("bad", [1.0, 0.5, 0.0, -2.0, math.inf, math.nan, "abc", None])
def test_check_exponent_rejects_invalid(bad):
    with pytest.raises(InvalidParameterError):
        check_exponent(bad)


def test_make_rng_rejects_negative_seed():
    with pytest.raises(InvalidParameterError):
        make_rng(-1)
    assert make_rng(0).random() == np.random.default_rng(0).random()
    for seed in (np.int64(7), np.uint8(7)):
        assert make_rng(seed).random() == np.random.default_rng(7).random()


@pytest.mark.parametrize("bad", [1.5, True, np.True_, float("nan"), np.float64(2.0), "3", None])
def test_make_rng_rejects_non_integer_seed(bad):
    with pytest.raises(InvalidParameterError):
        make_rng(bad)


class TestGrid:
    def test_basic_properties(self):
        g = Grid(np.array([0.0, 0.5, 2.0]))
        assert g.n_cells == 2
        assert g.support_end == 2.0
        assert np.allclose(g.widths, [0.5, 1.5])
        assert not g.edges.flags.writeable

    @pytest.mark.parametrize("edges", [
        [0.0],                      # a single edge is no cell
        [0.5, 1.0],                 # must start at zero
        [0.0, 1.0, 1.0],            # strictly increasing
        [0.0, 2.0, 1.0],
        [0.0, math.inf],
    ])
    def test_invalid_edges(self, edges):
        with pytest.raises(InvalidParameterError):
            Grid(np.asarray(edges, dtype=float))


class TestStepFunction:
    def test_value_count_must_match(self):
        with pytest.raises(InvalidParameterError):
            step_function([0.0, 1.0, 2.0], [1.0])
        with pytest.raises(InvalidParameterError):
            step_function([0.0, 1.0], [1.0, 2.0])

    def test_values_must_be_finite(self):
        with pytest.raises(InvalidParameterError):
            step_function([0.0, 1.0], [math.nan])

    def test_evaluate_right_continuous_cells(self):
        # value v_i is taken on (edges[i], edges[i+1]]
        f = step_function([0.0, 1.0, 2.0], [3.0, -1.0])
        assert f.evaluate(0.0) == 0.0
        assert f.evaluate(0.5) == 3.0
        assert f.evaluate(1.0) == 3.0      # right edge belongs to the cell
        assert f.evaluate(1.5) == -1.0
        assert f.evaluate(2.0) == -1.0
        assert f.evaluate(2.5) == 0.0      # zero beyond support
        out = f.evaluate(np.array([0.5, 1.0, 1.5, 3.0]))
        assert np.array_equal(out, [3.0, 3.0, -1.0, 0.0])

    def test_evaluate_rejects_bad_points(self):
        f = indicator()
        with pytest.raises(InvalidParameterError):
            f.evaluate(-0.1)
        with pytest.raises(InvalidParameterError):
            f.evaluate(math.inf)

    def test_abs(self):
        f = step_function([0.0, 1.0, 2.0], [-2.0, 1.0])
        assert np.array_equal(abs(f).values, [2.0, 1.0])


class TestPiecewisePoly:
    def test_coefficient_shape_validated(self):
        g = Grid(np.array([0.0, 1.0]))
        with pytest.raises(InvalidParameterError):
            PiecewisePoly(g, np.zeros((2, 3)))
        with pytest.raises(InvalidParameterError):
            PiecewisePoly(g, np.zeros((1, 2)))
        with pytest.raises(InvalidParameterError):
            PiecewisePoly(g, np.full((1, 3), math.nan))

    def test_from_step_reproduces_values(self):
        f = step_function([0.0, 1.0, 3.0], [2.0, -1.0])
        P = PiecewisePoly.from_step(f)
        assert P.evaluate(0.5) == 2.0
        assert P.evaluate(2.0) == -1.0
        assert P.evaluate(5.0) == 0.0  # zero tail

    def test_affine_tail_evaluation(self):
        g = Grid(np.array([0.0, 1.0]))
        P = PiecewisePoly(g, np.array([[0.0, 0.0, 0.5]]), tail_value=0.5, tail_slope=1.0)
        assert P.evaluate(1.0) == 0.5
        assert P.evaluate(3.0) == 0.5 + 2.0

    def test_continuity_of_cumulatives_on_random_input(self):
        rng = make_rng(11)
        for _ in range(20):
            f = random_step_function(rng)
            for P in (cumulative(f), double_cumulative(f)):
                edges = f.grid.edges
                # value at each interior edge must match the next cell's c0
                left_vals = P.evaluate(edges[1:-1])
                right_c0 = P.coeffs[1:, 0]
                scale = np.maximum(np.abs(left_vals), 1e-30)
                assert np.all(np.abs(left_vals - right_c0) <= 1e-12 * scale)


# ---------------------------------------------------------------------------
# Grid construction
# ---------------------------------------------------------------------------


class TestMakeGradedGrid:
    def test_uniform_bisection(self):
        assert np.array_equal(make_graded_grid(1.0, 2).edges, [0.0, 0.5, 1.0])

    def test_single_cell(self):
        assert np.array_equal(make_graded_grid(1.0, 1).edges, [0.0, 1.0])

    def test_geometric_ratio_two(self):
        g = make_graded_grid(2.0, 4, "geometric", r_min=0.25)
        assert np.allclose(g.edges, [0.0, 0.25, 0.5, 1.0, 2.0], rtol=1e-12, atol=0.0)
        assert g.edges[-1] == 2.0  # last edge pinned exactly

    def test_geometric_single_cell(self):
        g = make_graded_grid(1.0, 1, "geometric", r_min=0.5)
        assert np.array_equal(g.edges, [0.0, 1.0])

    @pytest.mark.parametrize("kwargs", [
        dict(R=0.0, n_cells=4),
        dict(R=1.0, n_cells=0),
        dict(R=1.0, n_cells=4, grading="geometric"),                 # missing r_min
        dict(R=1.0, n_cells=4, grading="geometric", r_min=0.0),
        dict(R=1.0, n_cells=4, grading="geometric", r_min=1.0),
        dict(R=1.0, n_cells=4, grading="uniform", r_min=0.1),        # r_min is geometric-only
        dict(R=1.0, n_cells=4, grading="random"),
    ])
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(InvalidParameterError):
            make_graded_grid(**kwargs)

    @pytest.mark.parametrize("n_cells", [math.nan, math.inf, 1.9, 2.0, True, "2", None])
    @pytest.mark.parametrize("grading, r_min", [("uniform", None), ("geometric", 0.25)])
    def test_non_integer_cell_counts(self, n_cells, grading, r_min):
        with pytest.raises(InvalidParameterError):
            make_graded_grid(1.0, n_cells, grading, r_min=r_min)

    @pytest.mark.parametrize("grading, r_min", [("uniform", None), ("geometric", 0.25)])
    def test_numpy_integer_cell_counts(self, grading, r_min):
        for n_cells in (np.int64(5), np.uint8(5)):
            g = make_graded_grid(1.0, n_cells, grading, r_min=r_min)
            ref = make_graded_grid(1.0, 5, grading, r_min=r_min)
            assert g.edges.tobytes() == ref.edges.tobytes()

    @pytest.mark.parametrize("grading, r_min", [("uniform", None), ("geometric", 0.25)])
    def test_the_largest_size_fails_on_memory_not_on_numpys_size_limit(self, grading, r_min):
        # MAX_SIZE float64 edges are 4 EiB, beyond any 64-bit address space:
        # the allocation fails at once, with a MemoryError and not a ValueError
        with pytest.raises(MemoryError):
            make_graded_grid(1.0, MAX_SIZE, grading, r_min=r_min)


# ---------------------------------------------------------------------------
# p-th power mass
# ---------------------------------------------------------------------------


class TestPNorm:
    def test_unit_indicator(self):
        assert p_norm(indicator(), 2.0) == 1.0

    def test_two_cells(self):
        f = step_function([0.0, 1.0, 2.0], [2.0, 1.0])
        assert p_norm(f, 2.0) == 5.0  # 4*1 + 1*1

    def test_zero_function(self):
        assert p_norm(step_function([0.0, 1.0], [0.0]), 3.0) == 0.0

    def test_positive_unless_zero(self):
        rng = make_rng(5)
        for _ in range(20):
            f = random_step_function(rng)
            assert p_norm(f, 1.5) > 0.0

    def test_exponent_validated(self):
        with pytest.raises(InvalidParameterError):
            p_norm(indicator(), 1.0)


# ---------------------------------------------------------------------------
# Weighted-power quadrature
# ---------------------------------------------------------------------------


class TestIntegrateWeightedPower:
    def test_hardy_indicator_value(self):
        # int_0^1 1 dr + int_1^inf r^-2 dr = 2
        val = integrate_weighted_power(cumulative(indicator()), -2.0, 2.0)
        assert abs(val - 2.0) <= 1e-12

    def test_zero_polynomial(self):
        P = PiecewisePoly(Grid(np.array([0.0, 1.0])), np.zeros((1, 3)))
        assert integrate_weighted_power(P, -4.0, 2.0) == 0.0

    def test_rellich_indicator_value(self):
        # int_0^1 1/4 dr + int_1^inf (r^-2 - r^-3 + r^-4/4) dr = 5/6
        val = integrate_weighted_power(double_cumulative(indicator()), -4.0, 2.0)
        assert abs(val - 5.0 / 6.0) <= 1e-12

    def test_alpha_zero_reproduces_p_norm(self):
        rng = make_rng(17)
        for _ in range(20):
            f = random_step_function(rng)
            for p in (1.5, 2.0, 3.0):
                val = integrate_weighted_power(PiecewisePoly.from_step(f), 0.0, p)
                ref = p_norm(f, p)
                assert abs(val - ref) <= 1e-12 * ref, f"p={p}: {val} vs {ref}"

    def test_estimate_bounds_error_against_mpmath_oracle(self):
        """The refinement estimate covers the true error of ``\\int |F/r|^p``,
        measured against a 30-digit mpmath oracle at general p."""
        pytest.importorskip("mpmath")
        rng = make_rng(23)
        for _ in range(10):
            P = cumulative(random_step_function(rng))
            for p in (1.5, 2.0, 3.0):
                val, est = integrate_weighted_power(P, -p, p, return_estimate=True)
                ref = oracles.weighted_power_integral_mp(P.grid.edges, P.coeffs, P.tail_value,
                                                         P.tail_slope, -p, p)
                assert abs(val - ref) <= est, \
                    f"p={p}: error {abs(val - ref)} > estimate {est}"

    def test_oracle_agreement_on_indicators(self):
        # p = 2, alpha in {-2, -4}: quadrature vs closed-form antiderivative
        for b, c in ((0.5, 1.0), (1.0, -2.0), (2.0, 3.0)):
            f = indicator(b=b, value=c)
            F, D = cumulative(f), double_cumulative(f)
            v = integrate_weighted_power(F, -2.0, 2.0)
            ref = oracle_square_integral(F, -2.0)
            assert abs(v - ref) <= 1e-10 * abs(ref)
            v = integrate_weighted_power(D, -4.0, 2.0)
            ref = oracle_square_integral(D, -4.0)
            assert abs(v - ref) <= 1e-10 * abs(ref)

    def test_oracle_agreement_on_random_functions(self):
        rng = make_rng(29)
        for _ in range(25):
            f = random_step_function(rng)
            F, D = cumulative(f), double_cumulative(f)
            for P, alpha in ((F, -2.0), (D, -4.0)):
                v = integrate_weighted_power(P, alpha, 2.0)
                ref = oracle_square_integral(P, alpha)
                assert abs(v - ref) <= 1e-10 * max(abs(ref), 1e-30), \
                    f"alpha={alpha}: {v} vs oracle {ref}"

    def test_divergent_at_origin(self):
        # F vanishes to first order only: alpha + p <= -1 diverges
        with pytest.raises(DivergentIntegralError):
            integrate_weighted_power(cumulative(indicator()), -4.0, 2.0)
        # constant near 0: alpha <= -1 diverges
        with pytest.raises(DivergentIntegralError):
            integrate_weighted_power(PiecewisePoly.from_step(indicator()), -1.0, 2.0)

    def test_divergent_in_tail(self):
        D = double_cumulative(indicator())  # affine tail
        with pytest.raises(DivergentIntegralError):
            integrate_weighted_power(D, -2.0, 2.0)   # decays like r^0
        with pytest.raises(DivergentIntegralError):
            integrate_weighted_power(D, -3.0, 2.0)   # r^-1 boundary case

    def test_parameter_validation(self):
        P = cumulative(indicator())
        with pytest.raises(InvalidParameterError):
            integrate_weighted_power(P, -2.0, 1.0)
        with pytest.raises(InvalidParameterError):
            integrate_weighted_power(P, math.nan, 2.0)


# ---------------------------------------------------------------------------
# The Gauss-Jacobi end rule
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("gamma", [-0.9, -0.5, -1e-3, 0.3, 1.7, 5.0])
def test_end_rules_are_exact_on_their_polynomials(gamma):
    """The fine rule integrates ``(1+t)^gamma (1+t)^m`` on [-1, 1] exactly for
    m < 32, the coarse one for m < 16."""
    nodes, rules = quadrature._rule(gamma, True)
    for (start, stop, weights), degree in zip(rules, (32, 16)):
        t = nodes[start:stop]
        assert np.all((-1.0 < t) & (t < 1.0))
        for m in range(degree):
            exact = 2.0 ** (gamma + m + 1.0) / (gamma + m + 1.0)
            assert math.fsum(weights * (1.0 + t) ** m) == pytest.approx(exact, rel=1e-13), m


def test_end_rule_at_gamma_zero_is_gauss_legendre():
    nodes, rules = quadrature._rule(0.0, True)
    for (start, stop, weights), n in zip(rules, (16, 8)):
        x, w = np.polynomial.legendre.leggauss(n)
        assert nodes[start:stop].tobytes() == x.tobytes() and weights.tobytes() == w.tobytes()


@pytest.mark.parametrize("alpha", [-0.9, -0.5])
def test_end_rule_on_a_nonvanishing_first_cell(alpha):
    """``P = f`` does not vanish at 0, so its first cell carries the bare
    weight ``r^alpha`` (gamma = alpha); the exact value is a sum over cells."""
    rng = make_rng(41)
    for _ in range(10):
        f = random_step_function(rng)
        a, b = f.grid.edges[:-1], f.grid.edges[1:]
        for p in (1.5, 2.0, 3.0):
            val, est = integrate_weighted_power(PiecewisePoly.from_step(f), alpha, p,
                                                return_estimate=True)
            e = alpha + 1.0
            exact = math.fsum((np.abs(f.values) ** p * (b ** e - a ** e) / e).tolist())
            assert val == pytest.approx(exact, rel=1e-13)
            assert abs(val - exact) <= est


@pytest.mark.parametrize("k, p, alpha", [(1, 1.5, -2.2), (1, 1.5, -1.2), (1, 2.0, -2.5),
                                         (1, 3.0, -3.7), (2, 1.5, -3.7), (2, 2.0, -4.5)])
def test_end_rule_on_a_zero_at_the_origin(k, p, alpha):
    """``F = v0 r`` and ``D = v0 r^2 / 2`` on the first cell, so with
    ``gamma = alpha + k p != 0`` that cell is ``|v0 / k|^p r^gamma``, exactly
    ``|v0 / k|^p c^(gamma+1) / (gamma+1)``.  The mpmath oracle meets that
    closed form to 1e-14 (it substitutes the ``r^gamma`` end away), and
    checks the body; the tail is checked against its closed form."""
    pytest.importorskip("mpmath")
    rng = make_rng(43)
    for _ in range(4):
        f = abs(random_step_function(rng))
        P = (cumulative, double_cumulative)[k - 1](f)
        val, est = integrate_weighted_power(P, alpha, p, return_estimate=True)
        c, gamma = P.grid.edges[1], alpha + k * p
        first = oracles.weighted_power_integral_mp(P.grid.edges[:2], P.coeffs[:1], 0.0, 0.0,
                                                   alpha, p)
        exact = (f.values[0] / k) ** p * c ** (gamma + 1.0) / (gamma + 1.0)
        assert first == pytest.approx(exact, rel=1e-14, abs=0.0)
        ref = (oracles.weighted_power_integral_mp(P.grid.edges, P.coeffs, 0.0, 0.0, alpha, p)
               + oracles.tail_integral_mp(P.grid.edges[-1], P.tail_value, P.tail_slope, alpha, p))
        assert val == pytest.approx(ref, rel=1e-13)
        assert abs(val - ref) <= est


@pytest.mark.parametrize("kind, p, passes", [
    ("hardy", 1.5, 1), ("hardy", 3.0, 1), ("hardy_rellich_int", 2.0, 1),
    ("rellich_p", 1.5, 2), ("rellich_p", 2.0, 2), ("rellich_p", 3.0, 2),
    ("rellich_chain", 1.5, 2), ("rellich_chain", 2.0, 2),
])
def test_passes_per_table_kind_integral(kind, p, passes, monkeypatch):
    """One ``integrate_weighted_power`` call of a table kind makes one
    quadrature pass (the body) for the Hardy kinds and two (body and
    sloped tail) for the Rellich kinds, none over zero intervals: their first
    cells are smooth, so no end-rule pass is added."""
    import hardylab.inequalities as inequalities

    sizes, calls = [], []
    quad, integrate = quadrature._quadrature, quadrature.integrate_weighted_power

    def counting_quad(integrand, lo, *args, **kwargs):
        sizes.append(lo.size)
        return quad(integrand, lo, *args, **kwargs)

    def counting_integrate(*args, **kwargs):
        calls.append(len(sizes))
        return integrate(*args, **kwargs)

    monkeypatch.setattr(quadrature, "_quadrature", counting_quad)
    monkeypatch.setattr(inequalities, "integrate_weighted_power", counting_integrate)
    rng = make_rng(47)
    ratio_evaluator(kind, p)(random_step_function(rng, 5))
    assert calls and np.diff(calls + [len(sizes)]).tolist() == [passes] * len(calls)
    assert min(sizes) > 0


# ---------------------------------------------------------------------------
# The half-order rule runs only where an estimate is reported
# ---------------------------------------------------------------------------


def _bit_batches(p):
    """``(P, alpha)`` batches that reach every quadrature path at ``p``: the
    plain body with a constant tail (F at alpha = -p), the Gauss-Jacobi end
    rule at order 1 (F at alpha = -p - 0.5) and order 0 (the step function
    itself at alpha = -0.5, no tail), and sloped tails of D, every other one
    turned down so that its root lies inside the tail, without and with the
    end rule (gamma = 0 and -0.3)."""
    f = random_step_function(make_rng(61), 12)
    F, D = cumulative(f), double_cumulative(abs(f))
    S = PolyBatch(f.grid, np.stack((f.values, 0.0 * f.values, 0.0 * f.values), axis=1),
                  np.zeros(len(f)), np.zeros(len(f)))
    assert np.all(D.tail_value > 0.0) and np.all(D.tail_slope > 0.0)
    D = PolyBatch(D.grid, D.coeffs, D.tail_value, D.tail_slope * np.resize([1.0, -1.0], len(f)))
    return [(F, -p), (F, -p - 0.5), (S, -0.5), (D, -2.0 * p), (D, -2.0 * p - 0.3)]


@pytest.mark.parametrize("p", [1.05, 1.5, 2.0, 3.0])
def test_the_value_without_an_estimate_is_the_value_with_one(p):
    """The fine rule alone gives the bits the fine rule gives beside the
    coarse one."""
    for P, alpha in _bit_batches(p):
        alone = integrate_weighted_power(P, alpha, p)
        value, _ = integrate_weighted_power(P, alpha, p, return_estimate=True)
        assert [v.hex() for v in alone] == [v.hex() for v in value], alpha


def _node_columns(monkeypatch) -> list:
    """The list that records, from now on and in order, how many node columns
    each integrand that ``_quadrature`` evaluates gets."""
    import hardylab.inequalities as inequalities

    columns, quad = [], quadrature._quadrature

    def recording(integrand, *args, **kwargs):
        def record(r, *rows):
            columns.append(r.shape[1])
            return integrand(r, *rows)
        return quad(record, *args, **kwargs)

    monkeypatch.setattr(quadrature, "_quadrature", recording)
    monkeypatch.setattr(inequalities, "_quadrature", recording)
    return columns


FINE = {quadrature.QUAD_ORDER}
BOTH = {quadrature.QUAD_ORDER + quadrature.QUAD_ORDER // 2}
AWAY = random_step_function_away_from_zero(make_rng(67))


@pytest.mark.parametrize("call, columns", [
    (lambda: sharpness_sweep("hardy", 1.5), FINE),
    (lambda: sharpness_sweep("rellich_chain", 3.0), FINE),
    (lambda: weighted_supmin_check(AWAY, 1.5), FINE),
    (lambda: corollary_int_check(AWAY, 1.5), FINE),
    (lambda: corollary_avg_check(AWAY, 1.5), FINE),
    *[(lambda P=P, alpha=alpha: integrate_weighted_power(P, alpha, 1.5), FINE)
      for P, alpha in _bit_batches(1.5)],
    *[(lambda P=P, alpha=alpha: integrate_weighted_power(P, alpha, 1.5, return_estimate=True),
       BOTH) for P, alpha in _bit_batches(1.5)],
    *[(lambda kind=kind: ratio_evaluator(kind, 2.0)(AWAY), BOTH) for kind in REPORT_KINDS],
    (lambda: ratio_maximize("new_hardy", 2.0, iters=8),
     lambda best: ratio_evaluator("new_hardy", 2.0)(best)),
], ids=["sweep-hardy", "sweep-rellich_chain", "weighted_supmin_check", "corollary_int_check",
        "corollary_avg_check", *[f"no-estimate-{k}" for k in range(5)],
        *[f"estimate-{k}" for k in range(5)], *REPORT_KINDS, "ratio_maximize"])
def test_the_half_order_rule_runs_only_for_an_estimate(call, columns, monkeypatch):
    """Every quadrature pass of a call that reports no estimate evaluates the
    QUAD_ORDER nodes alone; one whose estimate is reported adds the
    half-order rule's in the same pass.  ``ratio_maximize`` reports the
    estimate of its best function alone: its ascent's passes take the
    QUAD_ORDER nodes alone, and its last passes are those that one report
    (``columns``, called on the best function) makes."""
    seen = _node_columns(monkeypatch)
    out = call()
    if not callable(columns):
        assert set(seen) == columns
        return
    run = len(seen)
    columns(out[0])
    report = seen[run:]
    assert set(report) == BOTH and run > len(report)
    assert seen[:run] == [quadrature.QUAD_ORDER] * (run - len(report)) + report


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------


class TestStepCSV:
    def test_text_format(self):
        assert step_csv_text(indicator()) == "edge,value\n0,\n1,1\n"

    def test_roundtrip_exact(self, tmp_path):
        rng = make_rng(31)
        for i in range(10):
            f = random_step_function(rng)
            path = tmp_path / f"f{i}.csv"
            write_step_csv(f, path)
            g = read_step_csv(path)
            assert np.array_equal(f.grid.edges, g.grid.edges)
            assert np.array_equal(f.values, g.values)

    @pytest.mark.parametrize("text", [
        "",                                   # empty
        "edge;value\n0,\n1,1\n",              # wrong header
        "edge,value\n0,1\n1,1\n",             # origin row must have empty value
        "edge,value\n0.5,\n1,1\n",            # origin row must be at 0
        "edge,value\n0,\n",                   # no cells
        "edge,value\n0,\n1,\n",               # missing cell value
        "edge,value\n0,\nx,1\n",              # bad edge
        "edge,value\n0,\n1,zz\n",             # bad value
        "edge,value\n0,\n1,1,9\n",            # too many columns
        "edge,value\n0,\n2,1\n1,1\n",         # edges must increase
    ])
    def test_malformed_inputs(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(MalformedCSVError):
            read_step_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MalformedCSVError):
            read_step_csv(tmp_path / "nope.csv")

    @pytest.mark.parametrize("text, message", [
        ("edge,value\n\n0,\n\n\n1,abc\n", "line 6: bad value 'abc'"),
        ("\nedge,value\n0,\n1,1\n\nx,2\n", "line 6: bad edge 'x'"),
        ("edge,value\n0,\n\n1,\n", "line 4: missing cell value"),
        ("edge,value\n \n0,\n1,1,9\n", "line 4: expected 'edge,value'"),
    ])
    def test_errors_name_the_physical_line(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(MalformedCSVError, match=f"^{message}"):
            read_step_csv(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("\nedge,value\n\n0,\n  \n1,1\n\n2,-0.5\n\n", encoding="utf-8")
        g = read_step_csv(path)
        assert g.grid.edges.tolist() == [0.0, 1.0, 2.0] and g.values.tolist() == [1.0, -0.5]

    def test_text_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"edge,value\n0,\n1,\xe9\n")
        with pytest.raises(MalformedCSVError, match="cannot read"):
            read_step_csv(path)
