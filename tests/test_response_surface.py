"""Coded factors, regression fit, estimates and bound comparison."""

import json
import math

import numpy as np
import pytest

from qrobust import (
    QuboInstance,
    average_instance,
    build_design,
    code_scenario,
    compare_bounds,
    differing_elements,
    estimate,
    fit_model,
    instantiate_scenario,
    run_count,
    upper_bound,
)
from qrobust.design import DesignMatrix, DifferenceSet
from qrobust.response_surface import (
    SurfaceModel,
    comparison_to_csv,
    model_from_json,
    model_to_json,
)
from qrobust.solver import SolverConfig

EXACT = SolverConfig(mode="exact")


def toy_model(intercept=5.0, beta=(2.0, -1.0), se=0.0):
    return SurfaceModel(
        intercept=intercept,
        coefficients=np.asarray(beta),
        standard_error=se,
        dof=5,
        diff=DifferenceSet(positions=((0, 0), (0, 1))),
    )


class TestCodeScenario:
    def test_a_matrix_codes_to_plus_one(self, business_gen):
        diff = differing_elements(business_gen)
        inst = instantiate_scenario(business_gen, diff, [1] * diff.d)
        assert np.array_equal(code_scenario(business_gen, diff, inst), np.ones(diff.d))

    def test_midpoint_codes_to_zero(self, business_gen):
        diff = differing_elements(business_gen)
        inst = average_instance(business_gen)
        assert np.array_equal(code_scenario(business_gen, diff, inst), np.zeros(diff.d))

    def test_specific_position_midpoint(self, business_gen):
        diff = differing_elements(business_gen)
        inst = average_instance(business_gen)
        coeffs = dict(inst.coefficients)
        coeffs[(5, 8)] = 2.0  # (9 + -5) / 2
        z = code_scenario(business_gen, diff, QuboInstance(9, coeffs))
        assert z[diff.positions.index((5, 8))] == 0.0

    def test_out_of_interval_rejected(self, business_gen):
        diff = differing_elements(business_gen)
        inst = average_instance(business_gen)
        coeffs = dict(inst.coefficients)
        coeffs[(5, 8)] = 11.0
        with pytest.raises(ValueError):
            code_scenario(business_gen, diff, QuboInstance(9, coeffs))

    def test_constant_position_mismatch_rejected(self, business_gen):
        diff = differing_elements(business_gen)
        inst = average_instance(business_gen)
        coeffs = dict(inst.coefficients)
        coeffs[(0, 1)] = -50.0  # the exclusion tie is fixed at -100
        with pytest.raises(ValueError):
            code_scenario(business_gen, diff, QuboInstance(9, coeffs))


    def test_positions_off_the_generator_support_rejected(self, business_gen):
        diff = differing_elements(business_gen)
        coeffs = dict(average_instance(business_gen).coefficients)
        coeffs[(4, 5)] = 1.0
        with pytest.raises(ValueError, match=r"\(4, 5\) unknown"):
            code_scenario(business_gen, diff, QuboInstance(9, coeffs))
        outside = DifferenceSet(positions=((0, 0), (4, 5)))
        with pytest.raises(ValueError, match=r"\(4, 5\) unknown"):
            code_scenario(business_gen, outside, average_instance(business_gen))


class TestFitModel:
    def test_exact_linear_recovery(self):
        design = build_design(8, 2)
        diff = DifferenceSet(positions=((0, 0), (0, 1)))
        z = design.levels.astype(float)
        y = 5.0 + 2.0 * z[:, 0] - 1.0 * z[:, 1]
        model = fit_model(design, y, diff)
        assert model.intercept == 5.0
        assert np.allclose(model.coefficients, [2.0, -1.0], atol=1e-12)
        assert model.standard_error <= 1e-12
        assert model.dof == 5

    def test_constant_optima(self):
        design = build_design(8, 3)
        diff = DifferenceSet(positions=((0, 0), (1, 1), (2, 2)))
        model = fit_model(design, [7.5] * 8, diff)
        assert model.intercept == 7.5
        assert np.all(model.coefficients == 0.0)
        assert model.standard_error == 0.0

    def test_shortcut_agrees_with_generic_least_squares(self):
        rng = np.random.default_rng(8)
        design = build_design(32, 9)
        diff = DifferenceSet(positions=tuple((0, j) for j in range(9)))
        y = rng.normal(size=32) * 10.0
        model = fit_model(design, y, diff)
        full = np.column_stack([np.ones(32), design.levels.astype(float)])
        coef, *_ = np.linalg.lstsq(full, y, rcond=None)
        assert abs(model.intercept - coef[0]) <= 1e-9 * max(1.0, abs(coef[0]))
        assert np.allclose(model.coefficients, coef[1:], rtol=1e-9, atol=1e-9)

    def test_sums_run_in_a_fixed_order(self):
        # every sum of the closed form equals a pure-Python loop bit for bit
        rng = np.random.default_rng(9)
        for k, d in ((8, 3), (32, 9), (64, 22), (128, 40)):
            design = build_design(k, d)
            diff = DifferenceSet(positions=tuple((0, j) for j in range(d)))
            y = rng.normal(size=k) * 10.0 ** rng.integers(-3, 4, size=k)
            model = fit_model(design, y, diff)
            x = design.levels.tolist()
            beta = []
            for m in range(d):
                total = 0.0
                for r in range(k):
                    total += float(x[r][m]) * float(y[r])
                beta.append(total / k)
            assert model.coefficients.tolist() == beta
            squares = 0.0
            for r in range(k):
                fitted = 0.0
                for m in range(d):
                    fitted += float(x[r][m]) * beta[m]
                residual = float(y[r]) - (model.intercept + fitted)
                squares += residual * residual
            assert model.standard_error == math.sqrt(squares / (k - d - 1))
            z = rng.uniform(-1.0, 1.0, size=d)
            total = 0.0
            for m in range(d):
                total += beta[m] * float(z[m])
            assert estimate(model, z) == model.intercept + total

    def test_non_orthogonal_design_takes_least_squares(self):
        # a +-1 design whose columns are not orthogonal goes to lstsq; its
        # fit must solve the normal equations (X^t X) c = X^t y
        rng = np.random.default_rng(10)
        levels = np.where(rng.random((12, 3)) < 0.5, -1, 1)
        levels[:, 2] = levels[:, 0]
        levels[0, 2] = -levels[0, 0]  # columns 0 and 2 nearly equal
        design = DesignMatrix(k=12, d=3, levels=levels)
        assert not design.is_orthogonal()
        diff = DifferenceSet(positions=((0, 0), (0, 1), (1, 1)))
        y = rng.normal(size=12) * 5.0
        model = fit_model(design, y, diff)
        full = np.column_stack([np.ones(12), levels.astype(float)])
        want = np.linalg.solve(full.T @ full, full.T @ y)
        got = np.concatenate([[model.intercept], model.coefficients])
        assert np.allclose(got, want, rtol=1e-9, atol=1e-9)
        residuals = y - full @ want
        se = math.sqrt(residuals @ residuals / 8)
        assert math.isclose(model.standard_error, se, rel_tol=1e-9)

    def test_insufficient_dof_rejected(self):
        design = build_design(4, 3)
        diff = DifferenceSet(positions=((0, 0), (1, 1), (2, 2)))
        with pytest.raises(ValueError, match="k=4, d=3"):
            fit_model(design, [1.0, 2.0, 3.0, 4.0], diff)

    def test_length_mismatch_rejected(self):
        design = build_design(8, 2)
        diff = DifferenceSet(positions=((0, 0), (0, 1)))
        with pytest.raises(ValueError):
            fit_model(design, [1.0] * 7, diff)


class TestEstimate:
    def test_centered_input_returns_intercept(self):
        assert estimate(toy_model(), [0.0, 0.0]) == 5.0

    def test_corner(self):
        assert estimate(toy_model(), [1.0, 1.0]) == 6.0

    def test_point_symmetry(self):
        model = toy_model()
        rng = np.random.default_rng(2)
        for _ in range(10):
            z = rng.uniform(-1, 1, size=2)
            assert estimate(model, z) + estimate(model, -z) == pytest.approx(10.0, abs=1e-12)

    def test_monotone_in_each_coordinate(self):
        model = toy_model()
        lo = estimate(model, [-1.0, 0.3])
        hi = estimate(model, [1.0, 0.3])
        assert hi > lo  # positive coefficient
        assert estimate(model, [0.2, 1.0]) < estimate(model, [0.2, -1.0])

    def test_length_checked(self):
        with pytest.raises(ValueError):
            estimate(toy_model(), [0.0])

    def test_range_checked(self):
        # a NaN entry compares false against both ends of the range
        for z in ([0.0, 1.5], [0.0, float("nan")]):
            with pytest.raises(ValueError):
                estimate(toy_model(), z)
            with pytest.raises(ValueError):
                upper_bound(toy_model(), z)


class TestUpperBound:
    def test_zero_error_equals_estimate(self):
        model = toy_model(se=0.0)
        assert upper_bound(model, [0.5, 0.5]) == estimate(model, [0.5, 0.5])

    def test_three_sigma_offset(self):
        model = toy_model(se=2.0)
        assert upper_bound(model, [0.0, 0.0]) == 5.0 + 6.0


class TestCompareBounds:
    def fit_business(self, business_gen):
        diff = differing_elements(business_gen)
        design = build_design(run_count(diff.d), diff.d)
        optima = []
        from qrobust import solve_exact

        for r in range(design.k):
            inst = instantiate_scenario(business_gen, diff, design.levels[r])
            optima.append(solve_exact(inst, EXACT).solution.value)
        return fit_model(design, optima, diff)

    def test_bounds_and_sorting(self, business_gen):
        model = self.fit_business(business_gen)
        comparison = compare_bounds(model, business_gen, 40, seed=11, solver_config=EXACT)
        assert len(comparison.rows) == 40
        gaps = [r.g_gap_pct for r in comparison.rows if r.g_gap_pct is not None]
        assert gaps == sorted(gaps, reverse=True)
        for row in comparison.rows:
            assert row.proven
            assert row.g_bound == row.g_estimate + 3.0 * model.standard_error
            assert row.possum_bound >= row.optimum

    def test_rounding_noise_does_not_reorder_the_rows(self):
        # positive entries only: all ones is optimal in every scenario, so
        # the optimum is linear in the levels, the fit is exact and every
        # gap is rounding noise near 1e-14 %
        from dataclasses import replace

        from qrobust import ScenarioGenerators, run_robust_analysis

        gen = ScenarioGenerators(4, {(0, 0): (0.3, 1.7), (1, 1): (2.1, 0.9), (0, 2): (0.7, 0.1),
                                     (2, 3): (1.3, 2.9), (3, 3): (0.2, 0.2)})
        diff = differing_elements(gen)
        _report, results = run_robust_analysis(gen, EXACT)
        model = fit_model(build_design(run_count(diff.d), diff.d), [r.value for r in results], diff)
        nudged = replace(model, coefficients=model.coefficients + 1e-13)
        orders = [
            [r.label for r in compare_bounds(m, gen, 12, seed=2, solver_config=EXACT).rows]
            for m in (model, nudged)
        ]
        assert orders[0] == orders[1] == [f"s{t}" for t in range(12)]

    def test_mean_gap_ordering(self, business_gen):
        model = self.fit_business(business_gen)
        comparison = compare_bounds(model, business_gen, 64, seed=3, solver_config=EXACT)
        g_gap, possum_gap = comparison.mean_gaps()
        assert g_gap < possum_gap

    def test_mismatched_difference_set_rejected(self, business_gen):
        with pytest.raises(ValueError):
            compare_bounds(toy_model(), business_gen, 4, seed=0, solver_config=EXACT)

    def test_degenerate_generators_give_constant_bounds(self):
        # nothing varies: an intercept-only model yields one flat bound per row
        from qrobust import ScenarioGenerators

        gen = ScenarioGenerators(2, {(0, 0): (5, 5), (1, 1): (-1, -1)})
        model = SurfaceModel(
            intercept=5.0,
            coefficients=np.zeros(0),
            standard_error=1.0,
            dof=3,
            diff=DifferenceSet(positions=()),
        )
        comparison = compare_bounds(model, gen, 5, seed=1, solver_config=EXACT)
        assert {r.g_bound for r in comparison.rows} == {8.0}
        assert {r.possum_bound for r in comparison.rows} == {5.0}
        for r in comparison.rows:
            assert r.g_bound >= r.optimum
            assert r.possum_bound >= r.optimum

    def test_dispatch_does_not_change_the_csv(self, business_gen):
        # one sweep, one branch-and-bound solve per scenario (n = 9 is above
        # the threshold), and a heuristic --mode that the bound check
        # overrides: every path proves the same optima
        model = self.fit_business(business_gen)
        configs = [
            SolverConfig(),
            SolverConfig(enum_threshold=5),
            SolverConfig(mode="heuristic"),
        ]
        csvs = [
            comparison_to_csv(compare_bounds(model, business_gen, 16, seed=4, solver_config=c))
            for c in configs
        ]
        assert csvs[1] == csvs[0] and csvs[2] == csvs[0]

    def test_csv_shape(self, business_gen):
        model = self.fit_business(business_gen)
        comparison = compare_bounds(model, business_gen, 8, seed=5, solver_config=EXACT)
        lines = comparison_to_csv(comparison).strip().splitlines()
        assert lines[0] == "scenario,optimum,g_estimate,g_bound,possum_bound,g_gap_pct,possum_gap_pct"
        assert len(lines) == 9


class TestSurfaceModel:
    @pytest.mark.parametrize("se", [-1.0, float("nan")])
    def test_a_negative_or_nan_standard_error_is_refused(self, se):
        with pytest.raises(ValueError, match="standard_error"):
            toy_model(se=se)

    @pytest.mark.parametrize(
        "fields",
        [{"intercept": float("nan")}, {"beta": (float("inf"), 1.0)}, {"beta": (1.0, float("nan"))},
         {"se": float("inf")}],
        ids=["nan-intercept", "inf-coefficient", "nan-coefficient", "inf-standard-error"],
    )
    def test_a_non_finite_number_is_refused(self, fields):
        # as model_from_json refuses it: estimate would return NaN or inf
        with pytest.raises(ValueError, match="finite"):
            toy_model(**fields)


class TestModelSerialization:
    def test_roundtrip(self, business_gen):
        diff = differing_elements(business_gen)
        design = build_design(run_count(diff.d), diff.d)
        rng = np.random.default_rng(1)
        model = fit_model(design, rng.normal(size=design.k) * 5.0, diff)
        again = model_from_json(json.loads(json.dumps(model_to_json(model))))
        assert again.intercept == model.intercept
        assert np.array_equal(again.coefficients, model.coefficients)
        assert again.standard_error == model.standard_error
        assert again.dof == model.dof
        assert again.diff.positions == model.diff.positions

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            model_from_json({"intercept": 1.0})
