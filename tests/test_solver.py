"""Exact enumeration, branch and bound, and the tabu heuristic."""

import numpy as np
import pytest

from conftest import brute_force_max, random_instance
from qrobust import (
    QuboInstance,
    evaluate,
    one_flip_gain,
    solve,
    solve_exact,
    solve_heuristic,
)
from qrobust.solver import (
    BUDGET_EXHAUSTED,
    HEURISTIC,
    PROVEN_OPTIMAL,
    SolverConfig,
)


class TestOneFlipGain:
    def test_from_empty_neighborhood(self, demo5):
        assert one_flip_gain(demo5, (0, 0, 0, 0, 0), 3) == 100.0

    def test_matches_evaluate_difference(self, demo5):
        rng = np.random.default_rng(1)
        for _ in range(20):
            bits = [int(b) for b in rng.integers(0, 2, size=5)]
            i = int(rng.integers(0, 5))
            flipped = list(bits)
            flipped[i] = 1 - flipped[i]
            assert one_flip_gain(demo5, bits, i) == evaluate(demo5, flipped) - evaluate(demo5, bits)

    def test_involution(self, demo5):
        bits = (0, 1, 0, 1, 1)
        flipped = (0, 0, 0, 1, 1)
        assert one_flip_gain(demo5, bits, 1) + one_flip_gain(demo5, flipped, 1) == 0.0

    def test_index_out_of_range(self, demo5):
        with pytest.raises(ValueError):
            one_flip_gain(demo5, (0,) * 5, 9)


class TestSolveExact:
    def test_demo5(self, demo5):
        out = solve_exact(demo5)
        assert out.status == PROVEN_OPTIMAL
        assert out.solution.value == 288.0
        assert out.solution.bits == (0, 1, 0, 1, 1)

    def test_single_negative_diagonal(self):
        out = solve_exact(QuboInstance(1, {(0, 0): -5}))
        assert out.solution.value == 0.0
        assert out.solution.bits == (0,)

    def test_two_variable(self):
        out = solve_exact(QuboInstance(2, {(0, 0): 1, (1, 1): 2, (0, 1): -3}))
        assert out.solution.value == 2.0
        assert out.solution.bits == (0, 1)

    def test_tie_goes_to_first_in_gray_order(self):
        # both single-variable assignments score 5; Gray order visits
        # (0,0), (1,0), (1,1), (0,1), so (1,0) wins
        inst = QuboInstance(2, {(0, 0): 5, (1, 1): 5, (0, 1): -5})
        out = solve_exact(inst)
        assert out.solution.value == 5.0
        assert out.solution.bits == (1, 0)

    def test_branch_and_bound_matches_enumeration(self):
        rng = np.random.default_rng(42)
        cases = []
        for t in range(40):
            n = int(rng.integers(6, 17))
            cases.append(random_instance(rng, n, [0.1, 0.5, 1.0][t % 3]))
        # zero diagonals (the weak fixing rules) and isolated all-zero
        # variables (free under the rule), under one-signed and mixed pairs
        rng = np.random.default_rng(43)
        for t in range(12):
            n = int(rng.integers(13, 17))
            base = random_instance(rng, n, [0.3, 0.6, 1.0][t % 3])
            zero_diag = rng.random(n) < 0.5
            isolated = set(rng.choice(n, size=1 + t % 3, replace=False).tolist())
            sign = (1.0, -1.0, 0.0)[t // 4]  # 0.0 keeps the mixed signs
            coeffs = {}
            for (i, j), v in base.coefficients.items():
                if i in isolated or j in isolated or (i == j and zero_diag[i]):
                    continue
                coeffs[(i, j)] = sign * abs(v) if sign and i != j else v
            cases.append(QuboInstance(n, coeffs))
        for inst in cases:
            oracle = brute_force_max(inst)
            enum = solve_exact(inst, SolverConfig(time_budget=None))
            bnb = solve_exact(inst, SolverConfig(time_budget=None, enum_threshold=5))
            assert enum.solution.value == oracle
            assert bnb.solution.value == oracle
            assert bnb.status == PROVEN_OPTIMAL
            assert evaluate(inst, bnb.solution.bits) == bnb.solution.value

    def test_budget_exhaustion_is_a_status(self):
        rng = np.random.default_rng(9)
        inst = random_instance(rng, 34, 0.8)
        out = solve_exact(inst, SolverConfig(enum_threshold=5, time_budget=1e-4))
        assert out.status in (PROVEN_OPTIMAL, BUDGET_EXHAUSTED)
        assert evaluate(inst, out.solution.bits) == out.solution.value


class TestSolveHeuristic:
    def test_reaches_demo5_optimum(self, demo5):
        out = solve_heuristic(demo5, SolverConfig(restarts=5, seed=3))
        assert out.status == HEURISTIC
        assert out.solution.value == 288.0

    def test_all_negative_stays_at_zero(self):
        inst = QuboInstance(4, {(i, i): -3.0 for i in range(4)})
        out = solve_heuristic(inst, SolverConfig(restarts=2, seed=1))
        assert out.solution.value == 0.0
        assert out.solution.bits == (0, 0, 0, 0)

    def test_deterministic_in_seed(self):
        rng = np.random.default_rng(13)
        inst = random_instance(rng, 30, 0.5)
        a = solve_heuristic(inst, SolverConfig(restarts=4, seed=77))
        b = solve_heuristic(inst, SolverConfig(restarts=4, seed=77))
        assert a.solution == b.solution
        assert a.nodes_or_iterations == b.nodes_or_iterations

    def test_usually_matches_exact_on_small_instances(self):
        rng = np.random.default_rng(14)
        hits = 0
        for t in range(30):
            n = int(rng.integers(6, 15))
            inst = random_instance(rng, n, [0.1, 0.5, 1.0][t % 3])
            h = solve_heuristic(inst, SolverConfig(restarts=20, seed=100 + t))
            hits += h.solution.value == brute_force_max(inst)
        assert hits >= 29

    def test_terminates_on_float_coefficients(self):
        # near-tie float landscapes must not stall the walk
        rng = np.random.default_rng(15)
        coeffs = {}
        for i in range(40):
            for j in range(i, 40):
                if rng.random() < 0.2:
                    coeffs[(i, j)] = float(rng.normal()) * 1.05
        inst = QuboInstance(40, coeffs)
        out = solve_heuristic(inst, SolverConfig(restarts=3, seed=2, time_budget=None))
        assert evaluate(inst, out.solution.bits) == out.solution.value


class TestSolveDispatch:
    def test_auto_small_is_exact(self, demo5):
        out = solve(demo5)
        assert out.status == PROVEN_OPTIMAL
        assert out.solution.value == 288.0

    def test_auto_large_returns_consistent_solution(self):
        rng = np.random.default_rng(16)
        inst = random_instance(rng, 30, 0.5)
        out = solve(inst, SolverConfig(time_budget=1.0))
        assert out.status in (PROVEN_OPTIMAL, HEURISTIC, BUDGET_EXHAUSTED)
        assert evaluate(inst, out.solution.bits) == out.solution.value

    def test_mode_heuristic_forced(self, demo5):
        out = solve(demo5, SolverConfig(mode="heuristic", restarts=3, seed=5))
        assert out.status == HEURISTIC

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(mode="simplex")
        with pytest.raises(ValueError):
            SolverConfig(restarts=0)
        with pytest.raises(ValueError):
            SolverConfig(enum_threshold=0)
        with pytest.raises(ValueError):
            SolverConfig(tabu_tenure=-1)
