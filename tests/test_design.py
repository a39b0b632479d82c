"""Difference sets, run counts, Hadamard designs and scenario instantiation."""

import json
import pickle

import numpy as np
import pytest

from conftest import random_instance
from qrobust import (
    QuboInstance,
    ScenarioGenerators,
    average_instance,
    build_design,
    differing_elements,
    instantiate_scenario,
    perturbed_generators,
    random_scenario,
    run_count,
)
from qrobust.design import (
    DifferenceSet,
    design_from_csv,
    design_to_csv,
    generators_from_json,
    generators_to_json,
)
from qrobust.pipeline import scenario_instances


class TestDifferingElements:
    def test_business_fixture_excludes_constant_entries(self, business_gen):
        diff = differing_elements(business_gen)
        # (1, 1) has equal levels and the exclusion ties are constant too
        assert diff.d == 22
        assert (1, 1) not in diff.positions
        assert (0, 1) not in diff.positions
        assert diff.positions == tuple(sorted(diff.positions))

    def test_equal_levels_everywhere(self):
        gen = ScenarioGenerators(2, {(0, 0): (3, 3), (0, 1): (-1, -1)})
        assert differing_elements(gen).d == 0

    def test_single_differing_diagonal(self):
        gen = ScenarioGenerators(2, {(1, 1): (4, 2)})
        assert differing_elements(gen).positions == ((1, 1),)

    def test_entries_kept_in_index_order(self, business_gen):
        assert list(business_gen.entries) == sorted(business_gen.entries)


class TestScenarioGenerators:
    def test_mapping_and_array_forms_agree(self):
        mapping = ScenarioGenerators(3, {(2, 2): (1.0, 2.0), (0, 1): (0.0, -1.0), (1, 1): (0, 0)})
        arrays = ScenarioGenerators(3, ([2, 0, 1], [2, 1, 1], [1.0, 0.0, 0.0], [2.0, -1.0, 0.0]))
        assert mapping == arrays
        assert arrays.entries == {(0, 1): (0.0, -1.0), (2, 2): (1.0, 2.0)}

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_levels(self, bad):
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            ScenarioGenerators(2, {(0, 0): (1.0, 2.0), (0, 1): (1.0, bad)})

    def test_rejects_out_of_range_and_lower_triangle(self):
        for key in [(1, 0), (0, 2), (-1, 0)]:
            with pytest.raises(ValueError, match="out of range"):
                ScenarioGenerators(2, {key: (1.0, 2.0)})

    def test_entries_are_read_only(self, business_gen):
        with pytest.raises(TypeError):
            business_gen.entries[(0, 0)] = (1.0, 2.0)
        with pytest.raises(ValueError):
            business_gen.a[0] = 1.0

    def test_pickle_round_trip(self, business_gen):
        again = pickle.loads(pickle.dumps(business_gen))
        assert again == business_gen and again.entries == business_gen.entries
        assert not again.b.flags.writeable


class TestRunCount:
    def test_values(self):
        expected = {0: 1, 1: 4, 2: 4, 3: 8, 22: 64, 23: 64, 123: 256, 130: 512}
        for d, k in expected.items():
            assert run_count(d) == k, f"run_count({d})"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            run_count(-1)

    def test_always_leaves_regression_dof(self):
        for d in range(1, 200):
            assert run_count(d) >= d + 1


class TestBuildDesign:
    def test_order_four_columns(self):
        design = build_design(4, 3)
        cols = [tuple(int(v) for v in design.levels[:, m]) for m in range(3)]
        assert cols == [(1, -1, 1, -1), (1, 1, -1, -1), (1, -1, -1, 1)]

    def test_balance_and_orthogonality(self):
        for d in (1, 2, 3, 5, 23, 130):
            design = build_design(run_count(d), d)
            assert design.is_balanced(), f"d={d}"
            assert design.is_orthogonal(), f"d={d}"

    def test_column_sums_zero(self):
        design = build_design(64, 23)
        assert np.all(design.levels.sum(axis=0) == 0)

    def test_first_run_sits_at_the_a_levels(self):
        # Hadamard row 0 is all ones, so run 0 is always the level_a matrix
        design = build_design(64, 23)
        assert np.all(design.levels[0] == 1)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            build_design(6, 2)

    def test_rejects_too_many_factors(self):
        with pytest.raises(ValueError):
            build_design(4, 4)

    def test_rejects_zero_factors(self):
        with pytest.raises(ValueError):
            build_design(4, 0)


class TestInstantiate:
    def test_all_plus_is_the_a_matrix(self, business_gen):
        diff = differing_elements(business_gen)
        inst = instantiate_scenario(business_gen, diff, [1] * diff.d)
        for pos, (a, _b) in business_gen.entries.items():
            assert inst.coefficients.get(pos, 0.0) == a

    def test_all_minus_is_the_b_matrix(self, business_gen):
        diff = differing_elements(business_gen)
        inst = instantiate_scenario(business_gen, diff, [-1] * diff.d)
        for pos, (_a, b) in business_gen.entries.items():
            assert inst.coefficients.get(pos, 0.0) == b

    def test_single_raised_position(self, business_gen):
        diff = differing_elements(business_gen)
        row = [-1] * diff.d
        row[diff.positions.index((5, 8))] = 1
        inst = instantiate_scenario(business_gen, diff, row)
        assert inst.coefficients[(5, 8)] == 9.0
        assert inst.coefficients[(3, 8)] == -7.0

    def test_foldover_rows_sum_to_both_levels(self, business_gen):
        diff = differing_elements(business_gen)
        rng = np.random.default_rng(4)
        row = rng.choice([-1, 1], size=diff.d)
        left = instantiate_scenario(business_gen, diff, row)
        right = instantiate_scenario(business_gen, diff, -row)
        for pos in diff.positions:
            a, b = business_gen.entries[pos]
            assert left.coefficients.get(pos, 0.0) + right.coefficients.get(pos, 0.0) == a + b

    def test_rows_of_one_design_match_single_instantiation(self, business_gen):
        diff, k, design, instances = scenario_instances(business_gen)
        for r in range(k):
            assert instances[r] == instantiate_scenario(business_gen, diff, design.levels[r])

    def test_scenarios_share_the_generators_support(self):
        # no level is zero, so every scenario keeps every position
        gen = perturbed_generators(random_instance(np.random.default_rng(5), 12, 0.5), 0.1)
        _diff, k, _design, instances = scenario_instances(gen)
        assert k > 1
        for inst in instances:
            assert inst.rows is gen.rows and inst.cols is gen.cols
        # pickle stores a shared array once
        apart = [QuboInstance(gen.n, (gen.rows.copy(), gen.cols.copy(), i.vals)) for i in instances]
        assert len(pickle.dumps(instances)) < len(pickle.dumps(apart))

    def test_a_zero_level_is_dropped_from_its_scenarios_only(self):
        gen = ScenarioGenerators(2, {(0, 0): (0.0, 3.0), (0, 1): (-1.0, -1.0), (1, 1): (2.0, 5.0)})
        _diff, _k, design, instances = scenario_instances(gen)
        for level, inst in zip(design.levels[:, 0], instances):
            if level == 1:  # level a of (0, 0) is zero
                assert inst.rows is not gen.rows and (0, 0) not in inst.coefficients
            else:
                assert inst.rows is gen.rows and inst.coefficients[(0, 0)] == 3.0

    def test_subset_difference_set_keeps_level_a_elsewhere(self, business_gen):
        diff = DifferenceSet(positions=((0, 0), (5, 8)))
        inst = instantiate_scenario(business_gen, diff, [-1, -1])
        assert inst.coefficients[(0, 0)] == 2.0 and inst.coefficients[(5, 8)] == -5.0
        assert inst.coefficients[(2, 2)] == -3.0  # level a

    def test_unknown_position_rejected(self, business_gen):
        with pytest.raises(ValueError):
            instantiate_scenario(business_gen, DifferenceSet(positions=((4, 5),)), [1])

    def test_row_length_checked(self, business_gen):
        diff = differing_elements(business_gen)
        with pytest.raises(ValueError):
            instantiate_scenario(business_gen, diff, [1] * (diff.d - 1))


class TestAverageInstance:
    def test_midpoints(self, business_gen):
        inst = average_instance(business_gen)
        assert inst.coefficients[(0, 0)] == -1.5
        assert inst.coefficients[(1, 1)] == 2.0
        assert inst.coefficients[(0, 1)] == -100.0

    def test_all_zero_generators(self):
        gen = ScenarioGenerators(3, {})
        assert average_instance(gen).nnz == 0


class TestPerturbedGenerators:
    def test_positive_coefficient(self):
        gen = perturbed_generators(QuboInstance(1, {(0, 0): 100}), 0.05)
        assert gen.entries[(0, 0)] == (105.0, 95.0)

    def test_negative_coefficient(self):
        gen = perturbed_generators(QuboInstance(2, {(0, 1): -40}), 0.05)
        assert gen.entries[(0, 1)] == (-42.0, -38.0)

    def test_zero_fraction_rejected(self):
        with pytest.raises(ValueError):
            perturbed_generators(QuboInstance(1, {(0, 0): 1}), 0.0)

    def test_zeros_stay_out_of_the_difference_set(self):
        inst = QuboInstance(3, {(0, 0): 10})
        gen = perturbed_generators(inst, 0.1)
        assert differing_elements(gen).positions == ((0, 0),)


class TestRandomScenario:
    def test_within_level_intervals(self, business_gen):
        diff = differing_elements(business_gen)
        for seed in range(25):
            inst = random_scenario(business_gen, seed)
            for pos in diff.positions:
                a, b = business_gen.entries[pos]
                v = inst.coefficients.get(pos, 0.0)
                assert min(a, b) <= v <= max(a, b)

    def test_equal_level_positions_fixed(self, business_gen):
        inst = random_scenario(business_gen, 0)
        assert inst.coefficients[(0, 1)] == -100.0
        assert inst.coefficients[(1, 1)] == 2.0

    def test_draws_match_one_scalar_draw_per_position(self, business_gen):
        # the per-position loop random_scenario used before it drew a vector
        for seed in range(10):
            rng = np.random.default_rng(seed)
            want = {pos: a for pos, (a, _b) in business_gen.entries.items()}
            for pos in differing_elements(business_gen).positions:
                a, b = business_gen.entries[pos]
                want[pos] = float(rng.uniform(min(a, b), max(a, b)))
            want = {pos: v for pos, v in want.items() if v != 0.0}
            assert random_scenario(business_gen, seed).coefficients == want

    def test_deterministic_in_seed(self, business_gen):
        assert random_scenario(business_gen, 9).coefficients == random_scenario(
            business_gen, 9
        ).coefficients

    def test_degenerate_generators(self):
        gen = ScenarioGenerators(2, {(0, 0): (5, 5)})
        inst = random_scenario(gen, 1)
        assert inst.coefficients == {(0, 0): 5.0}


class TestSerialization:
    def test_generators_json_roundtrip(self, business_gen):
        doc = json.loads(json.dumps(generators_to_json(business_gen)))
        again = generators_from_json(doc)
        assert again.n == business_gen.n
        assert again.entries == business_gen.entries

    def test_design_csv_roundtrip(self, business_gen):
        diff = differing_elements(business_gen)
        design = build_design(run_count(diff.d), diff.d)
        text = design_to_csv(design, diff)
        parsed, parsed_diff = design_from_csv(text)
        assert parsed_diff.positions == diff.positions
        assert np.array_equal(parsed.levels, design.levels)

    def test_malformed_generators_rejected(self):
        with pytest.raises(ValueError):
            generators_from_json({"entries": []})
