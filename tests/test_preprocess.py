"""Fixing rules, reduction identity and sensitivity ranges."""

import itertools

import numpy as np
import pytest

from conftest import brute_force_optima, random_instance
from qrobust import (
    QuboInstance,
    evaluate,
    fix_slack,
    fix_variables,
    pair_slack,
    positive_sum_bound,
    reduce_instance,
    sensitivity_report,
)
from qrobust.preprocess import merge_assignment


class TestFixSlack:
    def test_demo5_dominant_variable(self, demo5):
        assert fix_slack(demo5, 3) == 8.0

    def test_demo5_all_rows(self, demo5):
        assert [fix_slack(demo5, i) for i in range(5)] == [-130.0, -60.0, -190.0, 8.0, -142.0]

    def test_zero_row(self):
        inst = QuboInstance(2, {(1, 1): 3.0})
        assert fix_slack(inst, 0) == 0.0

    def test_recessive_slack_sign(self):
        # diagonal -10 against doubled positive sum 8: pinned at zero, slack -2
        inst = QuboInstance(2, {(0, 0): -10.0, (0, 1): 4.0})
        assert fix_slack(inst, 0) == -2.0

    def test_index_out_of_range(self, demo5):
        with pytest.raises(ValueError):
            fix_slack(demo5, 5)


class TestPairSlack:
    def test_demo5_pair(self, demo5):
        assert pair_slack(demo5, 3, 2) == 4.0

    def test_independent_of_partner(self, demo5):
        assert pair_slack(demo5, 3, 0) == 4.0

    def test_requires_strict_dominance(self, demo5):
        with pytest.raises(ValueError):
            pair_slack(demo5, 1, 2)

    def test_boundary_slack_rejected(self):
        # slack exactly zero: 10 + 2*(-5)
        inst = QuboInstance(2, {(0, 0): 10.0, (0, 1): -5.0})
        with pytest.raises(ValueError):
            pair_slack(inst, 0, 1)


class TestReduce:
    def test_demo5_fold_to_one(self, demo5):
        reduced, constant = reduce_instance(demo5, [(3, 1)])
        assert constant == 100.0
        assert [reduced.diagonal(i) for i in range(4)] == [20.0, 90.0, 50.0, 98.0]
        # off-diagonals among survivors unchanged
        assert reduced.coefficients[(0, 1)] == -75.0
        assert reduced.coefficients[(2, 3)] == -120.0

    def test_empty_assignment_is_identity(self, demo5):
        reduced, constant = reduce_instance(demo5, [])
        assert constant == 0.0
        assert reduced.coefficients == demo5.coefficients

    def test_drop_to_zero(self, demo5):
        reduced, constant = reduce_instance(demo5, [(4, 0)])
        assert reduced.n == 4
        assert constant == 0.0
        assert reduced.diagonal(2) == 100.0

    def test_duplicate_rejected(self, demo5):
        with pytest.raises(ValueError):
            reduce_instance(demo5, [(1, 0), (1, 1)])

    def test_identity_on_all_completions(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(3, 9))
            inst = random_instance(rng, n, 0.7)
            fixed = [(i, int(rng.integers(0, 2))) for i in range(n) if rng.random() < 0.4]
            reduced, constant = reduce_instance(inst, fixed)
            survivors = sorted(set(range(n)) - {i for i, _ in fixed})
            for completion in itertools.product((0, 1), repeat=len(survivors)):
                merged = merge_assignment(n, fixed, survivors, completion)
                assert evaluate(inst, merged) == constant + evaluate(reduced, completion)


class TestFixVariables:
    def test_demo5(self, demo5):
        report = fix_variables(demo5)
        assert report.assignments == ((3, 1),)
        assert report.deltas == (8.0,)
        assert report.constant == 100.0
        assert report.reduced.n == 4
        assert report.rounds == 2
        assert report.index_map == (0, 1, 2, 4)
        assert [report.reduced.diagonal(i) for i in range(4)] == [20.0, 90.0, 50.0, 98.0]

    def test_demo5_fix_holds_in_every_optimum(self, demo5):
        _best, winners = brute_force_optima(demo5)
        assert all(bits[3] == 1 for bits in winners)

    def test_all_positive_fixes_everything(self):
        inst = QuboInstance(3, {(0, 0): 1, (1, 1): 2, (2, 2): 3, (0, 1): 4, (0, 2): 5, (1, 2): 6})
        report = fix_variables(inst)
        assert sorted(report.assignments) == [(0, 1), (1, 1), (2, 1)]
        assert report.reduced.n == 0
        assert report.constant == positive_sum_bound(inst)

    def test_all_negative_fixes_everything_to_zero(self):
        inst = QuboInstance(3, {(0, 0): -1, (1, 1): -2, (2, 2): -3, (0, 1): -4, (1, 2): -6})
        report = fix_variables(inst)
        assert sorted(report.assignments) == [(0, 0), (1, 0), (2, 0)]
        assert report.constant == 0.0
        assert report.reduced.n == 0

    def test_nothing_fixable_single_round(self):
        inst = QuboInstance(2, {(0, 0): 1.0, (0, 1): -5.0, (1, 1): 1.0})
        report = fix_variables(inst)
        assert report.assignments == ()
        assert report.rounds == 1

    def test_soundness_on_random_instances(self):
        rng = np.random.default_rng(6)
        for _ in range(120):
            n = int(rng.integers(3, 13))
            inst = random_instance(rng, n, float(rng.choice([0.2, 0.6, 1.0])))
            report = fix_variables(inst)
            best, winners = brute_force_optima(inst)
            if report.reduced.n:
                reduced_best, _ = brute_force_optima(report.reduced)
            else:
                reduced_best = 0.0
            assert report.constant + reduced_best == best
            if report.assignments and all(report.strict):
                for i, b in report.assignments:
                    assert all(w[i] == b for w in winners)

    def test_monotone_threshold(self, demo5):
        # lowering the dominant diagonal by exactly its slack lands on the
        # boundary: slack 0 and no longer fixable under the strict rule
        coeffs = dict(demo5.coefficients)
        coeffs[(3, 3)] -= 8.0
        boundary = QuboInstance(5, coeffs)
        assert fix_slack(boundary, 3) == 0.0
        report = fix_variables(boundary)
        assert (3, 1) not in report.assignments


def test_results_do_not_depend_on_coefficient_order():
    # the doubled negative row sum of variable 0 is -1.2000000000000002 when
    # summed as -0.1, -0.2, -0.3 and -1.2 in the reverse order
    coeffs = {(0, 0): 1.2000000000000002, (0, 1): -0.1, (0, 2): -0.2, (0, 3): -0.3}
    forward = QuboInstance(4, coeffs)
    backward = QuboInstance(4, dict(reversed(list(coeffs.items()))))
    assert [fix_slack(forward, i) for i in range(4)] == [fix_slack(backward, i) for i in range(4)]
    assert sensitivity_report(forward, 0.5) == sensitivity_report(backward, 0.5)
    a, b = fix_variables(forward), fix_variables(backward)
    assert (a.assignments, a.strict, a.deltas, a.constant, a.rounds, a.index_map) == (
        b.assignments, b.strict, b.deltas, b.constant, b.rounds, b.index_map
    )


class TestSensitivityReport:
    def test_demo5_strict(self, demo5):
        report = sensitivity_report(demo5, 0.0)
        fixable = [r for r in report.records if r.fixable != "none"]
        assert len(fixable) == 1
        assert fixable[0].index == 3
        assert fixable[0].fixable == "one"
        assert fixable[0].delta == 8.0

    def test_demo5_near_threshold(self, demo5):
        report = sensitivity_report(demo5, 70.0)
        near = [r.index for r in report.records if r.near_threshold]
        assert near == [1]

    def test_empty_instance(self):
        report = sensitivity_report(QuboInstance(3, {}), 0.0)
        assert all(r.delta == 0.0 and r.fixable == "none" for r in report.records)

    def test_negative_tolerance_rejected(self, demo5):
        with pytest.raises(ValueError):
            sensitivity_report(demo5, -1.0)

    def test_json_rows(self, demo5):
        rows = sensitivity_report(demo5, 0.0).to_json_rows()
        assert rows[3] == {"index": 3, "delta": 8.0, "fixable": "one", "near": False}
