"""Fixing rules, reduction identity and sensitivity ranges."""

import itertools

import numpy as np
import pytest

from conftest import (
    _fold,
    _fold_fixed,
    brute_force_optima,
    integers,
    random_instance,
    tenths,
    uniform,
)
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
from qrobust.preprocess import _scan, _split, merge_assignment
from qrobust.qubo import _terms, _tie_tolerance


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


def rule_by_hand(instance: QuboInstance) -> list[tuple[float, int, bool]]:
    """(slack, bit, strict) per variable, read literally off the ``preprocess`` docstring.

    One variable at a time: N_i and P_i add row i's negative and positive
    off-diagonal coefficients in ascending column order and are doubled.
    Bit -1 means free.
    """
    n = instance.n
    c = [[0.0] * n for _ in range(n)]
    for (i, j), v in instance.coefficients.items():
        c[i][j] = c[j][i] = v
    out = []
    for i in range(n):
        neg = pos = 0.0
        for j in range(n):
            if j != i and c[i][j] < 0.0:
                neg += c[i][j]
            if j != i and c[i][j] > 0.0:
                pos += c[i][j]
        neg, pos = 2.0 * neg, 2.0 * pos
        d = c[i][i]
        slack = d + neg if d >= 0.0 else d + pos
        if d > 0.0 and d + neg > 0.0:  # strict dominance
            out.append((slack, 1, True))
        elif d < 0.0 and d + pos < 0.0:  # strict recessiveness
            out.append((slack, 0, True))
        elif d == 0.0 and neg == 0.0 < pos:  # weak rules for a zero diagonal
            out.append((slack, 1, False))
        elif d == 0.0 and pos == 0.0 > neg:
            out.append((slack, 0, False))
        else:  # includes a variable whose diagonal and row are all zero
            out.append((slack, -1, False))
    return out


def rule_cases(rng, count: int):
    """Random instances with zero diagonals, one-signed rows and isolated variables."""
    for t in range(count):
        n = int(rng.integers(1, 13))
        scale = (1.0, 0.1)[t % 2]  # tenths round, so the sums' order shows
        zero_diag = rng.random(n) < 0.4
        isolated = rng.random(n) < 0.15
        # a row with a sign keeps only elements of that sign
        sign = rng.choice([-1.0, 0.0, 1.0], size=n, p=[0.3, 0.4, 0.3])
        coeffs = {}
        for i in range(n):
            for j in range(i, n):
                if isolated[i] or isolated[j] or rng.random() > 0.6:
                    continue
                v = float(rng.integers(-9, 10)) * scale
                if i == j:
                    v = 0.0 if zero_diag[i] else v
                elif sign[i] and sign[j] and sign[i] != sign[j]:
                    v = 0.0
                elif sign[i] or sign[j]:
                    v = abs(v) * (sign[i] or sign[j])
                if v:
                    coeffs[(i, j)] = v
        yield QuboInstance(n, coeffs), isolated


def test_classify_matches_the_rule_read_by_hand():
    rng = np.random.default_rng(7)
    seen = set()
    for inst, isolated in rule_cases(rng, 400):
        delta, bit, strict = _scan(*_split(inst))
        got = list(zip(delta.tolist(), bit.tolist(), strict.tolist()))
        want = rule_by_hand(inst)
        assert got == want
        assert all(b == -1 for (_s, b, _st), iso in zip(want, isolated) if iso)
        seen.update((b, st) for _s, b, st in want)
    # every rule fired: strict and weak fixes at both bits, and free variables
    assert seen == {(1, True), (0, True), (1, False), (0, False), (-1, False)}


def fold_cases(rng, count: int):
    """Random instances for the fold comparison, with the kind of their data.

    Integer, uniform-float and tenths data.  Some rows are one-signed and
    some diagonals zero; others are scaled to about their row's absolute
    sum, so fixing often takes several rounds.
    """
    draws = {"integer": integers, "uniform": uniform, "tenths": tenths}
    for t in range(count):
        kind = ("integer", "uniform", "tenths")[t % 3]
        n = int(rng.integers(1, 31))
        o = np.zeros((n, n))
        for i, j in zip(*np.triu_indices(n, 1)):
            if rng.random() < (0.2, 0.5, 0.9)[t % 4 % 3]:
                o[i, j] = o[j, i] = draws[kind](rng)
        sign = rng.choice([-1.0, 0.0, 1.0], size=n, p=[0.2, 0.6, 0.2])
        for i in np.flatnonzero(sign).tolist():
            o[i] = o[:, i] = sign[i] * np.abs(o[i])
        d = np.array([draws[kind](rng) for _ in range(n)])
        big = rng.random(n) < 0.5
        scale = np.abs(o).sum(axis=1) * rng.uniform(0.5, 2.0, size=n)
        d[big] = np.sign(d[big]) * np.round(scale[big], 0 if kind == "integer" else 1)
        d[rng.random(n) < 0.15] = 0.0
        q = np.triu(o)
        q[np.diag_indices(n)] = d
        rows, cols = np.nonzero(q)
        yield QuboInstance(n, (rows, cols, q[rows, cols])), kind


def test_fold_matches_the_compacted_reference():
    # the package's masked fold against the compacted fold of ``conftest``
    rng = np.random.default_rng(8)
    rounds = []
    for inst, kind in fold_cases(rng, 1200):
        report = fix_variables(inst)
        steps, constant, survivors, d, o, _delta = _fold(*_split(inst))
        fixes = [np.concatenate(part).tolist() for part in zip(*steps)] or [[]] * 4
        assert report.assignments == tuple(zip(fixes[0], fixes[1]))
        assert (report.strict, report.deltas) == (tuple(fixes[2]), tuple(fixes[3]))
        assert report.rounds == len(steps) + 1
        assert report.index_map == tuple(survivors.tolist())
        got_d, got_o = _split(report.reduced)
        assert np.array_equal(got_d, d) and np.array_equal(got_o, o)
        tol = 0.0 if kind == "integer" else _tie_tolerance(_terms(inst))
        assert abs(report.constant - constant) <= tol
        rounds.append(len(steps))
        # reduce_instance folds given bits as the reference does
        bit = rng.integers(-1, 2, size=inst.n)
        fixed = [(i, b) for i, b in enumerate(bit.tolist()) if b >= 0]
        reduced, folded = reduce_instance(inst, fixed)
        want, _keep, want_d, want_o = _fold_fixed(*_split(inst), bit)
        got_d, got_o = _split(reduced)
        assert np.array_equal(got_d, want_d) and np.array_equal(got_o, want_o)
        assert abs(folded - want) <= tol
    # most cases fix something, and many take several rounds
    assert sum(r > 0 for r in rounds) > 1000 and sum(r > 2 for r in rounds) > 500


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
