"""Exact enumeration, branch and bound, and the tabu heuristic."""

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from conftest import _fold, brute_force_max, integers, random_instance, tenths, uniform
from qrobust import (
    QuboInstance,
    ScenarioGenerators,
    evaluate,
    one_flip_gain,
    solve,
    solve_exact,
    solve_heuristic,
)
from qrobust import pipeline, solver
from qrobust.pipeline import scenario_instances
from qrobust.preprocess import _split, merge_assignment
from qrobust.solver import (
    _LEAF_BITS,
    BUDGET_EXHAUSTED,
    HEURISTIC,
    PROVEN_OPTIMAL,
    SolverConfig,
    _enumerate,
    _greedy_ascent,
    _tie_tolerance,
    solve_batch,
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


def dense_tolerance(d: np.ndarray, o: np.ndarray) -> np.ndarray:
    """The tie tolerance of each dense leaf of a stack, over every element."""
    return _tie_tolerance(np.concatenate([d, o.reshape(len(d), -1)], axis=1).T)


def leaf_max(d: np.ndarray, o: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Value and binary index of one dense leaf's pick, as branch and bound scores it."""
    values, codes, _scanned = _enumerate(d[None], o[None], dense_tolerance(d[None], o[None]), False)
    return values, codes


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
        # the rule: the earliest assignment in Gray-code order whose computed
        # value is within the rounding bound of the computed maximum.  Both
        # single-variable assignments score 5; Gray order visits (0,0),
        # (1,0), (1,1), (0,1), so (1,0) wins
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

    def test_leaf_float_near_tie_takes_the_earlier_binary_index(self):
        # x3 is recessive and fixed at the root, leaving one 3-variable leaf
        # (enum_threshold 3 < n).  In binary order (1,0,0) scores 0.3 at
        # index 1 and (0,1,1) scores 0.1 + 0.2 = 0.30000000000000004 at
        # index 6; the leaf keeps the earlier one, as enumeration would
        coeffs = {(0, 0): 0.3, (0, 1): -1.0, (0, 2): -1.0, (1, 1): 0.1, (2, 2): 0.2, (3, 3): -5.0}
        config = SolverConfig(time_budget=None, enum_threshold=3)
        out = solve_exact(QuboInstance(4, coeffs), config)
        assert out.status == PROVEN_OPTIMAL
        assert out.solution.bits == (1, 0, 0, 0)
        assert out.solution.value == 0.3
        m = QuboInstance(3, {k: v for k, v in coeffs.items() if k != (3, 3)}).to_dense()
        d = m.diagonal().copy()
        values, picks = leaf_max(d, m - np.diag(d))
        assert (values[0], picks[0]) == (0.3, 1)  # binary index 1 is (1, 0, 0)

    def test_branch_float_near_tie_keeps_the_first_incumbent(self):
        # enumeration is off (enum_threshold 2 < n), so branch and bound
        # searches.  The greedy start is (1,0,0) at 0.3; the x0 = 0 branch
        # folds x1 and x2 to 1 with constant 0.1 + 0.2 = 0.30000000000000004,
        # within the root's tie tolerance, so the incumbent stays
        inst = QuboInstance(3, {(0, 0): 0.3, (1, 1): 0.1, (2, 2): 0.2, (0, 1): -1.0, (0, 2): -1.0})
        out = solve_exact(inst, SolverConfig(time_budget=None, enum_threshold=2))
        assert out.status == PROVEN_OPTIMAL
        assert (out.solution.bitstring, out.solution.value) == ("100", 0.3)
        assert out.solution == solve_exact(inst).solution

    def test_budget_exhaustion_is_a_status(self):
        rng = np.random.default_rng(9)
        inst = random_instance(rng, 34, 0.8)
        out = solve_exact(inst, SolverConfig(enum_threshold=5, time_budget=1e-4))
        assert out.status in (PROVEN_OPTIMAL, BUDGET_EXHAUSTED)
        assert evaluate(inst, out.solution.bits) == out.solution.value


def gray_walk(instance: QuboInstance) -> tuple[tuple[int, ...], float]:
    """First strict maximum of evaluate over all assignments in Gray-code order."""
    best_bits, best_val = None, -np.inf
    for g in range(1 << instance.n):
        code = g ^ (g >> 1)
        bits = tuple((code >> v) & 1 for v in range(instance.n))
        value = evaluate(instance, bits)
        if value > best_val:
            best_bits, best_val = bits, value
    return best_bits, best_val


def random_generators(rng, n: int, d: int, scale: float = 1.0) -> ScenarioGenerators:
    """About half of the positions nonzero; d of them get a second level."""
    iu, ju = np.triu_indices(n)
    keep = [(int(i), int(j)) for i, j in zip(iu, ju) if rng.random() < 0.5] or [(0, 0)]
    vary = set(rng.choice(len(keep), size=min(d, len(keep)), replace=False).tolist())
    entries = {}
    for t, key in enumerate(keep):
        a = float(rng.integers(-9, 10)) * scale
        b = float(rng.integers(-9, 10)) * scale if t in vary else a
        entries[key] = (a, b)
    return ScenarioGenerators(n, entries)


def bits_of(outcomes):
    return [out.solution.bits for out in outcomes]


def reversed_instance(instance: QuboInstance) -> QuboInstance:
    return QuboInstance(instance.n, dict(reversed(list(instance.coefficients.items()))))


class TestSolveBatch:
    def test_matches_a_gray_walk(self):
        rng = np.random.default_rng(21)
        for n in range(1, 13):
            for d in (0, 1 + n % 3):
                _diff, k, _design, scenarios = scenario_instances(random_generators(rng, n, d))
                assert len(scenarios) == k and (d > 0 or k == 1)
                outcomes = solve_batch(scenarios, SolverConfig(time_budget=None))
                for inst, out in zip(scenarios, outcomes):
                    assert out.status == PROVEN_OPTIMAL
                    assert out.nodes_or_iterations == 1 << n
                    assert (out.solution.bits, out.solution.value) == gray_walk(inst)

    def test_summation_order_does_not_change_the_bits(self):
        # tenths round, so the objective's sum depends on its grouping
        rng = np.random.default_rng(22)
        config = SolverConfig(time_budget=None)
        for n in (5, 9, 12):
            _diff, _k, _design, scenarios = scenario_instances(random_generators(rng, n, 3, 0.1))
            # a wider union support, reversed scenarios and reversed insertion
            _d, _k, _ds, extra = scenario_instances(random_generators(rng, n, 2, 0.1))
            other = [reversed_instance(inst) for inst in reversed(scenarios)] + extra
            want = bits_of(solve_batch(scenarios, config))
            got = bits_of(solve_batch(other, config))[: len(scenarios)][::-1]
            assert got == want
            assert want == [solve_exact(inst, config).solution.bits for inst in scenarios]

    def test_float_near_tie_takes_the_earlier_gray_index(self):
        # (1,0,0) scores 0.3 at Gray index 1; (0,1,1) scores 0.1 + 0.2 =
        # 0.30000000000000004 at Gray index 4
        coeffs = {(0, 0): 0.3, (0, 1): -1.0, (0, 2): -1.0, (1, 1): 0.1, (2, 2): 0.2}
        forward = QuboInstance(3, coeffs)
        reverse = QuboInstance(3, dict(reversed(list(coeffs.items()))))
        for inst in (forward, reverse):
            out = solve_exact(inst)
            assert out.solution.bits == (1, 0, 0)
            assert out.solution.value == 0.3
        assert bits_of(solve_batch([forward, reverse])) == [(1, 0, 0)] * 2

    def test_batch_mates_do_not_change_a_pick(self):
        # x1 leads x0 by 2e-14.  The tolerance counts the instance's own 3
        # terms (about 7e-15), not the 78 of the batch's union support
        # (about 2e-13), so the lead is no tie alone or batched
        inst = QuboInstance(12, {(0, 0): 1.0, (1, 1): 1.0 + 2e-14, (0, 1): -4.0})
        dense12 = QuboInstance(
            12, {(i, j): 1.0 if i == j else -0.01 for i in range(12) for j in range(i, 12)}
        )
        alone = solve_exact(inst).solution
        assert alone.bits[:2] == (0, 1) and alone.value == 1.00000000000002
        assert solve_batch([inst, dense12])[0].solution == alone

    def test_near_tie_across_blocks(self, monkeypatch):
        # single variables score 1, 1 + 0.6 tol and 1 + 1.2 tol at Gray
        # indices 1, 3 and 7; pairs are cut off.  Only x1 is within tol of
        # the maximum and earlier than x2, whatever the block size.
        coeffs = {(0, 1): -1000.0, (0, 2): -1000.0, (1, 2): -1000.0}
        tol = 6 * np.finfo(float).eps * (3.0 + 6000.0)
        coeffs.update({(0, 0): 1.0, (1, 1): 1.0 + 0.6 * tol, (2, 2): 1.0 + 1.2 * tol})
        inst = QuboInstance(3, coeffs)
        assert solve_exact(inst).solution.bits == (0, 1, 0)
        monkeypatch.setattr(solver, "_BLOCK_ELEMENTS", 1)
        assert solve_exact(inst).solution.bits == (0, 1, 0)

    def test_small_blocks_give_identical_bits(self, monkeypatch):
        rng = np.random.default_rng(23)
        config = SolverConfig(time_budget=None)
        batches = []
        for n in (4, 8, 11):
            for scale in (1.0, 0.1):
                gen = random_generators(rng, n, 3, scale)
                # an isolated variable makes every optimum tie across blocks
                entries = {key: v for key, v in gen.entries.items() if n - 1 not in key}
                batches.append(scenario_instances(ScenarioGenerators(n, entries))[3])
        want = [bits_of(solve_batch(b, config)) for b in batches]
        monkeypatch.setattr(solver, "_BLOCK_ELEMENTS", 64)
        assert [bits_of(solve_batch(b, config)) for b in batches] == want

    def test_budget_runs_out_for_the_whole_batch(self, monkeypatch):
        # a cap below one block still scans one block of 64 assignments of
        # every instance, whatever the chunk size
        monkeypatch.setattr(solver, "_BLOCK_ELEMENTS", 64)
        rng = np.random.default_rng(24)
        _diff, _k, _design, scenarios = scenario_instances(random_generators(rng, 10, 3))
        outcomes = solve_batch(scenarios, SolverConfig(time_budget=1e-9))
        assert {out.status for out in outcomes} == {BUDGET_EXHAUSTED}
        assert {out.nodes_or_iterations for out in outcomes} == {64}
        for inst, out in zip(scenarios, outcomes):
            assert evaluate(inst, out.solution.bits) == out.solution.value

    def test_rejects_mixed_sizes(self):
        with pytest.raises(ValueError):
            solve_batch([QuboInstance(2, {}), QuboInstance(3, {})])
        assert solve_batch([]) == []

    def test_searches_above_the_threshold(self):
        # above enum_threshold the batch is branch and bound, each instance
        # walking the search the recursive reference walks
        rng = np.random.default_rng(25)
        config = SolverConfig(mode="exact", time_budget=None, enum_threshold=5)
        scenarios = scenario_instances(float_generators(rng, 11, 0.6, 3, tenths))[3]
        want = [recursive_exact(inst, config) for inst in scenarios]
        assert effort(solve_batch(scenarios, config)) == want

    def test_empty_instance(self):
        out = solve_exact(QuboInstance(0, {}))
        assert out.solution.bits == () and out.solution.value == 0.0
        assert out.status == PROVEN_OPTIMAL


def binary_walk(d: np.ndarray, o: np.ndarray, tol: float) -> tuple[int, float]:
    """Earliest binary index within tol of the maximum of x^t m x, and its value.

    A pure-Python loop over every assignment, summing in index order.
    """
    width = len(d)
    values = []
    for t in range(1 << width):
        x = [(t >> v) & 1 for v in range(width)]
        value = 0.0
        for u in range(width):
            value += float(d[u]) * x[u]
            for v in range(u + 1, width):
                value += 2.0 * float(o[u, v]) * x[u] * x[v]
        values.append(value)
    top = max(values)
    t = next(t for t, value in enumerate(values) if value >= top - tol)
    return t, values[t]


class TestEnumerate:
    def test_binary_order_matches_a_python_walk(self, monkeypatch):
        # several chunks per stack; every other leaf has zero rows padded at
        # its end, so its maximum repeats in later blocks
        monkeypatch.setattr(solver, "_BLOCK_ELEMENTS", 64)
        rng = np.random.default_rng(41)
        for width in range(1, 13):
            for draw in (uniform, tenths, integers):
                a = 3 if width < 11 else 2
                d, o = np.zeros((a, width)), np.zeros((a, width, width))
                for s in range(a):
                    f = width - (s % 2) * (width // 3)
                    d[s, :f] = [draw(rng) for _ in range(f)]
                    for u, v in zip(*np.triu_indices(f, 1)):
                        if rng.random() < 0.6:
                            o[s, u, v] = o[s, v, u] = draw(rng)
                tol = dense_tolerance(d, o)
                values, codes, scanned = _enumerate(d, o, tol, False)
                assert scanned == 1 << width
                for s in range(a):
                    t, value = binary_walk(d[s], o[s], float(tol[s]))
                    assert codes[s] == t
                    assert abs(values[s] - value) <= tol[s]

    def test_near_tie_across_chunks_is_rescored(self, monkeypatch):
        # x0, x6 and x7 alone score 1, 1 + 0.6 tol and 1 + 1.2 tol at Gray
        # indices 1, 127 and 255: blocks 0, 1 and 3 of 64 rows.  With one
        # block per chunk, x7 raises the maximum past x0's reach, and the
        # chunk of x6 is scored again to find the earliest within tol
        cut = {(i, j): -1000.0 for i, j in ((0, 6), (0, 7), (6, 7))}
        tol = 11 * np.finfo(float).eps * (3.0 + 5.0 + 6000.0)
        coeffs = {**cut, (0, 0): 1.0, (6, 6): 1.0 + 0.6 * tol, (7, 7): 1.0 + 1.2 * tol}
        coeffs.update({(v, v): -1.0 for v in range(1, 6)})
        inst = QuboInstance(8, coeffs)
        want = (0, 0, 0, 0, 0, 0, 1, 0)
        assert solve_exact(inst).solution.bits == want
        monkeypatch.setattr(solver, "_BLOCK_ELEMENTS", 64)
        assert solve_exact(inst).solution.bits == want


def float_generators(rng, n: int, density: float, d: int, draw) -> ScenarioGenerators:
    """``density`` of the positions nonzero, values from ``draw(rng)``; d get a second level."""
    iu, ju = np.triu_indices(n)
    keep = [(int(i), int(j)) for i, j in zip(iu, ju) if rng.random() < density] or [(0, 0)]
    vary = set(rng.choice(len(keep), size=min(d, len(keep)), replace=False).tolist())
    entries = {}
    for t, key in enumerate(keep):
        a = draw(rng)
        entries[key] = (a, draw(rng) if t in vary else a)
    return ScenarioGenerators(n, entries)


def effort(outcomes):
    return [
        (out.solution.bits, out.solution.value, out.status, out.nodes_or_iterations)
        for out in outcomes
    ]


def _bnb(
    diag: np.ndarray,
    off: np.ndarray,
    enum_threshold: int,
) -> tuple[np.ndarray, int]:
    """Depth-first branch and bound, unbudgeted.  Returns (bits, nodes).

    Each node folds the branching decisions into effective diagonals, fixes
    whatever the fixing rule of ``qrobust.preprocess`` decides for the free
    submatrix (to a fixpoint, via the reference ``_fold`` of ``conftest``),
    bounds the remainder by its positive-element sum, and enumerates
    outright once few enough variables are left.  Branching picks the free
    variable with the largest rule slack magnitude, value-1 child first for
    nonnegative effective diagonals.  A candidate replaces the incumbent
    only when it computes more than the root's tie tolerance above it, and
    a node whose bound cannot do that is pruned.
    """
    n = diag.size
    leaf_cap = min(enum_threshold, _LEAF_BITS)
    tol = float(_tie_tolerance(np.concatenate([diag, off.reshape(-1)])))
    inc_val, inc_bits = _greedy_ascent(diag, off)
    state = {"val": inc_val, "bits": inc_bits.copy(), "nodes": 0}
    work = np.zeros(n, dtype=np.int8)

    def rec(idx: np.ndarray, d: np.ndarray, o: np.ndarray, val: float) -> None:
        state["nodes"] += 1
        steps, val, survivors, d, o, slack = _fold(d, o, val)
        for positions, bits, _strict, _deltas in steps:
            work[idx[positions]] = bits
        idx = idx[survivors]
        f = idx.size
        if f <= leaf_cap:
            sub_val, pick = leaf_max(d, o)
            if val + sub_val[0] > state["val"] + tol:
                work[idx] = (pick[0] >> np.arange(f)) & 1
                state["val"] = val + sub_val[0]
                state["bits"] = work.copy()
            return
        bound = val + float(np.maximum(d, 0.0).sum() + np.maximum(o, 0.0).sum())
        if bound <= state["val"] + tol:
            return
        b = int(np.argmax(np.abs(slack)))
        keep = np.ones(f, dtype=bool)
        keep[b] = False
        idx2 = idx[keep]
        o2 = o[np.ix_(keep, keep)]
        d_on = d[keep] + 2.0 * o[keep, b]
        d_off = d[keep]
        first = 1 if d[b] >= 0.0 else 0
        for bit in (first, 1 - first):
            work[idx[b]] = bit
            if bit == 1:
                rec(idx2, d_on, o2, val + float(d[b]))
            else:
                rec(idx2, d_off, o2, val)

    rec(np.arange(n), diag.astype(float), off, 0.0)
    return state["bits"], state["nodes"]


def recursive_exact(instance: QuboInstance, config: SolverConfig):
    """``effort`` of an exact solve above ``enum_threshold`` by the reference ``_bnb``.

    The root is fixed by the reference ``_fold`` too.  ``_bnb`` recurses
    over a dense copy of each node's submatrix, not the padded arrays of
    the package's lockstep search, and the two must walk the same nodes.
    """
    steps, _constant, survivors, d, o, _slack = _fold(*_split(instance))
    fixed = [(i, b) for positions, bits, _s, _d in steps for i, b in zip(positions, bits)]
    sub_bits, nodes = _bnb(d, o, config.enum_threshold) if survivors.size else ((), 1)
    bits = merge_assignment(instance.n, fixed, survivors.tolist(), sub_bits)
    return (bits, evaluate(instance, bits), PROVEN_OPTIMAL, nodes)


class TestBnbBatch:
    # enumeration is off (enum_threshold 5 < n), so every scenario is searched
    CONFIG = SolverConfig(mode="exact", time_budget=None, enum_threshold=5)

    def lone(self, scenarios):
        return [recursive_exact(inst, self.CONFIG) for inst in scenarios]

    def check(self, scenarios):
        # the batch and each lone solve_exact (a batch of one) walk the
        # searches the recursive reference walks
        want = self.lone(scenarios)
        assert effort(solve_batch(scenarios, self.CONFIG)) == want
        assert effort(solve_exact(inst, self.CONFIG) for inst in scenarios) == want

    def test_matches_lone_solves_on_float_generators(self):
        rng = np.random.default_rng(31)
        for t in range(24):
            n = int(rng.integers(8, 19))
            gen = float_generators(rng, n, (0.3, 0.6, 1.0)[t % 3], 3, uniform)
            self.check(scenario_instances(gen)[3])

    def test_tenths_walk_the_same_search(self):
        # tenths round, and equal slacks abound, so a branching variable or
        # a fix flips unless every row sum runs in the order the reference's
        # runs in
        rng = np.random.default_rng(32)
        for t in range(24):
            n = int(rng.integers(8, 16))
            gen = float_generators(rng, n, (0.3, 0.6, 1.0)[t % 3], 3, tenths)
            self.check(scenario_instances(gen)[3])

    def test_outcomes_of_one_call_share_its_elapsed_time(self):
        rng = np.random.default_rng(35)
        for n, config in ((10, SolverConfig(time_budget=None)), (12, self.CONFIG)):
            scenarios = scenario_instances(float_generators(rng, n, 0.6, 3, integers))[3]
            t0 = time.perf_counter()
            outcomes = solve_batch(scenarios, config)
            wall = time.perf_counter() - t0
            assert len(outcomes) > 1
            assert len({out.elapsed for out in outcomes}) == 1
            assert 0.0 < outcomes[0].elapsed <= wall

    def test_slice_size_does_not_change_an_outcome(self):
        rng = np.random.default_rng(33)
        gen = float_generators(rng, 14, 0.6, 9, uniform)
        _diff, k, _design, scenarios = scenario_instances(gen)
        assert k == 32  # not a multiple of 7
        want = self.lone(scenarios)
        for size in (1, 7, k):
            got = [
                out
                for start in range(0, k, size)
                for out in effort(solve_batch(scenarios[start : start + size], self.CONFIG))
            ]
            assert got == want

    def test_budget_runs_out_for_every_unfinished_search(self):
        # a cap below one node leaves every search at its root, which
        # counts once as a pending node, while a scenario fixing empties is
        # still proven
        rng = np.random.default_rng(34)
        gen = float_generators(rng, 12, 0.6, 5, integers)
        _diff, _k, _design, scenarios = scenario_instances(gen)
        scenarios = [*scenarios, QuboInstance(12, {(i, i): 1.0 for i in range(12)})]
        config = SolverConfig(mode="exact", time_budget=1e-9, enum_threshold=5)
        outcomes = solve_batch(scenarios, config)
        assert outcomes[-1].status == PROVEN_OPTIMAL
        assert outcomes[-1].solution.bits == (1,) * 12
        assert {out.status for out in outcomes[:-1]} == {BUDGET_EXHAUSTED}
        for inst, out in zip(scenarios, outcomes):
            assert out.nodes_or_iterations == 1
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
        # a NaN budget would never run out
        for budget in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                SolverConfig(time_budget=budget)
        assert SolverConfig(time_budget=float("inf")).time_budget == float("inf")

    @pytest.mark.parametrize(
        "mode, enum_threshold, budget, cut",
        [
            ("heuristic", 22, None, None),
            ("heuristic", 22, 1e-9, {(HEURISTIC, 0)}),
            # each restart makes 10 moves, so a cap of 15 stops the second
            ("heuristic", 22, 15.5 / solver._MOVES_PER_S, {(HEURISTIC, 15)}),
            ("exact", 22, None, None),
            # 300 of 1024 assignments: the sweep scans 4 blocks of 64
            ("exact", 22, 300 / solver._SWEEP_PER_S, {(BUDGET_EXHAUSTED, 256)}),
            ("exact", 5, None, None),
            # a search takes 5 or 11 nodes; one capped at 7 has 2 pending
            ("exact", 5, 7.5 / solver._NODES_PER_S, {(PROVEN_OPTIMAL, 5), (BUDGET_EXHAUSTED, 9)}),
            ("auto", 22, None, None),
            ("auto", 5, None, None),
            # no node and no move fit: the root's count and the better start
            ("auto", 5, 1e-9, {(HEURISTIC, 1)}),
            # the capped search's 9 nodes plus a whole tabu walk's 20 moves
            ("auto", 5, 7.5 / solver._NODES_PER_S, {(PROVEN_OPTIMAL, 5), (HEURISTIC, 29)}),
        ],
        ids=["heuristic", "heuristic-start", "heuristic-partway", "exact-enumerated",
             "exact-enumerated-partway", "exact-searched", "exact-searched-partway",
             "auto-enumerated", "auto-searched", "auto-fallback", "auto-fallback-partway"],
    )
    def test_a_batch_solves_as_lone_seeded_solves(self, mode, enum_threshold, budget, cut):
        # a batch from scenario a on, seeded for a, and the slices of a
        # forced pool give what lone solves with seed seed + i give, also
        # where the budget stops an engine (``cut`` lists each scenario's
        # status and effort); seed 2**64 - 3 wraps past 2**64 within the
        # batch.  A tabu search the budget stops at once returns its seeded
        # random start, so there every seed shows.
        rng = np.random.default_rng(36)
        scenarios = scenario_instances(float_generators(rng, 10, 0.6, 3, integers))[3]
        assert len(scenarios) > 3
        with ProcessPoolExecutor(max_workers=2, mp_context=pipeline._POOL_CONTEXT) as pool:
            for seed in (7, 2**64 - 3):
                config = SolverConfig(
                    mode=mode, enum_threshold=enum_threshold, time_budget=budget, restarts=2,
                    seed=seed,
                )
                want = effort(
                    solve(inst, replace(config, seed=(seed + i) % 2**64))
                    for i, inst in enumerate(scenarios)
                )
                for a in (0, 3):
                    got = effort(solver._solve_all(scenarios[a:], solver._seeded(config, a)))
                    assert got == want[a:]
                slices = pool.map(
                    solver._solve_all,
                    [scenarios[:3], scenarios[3:]],
                    [config, solver._seeded(config, 3)],
                )
                assert [out for part in slices for out in effort(part)] == want
                if cut is not None:
                    assert {(status, e) for _b, _v, status, e in want} == cut
