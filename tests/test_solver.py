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
from qrobust.qubo import _tie_tolerance
from qrobust.solver import (
    _LEAF_BITS,
    _LOW_BITS,
    BUDGET_EXHAUSTED,
    HEURISTIC,
    PROVEN_OPTIMAL,
    SolverConfig,
    _bits,
    _enumerate,
    _greedy_ascent,
    _low_table,
    _pairs,
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

    def test_non_binary_assignment_is_refused(self):
        # as evaluate refuses it; a 2 used to read as a doubled bit
        inst = QuboInstance(2, {(0, 0): 1.0, (0, 1): 1.0})
        for bits in ([2, 0], [0, 0.5], [float("nan"), 1]):
            with pytest.raises(ValueError, match="non-binary"):
                one_flip_gain(inst, bits, 0)


def dense_tolerance(d: np.ndarray, o: np.ndarray) -> np.ndarray:
    """The tie tolerance of each dense leaf of a stack, over every element."""
    return _tie_tolerance(np.concatenate([d, o.reshape(len(d), -1)], axis=1))


def leaf_max(d: np.ndarray, o: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Value and binary index of one dense leaf's pick, by the reference sweep."""
    tol = dense_tolerance(d[None], o[None])
    values, codes, _scanned = reference_enumerate(d[None], o[None], tol, False)
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
    @pytest.mark.parametrize("block_elements", [solver._BLOCK_ELEMENTS, 64], ids=["default", "64"])
    def test_matches_a_gray_walk(self, monkeypatch, block_elements):
        # at 64, one block per product, and each level of the pass is cut
        # into pieces of a few prefixes
        monkeypatch.setattr(solver, "_BLOCK_ELEMENTS", block_elements)
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
        # every instance, whatever the product size
        monkeypatch.setattr(solver, "_BLOCK_ELEMENTS", 64)
        rng = np.random.default_rng(24)
        _diff, _k, _design, scenarios = scenario_instances(random_generators(rng, 10, 3))
        outcomes = solve_batch(scenarios, SolverConfig(time_budget=1e-9))
        assert {out.status for out in outcomes} == {BUDGET_EXHAUSTED}
        assert {out.nodes_or_iterations for out in outcomes} == {64}
        for inst, out in zip(scenarios, outcomes):
            assert evaluate(inst, out.solution.bits) == out.solution.value

    @pytest.mark.parametrize("enum_threshold", [22, 3], ids=["enumerated", "searched"])
    def test_mates_that_drop_positions_solve_as_alone(self, enum_threshold):
        # zero levels drop positions from some scenarios, so the batch's
        # supports differ and it is stacked on their union
        rng = np.random.default_rng(35)
        config = SolverConfig(enum_threshold=enum_threshold, time_budget=None)
        for n in (4, 7, 9):
            entries = dict(float_generators(rng, n, 0.8, 4, tenths).entries)
            for key in [key for key, (a, b) in entries.items() if a != b][:2]:
                entries[key] = (entries[key][0], 0.0)
            _diff, _k, _design, batch = scenario_instances(ScenarioGenerators(n, entries))
            assert len({inst.nnz for inst in batch}) > 1
            for inst, out in zip(batch, solve_batch(batch, config)):
                lone = solve_exact(inst, config)
                assert (out.solution, out.status) == (lone.solution, lone.status)
                assert out.nodes_or_iterations == lone.nodes_or_iterations

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


def reference_enumerate(
    d: np.ndarray, o: np.ndarray, tol: np.ndarray, gray: bool, cap: float = np.inf
) -> tuple[np.ndarray, np.ndarray, int]:
    """Maximum of x^t m x over every assignment of each matrix of a stack, unpruned.

    The package's sweep before its bounded pass, kept as the reference the
    pass must match: it scores every block.

    Matrix s has diagonal ``d[s]`` and off-diagonal part ``o[s]``
    (symmetric, zero diagonal); ``d`` is (a, w).  Assignments run in binary
    order, or in Gray-code order when ``gray``: index g stands for the
    assignment with code ``g ^ (g >> 1)``, bit v of a code being x_v.  The
    earliest assignment whose computed objective is at least the computed
    maximum minus ``tol[s]`` wins.  Zero rows padded at the end of a matrix
    change no pick in binary order: a padded assignment scores what its
    unpadded prefix scores and comes later.

    Index g splits into a block h of its high bits and a row r of its
    ``low = min(w, _LOW_BITS)`` low bits.  For fixed high bits the
    objective is linear in the low bits and their pair products, so a
    block is ``_low_table`` scaled by coefficients folded from h; in Gray
    order the high bits are gray(h) shifted up by low, and an odd block
    runs through the table backwards (reflecting a Gray code flips its top
    bit).  Every term enters once: a diagonal, or an off-diagonal pair
    doubled, which the tie rule of the module docstring needs.

    It runs in two phases.  The sweep scores chunks of blocks, each at most
    about ``_BLOCK_ELEMENTS`` objectives, and keeps each chunk's maximum per
    matrix and, where a matrix's maximum rises, the earliest index in that
    chunk within ``tol[s]`` of it.  After the sweep the tie rule is settled
    once: a matrix whose threshold an earlier chunk already reaches picks
    in that chunk, scored again as the sweep scored it.  Memory holds one
    chunk of objectives and one maximum per chunk per matrix.  Only the
    first blocks that fit in ``cap`` assignments are scanned, at least
    one.  Returns each matrix's computed value and assignment code at its
    pick, and the assignments it scanned.
    """
    a, w = d.shape
    low, high = min(w, _LOW_BITS), max(w - _LOW_BITS, 0)
    rows, blocks = 1 << low, 1 << high
    blocks = max(1, int(min(cap, blocks * rows)) // rows)  # min keeps an infinite cap from int
    table = _low_table(low, gray)
    i, j = _pairs(low)
    hi, hj = _pairs(high)
    # the coefficients of the table's first low + 1 rows are linear in the
    # high bits and their pairs: fold[:, s] maps those to matrix s's
    # constant (the high diagonals, and the high pairs doubled) and to its
    # low bits' linear terms (their pairs with high bits, doubled)
    fold = np.zeros((high + hi.size, a, 1 + low))
    fold[:high, :, 0] = d[:, low:].T
    fold[high:, :, 0] = 2.0 * o[:, low + hi, low + hj].T
    fold[:high, :, 1:] = 2.0 * o[:, low:, :low].transpose(1, 0, 2)
    base = np.concatenate([np.zeros((a, 1)), d[:, :low], 2.0 * o[:, i, j]], axis=1)

    def scores(h0: int, h1: int, s: slice) -> np.ndarray:
        """Objectives of blocks [h0, h1) of the matrices ``s``: (matrices, blocks, rows)."""
        h = np.arange(h0, h1)
        x = _bits(h ^ (h >> 1) if gray else h, high)
        part = fold[:, s]
        c = part.shape[1]
        folded = np.hstack([x, x[:, hi] * x[:, hj]]) @ part.reshape(len(fold), c * (1 + low))
        coef = np.empty((c, h1 - h0, len(table)))
        coef[...] = base[s, None]
        coef[..., : 1 + low] += folded.reshape(h1 - h0, c, 1 + low).transpose(1, 0, 2)
        return (coef.reshape(-1, len(table)) @ table).reshape(c, h1 - h0, rows)

    def earliest(vals: np.ndarray, thr: np.ndarray, h0: int) -> tuple:
        """Index and value of each row's first objective at or above thr (one exists).

        ``vals`` holds blocks from h0 on, rows in table order; an odd block
        runs backwards in Gray order.
        """
        hit = vals >= thr[:, None, None]
        if gray:
            odd = slice((h0 + 1) % 2, None, 2)
            hit[:, odd] = hit[:, odd, ::-1]
        at = hit.reshape(len(hit), -1).argmax(axis=1)
        b, r = np.divmod(at, rows)
        if gray:
            r = np.where((h0 + b) % 2 == 1, rows - 1 - r, r)
        return h0 * rows + at, vals[np.arange(len(at)), b, r]

    step = max(1, solver._BLOCK_ELEMENTS // (a * rows))
    best = np.full(a, -np.inf)  # largest computed objective so far
    first = np.zeros(a, dtype=np.int64)  # earliest index in its chunk within tol of it
    first_val = np.full(a, -np.inf)
    # each matrix's chunk maxima, a row each: a search along a row copies nothing
    tops = np.empty((a, -(-blocks // step)))
    for c, h0 in enumerate(range(0, blocks, step)):
        vals = scores(h0, min(h0 + step, blocks), slice(None))
        tops[:, c] = vals.reshape(a, -1).max(axis=1)
        up = np.flatnonzero(tops[:, c] > best)
        if up.size:
            rising = vals if up.size == a else vals[up]
            first[up], first_val[up] = earliest(rising, tops[up, c] - tol[up], h0)
            best[up] = tops[up, c]
    # the pick lies in the first chunk that reaches thr; where that chunk
    # comes before the maximum's, it is scored again as the sweep scored
    # it, the whole stack, so the objectives and their rounding repeat
    thr = best - tol
    pick = (tops >= thr[:, None]).argmax(axis=1)
    for s in np.flatnonzero(pick < tops.argmax(axis=1)).tolist():
        h0, one = int(pick[s]) * step, slice(s, s + 1)
        vals = scores(h0, h0 + step, slice(None))[one]
        first[one], first_val[one] = earliest(vals, thr[one], h0)
    codes = first ^ (first >> 1) if gray else first
    return first_val, codes, blocks * rows


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
        # several products per stack; every other leaf has zero rows padded at
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
        # indices 1, 127 and 255: blocks 0, 1 and 3 of 64 rows.  x7 raises
        # the maximum past x0's reach, and the block of x6, scored before
        # it, holds the earliest within tol, whatever the product size
        cut = {(i, j): -1000.0 for i, j in ((0, 6), (0, 7), (6, 7))}
        tol = 11 * np.finfo(float).eps * (3.0 + 5.0 + 6000.0)
        coeffs = {**cut, (0, 0): 1.0, (6, 6): 1.0 + 0.6 * tol, (7, 7): 1.0 + 1.2 * tol}
        coeffs.update({(v, v): -1.0 for v in range(1, 6)})
        inst = QuboInstance(8, coeffs)
        want = (0, 0, 0, 0, 0, 0, 1, 0)
        assert solve_exact(inst).solution.bits == want
        monkeypatch.setattr(solver, "_BLOCK_ELEMENTS", 64)
        assert solve_exact(inst).solution.bits == want

    def test_near_ties_of_a_stack_settle_in_their_own_chunks(self, monkeypatch):
        # one block of 64 binary indices per product; x6, x7 and x8 alone
        # sit at indices 64, 128 and 256, blocks 1, 2 and 4.  Each matrix
        # scores three variables alone at 1, 1 + 0.6 tol and 1 + 1.2 tol
        # (pairs cut off, the rest negative): the middle one is the earliest
        # within tol of the maximum, in block 0, 1 or 2 before the maximum's
        # block 2 or 4.  The last matrix has no near-tie.
        monkeypatch.setattr(solver, "_BLOCK_ELEMENTS", 64)
        width = 9
        tol = 15 * np.finfo(float).eps * (3.0 + 6.0 + 6000.0)
        near = (1.0, 1.0 + 0.6 * tol, 1.0 + 1.2 * tol)
        cases = [((7, 0, 8), near), ((0, 6, 8), near), ((0, 7, 8), near), ((0, 6, 7), near),
                 ((0, 6, 8), (1.0, 1.0, 2.0))]
        d, o = np.full((len(cases), width), -1.0), np.zeros((len(cases), width, width))
        for s, (where, scores) in enumerate(cases):
            d[s, list(where)] = scores
            for u, v in ((0, 1), (0, 2), (1, 2)):
                o[s, where[u], where[v]] = o[s, where[v], where[u]] = -1000.0
        tols = dense_tolerance(d, o)
        values, codes, _scanned = _enumerate(d, o, tols, False)
        want = [1 << where[1] for where, _scores in cases[:-1]] + [1 << 8]
        assert codes.tolist() == want
        for s in range(len(cases)):
            t, value = binary_walk(d[s], o[s], float(tols[s]))
            alone = _enumerate(d[s : s + 1], o[s : s + 1], tols[s : s + 1], False)
            assert (codes[s], values[s]) == (t, value) == (alone[1][0], alone[0][0])


def planted_stack(rng, a: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """A stack of ``a`` dense matrices of tenths, float near-ties planted among the optima.

    An even matrix is negative but for x_u alone, scoring 0.3, and x_v with
    x_w, scoring 0.1 + 0.2, which computes 0.30000000000000004 or 0.3 by
    the order of the sum: the two tie for the maximum, inside one block
    when the three sit in the low bits (every fourth matrix) and mostly
    across blocks otherwise.  An odd matrix draws every entry as a tenth of
    either sign.  Every third matrix has its last width // 3 rows zero.
    """
    d, o = np.zeros((a, width)), np.zeros((a, width, width))
    for s in range(a):
        f = width - (width // 3 if s % 3 == 2 else 0)
        iu, ju = np.triu_indices(f, 1)
        if s % 2:
            d[s, :f] = [tenths(rng) for _ in range(f)]
            o[s, iu, ju] = [tenths(rng) for _ in range(iu.size)]
        else:
            d[s, :f] = -0.1 * rng.integers(1, 10, size=f)
            o[s, iu, ju] = -0.1 * rng.integers(0, 10, size=iu.size)
            if f >= 3:
                u, v, w = rng.choice(min(f, _LOW_BITS) if s % 4 == 0 else f, 3, replace=False)
                d[s, [u, v, w]] = 0.3, 0.1, 0.2
                o[s, min(u, v), max(u, v)] = o[s, min(u, w), max(u, w)] = -1.0
                o[s, min(v, w), max(v, w)] = 0.0
        o[s] += o[s].T
    return d, o


class TestBoundedPass:
    @pytest.mark.parametrize("block_elements", [solver._BLOCK_ELEMENTS, 64, 1], ids=["default", "64", "1"])
    def test_matches_the_reference_sweep(self, monkeypatch, block_elements):
        # small chunks start the pass at the root and cut each level into
        # pieces; a value may differ from the reference's by its rounding
        monkeypatch.setattr(solver, "_BLOCK_ELEMENTS", block_elements)
        rng = np.random.default_rng(45)
        for width in (1, 3, 6, 7, 9, 12, 14):
            d, o = planted_stack(rng, 8, width)
            tol = dense_tolerance(d, o)
            for gray in (False, True):
                for cap in (np.inf, 200.0):
                    want = reference_enumerate(d, o, tol, gray, cap)
                    values, codes, scanned = _enumerate(d, o, tol, gray, cap)
                    assert codes.tolist() == want[1].tolist()
                    assert scanned == want[2]
                    assert np.all(np.abs(values - want[0]) <= tol)

    def test_a_floor_keeps_every_pick_that_reaches_it(self, monkeypatch):
        # a floor 0.05 below a matrix's maximum (its values are tenths apart
        # or tied) keeps the reference's pick; one 0.05 above it leaves a
        # value below the floor
        monkeypatch.setattr(solver, "_BLOCK_ELEMENTS", 64)
        rng = np.random.default_rng(46)
        for width in (4, 8, 11):
            d, o = planted_stack(rng, 6, width)
            tol = dense_tolerance(d, o)
            x = _bits(np.arange(1 << width), width)
            top = np.array([(x @ d[s] + np.einsum("ti,ij,tj->t", x, o[s], x)).max() for s in range(6)])
            reach = np.arange(6) % 2 == 0
            floor = np.where(reach, top - 0.05, top + 0.05)
            values, codes, _scanned = _enumerate(d, o, tol, False, floor=floor)
            want = reference_enumerate(d, o, tol, False)
            assert codes[reach].tolist() == want[1][reach].tolist()
            assert np.all(values[~reach] < floor[~reach])

    def test_the_pass_scores_fewer_blocks_than_it_covers(self, business_gen, monkeypatch):
        # every scenario of the business generators covers 8 blocks of 64
        # assignments; the bounds drop over a third of them unscored
        scored = []
        records = solver._records

        def counted(kept, s, *rest):
            scored.append(len(s))
            return records(kept, s, *rest)

        monkeypatch.setattr(solver, "_records", counted)
        _diff, k, _design, scenarios = scenario_instances(business_gen)
        outcomes = solve_batch(scenarios, SolverConfig(time_budget=None))
        assert {out.nodes_or_iterations for out in outcomes} == {1 << business_gen.n}
        blocks = k << (business_gen.n - _LOW_BITS)
        assert k <= sum(scored) < 2 * blocks / 3
        for inst, out in zip(scenarios, outcomes):
            assert (out.solution.bits, out.solution.value) == gray_walk(inst)


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

    def test_a_restart_within_the_tenure_ends_by_its_stall_rule(self):
        # n = 4 <= tabu_tenure: the tenure is capped at n - 1 = 3, so some
        # move is always allowed and each restart runs until it has made
        # 10 * n = 40 moves without improving the incumbent.  The walk finds
        # its best at the start, so one restart makes exactly 40 moves.
        inst = QuboInstance(4, {(0, 0): 1.0, (1, 1): 1.0, (2, 2): 1.0, (3, 3): 1.0})
        config = SolverConfig(restarts=3, seed=5, time_budget=None)
        out = solve_heuristic(inst, config)
        assert out.solution.bits == (1, 1, 1, 1)
        assert out.nodes_or_iterations == 3 * 40


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
            # a restart ends 10 * n = 100 moves after its last improvement,
            # here after 102 to 109 moves, so a cap of 150 stops the second
            ("heuristic", 22, 150.5 / solver._MOVES_PER_S, {(HEURISTIC, 150)}),
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
            # the capped search's 9 nodes plus a whole tabu walk's 187 moves
            ("auto", 5, 7.5 / solver._NODES_PER_S, {(PROVEN_OPTIMAL, 5), (HEURISTIC, 196)}),
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
