"""Exact and heuristic maximization of the binary quadratic objective.

Three engines share one entry point:

* full enumeration in Gray-code order for small instances,
* depth-first branch and bound over the preprocessed matrix, bounded by
  the positive-element sum of the free submatrix, for medium instances,
* multi-start tabu search with 1-flip moves for everything larger.

Enumeration has one kernel, ``solve_batch``.  It scores a batch of
instances of equal size in one sweep: the objective is linear in the
coefficient values, so one table of pair products ``x_i x_j`` over the
batch's union support times a value matrix (one column per instance)
gives every instance's objective for a block of assignments at once.  A
single ``solve_exact`` enumeration is a batch of one.

Ties are settled by a rule that survives a reordered sum.  Let
``tol = nnz * eps * sum|V|``, where ``V`` holds the instance's own nonzero
support values with off-diagonals doubled, whatever shares its batch.  For
any summation order a computed objective is within tol / 2 of its exact
value, so assignments of equal exact value compute within tol of each
other.  The kernel picks the earliest assignment in Gray-code order whose
computed value is at least the computed maximum minus tol, and reports the
value ``evaluate`` gives for it.  Exact ties therefore go to the earliest
of them in Gray-code order however the sum was grouped.  Branch and bound
applies the rule in binary order inside a leaf (``V`` the leaf's dense
matrix), and between leaves keeps its incumbent unless a candidate
computes more than the root matrix's tol above it, so a near-tie goes to
the candidate found first.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .preprocess import _classify, _fold, _split, fix_variables, merge_assignment
from .qubo import BinarySolution, QuboInstance, _sequential_sum, _terms, evaluate

PROVEN_OPTIMAL = "proven_optimal"
HEURISTIC = "heuristic"
BUDGET_EXHAUSTED = "budget_exhausted"

MODE_AUTO = "auto"
MODE_EXACT = "exact"
MODE_HEURISTIC = "heuristic"

# element cap on one enumeration block's pair-product table plus its values
_BLOCK_ELEMENTS = 1 << 20
# below this many free variables a branch-and-bound node is enumerated outright
_LEAF_BITS = 12


def _bits(codes: np.ndarray, width: int) -> np.ndarray:
    """0/1 rows as floats: column c holds bit c of each code."""
    return ((codes[:, None] >> np.arange(width)) & 1).astype(np.float64)


# every assignment of _LEAF_BITS variables in binary order, row t holding the
# bits of t; a leaf with f free variables reads the top-left 2^f x f corner
_LEAF_TABLE = _bits(np.arange(1 << _LEAF_BITS), _LEAF_BITS)
_LEAF_TABLE.setflags(write=False)


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by all solve paths.  Every run is deterministic in ``seed``."""

    mode: str = MODE_AUTO
    enum_threshold: int = 22
    time_budget: float | None = 10.0
    restarts: int = 10
    tabu_tenure: int = 10
    seed: int = 42

    def __post_init__(self):
        if self.mode not in (MODE_AUTO, MODE_EXACT, MODE_HEURISTIC):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.enum_threshold < 1:
            raise ValueError("enum_threshold must be >= 1")
        if self.time_budget is not None and self.time_budget <= 0:
            raise ValueError("time_budget must be positive or None")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.tabu_tenure < 0:
            raise ValueError("tabu_tenure must be >= 0")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class SolveOutcome:
    solution: BinarySolution
    status: str
    nodes_or_iterations: int
    elapsed: float


def one_flip_gain(instance: QuboInstance, bits, i: int) -> float:
    """Objective change from flipping bit i, without re-evaluating from scratch."""
    if not (0 <= i < instance.n):
        raise ValueError(f"variable index {i} out of range for n={instance.n}")
    if len(bits) != instance.n:
        raise ValueError(f"assignment length {len(bits)} != n={instance.n}")
    x = np.asarray(bits, dtype=np.float64)
    touch = (instance.rows == i) | (instance.cols == i)
    rows, cols = instance.rows[touch], instance.cols[touch]
    # a diagonal counts whatever x_i is; a pair counts through its other end
    partner = np.where(rows == cols, 1.0, x[rows + cols - i])
    return (1.0 - 2.0 * float(x[i])) * _sequential_sum(_terms(instance)[touch] * partner)


def _tie_tolerance(terms: np.ndarray) -> np.ndarray:
    """The tie tolerance of the module docstring, one per column of ``terms``.

    ``terms`` holds, one row each, the coefficients an objective adds up:
    an instance's support values with off-diagonals doubled (``_terms``),
    or every element of a dense matrix.  Only a column's own nonzeros count.
    """
    return np.count_nonzero(terms, axis=0) * np.finfo(float).eps * np.abs(terms).sum(axis=0)


class _Sweep:
    """A batch's union support, laid out for blockwise Gray-code scoring.

    Gray index g stands for the assignment whose bit i is bit i of
    ``g ^ (g >> 1)``.  Block h holds g in [h * rows, (h + 1) * rows) with
    rows = 2^low.  Its high bits (i >= low) are gray(h) shifted up by low,
    fixed for the block, and its low bits run through the Gray table of
    ``low`` bits, in reverse when h is odd (reflecting a Gray code flips
    its top bit).  So each support entry is one column of a shared table
    (``x_i`` for a diagonal or a low-high pair, ``x_i x_j`` for a low
    pair, ones for a high pair) scaled by whether its high bits are set in
    the block, and a block's objectives are one product of the table with
    the folded value matrix.
    """

    def __init__(self, instances: Sequence[QuboInstance]):
        n = instances[0].n
        k = len(instances)
        keys, where = np.unique(
            np.concatenate([inst.rows * n + inst.cols for inst in instances]), return_inverse=True
        )
        values = np.zeros((len(keys), k))
        owner = np.repeat(np.arange(k), [inst.nnz for inst in instances])
        values[where, owner] = np.concatenate([_terms(inst) for inst in instances])
        i, j = np.divmod(keys, n)
        self.values = values
        self.tol = _tie_tolerance(values)

        def pairs(low: int) -> np.ndarray:
            return (i != j) & (j < low)

        low = n
        while low > 0 and (1 << low) * (low + int(pairs(low).sum()) + 1 + k) > _BLOCK_ELEMENTS:
            low -= 1
        self.n, self.low, self.rows = n, low, 1 << low
        pair = pairs(low)
        column = np.where(i < low, i, low + int(pair.sum()))
        column[pair] = low + np.arange(int(pair.sum()))
        self.fold = np.zeros((low + int(pair.sum()) + 1, len(keys)))
        self.fold[column, np.arange(len(keys))] = 1.0
        self.high_i, self.high_j = i >= low, j >= low
        self.i, self.j = i, j
        r = np.arange(self.rows)
        x = _bits(r ^ (r >> 1), low)
        self.table = np.hstack([x, x[:, i[pair]] * x[:, j[pair]], np.ones((self.rows, 1))])

    def block(self, h: int, which=slice(None)) -> np.ndarray:
        """Objectives of block h (rows in Gray order) for the chosen instances."""
        code = (h ^ (h >> 1)) << self.low
        x = np.array([(code >> v) & 1 for v in range(self.n)], dtype=np.float64)
        active = np.where(self.high_i, x[self.i], 1.0) * np.where(self.high_j, x[self.j], 1.0)
        vals = self.table @ (self.fold @ (self.values[:, which] * active[:, None]))
        return vals[::-1] if h & 1 else vals


def solve_batch(
    instances: Sequence[QuboInstance], config: SolverConfig | None = None
) -> list[SolveOutcome]:
    """Provably optimal solves of equal-size instances by one shared enumeration.

    Every instance must have the same n, at most ``config.enum_threshold``.
    One Gray-code sweep scores all instances on each block of assignments;
    the tie rule of the module docstring picks each instance's solution.
    The sweep gets ``len(instances) * time_budget`` seconds.  When that
    runs out, every instance returns ``budget_exhausted`` with its best
    assignment so far.  Block rows come from a fixed cap on the elements of
    a block's product table and values, so memory does not grow with 2^n.
    """
    config = config or SolverConfig()
    t0 = time.perf_counter()
    if not instances:
        return []
    n = instances[0].n
    if any(inst.n != n for inst in instances):
        raise ValueError("batched instances must share one variable count")
    if n > config.enum_threshold:
        raise ValueError(f"n={n} is above enum_threshold={config.enum_threshold}")
    k = len(instances)
    deadline = t0 + k * config.time_budget if config.time_budget is not None else None
    sweep = _Sweep(instances)
    rows, tol = sweep.rows, sweep.tol
    blocks = 1 << (n - sweep.low)
    best = np.full(k, -np.inf)  # largest computed objective so far
    first = np.zeros(k, dtype=np.int64)  # earliest Gray index within tol of it
    first_val = np.full(k, -np.inf)
    block_max = np.empty((blocks, k))
    closed = True
    for h in range(blocks):
        vals = sweep.block(h)
        block_max[h] = vals.max(axis=0)
        up = np.flatnonzero(block_max[h] > best)
        if up.size:
            thr = block_max[h, up] - tol[up]
            hit = (vals[:, up] >= thr).argmax(axis=0)
            kept, kept_val = first[up], first_val[up]
            first[up] = h * rows + hit
            first_val[up] = vals[hit, up]
            # an earlier assignment within tol of the new maximum still wins
            for m in np.flatnonzero(best[up] >= thr):
                s = up[m]
                if kept_val[m] >= thr[m]:
                    first[s], first_val[s] = kept[m], kept_val[m]
                    continue
                found = _earliest_within(sweep, block_max, s, thr[m], kept[m] // rows, h)
                if found is not None:
                    first[s], first_val[s] = found
            best[up] = block_max[h, up]
        if h + 1 < blocks and deadline is not None and time.perf_counter() > deadline:
            closed = False
            blocks = h + 1
            break
    scanned = blocks * rows
    status = PROVEN_OPTIMAL if closed else BUDGET_EXHAUSTED
    outcomes = []
    for inst, g in zip(instances, first.tolist()):
        code = g ^ (g >> 1)
        outcomes.append(_finish(inst, [(code >> v) & 1 for v in range(n)], status, scanned, t0))
    return outcomes


def _earliest_within(sweep: _Sweep, block_max, s: int, thr: float, start: int, stop: int):
    """Earliest (Gray index, objective) of instance s at or above thr in blocks [start, stop).

    The sweep keeps only each block's maximum, so a block that reaches thr
    is recomputed for instance s alone.  None when no block does, which
    can happen only through the rounding of the recomputation.
    """
    for b in range(start, stop):
        if block_max[b, s] < thr:
            continue
        vals = sweep.block(b, [s])[:, 0]
        r = int(np.argmax(vals >= thr))
        if vals[r] >= thr:
            return b * sweep.rows + r, vals[r]
    return None


def _submatrix_max(m: np.ndarray) -> tuple[float, np.ndarray]:
    """Maximum of x^t m x over all assignments of a small dense matrix.

    Ties follow the enumeration's rule in binary order: the earliest
    assignment within the tie tolerance of the computed maximum wins.
    """
    f = m.shape[0]
    x = _LEAF_TABLE[: 1 << f, :f]
    vals = np.einsum("ij,ij->i", x @ m, x)
    j = int(np.argmax(vals >= vals.max() - _tie_tolerance(m.reshape(-1))))
    return float(vals[j]), x[j].astype(np.int8)


def _objective(diag: np.ndarray, off: np.ndarray, x: np.ndarray) -> float:
    xf = x.astype(float)
    return float(diag @ xf + xf @ off @ xf)


def _greedy_ascent(diag: np.ndarray, off: np.ndarray) -> tuple[float, np.ndarray]:
    """Deterministic 1-flip ascent from the strict fixes of the rule; seeds the incumbent.

    The gain field is recomputed from scratch each step so rounding noise
    cannot masquerade as progress; the step cap guards against cycling over
    exact ties on non-integer data.
    """
    n = diag.size
    x = np.zeros(n, dtype=np.int8)
    if n == 0:
        return 0.0, x
    _delta, bit, strict = _classify(diag, off)
    x[strict & (bit == 1)] = 1
    for _step in range(4 * n):
        s = diag + 2.0 * (off @ x.astype(float))
        gains = (1.0 - 2.0 * x) * s
        i = int(np.argmax(gains))
        if gains[i] <= 0.0:
            break
        x[i] = 1 - x[i]
    return _objective(diag, off, x), x


def _bnb(
    diag: np.ndarray,
    off: np.ndarray,
    enum_threshold: int,
    deadline: float | None,
) -> tuple[float, np.ndarray, int, bool]:
    """Depth-first branch and bound.  Returns (value, bits, nodes, closed).

    Each node folds the branching decisions into effective diagonals, fixes
    whatever the fixing rule of ``qrobust.preprocess`` decides for the free
    submatrix (to a fixpoint, via ``_fold``), bounds the remainder by its
    positive-element sum, and enumerates outright once few enough variables
    are left.  Branching picks the free variable with the largest rule
    slack magnitude, value-1 child first for nonnegative effective
    diagonals.  A candidate replaces the incumbent only when it computes
    more than the root's tie tolerance above it, and a node whose bound
    cannot do that is pruned.
    """
    n = diag.size
    leaf_cap = min(enum_threshold, _LEAF_BITS)
    tol = float(_tie_tolerance(np.concatenate([diag, off.reshape(-1)])))
    inc_val, inc_bits = _greedy_ascent(diag, off)
    state = {"val": inc_val, "bits": inc_bits.copy(), "nodes": 0, "closed": True}
    work = np.zeros(n, dtype=np.int8)

    def rec(idx: np.ndarray, d: np.ndarray, o: np.ndarray, val: float) -> None:
        state["nodes"] += 1
        if deadline is not None and time.perf_counter() > deadline:
            state["closed"] = False
            return
        steps, val, survivors, d, o, slack = _fold(d, o, val)
        for positions, bits, _strict, _deltas in steps:
            work[idx[positions]] = bits
        idx = idx[survivors]
        f = idx.size
        if f <= leaf_cap:
            m = o.copy()
            m[np.diag_indices(f)] = d
            sub_val, sub_bits = _submatrix_max(m)
            if val + sub_val > state["val"] + tol:
                work[idx] = sub_bits
                state["val"] = val + sub_val
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
    return state["val"], state["bits"], state["nodes"], state["closed"]


def _finish(
    instance: QuboInstance, bits, status: str, effort: int, t0: float
) -> SolveOutcome:
    bits_t = tuple(int(b) for b in bits)
    value = evaluate(instance, bits_t)
    return SolveOutcome(
        solution=BinarySolution(bits=bits_t, value=value),
        status=status,
        nodes_or_iterations=effort,
        elapsed=time.perf_counter() - t0,
    )


def solve_exact(instance: QuboInstance, config: SolverConfig | None = None) -> SolveOutcome:
    """Provably optimal solve: enumeration for small n, else preprocessing + branch and bound.

    Budget exhaustion is reported through the status, never raised; the
    incumbent found so far is returned.
    """
    config = config or SolverConfig()
    if instance.n <= config.enum_threshold:
        return solve_batch([instance], config)[0]
    t0 = time.perf_counter()
    deadline = t0 + config.time_budget if config.time_budget is not None else None
    rep = fix_variables(instance)
    if rep.reduced.n == 0:
        bits = merge_assignment(instance.n, rep.assignments, rep.index_map, ())
        return _finish(instance, bits, PROVEN_OPTIMAL, 1, t0)
    diag, off = _split(rep.reduced)
    _val, sub_bits, nodes, closed = _bnb(diag, off, config.enum_threshold, deadline)
    bits = merge_assignment(instance.n, rep.assignments, rep.index_map, sub_bits)
    return _finish(instance, bits, PROVEN_OPTIMAL if closed else BUDGET_EXHAUSTED, nodes, t0)


def solve_heuristic(instance: QuboInstance, config: SolverConfig | None = None) -> SolveOutcome:
    """Multi-start tabu search with best-improving 1-flip moves.

    Restarts begin from a seeded random assignment in which the variables
    the fixing rule of ``qrobust.preprocess`` fixes strictly take their
    forced values (dominant at 1, recessive at 0).  A move is tabu for
    ``tabu_tenure`` iterations after it is made unless it would beat the
    incumbent; a restart ends after 10*n moves without improving the
    incumbent.  Deterministic given the seed.

    The walking objective is maintained incrementally; every claimed
    improvement is re-verified against an exact recomputation so that
    accumulated rounding noise on non-integer data can neither corrupt the
    incumbent nor keep resetting the stall counter.
    """
    config = config or SolverConfig()
    t0 = time.perf_counter()
    deadline = t0 + config.time_budget if config.time_budget is not None else None
    n = instance.n
    if n == 0:
        return _finish(instance, (), HEURISTIC, 0, t0)
    diag, off = _split(instance)
    _delta, bit, strict = _classify(diag, off)
    start_one = strict & (bit == 1)
    free = ~strict
    rng = np.random.default_rng(config.seed)
    cap = 10 * n
    best_val = -np.inf
    best_bits = np.zeros(n, dtype=np.int8)
    moves = 0
    out_of_time = False
    for _restart in range(config.restarts):
        x = np.zeros(n, dtype=np.int8)
        x[start_one] = 1
        x[free] = rng.integers(0, 2, size=int(free.sum()), dtype=np.int8)
        cur = _objective(diag, off, x)
        s = diag + 2.0 * (off @ x.astype(float))
        if cur > best_val:
            best_val = cur
            best_bits = x.copy()
        tabu_until = np.zeros(n, dtype=np.int64)
        it = 0
        stale = 0
        while stale < cap:
            if deadline is not None and time.perf_counter() > deadline:
                out_of_time = True
                break
            it += 1
            gains = (1.0 - 2.0 * x) * s
            allowed = (tabu_until < it) | (cur + gains > best_val)
            if not allowed.any():
                break
            cand = np.where(allowed, gains, -np.inf)
            i = int(np.argmax(cand))
            cur += float(gains[i])
            s = s + (2.0 if x[i] == 0 else -2.0) * off[:, i]
            x[i] = 1 - x[i]
            tabu_until[i] = it + config.tabu_tenure
            moves += 1
            if cur > best_val:
                # drift guard: trust only an exactly recomputed objective
                cur = _objective(diag, off, x)
                if cur > best_val:
                    best_val = cur
                    best_bits = x.copy()
                    stale = 0
                else:
                    stale += 1
            else:
                stale += 1
        if out_of_time:
            break
    return _finish(instance, best_bits, HEURISTIC, moves, t0)


def solve(instance: QuboInstance, config: SolverConfig | None = None) -> SolveOutcome:
    """Mode dispatch: exact when affordable, tabu search otherwise.

    In auto mode, small instances are enumerated; larger ones get a branch
    and bound attempt within the time budget, falling back to the heuristic
    (keeping whichever solution is better) when the budget runs out.
    """
    config = config or SolverConfig()
    if config.mode == MODE_EXACT:
        return solve_exact(instance, config)
    if config.mode == MODE_HEURISTIC:
        return solve_heuristic(instance, config)
    if instance.n <= config.enum_threshold:
        return solve_exact(instance, config)
    t0 = time.perf_counter()
    exact = solve_exact(instance, config)
    if exact.status == PROVEN_OPTIMAL:
        return exact
    heur = solve_heuristic(instance, config)
    winner = exact if exact.solution.value >= heur.solution.value else heur
    return SolveOutcome(
        solution=winner.solution,
        status=HEURISTIC,
        nodes_or_iterations=exact.nodes_or_iterations + heur.nodes_or_iterations,
        elapsed=time.perf_counter() - t0,
    )
