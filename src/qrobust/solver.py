"""Exact and heuristic maximization of the binary quadratic objective.

Three engines share one entry point:

* full enumeration in Gray-code order for small instances,
* depth-first branch and bound over the preprocessed matrix, bounded by
  the positive-element sum of the free submatrix, for medium instances,
* multi-start tabu search with 1-flip moves for everything larger.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .preprocess import _classify, _fold, _split, fix_variables, merge_assignment
from .qubo import BinarySolution, QuboInstance, evaluate

PROVEN_OPTIMAL = "proven_optimal"
HEURISTIC = "heuristic"
BUDGET_EXHAUSTED = "budget_exhausted"

MODE_AUTO = "auto"
MODE_EXACT = "exact"
MODE_HEURISTIC = "heuristic"

# block size (in assignments) for vectorized enumeration sweeps
_BLOCK_BITS = 16
# below this many free variables a branch-and-bound node is enumerated outright
_LEAF_BITS = 12


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
    field = 0.0
    for (p, q), v in instance.coefficients.items():
        if p == q:
            if p == i:
                field += v
        elif p == i:
            field += 2.0 * v * bits[q]
        elif q == i:
            field += 2.0 * v * bits[p]
    return (1.0 - 2.0 * bits[i]) * field


def _gray_enumerate(
    m: np.ndarray, deadline: float | None
) -> tuple[float, np.ndarray, int, bool]:
    """Scan all 2^n assignments in Gray-code order, blockwise.

    Returns (best value, its bits, assignments scanned, completed).  Ties go
    to the earliest assignment in Gray-code order, which makes repeated runs
    and downstream frequency counts reproducible.
    """
    n = m.shape[0]
    total = 1 << n
    block = 1 << min(_BLOCK_BITS, n)
    shifts = np.arange(n, dtype=np.uint64)
    best_val = -np.inf
    best_bits = np.zeros(n, dtype=np.int8)
    scanned = 0
    for t0 in range(0, total, block):
        ts = np.arange(t0, min(t0 + block, total), dtype=np.uint64)
        codes = ts ^ (ts >> np.uint64(1))
        x = ((codes[:, None] >> shifts) & np.uint64(1)).astype(np.float64)
        vals = np.einsum("ij,ij->i", x @ m, x)
        j = int(np.argmax(vals))
        if vals[j] > best_val:
            best_val = float(vals[j])
            best_bits = x[j].astype(np.int8)
        scanned = int(ts[-1]) + 1
        if deadline is not None and scanned < total and time.perf_counter() > deadline:
            return best_val, best_bits, scanned, False
    return best_val, best_bits, scanned, True


def _submatrix_max(m: np.ndarray) -> tuple[float, np.ndarray]:
    """Exact maximum of x^t m x over all assignments of a small dense matrix."""
    f = m.shape[0]
    total = 1 << f
    shifts = np.arange(f, dtype=np.uint64)
    ts = np.arange(total, dtype=np.uint64)
    x = ((ts[:, None] >> shifts) & np.uint64(1)).astype(np.float64)
    vals = np.einsum("ij,ij->i", x @ m, x)
    j = int(np.argmax(vals))
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
    diagonals.
    """
    n = diag.size
    leaf_cap = min(enum_threshold, _LEAF_BITS)
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
        if f == 0:
            if val > state["val"]:
                state["val"] = val
                state["bits"] = work.copy()
            return
        if f <= leaf_cap:
            m = o.copy()
            m[np.diag_indices(f)] = d
            sub_val, sub_bits = _submatrix_max(m)
            if val + sub_val > state["val"]:
                work[idx] = sub_bits
                state["val"] = val + sub_val
                state["bits"] = work.copy()
            return
        bound = val + float(np.maximum(d, 0.0).sum() + np.maximum(o, 0.0).sum())
        if bound <= state["val"]:
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
    t0 = time.perf_counter()
    deadline = t0 + config.time_budget if config.time_budget is not None else None
    if instance.n <= config.enum_threshold:
        _val, bits, scanned, closed = _gray_enumerate(instance.to_dense(), deadline)
        return _finish(
            instance, bits, PROVEN_OPTIMAL if closed else BUDGET_EXHAUSTED, scanned, t0
        )
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
