"""Exact and heuristic maximization of the binary quadratic objective.

Three engines share one entry point, ``solve``, which picks one from the
mode and n (no other module does): multi-start tabu search with 1-flip
moves in heuristic mode, else exact enumeration in Gray-code order up to
``enum_threshold`` and, above it, depth-first branch and bound over the
preprocessed matrix, bounded by the positive-element sum of the free
submatrix, with a tabu fallback in auto mode for an instance the budget
leaves unproven (``_fall_back``).  ``solve_batch`` is the exact engines'
batch entry, and ``solve_exact`` a batch of one; ``_solve_all`` is the
batch form of ``solve``.  The budget caps each instance's own work and
never reads the clock (``SolverConfig``).

Branch and bound has one search, ``_bnb_lockstep``.  It keeps one search
per instance and advances all of them together, one node of each per
step, on padded arrays.  Each instance walks its own search, the one it
walks alone: same nodes, same branching, same incumbent rule, same bits
(up to the rounding ``_bnb_lockstep`` describes).  Batching only shares
the numpy calls of a step.

Enumeration has one kernel, ``_enumerate``, a bounded pass over a stack
of dense matrices of equal width.  Fixing the high bits of an assignment
leaves a quadratic in the rest whose row bound (each free variable's
linear term plus its positive pairs, if positive; the roof-duality family)
covers every assignment that shares those bits.  A dive to one block per
matrix gives an incumbent, one level-synchronous pass over the high-bit
prefixes drops those whose bounds fall short of it, and only the blocks
left are scored: their low bits read one cached table of their values and
pair products, their high bits folded into its coefficients.  No chunk
history is kept, so memory does not grow with 2^n.  ``solve_batch`` sweeps
its instances in Gray-code order; branch and bound scores its leaves in
binary order, with a floor.

Ties are settled by a rule that survives a reordered sum.  Let
``tol = nnz * eps * sum|V|``, where ``V`` holds the terms the objective
adds up, nnz counts the nonzero ones and |V| is added in order from 0.0
(``qubo._tie_tolerance``), so zeros in ``V`` change neither.  For any
summation order a computed objective is within tol / 2 of its exact
value, so assignments of equal exact value compute within tol of each
other.  The kernel picks the earliest assignment in its order whose
computed value is at least the computed maximum minus tol.  It adds each
diagonal once and each off-diagonal pair once, doubled, never ``o_ij``
and ``o_ji`` apart, so its sum has at most nnz nonzero terms for either
caller's ``V``:

* ``solve_batch`` passes its term matrix (``qubo._Stack``), whose rows
  give each instance its lone tolerance, the one ``pipeline.coverage``
  uses.  It reports the value ``evaluate`` gives for the pick, so exact
  ties go to the earliest in Gray-code order however the sum was grouped.
* Branch and bound passes every element of the leaf's dense matrix, and
  between leaves keeps its incumbent unless a candidate computes more than
  the root matrix's tol above it, so a near-tie goes to the candidate
  found first.  A leaf at a node of constant ``val`` passes the floor
  ``inc_val - val - leaf_tol``: a leaf whose candidate replaces the
  incumbent computes ``val + sub_val > inc_val + root_tol``, so its
  maximum exceeds ``inc_val - val`` once the rounding of those sums of
  root-scale numbers (within root_tol) is allowed for, and its pick lies
  within leaf_tol of that maximum.  Below the floor a block can neither
  beat the incumbent nor hold the pick of a leaf that does.

The prune margin.  The pass drops a prefix whose computed bound is below
``U - 4 tol``, with ``U = max(inc - tol, floor)``, where inc is the dive's
computed maximum.  The dive's block is scored and kept, so the computed
maximum M is at least inc, and no objective below ``M - tol`` or below the
floor is of use.  To first order in eps:

* every computed objective in the prefix is within tol / 2 of its exact
  value, which is at most the exact bound B;
* B is made of at most 2 nnz nonzero terms whose magnitudes add up to
  ``sum|V|`` (a free pair enters once from each end, undoubled), by sums
  and ``max(0, .)``, which adds no rounding, so the computed bound is
  within tol of B;
* forming ``U - 4 tol`` rounds by at most tol / 2 where ``|U| <= sum|V|``,
  and no computed bound comes near U where it is larger.

So every computed objective in a dropped prefix is below
``U - 4 tol + tol / 2 + tol + tol / 2 = U - 2 tol``: at least a tol below
both ``M - tol`` and the floor, room that covers the second-order terms.
No float data loses a pick to the pass.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .preprocess import _fold, _scan, _sign_parts, _split, fix_variables, merge_assignment
from .qubo import BinarySolution, QuboInstance, _Stack, _assignment, _objectives, _sequential_sum
from .qubo import _stack, _terms, _tie_tolerance

PROVEN_OPTIMAL = "proven_optimal"
HEURISTIC = "heuristic"
BUDGET_EXHAUSTED = "budget_exhausted"

MODE_AUTO = "auto"
MODE_EXACT = "exact"
MODE_HEURISTIC = "heuristic"

# cap on the objectives one chunk of an enumeration holds
_BLOCK_ELEMENTS = 1 << 16
# below this many free variables a branch-and-bound node is enumerated outright
_LEAF_BITS = 12
# enumerated bits read from a shared table; the others are folded into its coefficients
_LOW_BITS = 6
# work per nominal second of budget, measured on lone solves (CHANGES.md)
_SWEEP_PER_S = 3.0e7
_NODES_PER_S = 2.0e3
_MOVES_PER_S = 5.0e4


def _bits(codes: np.ndarray, width: int) -> np.ndarray:
    """0/1 rows as floats: column c holds bit c of each code."""
    return ((codes[:, None] >> np.arange(width)) & 1).astype(np.float64)


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by all solve paths.  Every run is deterministic in ``seed``.

    ``time_budget`` is nominal seconds per instance (None: no limit); it
    never reads the clock but caps the instance's own ``nodes_or_iterations``
    at, per second, 3e7 assignments a sweep scans, 2e3 nodes a search
    visits or 5e4 tabu moves across restarts (``_cap``).
    """

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
        # written so that a NaN budget, which would never run out, is refused
        if self.time_budget is not None and not self.time_budget > 0:
            raise ValueError("time_budget must be positive or None")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.tabu_tenure < 0:
            raise ValueError("tabu_tenure must be >= 0")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 unsigned bits")

    def _cap(self, per_s: float) -> float:
        """The work the budget allows one instance, at ``per_s`` per nominal second."""
        return np.inf if self.time_budget is None else self.time_budget * per_s


@dataclass(frozen=True)
class SolveOutcome:
    """One instance's solution, status and effort.

    ``nodes_or_iterations`` counts enumerated assignments, branch-and-bound
    nodes or tabu moves, the work the budget caps; auto mode's fallback adds
    its tabu moves to the search's nodes.  ``elapsed`` is the wall time in
    seconds of the solve call that returned the outcome: a batched call
    (``solve_batch``) gives each of its outcomes the time of the whole
    call, and auto mode's fallback adds the tabu time to the exact attempt's.
    """

    solution: BinarySolution
    status: str
    nodes_or_iterations: int
    elapsed: float


def one_flip_gain(instance: QuboInstance, bits, i: int) -> float:
    """Objective change from flipping bit i, without re-evaluating from scratch."""
    if not (0 <= i < instance.n):
        raise ValueError(f"variable index {i} out of range for n={instance.n}")
    x = _assignment(bits, instance.n)
    touch = (instance.rows == i) | (instance.cols == i)
    rows, cols = instance.rows[touch], instance.cols[touch]
    # a diagonal counts whatever x_i is; a pair counts through its other end
    partner = np.where(rows == cols, 1.0, x[rows + cols - i])
    return (1.0 - 2.0 * float(x[i])) * _sequential_sum(_terms(instance)[touch] * partner)


def solve_batch(
    instances: Sequence[QuboInstance], config: SolverConfig | None = None
) -> list[SolveOutcome]:
    """Provably optimal solves of equal-size instances: the exact engines' batch entry.

    Up to ``config.enum_threshold`` one ``_enumerate`` sweep in Gray-code
    order scores every instance, and the tie rule of the module docstring
    picks each solution.  Above it, ``fix_variables`` fixes each instance
    (one it empties is proven at one node) and ``_bnb_lockstep`` searches
    what remains.  An outcome does not depend on its batch mates: each
    instance has its own tolerance and cap, and one that reaches its cap
    unproven returns ``budget_exhausted`` with its best assignment so far.
    """
    config = config or SolverConfig()
    t0 = time.perf_counter()
    if not instances:
        return []
    stack, n, k = _stack(instances), instances[0].n, len(instances)
    if n <= config.enum_threshold:
        d, o = (np.stack(part) for part in zip(*map(_split, instances)))
        tol = _tie_tolerance(stack.terms)
        _values, codes, scanned = _enumerate(d, o, tol, True, config._cap(_SWEEP_PER_S))
        status = PROVEN_OPTIMAL if scanned == 1 << n else BUDGET_EXHAUSTED
        return _finish(stack, _bits(codes, n), [status] * k, [scanned] * k, t0)
    reps = [fix_variables(inst) for inst in instances]
    roots = [rep.reduced for rep in reps if rep.reduced.n]
    found = iter(_bnb_lockstep(roots, config) if roots else ())
    rows = []
    for inst, rep in zip(instances, reps):
        sub_bits, nodes, closed = next(found) if rep.reduced.n else ((), 1, True)
        bits = merge_assignment(inst.n, rep.assignments, rep.index_map, sub_bits)
        rows.append((bits, PROVEN_OPTIMAL if closed else BUDGET_EXHAUSTED, nodes))
    return _finish(stack, *zip(*rows), t0)


@functools.lru_cache(maxsize=None)
def _pairs(width: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions (i, j), i < j, of ``width`` variables, in row-major order."""
    return np.triu_indices(width, 1)


@functools.lru_cache(maxsize=None)
def _low_table(low: int, gray: bool) -> np.ndarray:
    """Scores every assignment of the ``low`` low bits, one column each.

    Column r is assignment r, or gray(r) = r ^ (r >> 1) in Gray order.  Its
    rows are a one, the low bits, then their ``_pairs`` products.
    """
    r = np.arange(1 << low)
    x = _bits(r ^ (r >> 1) if gray else r, low)
    i, j = _pairs(low)
    return np.hstack([np.ones((1 << low, 1)), x, x[:, i] * x[:, j]]).T.copy()


def _enumerate(
    d: np.ndarray,
    o: np.ndarray,
    tol: np.ndarray,
    gray: bool,
    cap: float = np.inf,
    floor: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Maximum of x^t m x over every assignment of each matrix of a stack, by a bounded pass.

    Matrix s has diagonal ``d[s]`` and off-diagonal part ``o[s]``
    (symmetric, zero diagonal); ``d`` is (a, w).  Assignments run in binary
    order, or in Gray-code order when ``gray``: index g stands for the
    assignment with code ``g ^ (g >> 1)``, bit v of a code being x_v.  The
    earliest assignment whose computed objective is at least the computed
    maximum minus ``tol[s]`` wins.  Zero rows padded at the end of a matrix
    change no pick in binary order: a padded assignment scores what its
    unpadded prefix scores and comes later.

    Index g splits into a block h of its high bits and a row r of its
    ``low = min(w, _LOW_BITS)`` low bits; the variables from ``low`` on
    hold h, or gray(h) in Gray order.  A prefix p at level t is the run of
    blocks with ``h >> t == p``, one aligned run in either order since
    ``gray(h) >> t == gray(h >> t)``.  It fixes the variables from
    ``low + t`` on, which fold into ``c + Σ l_i x_i + Σ_{i<j} 2 o_ij x_i x_j``
    over the others, and its bound is ``c + Σ_i max(0, l_i + Σ_{j≠i}
    max(0, o_ij))``.  A block (level 0) scores ``_low_table`` scaled by
    [c, l, 2 o_ij]; in Gray order an odd block runs through the table
    backwards (reflecting a Gray code flips its top bit).  Every term enters
    once: a diagonal, or an off-diagonal pair doubled, which the tie rule
    of the module docstring needs.

    The pass starts at the lowest level with at most about one chunk of
    prefixes, folded by one product, and has three steps:

    1. A dive takes, per matrix, the start prefix with the largest bound
       and then the child with the larger bound (the first on a tie) down
       to one block, and scores it.  Its maximum is the incumbent ``inc``.
    2. One level-synchronous pass over the (matrix, prefix) arrays drops a
       prefix whose bound is below ``max(inc - tol, floor) - 4 tol``: the
       module docstring proves that it holds no pick.  A level that grows
       past a chunk is cut into pieces, taken first to last, depth first.
    3. The surviving blocks are scored in sweep order, at most about
       ``_BLOCK_ELEMENTS`` objectives per product, and each matrix picks
       among the scored blocks that can still hold its pick (``_records``).

    ``floor[s]`` (default none) is a level below which the caller has no
    use for an objective of matrix s; where the computed maximum is below
    it, the value returned is below it too, and the code is not the tie
    rule's.  Memory holds a few copies of the matrices, a chunk of nodes
    per level and the kept blocks.  Only the first blocks that fit in
    ``cap`` assignments count, at least one.  Returns each matrix's
    computed value and assignment code at its pick, and the assignments
    those blocks cover, scored or dropped.
    """
    a, w = d.shape
    low, high = min(w, _LOW_BITS), max(w - _LOW_BITS, 0)
    rows = 1 << low
    blocks = max(1, int(min(cap, (1 << high) * rows)) // rows)  # min keeps an infinite cap from int
    table = _low_table(low, gray)
    twice = 2.0 * o
    pairs = twice[(slice(None), *_pairs(low))]
    # spare[t][s, i]: the positive pairs of variable i with the others that
    # level t leaves free, those below low + t
    pos = np.cumsum(np.maximum(o, 0.0), axis=2)
    spare = [pos[:, : low + t, low + t - 1] if low + t else d[:, :0] for t in range(high + 1)]

    def bound(t, s, cl):
        """The bound of each node at level t; row i of ``cl`` is node i's c, then its l."""
        return cl[:, 0] + np.maximum(cl[:, 1:] + spare[t][s], 0.0).sum(axis=1)

    def children(t, s, p, cl):
        """The two nodes below each node at level t, in sweep order: variable low + t - 1 fixed."""
        v = low + t - 1
        kid = np.empty((len(s), 2, 1 + v))
        kid[:, 0] = cl[:, : 1 + v]
        kid[:, 1, 0] = cl[:, 0] + cl[:, 1 + v]
        kid[:, 1, 1:] = cl[:, 1 : 1 + v] + twice[s, :v, v]
        if gray:  # an odd prefix sets the variable in its first child
            odd = np.flatnonzero(p & 1)
            kid[odd] = kid[odd, ::-1]
        return np.repeat(s, 2), (2 * p[:, None] + [0, 1]).ravel(), kid.reshape(-1, 1 + v)

    def score(s, cl):
        return np.hstack([cl, pairs[s]]) @ table

    t0 = high  # the start level
    while t0 and a << (high - t0 + 1) <= _BLOCK_ELEMENTS // (2 + w):
        t0 -= 1
    # the start prefixes, prefix-major: the fixed variables' bits y and
    # their pairs map to each matrix's c and l through one fold matrix
    f, fixed = low + t0, high - t0
    fi, fj = _pairs(fixed)
    h = np.arange(-(-blocks >> t0))
    y = _bits(h ^ (h >> 1) if gray else h, fixed)
    fold = np.zeros((fixed + fi.size, a, 1 + f))
    fold[:fixed, :, 0] = d[:, f:].T
    fold[fixed:, :, 0] = twice[:, f + fi, f + fj].T
    fold[:fixed, :, 1:] = twice[:, f:, :f].transpose(1, 0, 2)
    cl = np.hstack([y, y[:, fi] * y[:, fj]]) @ fold.reshape(len(fold), a * (1 + f))
    cl = cl.reshape(len(h), a, 1 + f)
    cl[..., 1:] += d[:, :f]
    s, p, cl = np.tile(np.arange(a), len(h)), np.repeat(h, a), cl.reshape(-1, 1 + f)
    todo = [(t0, s, p, cl, bound(t0, s, cl))]

    first = todo[0][-1].reshape(len(h), a).argmax(axis=0) * a + np.arange(a)
    s, p, cl = s[first], p[first], cl[first]
    for t in range(t0, 0, -1):
        s, p, cl = children(t, s, p, cl)
        pair = bound(t - 1, s, cl).reshape(a, 2)
        up = (pair[:, 1] > pair[:, 0]) & (p[1::2] << (t - 1) < blocks)
        s, p, cl = (x[2 * np.arange(a) + up] for x in (s, p, cl))
    dive, best = p, np.full(a, -np.inf)
    kept = _records(None, s, p, score(s, cl), best, tol)
    lim = (best - tol if floor is None else np.maximum(best - tol, floor)) - 4.0 * tol

    while todo:
        t, s, p, cl, b = todo.pop()
        keep = ((bound(t, s, cl) if b is None else b) >= lim[s]) & (p << t < blocks)
        if t == 0:
            keep &= p != dive[s]  # scored already
        s, p, cl = s[keep], p[keep], cl[keep]
        if t == 0:
            step = max(1, _BLOCK_ELEMENTS // rows)
            for k in range(0, len(s), step):
                cut = slice(k, k + step)
                kept = _records(kept, s[cut], p[cut], score(s[cut], cl[cut]), best, tol)
        elif len(s):
            # cut a level that grows past a chunk, the first piece on top
            step = max(1, _BLOCK_ELEMENTS // (1 + f))
            kids = children(t, s, p, cl)
            for k in reversed(range(0, 2 * len(s), step)):
                todo.append((t - 1, *(x[k : k + step] for x in kids), None))
    return (*_pick(kept, best - tol, rows, gray), blocks * rows)


def _records(kept, s, h, vals, best, tol):
    """The scored blocks that can still hold a pick, once blocks ``h`` of matrices ``s`` join.

    ``kept`` is a previous result (None at first): matrix, block, the
    block's objectives in table order and their maximum.  ``best``, each
    matrix's largest objective so far, is raised in place.  A block is kept
    while its maximum is within ``tol`` of that, since the final maximum is
    no lower.  When more than a few per matrix are kept, only blocks whose
    maximum is above every earlier kept block's of their matrix stay: an
    earlier block at least as high reaches any threshold first.
    """
    top = vals.max(axis=1)
    np.maximum.at(best, s, top)
    if kept is not None:
        s, h, vals, top = (np.concatenate(pair) for pair in zip(kept, (s, h, vals, top)))
    near = np.flatnonzero(top >= best[s] - tol[s])
    s, h, vals, top = s[near], h[near], vals[near], top[near]
    if len(s) > 4 * len(best):
        order = np.lexsort((h, s))
        s, h, vals, top = s[order], h[order], vals[order], top[order]
        # ranks of the maxima, offset per matrix, so one running maximum serves all
        key = s * len(top) + np.unique(top, return_inverse=True)[1].reshape(-1)
        rising = np.flatnonzero(key > np.concatenate(([-1], np.maximum.accumulate(key)[:-1])))
        s, h, vals, top = s[rising], h[rising], vals[rising], top[rising]
    return s, h, vals, top


def _pick(kept, thr: np.ndarray, rows: int, gray: bool) -> tuple[np.ndarray, np.ndarray]:
    """Value and code of each matrix's earliest objective at or above ``thr``, from ``_records``.

    Every matrix has a kept block that reaches its threshold.
    """
    s, h, vals, top = kept
    reach = np.flatnonzero(top >= thr[s])
    reach = reach[np.lexsort((h[reach], s[reach]))]
    reach = reach[np.unique(s[reach], return_index=True)[1]]  # one per matrix, in order
    h, vals = h[reach], vals[reach]
    if gray:  # an odd block runs through the table backwards
        odd = np.flatnonzero(h & 1)
        vals[odd] = vals[odd, ::-1]
    r = (vals >= thr[:, None]).argmax(axis=1)
    g = h * rows + r
    return vals[np.arange(len(r)), r], g ^ (g >> 1) if gray else g


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
    _delta, bit, strict = _scan(diag, off)
    x[strict & (bit == 1)] = 1
    for _step in range(4 * n):
        s = diag + 2.0 * (off @ x.astype(float))
        gains = (1.0 - 2.0 * x) * s
        i = int(np.argmax(gains))
        if gains[i] <= 0.0:
            break
        x[i] = 1 - x[i]
    return _objective(diag, off, x), x


class _Searches:
    """The branch-and-bound searches ``_bnb_lockstep`` advances, one row each.

    A search's root off-diagonal part ``off`` is stored once, with its
    ``preprocess._sign_parts``, and never copied per node.  A node is its
    folded diagonals, the free positions of its root, the bits fixed on its
    path and its constant, kept on its search's stack.  A search also keeps
    its incumbent and its root's tie tolerance.  Searches are compacted to
    the first ``len(ids)`` rows as they finish; rows past that are stale.
    """

    def __init__(self, roots: Sequence[QuboInstance], leaf_cap: int):
        k = len(roots)
        m = max(inst.n for inst in roots)
        self.ids = np.arange(k)
        self.nodes = np.zeros(k, dtype=np.int64)
        self.tol = np.empty(k)
        self.inc_val = np.empty(k)
        self.inc_bits = np.zeros((k, m), dtype=np.int8)
        self.off = np.zeros((k, m, m))
        depth = max(m - leaf_cap, 0) + 1  # one more than the branchings on a path
        self.stack_d = np.zeros((k, depth, m))
        self.stack_free = np.zeros((k, depth, m), dtype=bool)
        self.stack_x = np.zeros((k, depth, m), dtype=np.int8)
        self.stack_val = np.zeros((k, depth))
        self.top = np.ones(k, dtype=np.int64)  # stack sizes
        for s, inst in enumerate(roots):
            diag, off = _split(inst)
            f = diag.size
            self.tol[s] = _tie_tolerance(np.concatenate([diag, off.reshape(-1)]))
            self.inc_val[s], self.inc_bits[s, :f] = _greedy_ascent(diag, off)
            self.off[s, :f, :f] = off
            self.stack_d[s, 0, :f] = diag
            self.stack_free[s, 0, :f] = True
        self.parts = _sign_parts(self.off)

    def compact(self) -> int:
        """Move the searches with a pending node to the first rows; return their count."""
        live = np.flatnonzero(self.top[: self.ids.size])
        if live.size < self.ids.size:
            parts = [part for part in self.parts.values() if part is not self.off]
            arrays = [self.off, *parts, self.stack_d, self.stack_free, self.stack_x,
                      self.stack_val, self.top]
            for row, old in enumerate(live.tolist()):
                if row != old:
                    for arr in arrays:
                        arr[row] = arr[old]
            self.ids = self.ids[live]
        return live.size

    def leaves(self, at: np.ndarray, d, free, x, val) -> None:
        """Score the leaves at rows ``at`` and take each one that beats its incumbent."""
        size = free[at].sum(axis=1)
        width = int(size.max())
        # each leaf's free positions first, in ascending order
        where = np.argsort(~free[at], axis=1, kind="stable")[:, :width]
        valid = np.arange(width) < size[:, None]
        leaf_d = np.where(valid, np.take_along_axis(d[at], where, axis=1), 0.0)
        leaf_o = self.off[at[:, None, None], where[:, :, None], where[:, None, :]]
        leaf_o *= valid[:, :, None] & valid[:, None, :]
        tol = _tie_tolerance(np.concatenate([leaf_d, leaf_o.reshape(len(at), -1)], axis=1))
        who = self.ids[at]
        # below this a leaf's blocks cannot replace the incumbent (module docstring)
        floor = self.inc_val[who] - val[at] - tol
        sub_val, pick, _scanned = _enumerate(leaf_d, leaf_o, tol, False, floor=floor)
        better = val[at] + sub_val > self.inc_val[who] + self.tol[who]
        if better.any():
            at, who, where, valid = at[better], who[better], where[better], valid[better]
            self.inc_val[who] = val[at] + sub_val[better]
            bits = x[at]
            local = (pick[better, None] >> np.arange(width)) & 1
            kept = np.take_along_axis(bits, where, axis=1)
            np.put_along_axis(bits, where, np.where(valid, local, kept), axis=1)
            self.inc_bits[who] = bits

    def branch(self, at: np.ndarray, d, free, x, val, delta) -> None:
        """Push the two children of the nodes at rows ``at``, the first child on top."""
        d, free, x, val = d[at], free[at], x[at], val[at]
        b = np.argmax(np.where(free, np.abs(delta[at]), -1.0), axis=1)
        line = np.arange(at.size)
        db = d[line, b]
        d_on = d + 2.0 * self.off[at, b]
        free[line, b] = False
        x_on = x.copy()
        x_on[line, b] = 1
        on_first = db >= 0.0
        top = self.top[at]
        for slot, on in ((top, ~on_first), (top + 1, on_first)):
            self.stack_d[at, slot] = np.where(on[:, None], d_on, d)
            self.stack_x[at, slot] = np.where(on[:, None], x_on, x)
            self.stack_free[at, slot] = free
            self.stack_val[at, slot] = np.where(on, val + db, val)
        self.top[at] += 2


def _bnb_lockstep(
    roots: Sequence[QuboInstance], config: SolverConfig
) -> list[tuple[np.ndarray, int, bool]]:
    """Depth-first branch and bound of the ``_split`` of every root, advanced together.

    A search starts from the ``_greedy_ascent`` incumbent.  Each node folds
    the branching decisions into effective diagonals, fixes whatever
    ``preprocess._classify`` decides for the free submatrix with
    ``preprocess._fold``, the fold ``fix_variables`` runs, bounds the
    remainder by its positive-element sum, and enumerates it outright with
    ``_enumerate``, in binary order and with a floor, once
    ``min(config.enum_threshold, _LEAF_BITS)`` or fewer variables are
    left.  Branching picks the free
    variable with the largest slack magnitude (the first on a tie), value-1
    child first for a nonnegative effective diagonal.  A candidate replaces
    the incumbent only when it computes more than the root's tie tolerance
    above it, and a node whose bound cannot do that is pruned.  A pruned
    leaf is still a node but is not scored: its candidate is at most its
    bound.

    One loop step pops the current node of every unfinished search, folds
    all of them together, scores every leaf reached in the step with one
    ``_enumerate`` call and pushes the children of every other node its
    bound keeps.  A search whose next node would pass its cap stops, and
    each of its pending nodes counts once, so it closed if and only if its
    count is within the cap.  Searches share nothing, so a root walks the
    same nodes whatever roots share its batch; a lone ``solve_exact`` is a
    batch of one.  The node constants and bounds add over the batch's
    padded width, so on float data their rounding can depend on the batch,
    which the tie tolerances absorb except at a rounding-level tie with a
    threshold.  Returns (bits, nodes, closed) per root.
    """
    leaf_cap, cap = min(config.enum_threshold, _LEAF_BITS), config._cap(_NODES_PER_S)
    st = _Searches(roots, leaf_cap)
    while r := st.compact():
        out = st.nodes[st.ids] + 1 > cap
        if out.any():
            st.nodes[st.ids[out]] += st.top[:r][out]
            st.top[:r][out] = 0
            continue
        st.top[:r] -= 1
        at = (np.arange(r), st.top[:r])
        d, free, val = st.stack_d[at], st.stack_free[at], st.stack_val[at]
        x = st.stack_x[at]
        st.nodes[st.ids] += 1
        parts = {sign: part[:r] for sign, part in st.parts.items()}
        rounds, d, free, val, delta, pos = _fold(st.off[:r], d, free, val, parts)
        for fixed, bit, _strict, _delta in rounds:
            x[fixed & (bit == 1)] = 1
        positive = np.where(free, np.maximum(d, 0.0), 0.0).sum(axis=1)
        bound = val + (positive + 0.5 * np.where(free, pos, 0.0).sum(axis=1))
        keep = bound > st.inc_val[st.ids] + st.tol[st.ids]
        leaf = free.sum(axis=1) <= leaf_cap
        # a leaf's candidate is at most its bound, so a leaf the bound
        # prunes could not replace the incumbent and is not scored
        if (leaf & keep).any():
            st.leaves(np.flatnonzero(leaf & keep), d, free, x, val)
        if (keep & ~leaf).any():
            st.branch(np.flatnonzero(keep & ~leaf), d, free, x, val, delta)
    return [
        (st.inc_bits[s, : inst.n], int(st.nodes[s]), bool(st.nodes[s] <= cap))
        for s, inst in enumerate(roots)
    ]


def _finish(stack: _Stack, bits, statuses, efforts, t0: float) -> list[SolveOutcome]:
    """The outcomes of one solve call started at ``t0``, one per row of a ``qubo._Stack``.

    One ``qubo._objectives`` call scores each row of ``bits``; the wall
    time is taken once, after it, and every outcome carries it.
    """
    x = np.array(bits, dtype=np.float64)
    values = _objectives(stack, x).tolist()
    elapsed = time.perf_counter() - t0
    return [
        SolveOutcome(BinarySolution(tuple(b), value), status, effort, elapsed)
        for b, value, status, effort in zip(x.astype(np.int64).tolist(), values, statuses, efforts)
    ]


def solve_exact(instance: QuboInstance, config: SolverConfig | None = None) -> SolveOutcome:
    """Provably optimal solve: enumeration for small n, else preprocessing + branch and bound.

    A batch of one: ``solve_batch([instance], config)[0]``.  Budget
    exhaustion is reported through the status, never raised; the incumbent
    found so far is returned.
    """
    return solve_batch([instance], config)[0]


def solve_heuristic(instance: QuboInstance, config: SolverConfig | None = None) -> SolveOutcome:
    """Multi-start tabu search with best-improving 1-flip moves.

    Restarts begin from a seeded random assignment in which the variables
    the fixing rule of ``qrobust.preprocess`` fixes strictly take their
    forced values (dominant at 1, recessive at 0).  A move is tabu for
    ``min(tabu_tenure, n - 1)`` iterations after it is made unless it would
    beat the incumbent, so at most n - 1 variables are tabu at once and
    some move is always allowed; a restart ends after 10*n moves without
    improving the incumbent, and the search at its move cap.  Deterministic
    given the seed.

    The walking objective is maintained incrementally; every claimed
    improvement is re-verified against an exact recomputation so that
    accumulated rounding noise on non-integer data can neither corrupt the
    incumbent nor keep resetting the stall counter.
    """
    config = config or SolverConfig()
    t0 = time.perf_counter()
    move_cap = config._cap(_MOVES_PER_S)
    n = instance.n
    diag, off = _split(instance)
    _delta, bit, strict = _scan(diag, off)
    start_one = strict & (bit == 1)
    free = ~strict
    rng = np.random.default_rng(config.seed)
    stall, tenure = 10 * n, min(config.tabu_tenure, max(n - 1, 0))
    best_val = -np.inf
    best_bits = np.zeros(n, dtype=np.int8)
    moves = 0
    for _restart in range(config.restarts):
        x = np.zeros(n, dtype=np.int8)
        x[start_one] = 1
        x[free] = rng.integers(0, 2, size=int(free.sum()), dtype=np.int8)
        cur = _objective(diag, off, x)
        s = diag + 2.0 * (off @ x.astype(float))
        if cur > best_val:
            best_val, best_bits = cur, x.copy()
        tabu_until = np.zeros(n, dtype=np.int64)
        it = stale = 0
        while stale < stall and moves + 1 <= move_cap:
            it += 1
            gains = (1.0 - 2.0 * x) * s
            allowed = (tabu_until < it) | (cur + gains > best_val)
            cand = np.where(allowed, gains, -np.inf)
            i = int(np.argmax(cand))
            cur += float(gains[i])
            s = s + (2.0 if x[i] == 0 else -2.0) * off[:, i]
            x[i] = 1 - x[i]
            tabu_until[i] = it + tenure
            moves += 1
            if cur > best_val:
                # drift guard: trust only an exactly recomputed objective
                cur = _objective(diag, off, x)
            if cur > best_val:
                best_val, best_bits, stale = cur, x.copy(), 0
            else:
                stale += 1
        if moves + 1 > move_cap:
            break
    return _finish(_stack([instance]), [best_bits], [HEURISTIC], [moves], t0)[0]


def solve(instance: QuboInstance, config: SolverConfig | None = None) -> SolveOutcome:
    """Mode dispatch, as the module docstring states it: an exact attempt, or tabu search.

    In auto mode an instance above ``enum_threshold`` that the budget
    leaves unproven falls back to tabu search (``_fall_back``).
    """
    config = config or SolverConfig()
    if config.mode == MODE_HEURISTIC:
        return solve_heuristic(instance, config)
    return _fall_back(instance, config, solve_exact(instance, config))


def _fall_back(instance: QuboInstance, config: SolverConfig, exact: SolveOutcome) -> SolveOutcome:
    """The outcome of ``solve`` after the exact attempt ``exact``.

    It stands when proven, in exact mode, or up to ``enum_threshold``.
    Otherwise tabu search runs too, the better solution wins (the exact
    incumbent on a tie), the status is ``heuristic`` and the effort is the
    sum of both.
    """
    if exact.status == PROVEN_OPTIMAL or config.mode == MODE_EXACT:
        return exact
    if instance.n <= config.enum_threshold:
        return exact
    heur = solve_heuristic(instance, config)
    winner = exact if exact.solution.value >= heur.solution.value else heur
    effort = exact.nodes_or_iterations + heur.nodes_or_iterations
    return SolveOutcome(winner.solution, HEURISTIC, effort, exact.elapsed + heur.elapsed)


def _seeded(config: SolverConfig, i: int) -> SolverConfig:
    """The config of instance i of a batch: seed ``seed + i``, wrapped to 64 bits."""
    return replace(config, seed=(config.seed + i) % 2**64)


def _solve_all(instances: Sequence[QuboInstance], config: SolverConfig) -> list[SolveOutcome]:
    """The batch form of ``solve``: outcome i is ``solve(instances[i], _seeded(config, i))``.

    Apart from elapsed time: every instance has its own caps.
    """
    if config.mode == MODE_HEURISTIC:
        return [solve_heuristic(inst, _seeded(config, i)) for i, inst in enumerate(instances)]
    outcomes = solve_batch(instances, config)
    return [
        _fall_back(inst, _seeded(config, i), out)
        for i, (inst, out) in enumerate(zip(instances, outcomes))
    ]
