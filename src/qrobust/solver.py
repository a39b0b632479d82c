"""Exact and heuristic maximization of the binary quadratic objective.

Three engines share one entry point:

* full enumeration in Gray-code order for small instances,
* depth-first branch and bound over the preprocessed matrix, bounded by
  the positive-element sum of the free submatrix, for medium instances,
* multi-start tabu search with 1-flip moves for everything larger.

The exact engines each have one kernel that takes a batch of instances;
a lone ``solve_exact`` is a batch of one.

Branch and bound has one search, ``_bnb_lockstep``.  It keeps one search
per instance and advances all of them together, one node of each per
step, on padded arrays.  Each instance walks its own search, the one it
walks alone: same nodes, same branching, same incumbent rule, same bits
(up to the rounding ``_bnb_lockstep`` describes).  Batching only shares
the numpy calls of a step, and the budget of the batch.

Enumeration has one kernel, ``solve_batch``.  It scores a batch of
instances of equal size in one sweep: the objective is linear in the
coefficient values, so one table of pair products ``x_i x_j`` over the
batch's union support times a value matrix (one column per instance)
gives every instance's objective for a block of assignments at once.

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

import functools
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .preprocess import _classify, _sign_sums, _split, fix_variables, merge_assignment
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
# element cap on the objectives of one block of leaves scored together
_LEAF_ELEMENTS = 1 << 14
# leaf bits read from a shared table; the others are folded into its coefficients
_LEAF_LOW_BITS = 6


def _bits(codes: np.ndarray, width: int) -> np.ndarray:
    """0/1 rows as floats: column c holds bit c of each code."""
    return ((codes[:, None] >> np.arange(width)) & 1).astype(np.float64)


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
    """One instance's solution, status and effort.

    ``nodes_or_iterations`` counts enumerated assignments, branch-and-bound
    nodes or tabu moves.  ``elapsed`` is the wall time in seconds of the
    solve call that returned the outcome: a batched call (``solve_batch``,
    ``_bnb_batch``) gives each of its outcomes the time of the whole call,
    and auto mode's fallback adds the tabu time to the exact attempt's.
    """

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
    codes = [g ^ (g >> 1) for g in first.tolist()]
    bits = [[(c >> v) & 1 for v in range(n)] for c in codes]
    return _finish([(inst, b, status, scanned) for inst, b in zip(instances, bits)], t0)


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
    _delta, bit, strict = _classify(diag, *_sign_sums(off))
    x[strict & (bit == 1)] = 1
    for _step in range(4 * n):
        s = diag + 2.0 * (off @ x.astype(float))
        gains = (1.0 - 2.0 * x) * s
        i = int(np.argmax(gains))
        if gains[i] <= 0.0:
            break
        x[i] = 1 - x[i]
    return _objective(diag, off, x), x


@functools.lru_cache(maxsize=None)
def _leaf_tables(width: int) -> tuple:
    """Tables that score every assignment of ``width`` leaf variables.

    Assignment t (bit j of t for local variable j, so t runs in binary
    order) splits into its low ``low`` bits and its high bits h.  For fixed
    h the objective is linear in the low bits and their pair products, so
    it is row r of ``table`` (columns: the low bits, their pair products
    (i, j) for i < j, then a one) dotted with coefficients folded from h.
    Returns (low, i, j, table transposed, high bits of each h).
    """
    low = min(width, _LEAF_LOW_BITS)
    x = _bits(np.arange(1 << low), low)
    i, j = np.triu_indices(low, 1)
    table = np.hstack([x, x[:, i] * x[:, j], np.ones((1 << low, 1))]).T.copy()
    return low, i, j, table, _bits(np.arange(1 << (width - low)), width - low)


def _leaf_max(d: np.ndarray, o: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maximum of x^t m x over every assignment of each leaf of a stack.

    Leaf s is the small dense matrix with diagonal ``d[s]`` and
    off-diagonal part ``o[s]`` (symmetric, zero diagonal); ``d`` is
    (a, width).  Ties follow the enumeration's rule in binary order: the
    earliest assignment within the tie tolerance of the leaf's matrix of the
    computed maximum wins.  A leaf with fewer variables is padded with zero
    rows at the end; a padded assignment scores what its unpadded prefix
    scores and comes later in binary order, so the pick is unchanged.
    Leaves are scored a block at a time, so one product holds at most about
    ``_LEAF_ELEMENTS`` objectives.  Returns each leaf's value and its
    assignment as a binary index.
    """
    a, width = d.shape
    low, i, j, table, high = _leaf_tables(width)
    blocks = high.shape[0]
    tol = _tie_tolerance(np.concatenate([d, o.reshape(a, -1)], axis=1).T)
    values = np.empty(a)
    picks = np.empty(a, dtype=np.int64)
    step = max(1, _LEAF_ELEMENTS >> width)
    for lo in range(0, a, step):
        sl = slice(lo, lo + step)
        dd, oo = d[sl], o[sl]
        c = dd.shape[0]
        coef = np.empty((c, blocks, table.shape[0]))
        coef[:, :, :low] = dd[:, None, :low] + 2.0 * (high @ oo[:, low:, :low])
        coef[:, :, low:-1] = 2.0 * oo[:, i, j][:, None, :]
        quad = ((high @ oo[:, low:, low:]) * high).sum(-1)
        coef[:, :, -1] = (high @ dd[:, low:, None])[:, :, 0] + quad
        vals = (coef.reshape(c * blocks, -1) @ table).reshape(c, -1)
        best = vals.max(axis=1)
        t = (vals >= (best - tol[sl])[:, None]).argmax(axis=1)
        picks[sl] = t
        values[sl] = vals[np.arange(c), t]
    return values, picks


class _Searches:
    """The branch-and-bound searches ``_bnb_lockstep`` advances, one row each.

    A search's root off-diagonal part ``off`` is stored once and never
    copied per node; when roots hold elements of both signs, its negative
    and positive elements are stored apart as well, for ``sign_sums``.  A
    node is its folded diagonals, the free positions of its root, the bits
    fixed on its path and its constant, kept on its search's stack.  A
    search also keeps its incumbent and its root's tie tolerance.  Searches
    are compacted to the first ``len(ids)`` rows as they finish; rows past
    that are stale.
    """

    def __init__(self, roots: Sequence[QuboInstance], leaf_cap: int):
        k = len(roots)
        m = max(inst.n for inst in roots)
        offs = [inst.vals[inst.rows != inst.cols] for inst in roots]
        signs = [sign for sign in (-1.0, 1.0) if any((sign * v > 0.0).any() for v in offs)]
        self.ids = np.arange(k)
        self.nodes = np.zeros(k, dtype=np.int64)
        self.closed = np.ones(k, dtype=bool)
        self.tol = np.empty(k)
        self.inc_val = np.empty(k)
        self.inc_bits = np.zeros((k, m), dtype=np.int8)
        self.off = np.zeros((k, m, m))
        # the elements of each sign present; stored apart only when both are
        self.parts = {sign: self.off for sign in signs}
        if len(signs) == 2:
            self.parts = {sign: np.zeros((k, m, m)) for sign in signs}
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
            for sign, part in self.parts.items():
                if part is not self.off:
                    clip = np.minimum if sign < 0.0 else np.maximum
                    clip(off, 0.0, out=part[s, :f, :f])
            self.stack_d[s, 0, :f] = diag
            self.stack_free[s, 0, :f] = True

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

    @staticmethod
    def column_sums(part: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Sums over the rows of ``part`` that ``mask`` selects, in ascending row order.

        Rows are added one at a time (the sum does not run along the fast
        axis), and a masked row is skipped, so each sum equals the sum
        ``_sign_sums`` and ``_fold_fixed`` take over the compacted matrix.
        """
        return np.add.reduce(part[: mask.shape[0]], axis=1, where=mask[:, :, None])

    def sign_sums(self, free: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``_sign_sums`` of every row's free submatrix, on the padded rows."""
        sums = {sign: 2.0 * self.column_sums(part, free) for sign, part in self.parts.items()}
        zero = np.zeros(free.shape)
        return sums.get(-1.0, zero), sums.get(1.0, zero)

    def fold(self, d, free, x, val) -> tuple:
        """``preprocess._fold`` of every row's node, one round for all rows at a time.

        Each round classifies the free variables with ``_classify``.
        Updates ``x`` in place and returns the folded (d, free, val) with
        the slack and the positive row sums of the last round, which fixed
        nothing.
        """
        while True:
            neg, pos = self.sign_sums(free)
            delta, bit, _strict = _classify(d, neg, pos)
            one = free & (bit == 1)
            fixed = free & (bit >= 0)
            if not fixed.any():
                return d, free, val, delta, pos
            s1 = one.astype(float)
            col = self.column_sums(self.off, one)
            val = val + ((d * s1).sum(axis=1) + (col * s1).sum(axis=1))
            d = d + 2.0 * col
            x[one] = 1
            free = free & ~fixed

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
        sub_val, pick = _leaf_max(leaf_d, leaf_o)
        who = self.ids[at]
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
    roots: Sequence[QuboInstance], enum_threshold: int, deadline: float | None
) -> list[tuple[np.ndarray, int, bool]]:
    """Depth-first branch and bound of the ``_split`` of every root, advanced together.

    A search starts from the ``_greedy_ascent`` incumbent.  Each node folds
    the branching decisions into effective diagonals, fixes whatever
    ``preprocess._classify`` decides for the free submatrix (to a fixpoint,
    as ``preprocess._fold`` does), bounds the remainder by its
    positive-element sum, and enumerates it outright with ``_leaf_max``
    once ``min(enum_threshold, _LEAF_BITS)`` or fewer variables are left.
    Branching picks the free variable with the largest slack magnitude
    (the first on a tie), value-1 child first for a nonnegative effective
    diagonal.  A candidate replaces the incumbent only when it computes
    more than the root's tie tolerance above it, and a node whose bound
    cannot do that is pruned.  A pruned leaf is still a node but is not
    scored: its candidate is at most its bound.

    One loop step pops the current node of every unfinished search, folds
    all of them with one batched product per fixing round, scores every
    leaf reached in the step with one ``_leaf_max`` call and pushes the
    children of every other node its bound keeps.  Searches share nothing
    but the deadline, so a root walks the same nodes whatever roots share
    its batch; a lone ``solve_exact`` is a batch of one.  Row sums run as
    ``_sign_sums`` runs them; the node constants and bounds add over the
    batch's padded width, so on float data their rounding can depend on
    the batch, which the tie tolerances absorb except at a rounding-level
    tie with a threshold.  Returns (bits, nodes, closed) per root.
    """
    leaf_cap = min(enum_threshold, _LEAF_BITS)
    st = _Searches(roots, leaf_cap)
    while r := st.compact():
        if deadline is not None and time.perf_counter() > deadline:
            # every pending node counts once and returns
            st.nodes[st.ids] += st.top[:r]
            st.closed[st.ids] = False
            break
        st.top[:r] -= 1
        at = (np.arange(r), st.top[:r])
        d, free, val = st.stack_d[at], st.stack_free[at], st.stack_val[at]
        x = st.stack_x[at]
        st.nodes[st.ids] += 1
        d, free, val, delta, pos = st.fold(d, free, x, val)
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
        (st.inc_bits[s, : inst.n], int(st.nodes[s]), bool(st.closed[s]))
        for s, inst in enumerate(roots)
    ]


def _finish(rows, t0: float) -> list[SolveOutcome]:
    """The outcomes of one solve call started at ``t0``.

    ``rows`` holds one (instance, bits, status, effort) per outcome.  The
    wall time is taken once, after every ``evaluate``, and every outcome
    carries it.
    """
    solved = []
    for instance, bits, status, effort in rows:
        bits_t = tuple(int(b) for b in bits)
        solved.append((BinarySolution(bits_t, evaluate(instance, bits_t)), status, effort))
    elapsed = time.perf_counter() - t0
    return [SolveOutcome(sol, status, effort, elapsed) for sol, status, effort in solved]


def solve_exact(instance: QuboInstance, config: SolverConfig | None = None) -> SolveOutcome:
    """Provably optimal solve: enumeration for small n, else preprocessing + branch and bound.

    Either way it is a batch of one: ``solve_batch`` up to
    ``enum_threshold``, ``_bnb_batch`` above.  Budget exhaustion is
    reported through the status, never raised; the incumbent found so far
    is returned.
    """
    config = config or SolverConfig()
    if instance.n <= config.enum_threshold:
        return solve_batch([instance], config)[0]
    return _bnb_batch([instance], config)[0]


def _bnb_batch(instances: Sequence[QuboInstance], config: SolverConfig) -> list[SolveOutcome]:
    """``solve_exact`` of instances above ``enum_threshold``, searched in lockstep.

    Each instance's variables are fixed by ``fix_variables``; an instance
    that fixing empties is proven at one node, and ``_bnb_lockstep``
    searches the reduced instances that remain.  Outcome i equals a lone
    ``solve_exact(instances[i], config)`` in bits, value, status and node
    count when neither runs out of budget.  The instances share
    ``len(instances) * time_budget`` seconds from the start, as a sweep's
    instances do; when that runs out, every unfinished search returns
    ``budget_exhausted`` with its incumbent.
    """
    t0 = time.perf_counter()
    budget = config.time_budget
    deadline = t0 + len(instances) * budget if budget is not None else None
    reps = [fix_variables(inst) for inst in instances]
    roots = [rep.reduced for rep in reps if rep.reduced.n]
    found = iter(_bnb_lockstep(roots, config.enum_threshold, deadline) if roots else ())
    rows = []
    for inst, rep in zip(instances, reps):
        sub_bits, nodes, closed = next(found) if rep.reduced.n else ((), 1, True)
        bits = merge_assignment(inst.n, rep.assignments, rep.index_map, sub_bits)
        rows.append((inst, bits, PROVEN_OPTIMAL if closed else BUDGET_EXHAUSTED, nodes))
    return _finish(rows, t0)


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
        return _finish([(instance, (), HEURISTIC, 0)], t0)[0]
    diag, off = _split(instance)
    _delta, bit, strict = _classify(diag, *_sign_sums(off))
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
    return _finish([(instance, best_bits, HEURISTIC, moves)], t0)[0]


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
    return _fall_back(instance, config, solve_exact(instance, config))


def _fall_back(instance: QuboInstance, config: SolverConfig, exact: SolveOutcome) -> SolveOutcome:
    """Auto mode's outcome after an exact attempt above ``enum_threshold``.

    A proven optimum stands.  Otherwise tabu search runs too, the better
    solution wins (the exact incumbent on a tie), the status is
    ``heuristic`` and the effort is the sum of both.
    """
    if exact.status == PROVEN_OPTIMAL:
        return exact
    heur = solve_heuristic(instance, config)
    winner = exact if exact.solution.value >= heur.solution.value else heur
    return SolveOutcome(
        solution=winner.solution,
        status=HEURISTIC,
        nodes_or_iterations=exact.nodes_or_iterations + heur.nodes_or_iterations,
        elapsed=exact.elapsed + heur.elapsed,
    )
