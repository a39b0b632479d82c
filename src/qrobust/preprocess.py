"""Variable fixing by diagonal dominance and the associated sensitivity ranges.

The fixing rule (Lewis & Glover, "QUBO problem preprocessing: theory and
empirical analysis", Networks 2017) reads, for variable i, the diagonal
c_ii, the doubled negative off-diagonal row sum N_i = 2 * sum_{j, c_ij < 0}
c_ij and the doubled positive one P_i:

* strict dominance: c_ii > 0 and c_ii + N_i > 0 puts x_i = 1 in every optimum;
* strict recessiveness: c_ii < 0 and c_ii + P_i < 0 puts x_i = 0 in every optimum;
* weak rules for a zero diagonal: with N_i = 0 < P_i, x_i = 1 is in some
  optimum; with P_i = 0 > N_i, x_i = 0 is;
* a variable whose diagonal and row are all zero stays free.

The slack of variable i is c_ii + N_i for a nonnegative diagonal and
c_ii + P_i for a negative one.  Fixed variables are folded out of the
matrix, which can enable further fixing, so the scan repeats to a
fixpoint.

There is one fold, ``_fold``.  It works on a batch of dense matrices,
each split into its diagonal vector and symmetric zero-diagonal
off-diagonal part, padded to one width, with a mask of its free
variables: a fixed variable is masked out, never cut out.
``fix_variables`` runs it on a batch of one and branch and bound on every
node; ``reduce_instance`` folds given bits with its ``_fold_ones``, and
the slack readers classify with its row sums, every row free (``_scan``).
Row sums add the free rows one at a time in ascending index
(``_column_sums``).  On float data the constant of the ones may differ in
its last bits from the compacted fold this one replaced, which grouped
that sum differently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .qubo import QuboInstance

FIX_ONE = "one"
FIX_ZERO = "zero"
FIX_NONE = "none"


@dataclass(frozen=True)
class FixReport:
    """Outcome of fixpoint variable fixing.

    For every completion y of the surviving variables,
    evaluate(original, merge(assignments, y)) == constant + evaluate(reduced, y).

    ``strict`` marks, per assignment, whether the fix came from a strict
    dominance inequality (holds in all optima) or from a weak all-one-sign
    rule (holds in at least one optimum); ``deltas`` records each
    variable's slack at the moment it was fixed.
    """

    assignments: tuple[tuple[int, int], ...]
    constant: float
    reduced: QuboInstance
    index_map: tuple[int, ...]
    rounds: int
    strict: tuple[bool, ...] = ()
    deltas: tuple[float, ...] = ()


@dataclass(frozen=True)
class SensitivityRecord:
    index: int
    diagonal: float
    delta: float
    fixable: str
    near_threshold: bool


@dataclass(frozen=True)
class SensitivityReport:
    records: tuple[SensitivityRecord, ...]

    def to_json_rows(self) -> list[dict]:
        return [
            {"index": r.index, "delta": r.delta, "fixable": r.fixable, "near": r.near_threshold}
            for r in self.records
        ]


def _split(instance: QuboInstance) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal vector and symmetric off-diagonal matrix (zero diagonal)."""
    o = instance.to_dense()
    d = o.diagonal().copy()
    np.fill_diagonal(o, 0.0)
    return d, o


def _instance(d: np.ndarray, o: np.ndarray, name: str | None) -> QuboInstance:
    """Sparse instance of a dense split, entries in (i, j) order."""
    q = np.triu(o)
    q[np.diag_indices(d.size)] = d
    rows, cols = np.nonzero(q)
    return QuboInstance(d.size, (rows, cols, q[rows, cols]), name=name)


def _sign_parts(o: np.ndarray) -> dict[float, np.ndarray]:
    """The elements of ``o`` of each sign that occurs, by sign; stored apart only if both do."""
    neg, pos = (o < 0.0).any(), (o > 0.0).any()
    if neg and pos:
        return {-1.0: np.minimum(o, 0.0), 1.0: np.maximum(o, 0.0)}
    return {-1.0: o} if neg else {1.0: o} if pos else {}


def _column_sums(part: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Column sums of each matrix of a stack over the rows ``rows`` selects, in ascending order."""
    return np.add.reduce(part, axis=1, where=rows[:, :, None])


def _sign_sums(parts: dict, free: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """N and P of each row's free submatrix; ``parts`` is ``_sign_parts`` of the rows."""
    sums = {sign: 2.0 * _column_sums(part, free) for sign, part in parts.items()}
    zero = np.zeros(free.shape)
    return sums.get(-1.0, zero), sums.get(1.0, zero)


def _classify(
    d: np.ndarray, neg: np.ndarray, pos: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fixing rule of the module docstring, elementwise.

    ``d`` holds diagonals and ``neg``/``pos`` the matching doubled negative
    and positive row sums (``_sign_sums``), in arrays of any one shape.
    Returns the slack ``delta``, the forced ``bit`` (1, 0, or -1 for free)
    and whether the fix is ``strict`` (holds in every optimum).  This is
    the only place the rule's comparisons are made.
    """
    up = d + neg
    dn = d + pos
    one = (d > 0.0) & (up > 0.0)
    zero = (d < 0.0) & (dn < 0.0)
    strict = one | zero
    flat = d == 0.0
    if flat.any():  # the weak rules; most rows have a nonzero diagonal
        one = one | (flat & (neg == 0.0) & (pos > 0.0))
        zero = zero | (flat & (pos == 0.0) & (neg < 0.0))
    return np.where(d >= 0.0, up, dn), np.where(one, 1, zero - 1), strict


def _scan(d: np.ndarray, o: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_classify`` of every variable of one dense split: a batch of one, every row free."""
    neg, pos = _sign_sums(_sign_parts(o[None]), np.ones((1, d.size), dtype=bool))
    return _classify(d, neg[0], pos[0])


def _fold_ones(off: np.ndarray, d: np.ndarray, val: np.ndarray, one: np.ndarray) -> tuple:
    """(d, val) of each row with the variables ``one`` selects set to 1."""
    if not one.any():
        return d, val
    s1 = one.astype(float)
    col = _column_sums(off, one)
    return d + 2.0 * col, val + ((d * s1).sum(axis=1) + (col * s1).sum(axis=1))


def _fold(off: np.ndarray, d: np.ndarray, free: np.ndarray, val: np.ndarray, parts=None) -> tuple:
    """Fix whatever ``_classify`` decides in each row's free submatrix, to a fixpoint.

    Row s has diagonals ``d[s]``, off-diagonal part ``off[s]`` (``parts``
    is ``_sign_parts(off)``, if given), free variables ``free[s]`` and
    constant ``val[s]``.  Each round fixes every free variable a rule
    decides, folds the ones in and masks all of them out.  Returns (rounds,
    d, free, val, delta, pos): a (fixed, bit, strict, delta) per fixing
    round, ``fixed`` masking what it fixed, then the folded rows, and the
    slack and P of the last round, which fixed nothing.
    """
    parts = _sign_parts(off) if parts is None else parts
    rounds = []
    while True:
        neg, pos = _sign_sums(parts, free)
        delta, bit, strict = _classify(d, neg, pos)
        fixed = free & (bit >= 0)
        if not fixed.any():
            return rounds, d, free, val, delta, pos
        rounds.append((fixed, bit, strict, delta))
        d, val = _fold_ones(off, d, val, fixed & (bit == 1))
        free = free & ~fixed


def fix_slack(instance: QuboInstance, i: int) -> float:
    """Signed slack of the fixing rules at variable i.

    Positive values (nonnegative diagonal) certify x_i = 1 in every optimum
    and measure how far c_ii may decrease before the guarantee breaks;
    negative values (negative diagonal) certify x_i = 0 and measure, in
    magnitude, how far c_ii may increase.
    """
    if not (0 <= i < instance.n):
        raise ValueError(f"variable index {i} out of range for n={instance.n}")
    return float(_scan(*_split(instance))[0][i])


def pair_slack(instance: QuboInstance, i: int, j: int) -> float:
    """How far the symmetric pair value c_ij may decrease with x_i still pinned at 1.

    Requires the strict dominance rule to hold at i.  The slack is half the
    diagonal slack because the pair value enters the objective twice.
    """
    if not (0 <= i < instance.n) or not (0 <= j < instance.n):
        raise ValueError("variable index out of range")
    if i == j:
        raise ValueError("pair slack requires two distinct variables")
    delta, bit, strict = _scan(*_split(instance))
    if bit[i] != 1 or not strict[i]:
        raise ValueError(f"variable {i} is not strictly dominant (slack {delta[i]})")
    return float(delta[i]) / 2.0


def reduce_instance(
    instance: QuboInstance, assignments: Iterable[tuple[int, int]]
) -> tuple[QuboInstance, float]:
    """Fold fixed variables out of the matrix.

    Fixing x_i = 1 moves c_ii into the constant and adds 2*c_ij to every
    remaining diagonal c_jj; fixing x_i = 0 just deletes row and column i.
    Returns the densely reindexed instance over the survivors and the
    accumulated constant; the caller can recover original indices from the
    survivors' sorted order.
    """
    bit = np.full(instance.n, -1, dtype=np.int8)
    for i, b in assignments:
        if not (0 <= i < instance.n):
            raise ValueError(f"assignment index {i} out of range")
        if b not in (0, 1):
            raise ValueError(f"assignment bit must be 0 or 1, got {b!r}")
        if bit[i] >= 0:
            raise ValueError(f"duplicate assignment for variable {i}")
        bit[i] = b
    d, o = _split(instance)
    d, constant = _fold_ones(o[None], d[None], np.zeros(1), (bit == 1)[None])
    keep = (bit < 0).nonzero()[0]
    return _instance(d[0, keep], o[np.ix_(keep, keep)], instance.name), float(constant[0])


def fix_variables(instance: QuboInstance) -> FixReport:
    """Fix every variable the dominance rules decide, repeating to a fixpoint.

    Each round scans the unfixed variables in ascending index against the
    current reduced matrix, fixes all that satisfy a rule, folds them out
    and rescans, because folding can newly enable a rule.  The final no-op
    scan counts toward ``rounds``.
    """
    d, o = _split(instance)
    every = np.ones((1, d.size), dtype=bool)
    rounds, d, free, constant, _delta, _pos = _fold(o[None], d[None], every, np.zeros(1))
    at, bits, strict, deltas = [], [], [], []
    for fixed, bit, sure, delta in rounds:
        at += fixed.nonzero()[1].tolist()
        bits += bit[fixed].tolist()
        strict += sure[fixed].tolist()
        deltas += delta[fixed].tolist()
    keep = free[0].nonzero()[0]
    return FixReport(
        assignments=tuple(zip(at, bits)),
        constant=float(constant[0]),
        reduced=_instance(d[0, keep], o[np.ix_(keep, keep)], instance.name) if rounds else instance,
        index_map=tuple(keep.tolist()),
        rounds=len(rounds) + 1,
        strict=tuple(strict),
        deltas=tuple(deltas),
    )


def merge_assignment(
    n: int,
    assignments: Sequence[tuple[int, int]],
    index_map: Sequence[int],
    completion: Sequence[int],
) -> tuple[int, ...]:
    """Recombine fixed bits with a completion of the surviving variables."""
    bits = [0] * n
    for i, b in assignments:
        bits[i] = b
    for local, b in zip(index_map, completion):
        bits[local] = int(b)
    return tuple(bits)


def sensitivity_report(instance: QuboInstance, near_tolerance: float = 0.0) -> SensitivityReport:
    """Per-variable slack, fixability and near-threshold flags.

    ``near_threshold`` marks unfixable variables whose slack magnitude is
    within the tolerance, i.e. those a small coefficient change could pin.
    """
    if not near_tolerance >= 0.0:  # refuses NaN too
        raise ValueError(f"near tolerance must be >= 0, got {near_tolerance}")
    d, o = _split(instance)
    delta, bit, _strict = _scan(d, o)
    records = []
    for i, (diagonal, slack, b) in enumerate(zip(d.tolist(), delta.tolist(), bit.tolist())):
        fixable = FIX_ONE if b == 1 else FIX_ZERO if b == 0 else FIX_NONE
        near = fixable == FIX_NONE and abs(slack) <= near_tolerance
        records.append(
            SensitivityRecord(
                index=i, diagonal=diagonal, delta=slack, fixable=fixable, near_threshold=near
            )
        )
    return SensitivityReport(records=tuple(records))
