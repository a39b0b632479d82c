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
fixpoint.  Everything here works on a dense split of the matrix into its
diagonal vector and its symmetric, zero-diagonal off-diagonal part, so row
sums run in index order whatever order the coefficients were stored in.
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


def _sign_sums(o: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The doubled negative and positive row sums N and P of the module docstring.

    They are taken as column sums of the symmetric ``o``, which numpy adds
    up one row at a time, so each runs in ascending index order.  Skipping
    zeros does not change such a sum, which lets ``solver._Searches``
    reproduce it bit for bit on a masked, padded matrix.
    """
    return 2.0 * np.minimum(o, 0.0).sum(axis=0), 2.0 * np.maximum(o, 0.0).sum(axis=0)


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


def _fold_fixed(
    d: np.ndarray, o: np.ndarray, bit: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Fold the variables with ``bit`` 0 or 1 out of (d, o) as ``reduce_instance`` does.

    Returns the constant, the survivors' positions and their (d, o).  The
    folded diagonals add column sums in ascending index order, as
    ``_sign_sums`` does.
    """
    keep = (bit < 0).nonzero()[0]
    s1 = (bit == 1).nonzero()[0]
    ones = o.take(s1, axis=0)
    constant = float(d[s1].sum() + ones.take(s1, axis=1).sum())
    d = d[keep] + (2.0 * ones.sum(axis=0)[keep] if s1.size else 0.0)
    return constant, keep, d, o.take(keep, axis=0).take(keep, axis=1)


def _fold(d: np.ndarray, o: np.ndarray, constant: float = 0.0) -> tuple:
    """Fix whatever ``_classify`` decides and fold it out, repeating to a fixpoint.

    Each round classifies the survivors against the current folded matrix
    and fixes all that a rule decides at once.  Returns (steps, constant,
    survivors, d, o, delta): one (positions, bits, strict, deltas) step per
    fixing round in ascending position, ``constant`` plus every round's
    constant, the survivors' positions and folded (d, o), and their slack
    in the final scan, which fixed nothing.  Positions index the input.
    """
    survivors = np.arange(d.size)
    steps = []
    while True:
        delta, bit, strict = _classify(d, *_sign_sums(o))
        fixed = bit >= 0
        if not fixed.any():
            return steps, constant, survivors, d, o, delta
        hit = fixed.nonzero()[0]
        steps.append((survivors[hit], bit[hit], strict[hit], delta[hit]))
        step, keep, d, o = _fold_fixed(d, o, bit)
        constant += step
        survivors = survivors[keep]


def fix_slack(instance: QuboInstance, i: int) -> float:
    """Signed slack of the fixing rules at variable i.

    Positive values (nonnegative diagonal) certify x_i = 1 in every optimum
    and measure how far c_ii may decrease before the guarantee breaks;
    negative values (negative diagonal) certify x_i = 0 and measure, in
    magnitude, how far c_ii may increase.
    """
    if not (0 <= i < instance.n):
        raise ValueError(f"variable index {i} out of range for n={instance.n}")
    d, o = _split(instance)
    return float(_classify(d, *_sign_sums(o))[0][i])


def pair_slack(instance: QuboInstance, i: int, j: int) -> float:
    """How far the symmetric pair value c_ij may decrease with x_i still pinned at 1.

    Requires the strict dominance rule to hold at i.  The slack is half the
    diagonal slack because the pair value enters the objective twice.
    """
    if not (0 <= i < instance.n) or not (0 <= j < instance.n):
        raise ValueError("variable index out of range")
    if i == j:
        raise ValueError("pair slack requires two distinct variables")
    d, o = _split(instance)
    delta, bit, strict = _classify(d, *_sign_sums(o))
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
    constant, _keep, d, o = _fold_fixed(*_split(instance), bit)
    return _instance(d, o, instance.name), constant


def fix_variables(instance: QuboInstance) -> FixReport:
    """Fix every variable the dominance rules decide, repeating to a fixpoint.

    Each round scans the unfixed variables in ascending index against the
    current reduced matrix, fixes all that satisfy a rule, folds them out
    and rescans, because folding can newly enable a rule.  The final no-op
    scan counts toward ``rounds``.
    """
    steps, constant, survivors, d, o, _delta = _fold(*_split(instance))
    assignments: list[tuple[int, int]] = []
    strict_flags: list[bool] = []
    fix_deltas: list[float] = []
    for positions, bits, strict, deltas in steps:
        assignments += zip(positions.tolist(), bits.tolist())
        strict_flags += strict.tolist()
        fix_deltas += deltas.tolist()
    return FixReport(
        assignments=tuple(assignments),
        constant=constant,
        reduced=_instance(d, o, instance.name) if steps else instance,
        index_map=tuple(survivors.tolist()),
        rounds=len(steps) + 1,
        strict=tuple(strict_flags),
        deltas=tuple(fix_deltas),
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
    if near_tolerance < 0.0:
        raise ValueError(f"near tolerance must be >= 0, got {near_tolerance}")
    d, o = _split(instance)
    delta, bit, _strict = _classify(d, *_sign_sums(o))
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
