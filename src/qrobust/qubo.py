"""Sparse symmetric QUBO instances: objective evaluation, bounds, file I/O.

The model maximized everywhere in this package is

    f(x) = sum_i c_ii x_i + 2 * sum_{i<j} c_ij x_i x_j,   x_i in {0, 1},

i.e. the quadratic form x^t Q x of a symmetric matrix Q whose upper
triangle is stored sparsely.  An entry keyed (i, j) with i < j stands for
both c_ij and c_ji, hence the doubling; absent entries are exactly zero.

An instance stores its upper triangle as three read-only arrays in COO
form: ``rows`` and ``cols`` (int64) and ``vals`` (float64), sorted by
(i, j), without zeros.  Equal-size instances stack into one term matrix on
their union support, zero where an instance has no entry (``_stack``).
Objectives, positive-element sums and tie tolerances add terms in support
order from 0.0 (``_sequential_sum``), where a zero has no effect, so a
stacked instance gets the values and tolerance it gets alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

import numpy as np

Key = tuple[int, int]


class ParseError(ValueError):
    """Malformed instance text; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _support(n: int, data, width: int, label: str) -> list[np.ndarray]:
    """The one check of a sparse upper triangle, given as a mapping or as arrays.

    ``data`` maps (i, j) to ``width`` values (a bare value when ``width`` is
    1), or is a tuple (rows, cols, *values) of equal-length 1-D arrays.
    Returns read-only int64 rows and cols and ``width`` float64 value
    arrays, sorted by (i, j), without the positions where every value is
    zero.  Rows and cols given as read-only int64 arrays, already sorted
    and with no position dropped, are returned as they are, so instances
    built on one support share it; any other input is copied, and a
    writable one is never frozen.  A position outside 0 <= i <= j < n, a
    repeated position or a NaN or infinite value raises ValueError naming
    the ``label``; magnitudes (the larger of a position's) whose doubled sum
    is inf raise one too, as an objective could overflow to NaN.
    """
    if isinstance(data, Mapping):
        keys = np.array(list(data), dtype=np.int64).reshape(-1, 2).T
        data = (*keys, *np.array(list(data.values()), dtype=np.float64).reshape(len(data), width).T)
    rows, cols, *values = data
    # an unpickled array has a dtype object of its own, which asarray would
    # answer with a new view
    rows, cols = (
        a if isinstance(a, np.ndarray) and a.dtype == np.int64 else np.asarray(a, dtype=np.int64)
        for a in (rows, cols)
    )
    values = np.array(values, dtype=np.float64)
    if rows.ndim != 1 or cols.shape != rows.shape or values.shape != (width, rows.size):
        raise ValueError(f"need rows, cols and {width} value arrays, all 1-D of one length")
    for bad, problem in (
        ((rows < 0) | (rows > cols) | (cols >= n), f"out of range for n={n}"),
        (~np.isfinite(values).all(axis=0), "has a NaN or infinite value"),
    ):
        if bad.any():
            raise ValueError(f"{label} ({rows[bad.argmax()]}, {cols[bad.argmax()]}) {problem}")
    with np.errstate(over="ignore"):
        if 2.0 * np.abs(values).max(axis=0).sum() == np.inf:
            raise ValueError("coefficients overflow: doubled, their magnitudes sum to inf")
    key = rows * n + cols
    order = np.flatnonzero(values.any(axis=0))
    order = order[np.argsort(key[order], kind="stable")]
    repeated = np.flatnonzero(np.diff(key[order]) == 0)
    if repeated.size:
        raise ValueError(f"{label} {divmod(int(key[order[repeated[0]]]), n)} is repeated")
    kept = np.array_equal(order, np.arange(rows.size))
    out = [a if kept and _read_only(a) else a[order] for a in (rows, cols)]
    out += list(values[:, order])
    for a in out:
        a.setflags(write=False)
    return out


def _read_only(a: np.ndarray) -> bool:
    """True when nothing can write ``a``'s memory.

    Every array of its base chain must be read-only, and the chain must
    end in an array that owns its data or in ``bytes``.  A read-only
    memoryview may view a writable object, so it is followed to that.
    """
    while isinstance(a, (np.ndarray, memoryview)):
        if isinstance(a, np.ndarray) and a.flags.writeable:
            return False
        a = a.base if isinstance(a, np.ndarray) else a.obj
    return a is None or isinstance(a, bytes)


class _Record:
    """Base of the frozen array records: fields set once, compared by value."""

    def _freeze(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(getattr(self, f), getattr(other, f)) for f in vars(self))


@dataclass(frozen=True, eq=False, init=False)
class QuboInstance(_Record):
    """Immutable n x n symmetric coefficient matrix, upper-triangular sparse.

    Parameters
    ----------
    n : int
        Variable count.  Zero is allowed so that variable fixing can reduce
        an instance to nothing; the text parser rejects it.
    coefficients : mapping of (i, j) -> float, or (rows, cols, vals) arrays
        Positions must satisfy 0 <= i <= j < n, appear once, and carry
        finite values.  Zero values are dropped, and the rest are stored
        in (i, j) order as the read-only arrays ``rows``, ``cols`` and
        ``vals``.
    name : str, optional
        Free-form label carried through reports.
    """

    n: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    name: str | None = None

    def __init__(self, n: int, coefficients, name: str | None = None):
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"variable count must be a nonnegative integer, got {n!r}")
        rows, cols, vals = _support(n, coefficients, 1, "coefficient key")
        self._freeze(n=n, rows=rows, cols=cols, vals=vals, name=name)

    def __reduce__(self):
        return _unpickled, (self.n, self.rows, self.cols, self.vals, self.name)

    @property
    def coefficients(self) -> Mapping[Key, float]:
        """Read-only {(i, j): value} view in (i, j) order, built on each access."""
        return MappingProxyType(dict(self.entries()))

    @property
    def nnz(self) -> int:
        return self.vals.size

    def entries(self) -> list[tuple[Key, float]]:
        """Nonzero entries sorted by (i, j)."""
        return list(zip(zip(self.rows.tolist(), self.cols.tolist()), self.vals.tolist()))

    def diagonal(self, i: int) -> float:
        v = self.vals[(self.rows == i) & (self.cols == i)]
        return float(v[0]) if v.size else 0.0

    def to_dense(self) -> np.ndarray:
        """Full symmetric matrix with off-diagonal values mirrored."""
        q = np.zeros((self.n, self.n))
        q[self.rows, self.cols] = self.vals
        q[self.cols, self.rows] = self.vals
        return q

    @classmethod
    def from_dense(cls, matrix: np.ndarray, name: str | None = None) -> "QuboInstance":
        """Build from a square array; (i, j) and (j, i) must agree."""
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square and 2-dimensional")
        if not np.array_equal(m, m.T):
            raise ValueError("matrix must be symmetric")
        rows, cols = np.triu_indices(m.shape[0])
        return cls(m.shape[0], (rows, cols, m[rows, cols]), name=name)


def _unpickled(n: int, rows, cols, vals, name) -> QuboInstance:
    """A pickled ``QuboInstance`` again, sharing its support with its pickled mates.

    Pickle sends an array that several instances share once, but unpickles
    it writable, so ``_support`` would copy it into every instance.  An
    array that owns its data or views ``bytes`` (a large one may, under
    protocol 4) was made by the unpickler and nothing else writes it, so it
    is frozen and kept.  Under protocol 5 a read-only array comes back
    read-only, viewing ``bytes`` through another array, and is kept too; an
    array that views a caller's buffer is copied.
    """
    for a in (rows, cols):
        if a.base is None or isinstance(a.base, bytes):
            a.setflags(write=False)
    return QuboInstance(n, (rows, cols, vals), name)


@dataclass(frozen=True)
class BinarySolution:
    """A 0/1 assignment together with its objective value."""

    bits: tuple[int, ...]
    value: float

    @property
    def bitstring(self) -> str:
        """Left-to-right rendering, variable 0 first (e.g. "01011")."""
        return "".join(str(b) for b in self.bits)


class _Stack(NamedTuple):
    """Equal-size instances on their union support: the (k, U) ``terms`` at ``rows``, ``cols``."""

    rows: np.ndarray
    cols: np.ndarray
    terms: np.ndarray


def _stack(instances: Sequence[QuboInstance]) -> _Stack:
    """The ``_Stack`` of equal-size instances.

    Row s of ``terms`` holds instance s's entries, off-diagonals doubled,
    zero where it has none.  Instances on one support array skip the search.
    """
    first, k = instances[0], len(instances)
    if any(inst.n != first.n for inst in instances):
        raise ValueError("batched instances must share one variable count")
    if all(inst.rows is first.rows and inst.cols is first.cols for inst in instances):
        rows, cols, vals = first.rows, first.cols, np.array([inst.vals for inst in instances])
    else:
        keys = np.concatenate([inst.rows * first.n + inst.cols for inst in instances])
        union, at = np.unique(keys, return_inverse=True)
        (rows, cols), vals = np.divmod(union, first.n), np.zeros((k, union.size))
        who = np.repeat(np.arange(k), [inst.nnz for inst in instances])
        vals[who, at] = np.concatenate([inst.vals for inst in instances])
    return _Stack(rows, cols, np.where(rows == cols, vals, 2.0 * vals))


def _terms(instance: QuboInstance) -> np.ndarray:
    """Each stored entry's weight in the objective: off-diagonals doubled."""
    return _stack([instance]).terms[0]


def _sequential_sum(terms: np.ndarray, axis: int = -1) -> float | np.ndarray:
    """0.0 + t[0] + t[1] + ... along ``axis``, in order like a Python loop; a float if 1-D.

    ``np.sum`` would pair terms up.  Over the outer axis of a C-contiguous
    array ``np.add.reduce`` adds whole rows in order, as
    ``preprocess._column_sums`` relies on, so a sum of several columns
    reduces a contiguous copy; a single column, which NumPy may treat as one
    flat pairwise sum, takes ``np.add.accumulate``, which keeps the order.
    The leading 0.0 makes an all-negative-zero sum 0.0, as the loop does, so
    a zero term of either sign leaves a sum as it was.
    """
    t = np.moveaxis(terms, axis, 0)
    if not len(t):
        total = np.zeros(t.shape[1:])
    elif t[0].size > 1:
        total = np.add.reduce(np.ascontiguousarray(t).reshape(len(t), -1), axis=0)
        total = total.reshape(t.shape[1:])
    else:
        total = np.add.accumulate(t)[-1]
    total = 0.0 + total
    return float(total) if total.ndim == 0 else total


def _assignment(bits: Sequence[int], n: int, label: str = "assignment") -> np.ndarray:
    """``bits`` as floats, once checked to hold n entries, each 0 or 1."""
    if len(bits) != n:
        raise ValueError(f"{label} length {len(bits)} != n={n}")
    x = np.asarray(bits, dtype=np.float64)
    bad = (x != 0.0) & (x != 1.0)
    if bad.any():
        raise ValueError(f"non-binary {label} entry {bits[int(bad.argmax())]!r}")
    return x


def _objectives(stack: _Stack, x: np.ndarray) -> np.ndarray:
    """Objective of each row of a ``_Stack`` at the 0/1 rows of ``x``, or at one row for all.

    Each term is its weight times a 0/1 product, exact in any order, formed
    in place where ``x`` has a row per instance.
    """
    on = x[..., stack.rows]
    on *= x[..., stack.cols]
    if on.shape == stack.terms.shape:
        on *= stack.terms
    else:
        on = stack.terms * on
    return _sequential_sum(on)


def _tie_tolerance(terms: np.ndarray) -> np.ndarray:
    """The tie tolerance of the ``solver`` module docstring, one per row of ``terms``.

    A row holds what an objective adds up: a ``_Stack`` row or a dense matrix.
    """
    return np.count_nonzero(terms, axis=-1) * np.finfo(float).eps * _sequential_sum(np.abs(terms))


def evaluate(instance: QuboInstance, bits: Sequence[int]) -> float:
    """Objective value of a binary assignment.

    Off-diagonal coefficients count twice, matching the symmetric-matrix
    quadratic form x^t Q x.  Terms are added in (i, j) order.
    """
    return float(_objectives(_stack([instance]), _assignment(bits, instance.n))[0])


def positive_sum_bound(instance: QuboInstance) -> float:
    """Sum of all positive matrix elements: a cheap upper bound on the maximum.

    Diagonal entries count once, off-diagonal entries twice, added in
    (i, j) order.  The bound is valid for every binary assignment since
    dropping any term of the objective with x_i = 0 can only remove
    nonpositive contributions.
    """
    return _sequential_sum(np.maximum(_terms(instance), 0.0))


def parse_instance(text: str, name: str | None = None) -> QuboInstance:
    """Parse an instance from the sparse text format.

    Format: first data line "n m", then m lines "i j v" with 1-based
    indices.  A line with i > j is normalized to (j, i).  Blank lines and
    lines starting with '#' are ignored.  Duplicate entries are accepted
    only when their values agree.
    """
    header: tuple[int, int] | None = None
    coeffs: dict[Key, float] = {}
    seen = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise ParseError(f"expected header 'n m', got {line!r}", lineno)
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(f"non-integer header field in {line!r}", lineno) from None
            if n < 1:
                raise ParseError(f"variable count must be >= 1, got {n}", lineno)
            if m < 0:
                raise ParseError(f"entry count must be >= 0, got {m}", lineno)
            header = (n, m)
            continue
        n, m = header
        if seen >= m:
            raise ParseError(f"unexpected extra data line {line!r} after {m} entries", lineno)
        if len(parts) != 3:
            raise ParseError(f"expected 'i j v', got {line!r}", lineno)
        try:
            i, j = int(parts[0]), int(parts[1])
            v = float(parts[2])
        except ValueError:
            raise ParseError(f"malformed entry {line!r}", lineno) from None
        if not math.isfinite(v):
            raise ParseError(f"non-finite value in {line!r}", lineno)
        if not (1 <= i <= n) or not (1 <= j <= n):
            raise ParseError(f"index out of range in {line!r} (n={n})", lineno)
        key = (min(i, j) - 1, max(i, j) - 1)
        if key in coeffs and coeffs[key] != v:
            raise ParseError(
                f"duplicate entry ({i}, {j}) with conflicting value {v}", lineno
            )
        coeffs[key] = v
        seen += 1
    if header is None:
        raise ParseError("empty input: no header line found", 1)
    if seen < header[1]:
        raise ParseError(f"expected {header[1]} entries, found {seen}", 1)
    return QuboInstance(n=header[0], coefficients=coeffs, name=name)


def format_number(v: float) -> str:
    """Integer-valued floats render bare; everything else round-trips via repr."""
    return str(int(v)) if v == int(v) else repr(v)


def format_instance(instance: QuboInstance) -> str:
    """Render in the same text format the parser accepts, sorted by (i, j)."""
    entries = instance.entries()
    lines = [f"{instance.n} {len(entries)}"]
    for (i, j), v in entries:
        lines.append(f"{i + 1} {j + 1} {format_number(v)}")
    return "\n".join(lines) + "\n"
