"""Sparse symmetric QUBO instances: objective evaluation, bounds, file I/O.

The model maximized everywhere in this package is

    f(x) = sum_i c_ii x_i + 2 * sum_{i<j} c_ij x_i x_j,   x_i in {0, 1},

i.e. the quadratic form x^t Q x of a symmetric matrix Q whose upper
triangle is stored sparsely.  An entry keyed (i, j) with i < j stands for
both c_ij and c_ji, hence the doubling; absent entries are exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

Key = tuple[int, int]


class ParseError(ValueError):
    """Malformed instance text; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class QuboInstance:
    """Immutable n x n symmetric coefficient matrix, upper-triangular sparse.

    Parameters
    ----------
    n : int
        Variable count.  Zero is allowed so that variable fixing can reduce
        an instance to nothing; the text parser rejects it.
    coefficients : mapping of (i, j) -> float
        Keys must satisfy 0 <= i <= j < n.  Zero values are dropped on
        construction so that "absent" and "zero" coincide, and the entries
        are stored in (i, j) order, so sums over them do not depend on the
        order they were given in.
    name : str, optional
        Free-form label carried through reports.
    """

    n: int
    coefficients: Mapping[Key, float]
    name: str | None = None

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 0:
            raise ValueError(f"variable count must be a nonnegative integer, got {self.n!r}")
        clean: dict[Key, float] = {}
        last = (-1, -1)
        in_order = True
        for key, value in self.coefficients.items():
            i, j = key
            if not (0 <= i <= j < self.n):
                raise ValueError(f"coefficient key ({i}, {j}) out of range for n={self.n}")
            value = float(value)
            if value != 0.0:
                key = (int(i), int(j))
                in_order = in_order and key > last
                last = key
                clean[key] = value
        if not in_order:
            clean = dict(sorted(clean.items()))
        object.__setattr__(self, "coefficients", clean)

    @property
    def nnz(self) -> int:
        return len(self.coefficients)

    def entries(self) -> list[tuple[Key, float]]:
        """Nonzero entries sorted by (i, j)."""
        return list(self.coefficients.items())

    def diagonal(self, i: int) -> float:
        return self.coefficients.get((i, i), 0.0)

    def to_dense(self) -> np.ndarray:
        """Full symmetric matrix with off-diagonal values mirrored."""
        q = np.zeros((self.n, self.n))
        for (i, j), v in self.coefficients.items():
            q[i, j] = v
            q[j, i] = v
        return q

    @classmethod
    def from_dense(cls, matrix: np.ndarray, name: str | None = None) -> "QuboInstance":
        """Build from a square array; (i, j) and (j, i) must agree."""
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square and 2-dimensional")
        if not np.array_equal(m, m.T):
            raise ValueError("matrix must be symmetric")
        n = m.shape[0]
        coeffs = {
            (i, j): m[i, j] for i in range(n) for j in range(i, n) if m[i, j] != 0.0
        }
        return cls(n=n, coefficients=coeffs, name=name)


@dataclass(frozen=True)
class BinarySolution:
    """A 0/1 assignment together with its objective value."""

    bits: tuple[int, ...]
    value: float

    @property
    def bitstring(self) -> str:
        """Left-to-right rendering, variable 0 first (e.g. "01011")."""
        return "".join(str(b) for b in self.bits)


def _check_bits(instance: QuboInstance, bits: Sequence[int]) -> None:
    if len(bits) != instance.n:
        raise ValueError(f"assignment length {len(bits)} != n={instance.n}")
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"non-binary assignment entry {b!r}")


def evaluate(instance: QuboInstance, bits: Sequence[int]) -> float:
    """Objective value of a binary assignment.

    Off-diagonal coefficients count twice, matching the symmetric-matrix
    quadratic form x^t Q x.
    """
    _check_bits(instance, bits)
    total = 0.0
    for (i, j), v in instance.coefficients.items():
        if i == j:
            total += v * bits[i]
        else:
            total += 2.0 * v * bits[i] * bits[j]
    return total


def positive_sum_bound(instance: QuboInstance) -> float:
    """Sum of all positive matrix elements: a cheap upper bound on the maximum.

    Diagonal entries count once, off-diagonal entries twice.  The bound is
    valid for every binary assignment since dropping any term of the
    objective with x_i = 0 can only remove nonpositive contributions.
    """
    total = 0.0
    for (i, j), v in instance.coefficients.items():
        if v > 0.0:
            total += v if i == j else 2.0 * v
    return total


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
