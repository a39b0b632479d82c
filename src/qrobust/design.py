"""Two-level orthogonal-array scenario designs between two extreme matrices.

A pair of generator matrices assigns every coefficient position two levels.
Positions where the levels differ become design factors; a Sylvester
Hadamard construction yields a balanced, pairwise-orthogonal +1/-1 run
table whose rows instantiate concrete scenario matrices.

Generators store their support the way ``QuboInstance`` does: read-only
arrays ``rows`` and ``cols`` sorted by (i, j), with the two levels in ``a``
and ``b``.  Every scenario has that support, so one builder, ``_scenarios``,
puts a vector of values on it; design runs, random interior scenarios and
the midpoint matrix differ only in the vector.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .qubo import Key, ParseError, QuboInstance, _Record, _support


@dataclass(frozen=True, eq=False, init=False)
class ScenarioGenerators(_Record):
    """Two extreme coefficient settings per position.

    Built from a mapping of upper-triangular (i, j) positions to pairs
    (level_a, level_b), or from arrays (rows, cols, a, b), under the same
    checks as ``QuboInstance``; positions with both levels zero are
    dropped.  The labels carry no numeric ordering; level_a is simply the
    value a +1 design setting selects.  Positions absent from the support
    are zero in both matrices.
    """

    n: int
    rows: np.ndarray
    cols: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def __init__(self, n: int, entries):
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"variable count must be >= 1, got {n!r}")
        rows, cols, a, b = _support(n, entries, 2, "position")
        self._freeze(n=n, rows=rows, cols=cols, a=a, b=b)

    def __reduce__(self):
        return type(self), (self.n, (self.rows, self.cols, self.a, self.b))

    @property
    def entries(self) -> Mapping[Key, tuple[float, float]]:
        """Read-only {(i, j): (level_a, level_b)} view in (i, j) order, built on each access."""
        keys = zip(self.rows.tolist(), self.cols.tolist())
        return MappingProxyType(dict(zip(keys, zip(self.a.tolist(), self.b.tolist()))))


@dataclass(frozen=True)
class DifferenceSet:
    """Sorted positions where the two generator levels disagree."""

    positions: tuple[Key, ...]

    @property
    def d(self) -> int:
        return len(self.positions)


@dataclass(frozen=True, eq=False)
class DesignMatrix:
    """k x d run table with entries in {+1, -1}; column m drives factor m."""

    k: int
    d: int
    levels: np.ndarray

    def __post_init__(self):
        lv = np.asarray(self.levels, dtype=np.int64)
        if lv.shape != (self.k, self.d):
            raise ValueError(f"levels shape {lv.shape} != ({self.k}, {self.d})")
        if not np.all(np.abs(lv) == 1):
            raise ValueError("design entries must be +1 or -1")
        object.__setattr__(self, "levels", lv)

    def is_balanced(self) -> bool:
        return bool(np.all(self.levels.sum(axis=0) == 0))

    def is_orthogonal(self) -> bool:
        gram = self.levels.T @ self.levels
        return bool(np.array_equal(gram, self.k * np.eye(self.d, dtype=np.int64)))


def differing_elements(gen: ScenarioGenerators) -> DifferenceSet:
    """Positions whose two levels differ; equal-level positions are scenario constants."""
    d = gen.a != gen.b
    return DifferenceSet(positions=tuple(zip(gen.rows[d].tolist(), gen.cols[d].tolist())))


def run_count(d: int) -> int:
    """Scenario count for d varying coefficients: smallest power of two >= 2d (>= 4)."""
    if d < 0:
        raise ValueError(f"factor count must be >= 0, got {d}")
    if d == 0:
        return 1
    k = 4
    while k < 2 * d:
        k *= 2
    return k


def build_design(k: int, d: int) -> DesignMatrix:
    """Order-k Sylvester Hadamard matrix with the all-ones column dropped.

    Factor m is assigned to Hadamard column m + 1, so any d up to k - 1 is
    constructible; the run-count rule supplies k >= 2d, which leaves margin
    for fold-over pairs.  Columns are exactly balanced and pairwise
    orthogonal by construction.
    """
    if k < 2 or (k & (k - 1)) != 0:
        raise ValueError(f"run count must be a power of two >= 2, got {k}")
    if d < 1:
        raise ValueError(f"factor count must be >= 1, got {d}")
    if d > k - 1:
        raise ValueError(f"a {k}-run design supports at most {k - 1} factors, got {d}")
    h = np.array([[1]], dtype=np.int64)
    while h.shape[0] < k:
        h = np.block([[h, h], [h, -h]])
    return DesignMatrix(k=k, d=d, levels=h[:, 1 : d + 1])


def _support_index(gen: ScenarioGenerators, rows, cols, what: str) -> np.ndarray:
    """Support index of each position (rows[t], cols[t]).

    A position off the support raises ValueError, naming it after ``what``.
    """
    key = gen.rows * gen.n + gen.cols
    want = np.asarray(rows, dtype=np.int64) * gen.n + np.asarray(cols, dtype=np.int64)
    at = np.searchsorted(key, want)
    hit = at < key.size
    hit[hit] = key[at[hit]] == want[hit]
    if not hit.all():
        t = int(np.argmin(hit))
        raise ValueError(f"{what} ({int(rows[t])}, {int(cols[t])}) unknown to the generators")
    return at


def _scenarios(gen: ScenarioGenerators, values: np.ndarray) -> list[QuboInstance]:
    """One instance per row of ``values``, which holds a value per support position."""
    return [QuboInstance(gen.n, (gen.rows, gen.cols, v)) for v in values]


def _run_values(gen: ScenarioGenerators, diff: DifferenceSet, levels: np.ndarray) -> np.ndarray:
    """Support values of design runs: +1 picks level_a, -1 picks level_b.

    Row r of the 2-D ``levels`` sets the positions of ``diff`` in order;
    every other position keeps level_a.
    """
    i, j = np.array(diff.positions, dtype=np.int64).reshape(-1, 2).T
    where = _support_index(gen, i, j, "differing position")
    levels = np.asarray(levels)
    values = np.tile(gen.a, (len(levels), 1))
    values[:, where] = np.where(levels > 0, gen.a[where], gen.b[where])
    return values


def instantiate_scenario(
    gen: ScenarioGenerators, diff: DifferenceSet, row: Sequence[int]
) -> QuboInstance:
    """Concrete matrix for one design row: +1 picks level_a, -1 picks level_b."""
    if len(row) != diff.d:
        raise ValueError(f"row length {len(row)} != factor count {diff.d}")
    return _scenarios(gen, _run_values(gen, diff, [row]))[0]


def average_instance(gen: ScenarioGenerators) -> QuboInstance:
    """Matrix with every position at the midpoint of its two levels."""
    return _scenarios(gen, [(gen.a + gen.b) / 2.0])[0]


def perturbed_generators(instance: QuboInstance, fraction: float) -> ScenarioGenerators:
    """Symmetric relative perturbation: levels c*(1 + f) and c*(1 - f).

    Zero coefficients stay zero in both matrices and therefore never enter
    the difference set.
    """
    if fraction <= 0.0:
        raise ValueError(f"perturbation fraction must be positive, got {fraction}")
    v = instance.vals
    return ScenarioGenerators(
        instance.n, (instance.rows, instance.cols, v * (1.0 + fraction), v * (1.0 - fraction))
    )


def random_scenario(gen: ScenarioGenerators, seed: int) -> QuboInstance:
    """Scenario with each differing position drawn uniformly between its levels.

    Draws go to the differing positions in (i, j) order.
    """
    rng = np.random.default_rng(seed)
    d = gen.a != gen.b
    values = gen.a.copy()
    values[d] = rng.uniform(np.minimum(gen.a[d], gen.b[d]), np.maximum(gen.a[d], gen.b[d]))
    return _scenarios(gen, [values])[0]


def generators_to_json(gen: ScenarioGenerators) -> dict:
    return {
        "n": gen.n,
        "entries": [
            {"i": i, "j": j, "a": a, "b": b}
            for (i, j), (a, b) in gen.entries.items()
        ],
    }


def _json_fields(obj: dict, names: str, integer: bool, where: str) -> list:
    """The fields ``names`` of a JSON object: JSON integers if ``integer``, else numbers as floats.

    Never a bool or a string; a field that is not raises ValueError naming ``where`` and it.
    """
    values = []
    for name in names.split():
        value = obj[name]
        if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
            kind = "an integer" if integer else "a number"
            raise ValueError(f"{where}{name} is {value!r}, not {kind}")
        values.append(value if integer else float(value))
    return values


def generators_from_json(obj: dict) -> ScenarioGenerators:
    try:
        (n,) = _json_fields(obj, "n", True, "generators field ")
        entries = {}
        for t, e in enumerate(obj["entries"]):
            where = f"generators field entries[{t}]."
            key = tuple(_json_fields(e, "i j", True, where))
            entries[key] = tuple(_json_fields(e, "a b", False, where))
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed generators document: {exc}") from exc
    return ScenarioGenerators(n=n, entries=entries)


def design_to_csv(design: DesignMatrix, diff: DifferenceSet) -> str:
    """One run per line, +1/-1 entries, headed by pos_i_j column names."""
    if design.d != diff.d:
        raise ValueError(f"design has {design.d} factors but difference set has {diff.d}")
    out = io.StringIO()
    out.write(",".join(f"pos_{i}_{j}" for i, j in diff.positions) + "\n")
    for row in design.levels:
        out.write(",".join("+1" if v > 0 else "-1" for v in row) + "\n")
    return out.getvalue()


def design_from_csv(text: str) -> tuple[DesignMatrix, DifferenceSet]:
    """The design and difference set of a ``design_to_csv`` document; a fault names its line."""
    lines = [(at, ln) for at, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise ValueError("empty design document")
    positions = []
    for name in lines[0][1].split(","):
        parts = name.strip().split("_")
        if len(parts) != 3 or parts[0] != "pos" or not (parts[1] + parts[2]).isdecimal():
            raise ParseError(f"bad design column name {name!r}", lines[0][0])
        positions.append((int(parts[1]), int(parts[2])))
    rows = []
    for at, line in lines[1:]:
        row = [v.strip() for v in line.split(",")]
        if len(row) != len(positions) or any(v not in ("+1", "-1", "1") for v in row):
            raise ParseError(f"expected {len(positions)} entries of +1 or -1, got {line!r}", at)
        rows.append([int(v) for v in row])
    levels = np.array(rows, dtype=np.int64).reshape(len(rows), len(positions))
    design = DesignMatrix(k=levels.shape[0], d=len(positions), levels=levels)
    return design, DifferenceSet(positions=tuple(positions))
