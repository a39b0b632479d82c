"""Two-level orthogonal-array scenario designs between two extreme matrices.

A pair of generator matrices assigns every coefficient position two levels.
Positions where the levels differ become design factors; a Sylvester
Hadamard construction yields a balanced, pairwise-orthogonal +1/-1 run
table whose rows instantiate concrete scenario matrices.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .qubo import Key, QuboInstance


@dataclass(frozen=True)
class ScenarioGenerators:
    """Two extreme coefficient settings per position.

    ``entries`` maps an upper-triangular (i, j) position to the pair
    (level_a, level_b), stored in (i, j) order.  The labels carry no
    numeric ordering; level_a is simply the value a +1 design setting
    selects.  Positions absent from the mapping are zero in both matrices.
    """

    n: int
    entries: Mapping[Key, tuple[float, float]]

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"variable count must be >= 1, got {self.n!r}")
        n = self.n
        clean: list[tuple[Key, tuple[float, float]]] = []
        for (i, j), (a, b) in self.entries.items():
            if not (0 <= i <= j < n):
                raise ValueError(f"position ({i}, {j}) out of range for n={n}")
            a, b = float(a), float(b)
            if a != 0.0 or b != 0.0:
                clean.append(((int(i), int(j)), (a, b)))
        clean.sort()
        object.__setattr__(self, "entries", dict(clean))


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
    positions = tuple(sorted(k for k, (a, b) in gen.entries.items() if a != b))
    return DifferenceSet(positions=positions)


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


def instantiate_scenario(
    gen: ScenarioGenerators, diff: DifferenceSet, row: Sequence[int]
) -> QuboInstance:
    """Concrete matrix for one design row: +1 picks level_a, -1 picks level_b."""
    if len(row) != diff.d:
        raise ValueError(f"row length {len(row)} != factor count {diff.d}")
    values = {pos: a for pos, (a, _b) in gen.entries.items()}
    for m, pos in enumerate(diff.positions):
        a, b = gen.entries[pos]
        values[pos] = a if row[m] > 0 else b
    return QuboInstance(n=gen.n, coefficients=values)


def average_instance(gen: ScenarioGenerators) -> QuboInstance:
    """Matrix with every position at the midpoint of its two levels."""
    values = {pos: (a + b) / 2.0 for pos, (a, b) in gen.entries.items()}
    return QuboInstance(n=gen.n, coefficients=values)


def perturbed_generators(instance: QuboInstance, fraction: float) -> ScenarioGenerators:
    """Symmetric relative perturbation: levels c*(1 + f) and c*(1 - f).

    Zero coefficients stay zero in both matrices and therefore never enter
    the difference set.
    """
    if fraction <= 0.0:
        raise ValueError(f"perturbation fraction must be positive, got {fraction}")
    entries = {
        pos: (v * (1.0 + fraction), v * (1.0 - fraction))
        for pos, v in instance.coefficients.items()
    }
    return ScenarioGenerators(n=instance.n, entries=entries)


def random_scenario(gen: ScenarioGenerators, seed: int) -> QuboInstance:
    """Scenario with each differing position drawn uniformly between its levels."""
    rng = np.random.default_rng(seed)
    diff = differing_elements(gen)
    values = {pos: a for pos, (a, _b) in gen.entries.items()}
    for pos in diff.positions:
        a, b = gen.entries[pos]
        lo, hi = min(a, b), max(a, b)
        values[pos] = float(rng.uniform(lo, hi))
    return QuboInstance(n=gen.n, coefficients=values)


def generators_to_json(gen: ScenarioGenerators) -> dict:
    return {
        "n": gen.n,
        "entries": [
            {"i": i, "j": j, "a": a, "b": b}
            for (i, j), (a, b) in sorted(gen.entries.items())
        ],
    }


def generators_from_json(obj: dict) -> ScenarioGenerators:
    try:
        n = int(obj["n"])
        entries = {
            (int(e["i"]), int(e["j"])): (float(e["a"]), float(e["b"]))
            for e in obj["entries"]
        }
    except (KeyError, TypeError) as exc:
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
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty design document")
    positions = []
    for name in lines[0].split(","):
        parts = name.strip().split("_")
        if len(parts) != 3 or parts[0] != "pos":
            raise ValueError(f"bad design column name {name!r}")
        positions.append((int(parts[1]), int(parts[2])))
    rows = [[int(v) for v in ln.split(",")] for ln in lines[1:]]
    levels = np.asarray(rows, dtype=np.int64)
    design = DesignMatrix(k=levels.shape[0], d=len(positions), levels=levels)
    return design, DifferenceSet(positions=tuple(positions))
