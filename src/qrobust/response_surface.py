"""Linear response surface over coded scenario coefficients.

Fitting the scenario optima against the +1/-1 design columns yields a
regression that predicts the optimal objective of any matrix between the
generator extremes in constant time; adding three residual standard errors
turns the prediction into an empirical upper bound, compared here against
the always-valid positive-element sum.  A bound check solves its random
scenarios through the analysis's dispatcher, ``pipeline._solve_scenarios``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .design import (
    DesignMatrix,
    DifferenceSet,
    ScenarioGenerators,
    _json_fields,
    _support_index,
    differing_elements,
    random_scenario,
)
from .pipeline import _solve_scenarios
from .qubo import QuboInstance, _sequential_sum, format_number, positive_sum_bound
from .solver import MODE_EXACT, PROVEN_OPTIMAL, SolverConfig


@dataclass(frozen=True, eq=False)
class SurfaceModel:
    """Main-effects regression: intercept + one coefficient per differing position."""

    intercept: float
    coefficients: np.ndarray
    standard_error: float
    dof: int
    diff: DifferenceSet

    def __post_init__(self):
        beta = np.asarray(self.coefficients, dtype=float)
        if beta.shape != (self.diff.d,):
            raise ValueError(
                f"coefficient count {beta.shape} != factor count {self.diff.d}"
            )
        if not (np.isfinite(self.intercept) and np.isfinite(beta).all()):
            raise ValueError("intercept and coefficients must be finite numbers")
        if not 0.0 <= self.standard_error < np.inf:  # refuses NaN too
            raise ValueError(f"standard_error must be >= 0 and finite, got {self.standard_error}")
        if self.dof < 0:
            raise ValueError(f"dof must be >= 0, got {self.dof}")
        object.__setattr__(self, "coefficients", beta)


@dataclass(frozen=True)
class BoundRow:
    label: str
    optimum: float
    g_estimate: float
    g_bound: float
    possum_bound: float
    g_gap_pct: float | None
    possum_gap_pct: float | None
    proven: bool


@dataclass(frozen=True)
class BoundComparison:
    rows: tuple[BoundRow, ...]

    def mean_gaps(self) -> tuple[float, float]:
        """Mean percentage gaps (surface bound, positive-sum bound) over usable rows."""
        usable = [r for r in self.rows if r.proven and r.g_gap_pct is not None]
        if not usable:
            raise ValueError("no proven rows with defined gaps")
        g = sum(r.g_gap_pct for r in usable) / len(usable)
        p = sum(r.possum_gap_pct for r in usable) / len(usable)
        return g, p


def code_scenario(
    gen: ScenarioGenerators, diff: DifferenceSet, instance: QuboInstance
) -> np.ndarray:
    """Map a scenario's coefficients onto the coded [-1, +1] factor scale.

    level_a codes to +1, level_b to -1, the midpoint to 0.  The instance
    must agree with the generators at every non-differing position and stay
    inside the closed level interval at every differing one.
    """
    if instance.n != gen.n:
        raise ValueError(f"instance has n={instance.n}, generators n={gen.n}")
    i, j = np.array(diff.positions, dtype=np.int64).reshape(-1, 2).T
    at_diff = _support_index(gen, i, j, "differing position")
    at = _support_index(gen, instance.rows, instance.cols, "instance has a coefficient at")
    q = np.zeros(gen.a.size)
    q[at] = instance.vals
    fixed = np.ones(gen.a.size, dtype=bool)
    fixed[at_diff] = False
    off = fixed & (q != gen.a)
    if off.any():
        t = int(off.argmax())
        raise ValueError(
            f"non-differing position {(int(gen.rows[t]), int(gen.cols[t]))} is {q[t]}, "
            f"generators fix it at {gen.a[t]}"
        )
    q, a, b = q[at_diff], gen.a[at_diff], gen.b[at_diff]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    tol = 1e-9 * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    out = (q < lo - tol) | (q > hi + tol)
    if out.any():
        m = int(out.argmax())
        raise ValueError(
            f"value {q[m]} at {diff.positions[m]} outside the level interval [{lo[m]}, {hi[m]}]"
        )
    return (2.0 * q - (a + b)) / (a - b)


def fit_model(
    design: DesignMatrix, optima: Sequence[float], diff: DifferenceSet
) -> SurfaceModel:
    """Least-squares fit of scenario optima against the coded design columns.

    Balanced orthogonal designs admit the closed form: intercept = mean of
    the optima, coefficient m = (column_m . optima) / k.  The orthogonality
    is checked before the shortcut is used; anything else falls back to
    LAPACK's least squares, whose digits depend on the LAPACK build.  The
    other sums run in order, never through BLAS (``qubo._sequential_sum``).
    ``diff`` names the coefficient position behind each design column.
    """
    y = np.asarray(optima, dtype=float)
    if y.shape != (design.k,):
        raise ValueError(f"need one optimum per run: got {y.shape}, k={design.k}")
    if not np.isfinite(y).all():
        raise ValueError(f"optimum of run {np.argmin(np.isfinite(y))} is not a finite number")
    if diff.d != design.d:
        raise ValueError(
            f"difference set has {diff.d} positions, design has {design.d} factors"
        )
    dof = design.k - design.d - 1
    if dof < 1:
        raise ValueError(
            f"regression needs k - d - 1 >= 1 residual degrees of freedom, "
            f"got k={design.k}, d={design.d}"
        )
    x = design.levels.astype(float)
    # finite optima can still overflow; the result is checked below
    with np.errstate(over="ignore", invalid="ignore"):
        if design.is_balanced() and design.is_orthogonal():
            intercept = float(y.mean())
            beta = _sequential_sum(x * y[:, None], axis=0) / design.k
        else:
            full = np.column_stack([np.ones(design.k), x])
            coef, *_ = np.linalg.lstsq(full, y, rcond=None)
            intercept = float(coef[0])
            beta = coef[1:]
        residuals = y - (intercept + _sequential_sum(x * beta))
        se = float(np.sqrt(_sequential_sum(residuals * residuals) / dof))
    if not np.isfinite([intercept, se, *beta]).all():
        raise ValueError(f"the fit overflows (intercept {intercept}, standard error {se})")
    return SurfaceModel(
        intercept=intercept,
        coefficients=beta,
        standard_error=se,
        dof=dof,
        diff=diff,
    )


def estimate(model: SurfaceModel, z: Sequence[float]) -> float:
    """Predicted optimal objective at a coded scenario, summed in coefficient order."""
    zv = np.asarray(z, dtype=float)
    if zv.shape != (len(model.coefficients),):
        raise ValueError(
            f"coded vector length {zv.shape} != coefficient count {len(model.coefficients)}"
        )
    if not np.all((zv >= -1.0 - 1e-9) & (zv <= 1.0 + 1e-9)):  # refuses NaN too
        raise ValueError("coded entries must lie in [-1, +1]")
    return model.intercept + _sequential_sum(model.coefficients * zv)


def upper_bound(model: SurfaceModel, z: Sequence[float]) -> float:
    """Estimate plus three residual standard errors: an empirical upper bound."""
    return estimate(model, z) + 3.0 * model.standard_error


def compare_bounds(
    model: SurfaceModel,
    gen: ScenarioGenerators,
    count: int,
    seed: int,
    solver_config: SolverConfig | None = None,
) -> BoundComparison:
    """Solve random interior scenarios exactly and tabulate both bounds.

    Scenario t draws with seed ``seed + t``.  All scenarios are drawn
    first, then solved by ``qrobust.pipeline._solve_scenarios`` in exact
    mode whatever ``solver_config.mode`` says.  Rows are sorted by
    descending surface-bound gap rounded to 9 decimals, then by draw index
    t, so gaps that differ only by rounding noise (a surface that fits the
    design exactly has gaps near 1e-14 %) keep draw order.  Rows without a
    proven optimum come last; they keep their bounds but are flagged and
    excluded from gap statistics (as are zero optima, whose percentage gap
    is undefined).
    """
    if count < 1:
        raise ValueError(f"scenario count must be >= 1, got {count}")
    diff = differing_elements(gen)
    if diff.positions != model.diff.positions:
        raise ValueError("model coefficients do not match the generators' differing elements")
    config = replace(solver_config or SolverConfig(), mode=MODE_EXACT)
    scenarios = [random_scenario(gen, (seed + t) % 2**64) for t in range(count)]
    outcomes = _solve_scenarios(scenarios, config)
    rows = []
    for t, (inst, out) in enumerate(zip(scenarios, outcomes)):
        proven = out.status == PROVEN_OPTIMAL
        opt = out.solution.value
        z = code_scenario(gen, diff, inst)
        est = estimate(model, z)
        gub = upper_bound(model, z)
        psb = positive_sum_bound(inst)
        if proven and opt != 0.0:
            g_gap = 100.0 * (gub - opt) / abs(opt)
            p_gap = 100.0 * (psb - opt) / abs(opt)
        else:
            g_gap = p_gap = None
        rows.append(
            BoundRow(
                label=f"s{t}",
                optimum=opt,
                g_estimate=est,
                g_bound=gub,
                possum_bound=psb,
                g_gap_pct=g_gap,
                possum_gap_pct=p_gap,
                proven=proven,
            )
        )
    # the sort is stable, so rows whose rounded gaps tie keep draw order
    rows.sort(key=lambda r: (r.g_gap_pct is None, -round(r.g_gap_pct or 0.0, 9)))
    return BoundComparison(rows=tuple(rows))


def model_to_json(model: SurfaceModel) -> dict:
    return {
        "intercept": model.intercept,
        "coefficients": [
            {"i": i, "j": j, "beta": float(beta)}
            for (i, j), beta in zip(model.diff.positions, model.coefficients)
        ],
        "standard_error": model.standard_error,
        "dof": model.dof,
    }


def model_from_json(obj: dict) -> SurfaceModel:
    """The model of a ``model_to_json`` document; every number in it must be finite."""
    try:
        intercept, se = _json_fields(obj, "intercept standard_error", False, "model field ")
        (dof,) = _json_fields(obj, "dof", True, "model field ")
        entries = [
            (f"model field coefficients[{m}].", e) for m, e in enumerate(obj["coefficients"])
        ]
        positions = tuple(tuple(_json_fields(e, "i j", True, where)) for where, e in entries)
        beta = [_json_fields(e, "beta", False, where)[0] for where, e in entries]
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed model document: {exc}") from exc
    fields = {"intercept": intercept, "standard_error": se}
    fields.update((f"coefficients[{m}].beta", b) for m, b in enumerate(beta))
    for name, value in fields.items():
        if not np.isfinite(value):
            raise ValueError(f"model field {name} is {value}, not a finite number")
    return SurfaceModel(
        intercept=intercept,
        coefficients=np.array(beta),
        standard_error=se,
        dof=dof,
        diff=DifferenceSet(positions=positions),
    )


def comparison_to_csv(comparison: BoundComparison) -> str:
    num = format_number
    lines = ["scenario,optimum,g_estimate,g_bound,possum_bound,g_gap_pct,possum_gap_pct"]
    for r in comparison.rows:
        g = "" if r.g_gap_pct is None else num(r.g_gap_pct)
        p = "" if r.possum_gap_pct is None else num(r.possum_gap_pct)
        lines.append(
            f"{r.label},{num(r.optimum)},{num(r.g_estimate)},{num(r.g_bound)},"
            f"{num(r.possum_bound)},{g},{p}"
        )
    return "\n".join(lines) + "\n"
