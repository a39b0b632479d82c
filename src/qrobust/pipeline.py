"""The scenario loop: instantiate every design run, solve it, pool the optima.

``_solve_scenarios`` is the one place a set of scenarios is dispatched to
the solver; the analysis here and the bound check of
``qrobust.response_surface`` both go through it.  The solver picks each
scenario's engine, and ``_solve_scenarios`` only picks where scenarios
run: as lone solves, as one in-process batch or on a pool.  It returns
outcomes in scenario order, and a scenario's outcome does not depend on
its batch mates or the worker count, so reports are identical for every
``jobs``.
"""

from __future__ import annotations

import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .design import (
    DesignMatrix,
    DifferenceSet,
    ScenarioGenerators,
    _run_values,
    _scenarios,
    build_design,
    differing_elements,
    run_count,
)
from .qubo import QuboInstance, _terms, evaluate, format_number
from .solver import (
    MODE_HEURISTIC,
    PROVEN_OPTIMAL,
    BinarySolution,
    SolveOutcome,
    SolverConfig,
    _seeded,
    _solve_all,
    _tie_tolerance,
    solve,
)


@dataclass(frozen=True)
class ScenarioResult:
    scenario_index: int
    solution: BinarySolution
    status: str
    value: float


@dataclass(frozen=True)
class PoolEntry:
    bits: str
    frequency: int
    mean_value: float


@dataclass(frozen=True)
class RobustnessReport:
    """Pooled optima over all scenarios.

    ``pool`` is sorted by ``_pool_order``, so its head is the most robust
    solution.  ``exactness`` is the fraction of scenarios solved to proven
    optimality.
    """

    k: int
    pool: tuple[PoolEntry, ...]
    most_robust: str
    exactness: float
    reference: tuple[str, float] | None = None


def scenario_instances(
    gen: ScenarioGenerators,
) -> tuple[DifferenceSet, int, DesignMatrix | None, list[QuboInstance]]:
    """Difference set, run count, design and the instantiated scenario matrices.

    With no differing positions there is nothing to vary: a single scenario
    equal to the common matrix is returned and no design is built.
    """
    diff = differing_elements(gen)
    k = run_count(diff.d)
    design = build_design(k, diff.d) if diff.d else None
    levels = design.levels if design else np.ones((1, 0))
    return diff, k, design, _scenarios(gen, _run_values(gen, diff, levels))


# Linux forks its workers, the start method ``_pool_pays`` is calibrated
# with; Python 3.14 would otherwise default to forkserver there.  Other
# platforms spawn, their default and the only safe choice there.
_POOL_CONTEXT = multiprocessing.get_context("fork" if sys.platform == "linux" else "spawn")

# Calibration of ``_pool_pays``, exact mode on a 2-core Linux host, k = 64
# conflict scenarios (CHANGES.md has the tables): a scenario's share of one
# in-process lockstep batch takes about _BNB_SCENARIO_S at n = 44 and
# doubles every _BNB_DOUBLING_N variables, and a pool worker costs about
# _WORKER_START_S[start method] to start, feed and collect.  A spawned
# worker imports NumPy and this package again.
_BNB_SCENARIO_S = 1.7e-3
_BNB_DOUBLING_N = 7.0
_WORKER_START_S = {"fork": 0.075, "spawn": 0.2}


def _pool_pays(k: int, n: int, mode: str, jobs: int) -> bool:
    """Whether ``min(jobs, k)`` workers beat one in-process batch of k scenarios of size n.

    Tabu search shares no work between scenarios, so heuristic mode always
    takes the pool.  Exact and auto mode take it when the estimated
    seconds the workers save, ``1 - 1 / workers`` of the in-process batch,
    exceed what starting them costs.  The estimate reads only its
    arguments and the module constants above, never the clock, so the
    choice is the same on every run and every host.
    """
    if mode == MODE_HEURISTIC:
        return True
    workers = min(jobs, k)
    batch_s = k * _BNB_SCENARIO_S * 2.0 ** ((n - 44) / _BNB_DOUBLING_N)
    start_s = _WORKER_START_S[_POOL_CONTEXT.get_start_method()]
    return batch_s * (1.0 - 1.0 / workers) > workers * start_s


def _solve_scenarios(
    instances: Sequence[QuboInstance], config: SolverConfig, jobs: int = 1
) -> list[SolveOutcome]:
    """Solve scenarios of one size; outcome i belongs to ``instances[i]``.

    Scenario i gets what ``solve`` with seed ``seed + i`` returns, however
    it was dispatched, apart from elapsed time.  Enumerable scenarios (mode
    exact or auto, n at most ``enum_threshold``) are one in-process
    ``_solve_all`` batch, and ``jobs`` is unused.  Otherwise, when ``jobs``
    or k is 1, each scenario gets a lone ``solve``.  With ``jobs > 1``,
    ``jobs`` is a cap: when ``_pool_pays``, the k scenarios are cut into
    ``min(jobs, k)`` contiguous slices of near-equal size, and a pool of
    that many worker processes runs ``_solve_all`` on each, the slice from
    scenario a with seed ``seed + a``; else all k are one in-process batch.
    """
    k = len(instances)
    n = instances[0].n
    enumerated = config.mode != MODE_HEURISTIC and n <= config.enum_threshold
    if not enumerated and (jobs == 1 or k == 1):
        return list(map(solve, instances, [_seeded(config, i) for i in range(k)]))
    if enumerated or not _pool_pays(k, n, config.mode, jobs):
        return _solve_all(instances, config)
    parts = min(jobs, k)
    cuts = [k * p // parts for p in range(parts + 1)]
    slices = [instances[a:b] for a, b in zip(cuts, cuts[1:])]
    with ProcessPoolExecutor(max_workers=parts, mp_context=_POOL_CONTEXT) as pool:
        done = pool.map(_solve_all, slices, [_seeded(config, a) for a in cuts[:-1]])
        return [out for part in done for out in part]


def _pool_order(entry: PoolEntry) -> tuple:
    """The pool's order: descending frequency, then descending mean value, then bitstring."""
    return (-entry.frequency, -entry.mean_value, entry.bits)


def run_robust_analysis(
    gen: ScenarioGenerators,
    solver_config: SolverConfig | None = None,
    jobs: int = 1,
    reference: Sequence[int] | None = None,
) -> tuple[RobustnessReport, list[ScenarioResult]]:
    """Solve every scenario and pool the returned solutions by bitstring.

    Scenarios are dispatched by ``_solve_scenarios``, which says how
    ``jobs`` and the solver seeds are used.  When ``reference`` bits are
    given, the report also carries their value-match coverage over the
    scenarios.
    """
    config = solver_config or SolverConfig()
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    _diff, k, _design, instances = scenario_instances(gen)
    results = [
        ScenarioResult(
            scenario_index=i,
            solution=out.solution,
            status=out.status,
            value=out.solution.value,
        )
        for i, out in enumerate(_solve_scenarios(instances, config, jobs))
    ]

    grouped: dict[str, list[float]] = {}
    for r in results:
        grouped.setdefault(r.solution.bitstring, []).append(r.value)
    entries = tuple(
        sorted(
            (
                PoolEntry(bits=bits, frequency=len(vals), mean_value=sum(vals) / len(vals))
                for bits, vals in grouped.items()
            ),
            key=_pool_order,
        )
    )
    exactness = sum(1 for r in results if r.status == PROVEN_OPTIMAL) / k
    ref_field = None
    if reference is not None:
        percent = coverage(results, instances, reference)
        ref_field = ("".join(str(int(b)) for b in reference), percent)
    report = RobustnessReport(
        k=k,
        pool=entries,
        most_robust=entries[0].bits,
        exactness=exactness,
        reference=ref_field,
    )
    return report, results


def coverage(
    results: Sequence[ScenarioResult],
    scenarios: Sequence[QuboInstance],
    reference: Sequence[int],
    atol: float = 0.0,
) -> float:
    """Percentage of scenarios where the reference attains the scenario optimum.

    The match is on objective value, not bits, so alternate optima count as
    covered.  A reference attains the optimum when it scores at least the
    reported value minus ``max(atol, tol)``, where tol is the solver's tie
    tolerance for that scenario: the tie rule may report an assignment up
    to tol below another one's computed value.
    """
    if len(results) != len(scenarios):
        raise ValueError("results and scenarios must align one to one")
    if not scenarios:
        raise ValueError("cannot compute coverage over zero scenarios")
    if len(reference) != scenarios[0].n:
        raise ValueError(
            f"reference length {len(reference)} != n={scenarios[0].n}"
        )
    hits = 0
    for res, inst in zip(results, scenarios):
        slack = max(atol, float(_tie_tolerance(_terms(inst))))
        if evaluate(inst, reference) >= res.value - slack:
            hits += 1
    return 100.0 * hits / len(results)


def most_robust(report: RobustnessReport) -> str:
    """Bits of the pool entry that comes first in ``_pool_order``."""
    if not report.pool:
        raise ValueError("solution pool is empty")
    return min(report.pool, key=_pool_order).bits


def report_to_json(report: RobustnessReport) -> dict:
    doc: dict = {
        "k": report.k,
        "pool": [
            {"bits": e.bits, "frequency": e.frequency, "mean_value": e.mean_value}
            for e in report.pool
        ],
        "most_robust": report.most_robust,
        "exactness": report.exactness,
    }
    if report.reference is not None:
        doc["coverage"] = {
            "reference_bits": report.reference[0],
            "percent": report.reference[1],
        }
    return doc


def results_to_csv(results: Sequence[ScenarioResult]) -> str:
    lines = ["index,bits,value,status"]
    for r in results:
        lines.append(
            f"{r.scenario_index},{r.solution.bitstring},{format_number(r.value)},{r.status}"
        )
    return "\n".join(lines) + "\n"
