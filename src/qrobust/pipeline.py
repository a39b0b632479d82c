"""The scenario loop: instantiate every design run, solve it, pool the optima.

``_solve_scenarios`` is the one place a set of scenarios is dispatched to
the solver; the analysis here and the bound check of
``qrobust.response_surface`` both go through it.  It returns outcomes in
scenario order, and a scenario's outcome does not depend on its batch
mates or the worker count, so reports are identical for every ``jobs``.
"""

from __future__ import annotations

import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
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
    MODE_EXACT,
    MODE_HEURISTIC,
    PROVEN_OPTIMAL,
    BinarySolution,
    SolveOutcome,
    SolverConfig,
    _bnb_batch,
    _fall_back,
    _tie_tolerance,
    solve,
    solve_batch,
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

    ``pool`` is sorted by descending frequency, then descending mean value,
    then bitstring, so its head is the most robust solution.  ``exactness``
    is the fraction of scenarios solved to proven optimality.
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


def _seeded(config: SolverConfig, i: int) -> SolverConfig:
    return replace(config, seed=(config.seed + i) % 2**64)


# Linux forks its workers, the start method ``_pool_pays`` is calibrated
# with; Python 3.14 would otherwise default to forkserver there.  Other
# platforms spawn, their default and the only safe choice there; a spawned
# worker imports NumPy and this package again, about 0.2 s more, so there
# the pool starts somewhat before it pays.
_POOL_CONTEXT = multiprocessing.get_context("fork" if sys.platform == "linux" else "spawn")

# Calibration of ``_pool_pays``, exact mode on a 2-core Linux host, k = 64
# conflict scenarios (CHANGES.md has the table): a scenario's share of one
# in-process lockstep batch takes about _BNB_SCENARIO_S at n = 44 and
# doubles every _BNB_DOUBLING_N variables, and each forked pool worker
# costs about _WORKER_START_S to start, feed and collect.
_BNB_SCENARIO_S = 1.7e-3
_BNB_DOUBLING_N = 7.0
_WORKER_START_S = 0.075


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
    return batch_s * (1.0 - 1.0 / workers) > workers * _WORKER_START_S


def _solve_scenarios(
    instances: Sequence[QuboInstance], config: SolverConfig, jobs: int = 1
) -> list[SolveOutcome]:
    """Solve scenarios of one size; outcome i belongs to ``instances[i]``.

    Enumerable scenarios (mode exact or auto, n at most ``enum_threshold``)
    get one ``solve_batch`` sweep in this process, and ``jobs`` is unused.
    Otherwise, when ``jobs`` or k is 1, scenario i gets ``solve`` with seed
    ``seed + i`` in this process.  With ``jobs > 1``, ``jobs`` is a cap:
    unless ``_pool_pays``, ``_solve_slice`` solves all k scenarios in this
    process as one slice; if it pays, the k scenarios are cut into
    ``min(jobs, k)`` contiguous slices of near-equal size, one task each
    for a pool of that many worker processes.  Either way scenario i gets
    what a lone ``solve`` with seed ``seed + i`` returns, however it was
    dispatched, except for elapsed time and budgets: a sweep or a slice's
    branch and bound pools the budgets of its scenarios.
    """
    k = len(instances)
    n = instances[0].n
    if config.mode != MODE_HEURISTIC and n <= config.enum_threshold:
        return solve_batch(instances, config)
    if jobs == 1 or k == 1:
        return list(map(solve, instances, [_seeded(config, i) for i in range(k)]))
    if not _pool_pays(k, n, config.mode, jobs):
        return _solve_slice(instances, config, 0)
    parts = min(jobs, k)
    cuts = [k * p // parts for p in range(parts + 1)]
    slices = [instances[a:b] for a, b in zip(cuts, cuts[1:])]
    with ProcessPoolExecutor(max_workers=parts, mp_context=_POOL_CONTEXT) as pool:
        done = pool.map(_solve_slice, slices, [config] * parts, cuts[:-1])
        return [out for part in done for out in part]


def _solve_slice(
    instances: Sequence[QuboInstance], config: SolverConfig, first: int
) -> list[SolveOutcome]:
    """Scenarios ``first``, ``first + 1``, ... above ``enum_threshold``, in this process.

    A pool task, or with ``first`` 0 the whole in-process batch of
    ``_solve_scenarios``.  Heuristic mode solves them one by one.  Exact
    and auto modes search them all with one lockstep branch and bound
    (``solver._bnb_batch``), which walks each scenario's own search; in
    auto mode a scenario it leaves ``budget_exhausted`` then falls back to
    tabu search with seed ``seed + i``, as ``solve`` does.
    """
    if config.mode == MODE_HEURISTIC:
        return [solve(inst, _seeded(config, first + i)) for i, inst in enumerate(instances)]
    outcomes = _bnb_batch(instances, config)
    if config.mode == MODE_EXACT:
        return outcomes
    return [
        _fall_back(inst, _seeded(config, first + i), out)
        for i, (inst, out) in enumerate(zip(instances, outcomes))
    ]


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
            key=lambda e: (-e.frequency, -e.mean_value, e.bits),
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
    """Pool entry with maximal frequency; ties prefer the larger mean value,
    then the lexicographically smallest bitstring."""
    if not report.pool:
        raise ValueError("solution pool is empty")
    winner = min(report.pool, key=lambda e: (-e.frequency, -e.mean_value, e.bits))
    return winner.bits


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
