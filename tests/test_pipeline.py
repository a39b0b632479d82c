"""Scenario loop, pooling, coverage and determinism."""

import multiprocessing
import time
from dataclasses import replace
from types import SimpleNamespace

import pytest

from qrobust import (
    ScenarioGenerators,
    coverage,
    evaluate,
    most_robust,
    run_robust_analysis,
    solve,
)
from qrobust.pipeline import (
    PoolEntry,
    RobustnessReport,
    report_to_json,
    results_to_csv,
    scenario_instances,
)
from qrobust import pipeline, solver
from qrobust.solver import BUDGET_EXHAUSTED, HEURISTIC, PROVEN_OPTIMAL, SolverConfig

EXACT = SolverConfig(mode="exact")
DISPATCH = pytest.mark.parametrize("dispatch", ["in-process", "pool"], indirect=True)


def test_degenerate_generators_single_scenario():
    gen = ScenarioGenerators(3, {(0, 0): (4, 4), (1, 2): (-2, -2)})
    report, results = run_robust_analysis(gen, EXACT)
    assert report.k == 1
    assert len(results) == 1
    assert report.pool[0].frequency == 1
    assert report.exactness == 1.0


def test_business_fixture_pool_invariants(business_gen):
    report, results = run_robust_analysis(business_gen, EXACT)
    assert report.k == 64
    assert sum(e.frequency for e in report.pool) == 64
    assert report.exactness == 1.0
    _diff, _k, _design, instances = scenario_instances(business_gen)
    for res, inst in zip(results, instances):
        assert evaluate(inst, res.solution.bits) == res.value
    # pooled mean equals the mean of that bitstring's scenario optima
    for entry in report.pool:
        values = [r.value for r in results if r.solution.bitstring == entry.bits]
        assert len(values) == entry.frequency
        assert entry.mean_value == sum(values) / len(values)


def test_results_are_index_sorted(business_gen):
    _report, results = run_robust_analysis(business_gen, EXACT)
    assert [r.scenario_index for r in results] == list(range(64))


def test_worker_count_does_not_change_the_report(business_gen):
    serial, serial_results = run_robust_analysis(business_gen, EXACT, jobs=1)
    parallel, parallel_results = run_robust_analysis(business_gen, EXACT, jobs=4)
    assert report_to_json(serial) == report_to_json(parallel)
    assert results_to_csv(serial_results) == results_to_csv(parallel_results)


@DISPATCH
def test_worker_count_does_not_change_a_pooled_report(business_gen, dispatch):
    # above the enumeration threshold one in-process batch, or each worker's
    # slice, is searched in lockstep; at jobs=1 each scenario gets its own solve
    config = SolverConfig(mode="exact", enum_threshold=5)
    serial, serial_results = run_robust_analysis(business_gen, config, jobs=1)
    parallel, parallel_results = run_robust_analysis(business_gen, config, jobs=4)
    assert report_to_json(serial) == report_to_json(parallel)
    assert results_to_csv(serial_results) == results_to_csv(parallel_results)


@pytest.mark.parametrize(
    "config",
    [
        SolverConfig(mode="exact", time_budget=None),
        SolverConfig(mode="exact", time_budget=None, enum_threshold=5),
        SolverConfig(mode="heuristic", time_budget=None, restarts=2, seed=7),
    ],
    ids=["sweep", "branch-and-bound", "heuristic"],
)
def test_each_scenario_gets_its_lone_solve(business_gen, config):
    # however scenarios are dispatched, scenario i's outcome is the one a
    # lone solve with seed seed + i gives
    _report, results = run_robust_analysis(business_gen, config)
    _diff, _k, _design, instances = scenario_instances(business_gen)
    for i, (res, inst) in enumerate(zip(results, instances)):
        lone = solve(inst, replace(config, seed=config.seed + i))
        assert (res.solution, res.status) == (lone.solution, lone.status)


BNB_CONFIGS = {
    "exact": SolverConfig(mode="exact", time_budget=None, enum_threshold=5),
    "auto": SolverConfig(mode="auto", time_budget=None, enum_threshold=5),
    # the exact attempt runs out at once, so auto falls back to tabu
    "auto-fallback": SolverConfig(mode="auto", time_budget=1e-9, enum_threshold=5, restarts=2, seed=3),
}


# tabu search always takes the pool, so heuristic mode has no in-process case
@pytest.mark.parametrize(
    "config, dispatch",
    [
        *(pytest.param(c, "pool", id=name) for name, c in BNB_CONFIGS.items()),
        *(pytest.param(c, "in-process", id=f"{name}-in-process") for name, c in BNB_CONFIGS.items()),
        pytest.param(
            SolverConfig(mode="heuristic", time_budget=None, restarts=2, seed=7), "pool", id="heuristic"
        ),
    ],
    indirect=["dispatch"],
)
def test_pooled_slices_give_each_scenario_its_lone_solve(business_gen, config, dispatch):
    _report, results = run_robust_analysis(business_gen, config, jobs=2)
    _diff, _k, _design, instances = scenario_instances(business_gen)
    for i, (res, inst) in enumerate(zip(results, instances)):
        lone = solve(inst, replace(config, seed=config.seed + i))
        assert (res.solution, res.status) == (lone.solution, lone.status)
    if config.time_budget is not None:
        assert HEURISTIC in {r.status for r in results}


@DISPATCH
def test_more_workers_than_scenarios(business_gen, dispatch):
    # two varying positions give k = 4 scenarios for 6 workers
    entries = {key: (a, a) for key, (a, _b) in business_gen.entries.items()}
    entries[(0, 0)] = (-5, 2)
    entries[(3, 5)] = (7, 1)
    gen = ScenarioGenerators(9, entries)
    config = SolverConfig(mode="exact", time_budget=None, enum_threshold=5)
    serial, serial_results = run_robust_analysis(gen, config, jobs=1)
    parallel, parallel_results = run_robust_analysis(gen, config, jobs=6)
    assert serial.k == 4
    assert report_to_json(serial) == report_to_json(parallel)
    assert results_to_csv(serial_results) == results_to_csv(parallel_results)


@DISPATCH
@pytest.mark.parametrize(
    "nodes, statuses",
    [(0, {BUDGET_EXHAUSTED}), (4, {BUDGET_EXHAUSTED, PROVEN_OPTIMAL})],
    ids=["root", "partway"],
)
def test_pooled_scenarios_keep_their_own_budget(business_gen, dispatch, nodes, statuses):
    # each search of the in-process batch or of a worker's slice stops at
    # its own cap of ``nodes``, as it does alone: below one node at its root
    # with its greedy incumbent, or after 4 nodes, which proves the
    # searches of fewer
    budget = (nodes + 0.5) / solver._NODES_PER_S
    config = SolverConfig(mode="exact", time_budget=budget, enum_threshold=5)
    _report, results = run_robust_analysis(business_gen, config, jobs=2)
    _diff, _k, _design, instances = scenario_instances(business_gen)
    assert {r.status for r in results} == statuses
    for res, inst in zip(results, instances):
        assert evaluate(inst, res.solution.bits) == res.value
        lone = solve(inst, config)
        assert (res.solution, res.status) == (lone.solution, lone.status)


def test_the_pool_pays_only_for_heavy_exact_work(monkeypatch):
    def clock(*_args):
        raise AssertionError("the dispatch rule read the clock")

    monkeypatch.setattr(time, "perf_counter", clock)
    # calibrated with forked workers; only the start method is read
    monkeypatch.setattr(pipeline, "_POOL_CONTEXT", SimpleNamespace(get_start_method=lambda: "fork"))
    pays = pipeline._pool_pays
    # bnb_scenarios size: 64 scenarios of n = 44 stay in one in-process batch
    for mode in ("exact", "auto"):
        assert not pays(64, 44, mode, 2) and not pays(64, 44, mode, 8)
    # from the break-even n on, every larger n pools; at n = 64 two workers
    # took 0.41-0.47 s against 0.54-0.76 s in process (CHANGES.md)
    pooled = [n for n in range(23, 120) if pays(64, n, "exact", 2)]
    assert pooled == list(range(pooled[0], 120)) and 50 < pooled[0] <= 60
    assert pays(64, 64, "exact", 2) and pays(64, 64, "auto", 2)
    # each worker costs its start-up, and fewer scenarios need larger ones
    assert not pays(64, pooled[0], "exact", 8)
    assert not pays(16, pooled[0], "exact", 2)
    # tabu shares no work between scenarios: heuristic mode always pools
    assert pays(2, 5, "heuristic", 2) and pays(512, 50, "heuristic", 8)


def test_spawned_workers_start_later_than_forked_ones(monkeypatch):
    # a spawned worker imports NumPy and the package again, about 0.2 s
    # each: with spawn, n = 64 took 0.65-0.77 s pooled against 0.59-0.85 s
    # in process (k = 64, jobs = 2)
    monkeypatch.setattr(pipeline, "_POOL_CONTEXT", multiprocessing.get_context("spawn"))
    pays = pipeline._pool_pays
    for mode in ("exact", "auto"):
        assert not any(pays(64, n, mode, 2) for n in range(23, 65))
        assert pays(64, 80, mode, 2)
    assert pays(2, 5, "heuristic", 2)


def test_enumerated_analysis_caps_each_sweep(business_gen, monkeypatch):
    # a cap of 300 of the 512 assignments stops every sweep after 4 blocks
    # of 64, whatever the chunk size
    _diff, _k, _design, instances = scenario_instances(business_gen)
    config = SolverConfig(time_budget=300 / solver._SWEEP_PER_S)
    _report, results = run_robust_analysis(business_gen, config)
    assert {r.status for r in results} == {BUDGET_EXHAUSTED}
    for res, inst in zip(results, instances):
        assert evaluate(inst, res.solution.bits) == res.value
        assert solve(inst, config).solution == res.solution
    monkeypatch.setattr(solver, "_BLOCK_ELEMENTS", 64)  # one block per chunk
    assert run_robust_analysis(business_gen, config)[1] == results
    _report, results = run_robust_analysis(business_gen, SolverConfig(time_budget=None))
    assert {r.status for r in results} == {PROVEN_OPTIMAL}


def test_reference_coverage_field(business_gen):
    reference = (0, 0, 0, 1, 0, 1, 1, 1, 1)
    report, _ = run_robust_analysis(business_gen, EXACT, reference=reference)
    assert report.reference is not None
    bits, percent = report.reference
    assert bits == "000101111"
    assert 0.0 <= percent <= 100.0


class TestCoverage:
    def test_returned_solutions_cover_everything(self, business_gen):
        report, results = run_robust_analysis(business_gen, EXACT)
        _diff, _k, _design, instances = scenario_instances(business_gen)
        best = report.most_robust
        bits = tuple(int(c) for c in best)
        percent = coverage(results, instances, bits)
        own = sum(e.frequency for e in report.pool if e.bits == best)
        assert percent >= 100.0 * own / report.k

    def test_dominant_reference_covers_everything(self):
        # (1, 0) is optimal in every scenario of this generator pair
        gen = ScenarioGenerators(2, {(0, 0): (5, 3), (1, 1): (-2, -4)})
        report, results = run_robust_analysis(gen, EXACT)
        _diff, _k, _design, instances = scenario_instances(gen)
        assert coverage(results, instances, (1, 0)) == 100.0

    def test_suboptimal_reference_scores_zero(self):
        gen = ScenarioGenerators(2, {(0, 0): (5, 3), (1, 1): (-2, -4)})
        report, results = run_robust_analysis(gen, EXACT)
        _diff, _k, _design, instances = scenario_instances(gen)
        assert coverage(results, instances, (0, 1)) == 0.0

    def test_reference_within_the_tie_tolerance_is_covered(self):
        # one scenario; the tie rule reports 100 (0.3) at Gray index 1 while
        # the reference 011 computes 0.1 + 0.2 = 0.30000000000000004
        constant = {(0, 0): 0.3, (1, 1): 0.1, (2, 2): 0.2, (0, 1): -1.0, (0, 2): -1.0}
        gen = ScenarioGenerators(3, {pos: (v, v) for pos, v in constant.items()})
        report, results = run_robust_analysis(gen, EXACT)
        _diff, _k, _design, instances = scenario_instances(gen)
        assert report.most_robust == "100" and results[0].value == 0.3
        assert coverage(results, instances, (0, 1, 1)) == 100.0
        assert coverage(results, instances, (1, 0, 0)) == 100.0
        assert coverage(results, instances, (0, 1, 0)) == 0.0

    def test_atol_widens_the_match(self):
        gen = ScenarioGenerators(2, {(0, 0): (5, 3), (1, 1): (-2, -4)})
        _report, results = run_robust_analysis(gen, EXACT)
        _diff, _k, _design, instances = scenario_instances(gen)
        assert coverage(results, instances, (1, 1), atol=4.0) == 100.0

    def test_length_mismatch(self, business_gen):
        report, results = run_robust_analysis(business_gen, EXACT)
        _diff, _k, _design, instances = scenario_instances(business_gen)
        with pytest.raises(ValueError):
            coverage(results, instances, (0, 1))


class TestMostRobust:
    def test_single_entry(self):
        report = RobustnessReport(
            k=1,
            pool=(PoolEntry("01", 1, 3.0),),
            most_robust="01",
            exactness=1.0,
        )
        assert most_robust(report) == "01"

    def test_frequency_tie_breaks_on_mean(self):
        report = RobustnessReport(
            k=10,
            pool=(PoolEntry("00", 5, 10.0), PoolEntry("11", 5, 12.0)),
            most_robust="11",
            exactness=1.0,
        )
        assert most_robust(report) == "11"

    def test_full_tie_breaks_lexicographically(self):
        report = RobustnessReport(
            k=4,
            pool=(PoolEntry("10", 2, 7.0), PoolEntry("01", 2, 7.0)),
            most_robust="01",
            exactness=1.0,
        )
        assert most_robust(report) == "01"

    def test_empty_pool_rejected(self):
        report = RobustnessReport(k=0, pool=(), most_robust="", exactness=0.0)
        with pytest.raises(ValueError):
            most_robust(report)


def test_report_json_shape(business_gen):
    report, results = run_robust_analysis(
        business_gen, EXACT, reference=(0, 0, 0, 1, 0, 1, 1, 1, 1)
    )
    doc = report_to_json(report)
    assert set(doc) == {"k", "pool", "most_robust", "exactness", "coverage"}
    assert doc["k"] == 64
    assert doc["pool"][0]["bits"] == report.most_robust
    csv = results_to_csv(results)
    lines = csv.strip().splitlines()
    assert lines[0] == "index,bits,value,status"
    assert len(lines) == 65
