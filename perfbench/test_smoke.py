"""Smoke test of the benchmark at tiny sizes.

Run from the repository root:  python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qrobust import pipeline  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def workdir():
    """Scratch directory inside the checkout, like the benchmark's own."""
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="smoke-", dir=out))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _run_tiny(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_prints_every_metric(workload, trace):
    result = _run_tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], float)


def _traced_spans(workdir, workload="paper_pipeline", ops=2):
    wl = workloads.build(workload, 3, "tiny", workdir)
    wl.jobs = 1  # spans are recorded in this process only
    tracer = tracing.Tracer()
    for i in range(ops):
        with tracer.installed(), tracer.operation(i):
            wl.run(i)
    return tracer.spans


def test_spans_nest_and_self_times_sum_to_parent(workdir):
    spans = _traced_spans(workdir)
    layers = {s.layer for s in spans}
    assert {"cli", "pipeline", "solver", "design", "qubo", "response_surface"} <= layers
    selfs = tracing.self_times(spans)
    children: dict[int, list[int]] = {}
    for idx, s in enumerate(spans):
        if s.parent is None:
            assert s.layer == tracing.BENCH_LAYER
            continue
        parent = spans[s.parent]
        assert parent.start <= s.start <= s.end <= parent.end
        assert s.op == parent.op
        children.setdefault(s.parent, []).append(idx)
    for idx, s in enumerate(spans):
        kids = sum(spans[c].duration for c in children.get(idx, []))
        assert selfs[idx] >= 0.0
        assert selfs[idx] + kids == pytest.approx(s.duration, abs=1e-9)
    roots = [idx for idx, s in enumerate(spans) if s.parent is None]
    assert len(roots) == 2
    for r in roots:
        in_op = [selfs[i] for i, s in enumerate(spans) if s.op == spans[r].op]
        assert sum(in_op) == pytest.approx(spans[r].duration, abs=1e-9)


def test_shims_are_removed_after_a_traced_operation(workdir):
    before = pipeline.solve
    _traced_spans(workdir, ops=1)
    assert pipeline.solve is before


def test_layer_metrics_account_for_wall_time(workdir):
    spans = _traced_spans(workdir, workload="bnb_scenarios")
    m = tracing.layer_metrics(spans, 2)
    assert m["preprocess.calls"] > 0 and m["solver.solves"] > 0
    total = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS) + m["trace.bench_self_s"]
    assert total == pytest.approx(m["trace.wall_s"], rel=1e-9)


def test_corrupted_scenario_value_is_counted_as_failed(workdir, monkeypatch):
    wl = workloads.build("bnb_scenarios", 3, "tiny", workdir)
    runner = run.Runner(wl, report=lambda line: None)
    assert runner.once(0) is not None
    real_solve = pipeline.solve

    def corrupt(instance, config=None):
        out = real_solve(instance, config)
        bad = replace(out.solution, value=out.solution.value + 1.0)
        return replace(out, solution=bad)

    wl.jobs = 1  # the patch must reach the solves, so run them in process
    monkeypatch.setattr(pipeline, "solve", corrupt)
    assert runner.once(2) is None
    assert (runner.attempted, runner.failed) == (2, 1)
