"""qrobust benchmark: one seeded workload, timed from outside the package.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper_pipeline --seed 1 --seconds 40 --trace 0

With ``--trace 0`` it runs operations back to back (closed loop, one
client) for ``--seconds`` and prints the end-to-end metrics; with
``--trace 1`` it runs a fixed number of operations, each once untraced and
once under the timing shims, and prints the per-layer metrics.  The last
line of standard output is one JSON object; the lines before it are the
human-readable report.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread: the bnb workload runs two pool workers on a two-core
# machine, and OpenBLAS would otherwise start one thread per core in each.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("paper_pipeline", "bnb_scenarios", "tabu_large")
# Operations traced per workload: fixed, so per-layer counts repeat exactly.
TRACED_OPS = {"paper_pipeline": 3, "bnb_scenarios": 8, "tabu_large": 4}
SETUP_REPEATS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="input sizes; 'tiny' is for the smoke test")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def report(line: str) -> None:
    print(line, flush=True)


def environment() -> dict:
    import numpy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus ``workers`` times the largest pool worker's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


class Runner:
    """Runs operations of one workload and records times and failures."""

    def __init__(self, workload, report):
        self.wl = workload
        self.report = report
        self.attempted = 0
        self.failed = 0
        self.solves = 0
        self.quality: dict[str, float] = {}

    def once(self, i: int, timed_region=None) -> float | None:
        """Run and check operation i; return its wall time, None when it failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if timed_region is None:
                out = self.wl.run(i)
            else:
                with timed_region(i):
                    out = self.wl.run(i)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            self._fail(i, [f"{type(exc).__name__}: {exc}"])
            return None
        elapsed = time.perf_counter() - t0
        try:
            failures = self.wl.check(i, out)
        except Exception as exc:  # noqa: BLE001 - a check that cannot run is a failure
            failures = [f"check raised {type(exc).__name__}: {exc}"]
        if failures:
            self._fail(i, failures)
            return None
        self.solves += out.solves
        self.quality.update(out.quality)
        return elapsed

    def _fail(self, i: int, failures: list[str]) -> None:
        self.failed += 1
        for msg in failures[:3]:
            self.report(f"FAIL op {i}: {msg}")


def kind_of(workload, i: int) -> str:
    return workload.op_kind(i)[0] if hasattr(workload, "op_kind") else "all"


def measure(runner: Runner, seconds: float) -> dict[str, list[float]]:
    """Closed loop until the deadline; returns op times per operation kind.

    An operation is not started when the last one of its kind says it would
    end after the deadline, so a run lasts about ``seconds``.
    """
    times: dict[str, list[float]] = {}
    last: dict[str, float] = {}
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        kind = kind_of(runner.wl, i)
        started = kind in last
        if started and time.perf_counter() + last[kind] > deadline:
            break
        dt = runner.once(i)
        if dt is not None:
            times.setdefault(kind, []).append(dt)
            last[kind] = dt
        else:
            last.setdefault(kind, 0.0)
        i += 1
    return times


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "qrobust" / "__init__.py").is_file():
        print(f"error: no qrobust package under {src}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    try:
        import workloads
        import tracing
    except ImportError as exc:
        print(f"error: cannot import the package: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t_start

    env = environment()
    report("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    try:
        # Set-up: the inputs, after two warm-up operations on the tiny inputs; repeated.
        setups = []
        for rep in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            warm = workloads.build(args.workload, args.seed, "tiny", workdir)
            for i in range(2):
                warm.run(i)
            wl = workloads.build(args.workload, args.seed, args.size, workdir)
            setups.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(setups)
        report(f"setup_s={setup_s:.4f} (imports {import_s:.4f} + median of {SETUP_REPEATS} input builds and warm-ups)")
        runner = Runner(wl, report)
        if args.trace:
            metrics = traced(args, wl, runner, tracing, out_dir, report)
        else:
            metrics = untraced(args, wl, runner, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace == 0:
        metrics["setup_s"] = (setup_s, "s")
    failed_frac = runner.failed / runner.attempted if runner.attempted else 1.0
    report(f"failed_frac={failed_frac:.4f} ({runner.failed} of {runner.attempted} operations)")
    for name, value in sorted(runner.quality.items()):
        report(f"{name}={value:.6g} (deterministic for a seed; reported, not gated)")
    result = {
        "correct": runner.failed == 0 and runner.attempted > 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def untraced(args, wl, runner, report) -> dict:
    times = measure(runner, args.seconds)
    if not times:
        report("no operation succeeded")
        return {name: (0.0, unit) for name, unit in (
            ("analysis_s", "s"), ("scenarios_per_s", "1/s"), ("peak_rss_mb", "MB"))}
    medians = {kind: statistics.median(ts) for kind, ts in times.items()}
    for kind, ts in sorted(times.items()):
        report(f"analysis_s[{kind}] median={medians[kind]:.4f} n={len(ts)} "
               f"min={min(ts):.4f} max={max(ts):.4f}")
    # bnb alternates two kinds of base: the mean of the per-kind medians
    # cannot jump with how many operations of each kind fit in the run.
    analysis_s = statistics.fmean(medians.values())
    op_time = sum(sum(ts) for ts in times.values())
    workers = wl.jobs if wl.jobs > 1 else 0
    return {
        "analysis_s": (analysis_s, "s"),
        "scenarios_per_s": (runner.solves / op_time, "1/s"),
        "peak_rss_mb": (peak_rss_mb(workers), "MB"),
    }


def traced(args, wl, runner, tracing, out_dir, report) -> dict:
    if wl.jobs > 1:
        report(f"trace: scenarios run in process (jobs=1 instead of {wl.jobs}); "
               "pool workers' spans would not be collected")
    wl.jobs = 1
    tracer = tracing.Tracer()

    @contextlib.contextmanager
    def shimmed(i):
        with tracer.installed(), tracer.operation(i):
            yield

    plain_total = traced_total = 0.0
    ops = 0
    for i in range(TRACED_OPS[args.workload] if args.size == "full" else 2):
        plain = runner.once(i)
        shimmed_time = runner.once(i, shimmed)
        if plain is None or shimmed_time is None:
            continue
        plain_total += plain
        traced_total += shimmed_time
        ops += 1
    roots = sum(1 for s in tracer.spans if s.layer == tracing.BENCH_LAYER)
    metrics = tracing.layer_metrics(tracer.spans, max(roots, 1))
    metrics["trace.overhead_ratio"] = traced_total / plain_total if plain_total else 0.0
    metrics["trace.ops"] = float(roots)
    path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(tracer.to_json()))
    report(f"trace: {len(tracer.spans)} spans from {roots} operations written to {path.relative_to(ROOT)}")
    report(f"trace: layer self times cover {100 * metrics['trace.attributed_frac']:.2f}% of traced "
           f"operation wall time; tracing overhead x{metrics['trace.overhead_ratio']:.3f} "
           f"over {ops} paired untraced operations")
    return {name: (value, unit_of(name)) for name, value in metrics.items()}


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms_p50") or name.endswith("_ms_p90"):
        return "ms"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_frac") or name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_computed"):
        return "flop" if "flops" in name else "B"
    return "count"


if __name__ == "__main__":
    raise SystemExit(main())
