"""Timing shims around the package's cross-module call sites, and the
per-layer metrics computed from the spans they record.

Nothing here edits the package: a traced operation temporarily replaces
public functions in the namespaces of the qrobust modules (where callers
look them up) with wrappers that record a span, then restores them.  A
layer is the qrobust module that defines the called function.
"""

from __future__ import annotations

import contextlib
import statistics
import time
import types
from dataclasses import dataclass, field

from qrobust import cli, design, pipeline, preprocess, qubo, response_surface, solver
from qrobust.solver import PROVEN_OPTIMAL, SolverConfig

LAYERS = ("qubo", "preprocess", "design", "solver", "pipeline", "response_surface", "cli")
MODULES = (qubo, preprocess, design, solver, pipeline, response_surface, cli)
# QuboInstance validation runs on every scenario the design instantiates and
# on every preprocessing round, so its constructor is timed where those
# modules call it.
CONSTRUCTOR_SITES = (design, preprocess)
BENCH_LAYER = "bench"

# _gray_enumerate sweeps 2**16 assignments per block (solver._BLOCK_BITS).
ENUM_BLOCK_BITS = 16


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _count_solve_exact(span: Span, args, kwargs, outcome) -> None:
    instance = args[0] if args else kwargs["instance"]
    config = (args[1] if len(args) > 1 else kwargs.get("config")) or SolverConfig()
    span.counts["proven"] = int(outcome.status == PROVEN_OPTIMAL)
    if instance.n <= config.enum_threshold:
        span.counts["enum_assignments"] = outcome.nodes_or_iterations
        span.counts["enum_n"] = instance.n
    else:
        span.counts["bnb_nodes"] = outcome.nodes_or_iterations


def _count_solve_heuristic(span: Span, args, kwargs, outcome) -> None:
    span.counts["tabu_moves"] = outcome.nodes_or_iterations


def _count_fix_variables(span: Span, args, kwargs, report) -> None:
    instance = args[0] if args else kwargs["instance"]
    span.counts["offered"] = instance.n
    span.counts["fixed"] = len(report.assignments)
    span.counts["rounds"] = report.rounds


COUNTERS = {
    "solver.solve_exact": _count_solve_exact,
    "solver.solve_heuristic": _count_solve_heuristic,
    "preprocess.fix_variables": _count_fix_variables,
}


class Tracer:
    """In-memory span recorder; one instance per traced run, single thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op: int | None = None

    def _open(self, name: str, layer: str) -> Span:
        span = Span(
            name=name,
            layer=layer,
            start=time.perf_counter(),
            parent=self._stack[-1] if self._stack else None,
            op=self._op,
        )
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, layer: str, name: str):
        counter = COUNTERS.get(name)

        def shim(*args, **kwargs):
            span = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                counter(span, args, kwargs, result)
            return result

        return shim

    @contextlib.contextmanager
    def installed(self):
        """Replace every cross-module call site with a shim; restore on exit."""
        saved = []
        for module in MODULES:
            for attr, obj in list(vars(module).items()):
                layer = _layer_of(obj)
                if layer is None or attr.startswith("_"):
                    continue
                saved.append((module, attr, obj))
                setattr(module, attr, self.wrap(obj, layer, f"{layer}.{obj.__name__}"))
        for module in CONSTRUCTOR_SITES:
            saved.append((module, "QuboInstance", module.QuboInstance))
            module.QuboInstance = self.wrap(module.QuboInstance, "qubo", "qubo.QuboInstance")
        try:
            yield self
        finally:
            for module, attr, obj in reversed(saved):
                setattr(module, attr, obj)

    @contextlib.contextmanager
    def operation(self, op: int):
        """Root span of one benchmark operation."""
        self._op = op
        span = self._open("bench.operation", BENCH_LAYER)
        try:
            yield span
        finally:
            self._close(span)
            self._op = None

    def to_json(self) -> list[dict]:
        return [
            {
                "id": idx,
                "name": s.name,
                "layer": s.layer,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "op": s.op,
                **({"counts": s.counts} if s.counts else {}),
            }
            for idx, s in enumerate(self.spans)
        ]


def _layer_of(obj) -> str | None:
    """Layer name of a qrobust function, None for anything else."""
    if not isinstance(obj, types.FunctionType):
        return None
    module = getattr(obj, "__module__", "") or ""
    if not module.startswith("qrobust."):
        return None
    layer = module.split(".", 1)[1]
    return layer if layer in LAYERS else None


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the time its direct children cover.

    Spans come from one thread and nest, so the children of a span never
    overlap and their durations add up to the covered part.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, covered)]


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


def enum_flops(assignments: int, n: int) -> int:
    """Multiply-adds of the block sweep: x @ M (2n^2) and the row dot (2n) per assignment."""
    return assignments * (2 * n * n + 2 * n)


def enum_bytes(assignments: int, n: int) -> int:
    """Array bytes the block sweep writes and reads, from n and the block size.

    Per assignment: the bit matrix row is built in three uint64/float64
    passes (8n written, 16n read and written twice), x @ M reads and writes
    8n each, the row dot reads 16n and writes 8, and the code arrays add 40.
    Per block: M (8n^2) is read once.
    """
    blocks = -(-assignments // (1 << min(ENUM_BLOCK_BITS, n))) if n else 0
    return assignments * (72 * n + 48) + blocks * 8 * n * n


def layer_metrics(spans: list[Span], ops: int) -> dict[str, float]:
    """Per-layer metrics from the spans of ``ops`` traced operations.

    Times and counts are per operation; percentiles and ratios are over
    all traced work.
    """
    selfs = self_times(spans)
    per_layer_self = {layer: 0.0 for layer in (*LAYERS, BENCH_LAYER)}
    for s, t in zip(spans, selfs):
        per_layer_self[s.layer] += t

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def total(name: str, key: str) -> int:
        return sum(s.counts.get(key, 0) for s in named(name))

    scenario_solves = [
        s.duration
        for s in spans
        if s.layer == "solver"
        and s.parent is not None
        and spans[s.parent].layer in ("pipeline", "response_surface")
    ]
    exact = named("solver.solve_exact")
    enum_spans = [s for s in exact if "enum_assignments" in s.counts]
    enum_count = sum(s.counts["enum_assignments"] for s in enum_spans)
    enum_time = sum(s.duration for s in enum_spans)
    heur = named("solver.solve_heuristic")
    moves = total("solver.solve_heuristic", "tabu_moves")
    heur_time = sum(s.duration for s in heur)
    fixes = named("preprocess.fix_variables")
    offered = total("preprocess.fix_variables", "offered")

    # one validation query = code_scenario then estimate, in that order
    estimate_us = []
    for parent in [i for i, s in enumerate(spans) if s.name == "response_surface.compare_bounds"]:
        coded = [s.duration for s in spans if s.parent == parent and s.name == "response_surface.code_scenario"]
        est = [s.duration for s in spans if s.parent == parent and s.name == "response_surface.estimate"]
        estimate_us += [1e6 * (c + e) for c, e in zip(coded, est)]

    roots = [s for s in spans if s.layer == BENCH_LAYER]
    wall = sum(s.duration for s in roots)
    per_op = 1.0 / ops
    metrics = {
        "solver.self_s": per_layer_self["solver"] * per_op,
        "solver.solves": len(scenario_solves) * per_op,
        "solver.solve_ms_p50": 1e3 * _percentile(scenario_solves, 50),
        "solver.solve_ms_p90": 1e3 * _percentile(scenario_solves, 90),
        "solver.enum_assignments": enum_count * per_op,
        "solver.enum_assignments_per_s": enum_count / enum_time if enum_time else 0.0,
        "solver.enum_flops_computed": sum(
            enum_flops(s.counts["enum_assignments"], s.counts["enum_n"]) for s in enum_spans
        ) * per_op,
        "solver.enum_bytes_computed": sum(
            enum_bytes(s.counts["enum_assignments"], s.counts["enum_n"]) for s in enum_spans
        ) * per_op,
        "solver.bnb_nodes": total("solver.solve_exact", "bnb_nodes") * per_op,
        "solver.proven_frac": sum(s.counts["proven"] for s in exact) / len(exact) if exact else 0.0,
        "solver.tabu_moves": moves * per_op,
        "solver.tabu_moves_per_s": moves / heur_time if heur_time else 0.0,
        "preprocess.self_s": per_layer_self["preprocess"] * per_op,
        "preprocess.calls": len(fixes) * per_op,
        "preprocess.fixed_frac": total("preprocess.fix_variables", "fixed") / offered if offered else 0.0,
        "preprocess.rounds": total("preprocess.fix_variables", "rounds") * per_op,
        "qubo.self_s": per_layer_self["qubo"] * per_op,
        "qubo.evaluate_s": sum(s.duration for s in named("qubo.evaluate")) * per_op,
        "qubo.evaluate_calls": len(named("qubo.evaluate")) * per_op,
        "design.self_s": per_layer_self["design"] * per_op,
        "design.instantiate_calls": len(named("design.instantiate_scenario")) * per_op,
        "pipeline.self_s": per_layer_self["pipeline"] * per_op,
        "pipeline.coverage_s": sum(s.duration for s in named("pipeline.coverage")) * per_op,
        "response_surface.self_s": per_layer_self["response_surface"] * per_op,
        "response_surface.estimate_us": statistics.median(estimate_us) if estimate_us else 0.0,
        "cli.self_s": per_layer_self["cli"] * per_op,
        "trace.wall_s": wall * per_op,
        "trace.bench_self_s": per_layer_self[BENCH_LAYER] * per_op,
        "trace.attributed_frac": sum(per_layer_self[layer] for layer in LAYERS) / wall if wall else 0.0,
    }
    return metrics
