"""The benchmark's workloads: seeded inputs, one timed operation each, output checks.

Every workload object is built from a seed and a size profile.  Building it
generates the inputs (part of set-up); ``run(i)`` performs operation ``i``
and is the only timed call; ``check(i, out)`` verifies the operation's
outputs afterwards and returns a list of failure messages.

Calls into the package go through module attributes looked up at call time
(``pipeline.run_robust_analysis``, ``cli.main``), so the timing shims of a
traced run see them.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qrobust import cli, design, pipeline, qubo
from qrobust.solver import HEURISTIC, PROVEN_OPTIMAL, SolverConfig

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 1

# Sizes.  "full" is what BENCHMARK.json measures; "tiny" is for the smoke
# test and for warm-up, and touches the same code paths.
PROFILES = {
    "full": {
        "paper_pipeline": {"n": 17, "nnz": 40, "fraction": 0.1, "validate": 32, "brute": 2},
        "bnb_scenarios": {
            "pool": 64,
            "dominant": {"n": 44, "density": 0.85, "diag_vary": 28, "off_vary": 4, "share": 0.9},
            "conflict": {"n": 44, "density": 0.85, "diag_vary": 28, "off_vary": 4},
        },
        "tabu_large": {"n": 300, "nnz": 1000, "vary": 16, "fraction": 0.2, "restarts": 1},
    },
    "tiny": {
        "paper_pipeline": {"n": 8, "nnz": 12, "fraction": 0.1, "validate": 4, "brute": 2},
        "bnb_scenarios": {
            "pool": 2,
            "dominant": {"n": 24, "density": 0.85, "diag_vary": 6, "off_vary": 2, "share": 0.9},
            "conflict": {"n": 24, "density": 0.85, "diag_vary": 6, "off_vary": 2},
        },
        "tabu_large": {"n": 30, "nnz": 60, "vary": 6, "fraction": 0.2, "restarts": 1},
    },
}


def exact_config(seed: int = 42) -> SolverConfig:
    """Exact solves with no wall-clock budget, so timing never changes a result."""
    return SolverConfig(mode="exact", time_budget=None, seed=seed)


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _nonzero_ints(rng: np.random.Generator, size: int, lo: int = -100, hi: int = 100) -> np.ndarray:
    """Integers uniform on [lo, hi] without zero, as floats."""
    vals = rng.integers(lo, hi, size=size, endpoint=True)
    while np.any(vals == 0):
        zero = vals == 0
        vals[zero] = rng.integers(lo, hi, size=int(zero.sum()), endpoint=True)
    return vals.astype(float)


def _random_positions(rng: np.random.Generator, n: int, count: int, k: int = 0) -> list[tuple[int, int]]:
    """``count`` distinct positions on or above the k-th diagonal."""
    iu, ju = np.triu_indices(n, k=k)
    pick = rng.choice(iu.size, size=count, replace=False)
    return sorted((int(iu[t]), int(ju[t])) for t in pick)


def _random_off_diagonal(rng: np.random.Generator, n: int, density: float) -> dict:
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < density
    vals = _nonzero_ints(rng, int(keep.sum()))
    return {(int(i), int(j)): float(v) for i, j, v in zip(iu[keep], ju[keep], vals)}


def brute_force_max(instance: qubo.QuboInstance) -> float:
    """Maximum of x^t Q x by scanning every assignment in binary order.

    Independent of the package's solvers: a dense matrix, plain binary
    counting and one matrix product per block.
    """
    n = instance.n
    q = np.zeros((n, n))
    for (i, j), v in instance.coefficients.items():
        q[i, j] = v
        q[j, i] = v
    best = -np.inf
    block = 1 << min(n, 14)
    shifts = np.arange(n)
    for start in range(0, 1 << n, block):
        idx = np.arange(start, min(start + block, 1 << n))
        x = ((idx[:, None] >> shifts) & 1).astype(float)
        best = max(best, float(((x @ q) * x).sum(axis=1).max()))
    return best


def _check_evaluations(instances, results) -> list[str]:
    """Every reported value must equal the package's evaluation of its bits."""
    failures = []
    for inst, res in zip(instances, results):
        if qubo.evaluate(inst, res.solution.bits) != res.value:
            failures.append(f"scenario {res.scenario_index}: evaluate(bits) != reported value")
    return failures


@dataclass
class Output:
    """What one operation returns to the harness."""

    solves: int
    data: object = None
    quality: dict = field(default_factory=dict)


class PaperPipeline:
    """The paper's workflow through the command line, in process.

    design -> analyze (exact, average reference) -> fit -> bound --validate.
    Every nonzero of a seeded random instance is a factor, so k = 128 at the
    full size and Gray-code enumeration does nearly all the work.
    """

    name = "paper_pipeline"
    jobs = 1

    def __init__(self, seed: int, size: dict, workdir: Path):
        rng = _rng(seed, 1)
        positions = _random_positions(rng, size["n"], size["nnz"])
        values = _nonzero_ints(rng, len(positions))
        base = qubo.QuboInstance(size["n"], dict(zip(positions, values)))
        self.gen = design.perturbed_generators(base, size["fraction"])
        self.validate = size["validate"]
        self.brute = size["brute"]
        self.cli_seed = seed % 2**31
        _diff, self.k, _design, self.instances = pipeline.scenario_instances(self.gen)
        self.files = {
            name: str(workdir / f"{name}")
            for name in ("gen.json", "design.csv", "report.json", "runs.csv", "model.json", "bounds.csv")
        }
        Path(self.files["gen.json"]).write_text(json.dumps(design.generators_to_json(self.gen)))

    def commands(self) -> list[list[str]]:
        f = self.files
        solver = ["--budget", "0", "--seed", str(self.cli_seed)]
        return [
            ["design", "--gen", f["gen.json"], "--out", f["design.csv"]],
            ["analyze", "--gen", f["gen.json"], "--mode", "exact", "--jobs", "1",
             "--reference", "average", "--scenarios", f["runs.csv"], "--out", f["report.json"], *solver],
            ["fit", "--gen", f["gen.json"], "--design", f["design.csv"], "--scenarios", f["runs.csv"],
             "--out", f["model.json"], *solver],
            ["bound", "--gen", f["gen.json"], "--model", f["model.json"], "--mode", "exact",
             "--validate", str(self.validate), "--out", f["bounds.csv"], *solver],
        ]

    def run(self, i: int) -> Output:
        codes = []
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            for argv in self.commands():
                codes.append(cli.main(argv))
        return Output(solves=self.k + self.validate, data=(codes, stdout.getvalue()))

    def check(self, i: int, out: Output) -> list[str]:
        codes, text = out.data
        if any(codes):
            return [f"cli exit codes {codes}"]
        failures = []
        rows = Path(self.files["runs.csv"]).read_text().splitlines()[1:]
        if len(rows) != self.k:
            return [f"{len(rows)} scenario rows, expected {self.k}"]
        for row, inst in zip(rows, self.instances):
            index, bits, value, status = row.split(",")
            if status != PROVEN_OPTIMAL:
                failures.append(f"scenario {index}: status {status}")
            if qubo.evaluate(inst, [int(b) for b in bits]) != float(value):
                failures.append(f"scenario {index}: evaluate(bits) != reported value")
        for t in range(self.brute):
            s = (i * self.brute + t) % self.k
            want = brute_force_max(self.instances[s])
            got = float(rows[s].split(",")[2])
            if abs(want - got) > 1e-9 * max(1.0, abs(want)):
                failures.append(f"scenario {s}: optimum {got} != brute force {want}")
        bounds = Path(self.files["bounds.csv"]).read_text().splitlines()[1:]
        if len(bounds) != self.validate:
            failures.append(f"{len(bounds)} bound rows, expected {self.validate}")
        for row in bounds:
            cols = row.split(",")
            if float(cols[1]) != 0.0 and cols[5] == "":
                failures.append(f"validation {cols[0]}: no proven optimum")
        for line in text.splitlines():
            if line.startswith("mean_g_gap="):
                out.quality["surface_gap_pct"] = float(line.split()[0][len("mean_g_gap="):-1])
        if "surface_gap_pct" not in out.quality:
            failures.append("bound printed no mean gaps")
        return failures


def _dominant_generators(rng: np.random.Generator, p: dict) -> design.ScenarioGenerators:
    """Most diagonals dominate or recede past every off-diagonal level, so
    fix_variables removes most variables in every scenario."""
    n = p["n"]
    off = _random_off_diagonal(rng, n, p["density"])
    entries = _vary_off_diagonal(rng, off, p["off_vary"])
    neg = np.zeros(n)
    pos = np.zeros(n)
    for (i, j), (a, b) in entries.items():
        for v in (i, j):
            neg[v] += 2.0 * min(a, b, 0.0)
            pos[v] += 2.0 * max(a, b, 0.0)
    kind = rng.random(n)
    vary = set(rng.choice(n, size=p["diag_vary"], replace=False).tolist())
    margin = _nonzero_ints(rng, 2 * n, 1, 100).reshape(n, 2)
    plain = _nonzero_ints(rng, 2 * n).reshape(n, 2)
    for i in range(n):
        if kind[i] < p["share"] / 2:
            levels = -neg[i] + margin[i]
        elif kind[i] < p["share"]:
            levels = -pos[i] - margin[i]
        else:
            levels = plain[i]
        a, b = float(levels[0]), float(levels[1] if i in vary else levels[0])
        entries[(i, i)] = (a, b)
    return design.ScenarioGenerators(n, entries)


def _conflict_generators(rng: np.random.Generator, p: dict) -> design.ScenarioGenerators:
    """Random conflict matrix: positive diagonal rewards, negative
    off-diagonal penalties.  No fixing rule applies, so fix_variables
    removes nothing and branch and bound does all the work.

    Dense conflict matrices are chosen over mixed-sign ones because their
    branch-and-bound effort varies far less from one random base to the
    next, which keeps a run's median steady across seeds.
    """
    n = p["n"]
    off = {key: -abs(v) for key, v in _random_off_diagonal(rng, n, p["density"]).items()}
    entries = _vary_off_diagonal(rng, off, p["off_vary"], negative=True)
    vary = set(rng.choice(n, size=p["diag_vary"], replace=False).tolist())
    levels = _nonzero_ints(rng, 2 * n, 1, 100).reshape(n, 2)
    for i in range(n):
        a, b = float(levels[i, 0]), float(levels[i, 1])
        entries[(i, i)] = (a, b if i in vary else a)
    return design.ScenarioGenerators(n, entries)


def _vary_off_diagonal(rng: np.random.Generator, off: dict, count: int, negative: bool = False) -> dict:
    """Levels for off-diagonal entries; ``count`` of them get an independent second level."""
    keys = sorted(off)
    vary = {keys[t] for t in rng.choice(len(keys), size=min(count, len(keys)), replace=False)}
    second = _nonzero_ints(rng, len(keys), -100, -1 if negative else 100)
    return {
        key: (off[key], float(second[t]) if key in vary else off[key])
        for t, key in enumerate(keys)
    }


class BnbScenarios:
    """Exact robust analysis above the enumeration threshold, on a process pool.

    Operations alternate between a base with dominant or recessive
    diagonals (preprocessing removes most variables) and a random conflict
    base (preprocessing removes none; branch and bound works).  Each
    operation takes the next base of its kind from a seeded pool, so a run
    spreads over many bases and the per-instance difficulty of branch and
    bound averages out.
    """

    name = "bnb_scenarios"
    kinds = ("dominant", "conflict")
    jobs = 2

    def __init__(self, seed: int, size: dict, workdir: Path, expected: dict | None = None):
        self.pool = size["pool"]
        self.gens = {
            "dominant": [_dominant_generators(_rng(seed, 2, 0, b), size["dominant"]) for b in range(self.pool)],
            "conflict": [_conflict_generators(_rng(seed, 2, 1, b), size["conflict"]) for b in range(self.pool)],
        }
        self.expected = expected
        self.seen: dict[tuple[str, int], list[float]] = {}

    def op_kind(self, i: int) -> tuple[str, int]:
        return self.kinds[i % 2], (i // 2) % self.pool

    def run(self, i: int) -> Output:
        kind, b = self.op_kind(i)
        _report, results = pipeline.run_robust_analysis(self.gens[kind][b], exact_config(), jobs=self.jobs)
        return Output(solves=len(results), data=results)

    def check(self, i: int, out: Output) -> list[str]:
        kind, b = self.op_kind(i)
        results = out.data
        _diff, k, _design, instances = pipeline.scenario_instances(self.gens[kind][b])
        if len(results) != k:
            return [f"{len(results)} results, expected {k}"]
        failures = [
            f"scenario {r.scenario_index}: status {r.status}"
            for r in results
            if r.status != PROVEN_OPTIMAL
        ]
        failures += _check_evaluations(instances, results)
        values = [r.value for r in results]
        if self.expected is not None and b < len(self.expected[kind]):
            if values != self.expected[kind][b]:
                failures.append(f"{kind} base {b}: optima differ from the stored expected optima")
        previous = self.seen.setdefault((kind, b), values)
        if values != previous:
            failures.append(f"{kind} base {b}: optima differ from an earlier run on the same base")
        return failures


class TabuLarge:
    """Heuristic robust analysis on a large sparse instance: tabu search only."""

    name = "tabu_large"
    jobs = 1

    def __init__(self, seed: int, size: dict, workdir: Path, best_known: list[float] | None = None):
        rng = _rng(seed, 3)
        n = size["n"]
        positions = sorted(set(_random_positions(rng, n, size["nnz"] - n, k=1)) | {(i, i) for i in range(n)})
        values = _nonzero_ints(rng, len(positions))
        vary = {positions[t] for t in rng.choice(len(positions), size=size["vary"], replace=False)}
        f = size["fraction"]
        entries = {
            pos: ((v * (1.0 + f), v * (1.0 - f)) if pos in vary else (v, v))
            for pos, v in zip(positions, values.tolist())
        }
        self.gen = design.ScenarioGenerators(n, entries)
        self.config = SolverConfig(
            mode="heuristic", time_budget=None, restarts=size["restarts"], seed=seed % 2**63
        )
        _diff, self.k, _design, self.instances = pipeline.scenario_instances(self.gen)
        self.best_known = best_known
        self.first: list[float] | None = None

    def run(self, i: int) -> Output:
        _report, results = pipeline.run_robust_analysis(self.gen, self.config, jobs=self.jobs)
        return Output(solves=len(results), data=results)

    def check(self, i: int, out: Output) -> list[str]:
        results = out.data
        if len(results) != self.k:
            return [f"{len(results)} results, expected {self.k}"]
        failures = [
            f"scenario {r.scenario_index}: status {r.status}" for r in results if r.status != HEURISTIC
        ]
        failures += _check_evaluations(self.instances, results)
        values = [r.value for r in results]
        if self.first is None:
            self.first = values
        elif values != self.first:
            failures.append("heuristic values differ between identical operations")
        if self.best_known is not None:
            gaps = [100.0 * (best - v) / abs(best) for best, v in zip(self.best_known, values)]
            out.quality["tabu_gap_pct"] = sum(gaps) / len(gaps)
        return failures


WORKLOADS = {cls.name: cls for cls in (PaperPipeline, BnbScenarios, TabuLarge)}


def stored_reference(workload: str, seed: int, profile: str):
    """Stored expected optima (bnb) or best-known values (tabu) for the default seed."""
    if seed != DEFAULT_SEED or profile != "full":
        return None
    path = HERE / "reference" / f"{workload}_seed{seed}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text())


def build(workload: str, seed: int, profile: str, workdir: Path):
    size = PROFILES[profile][workload]
    cls = WORKLOADS[workload]
    ref = stored_reference(workload, seed, profile)
    if cls is PaperPipeline:
        return cls(seed, size, workdir)
    return cls(seed, size, workdir, ref)
