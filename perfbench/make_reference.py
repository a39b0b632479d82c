"""Regenerate the stored reference values for the default seed.

    python3 perfbench/make_reference.py

Writes reference/bnb_scenarios_seed1.json (the proven optima of every
scenario of every base in the pool, per kind) and
reference/tabu_large_seed1.json (a best-known value per scenario: the better
of the benchmark's own heuristic value and a 20-restart tabu search with
another seed).  Takes a few minutes.  The optima are what the seed code
computes; rerun only when the workload inputs change on purpose.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from qrobust import pipeline, solver  # noqa: E402

BEST_KNOWN_RESTARTS = 20


def _compact(value: float):
    """Integral optima are written as JSON integers; they compare equal to the floats."""
    return int(value) if value.is_integer() else value


def main() -> None:
    out = HERE / "reference"
    out.mkdir(exist_ok=True)
    seed = workloads.DEFAULT_SEED
    with tempfile.TemporaryDirectory() as tmp:
        bnb = workloads.WORKLOADS["bnb_scenarios"](
            seed, workloads.PROFILES["full"]["bnb_scenarios"], Path(tmp)
        )
        optima = {
            kind: [
                [_compact(r.value) for r in pipeline.run_robust_analysis(gen, workloads.exact_config(), jobs=2)[1]]
                for gen in bnb.gens[kind]
            ]
            for kind in bnb.kinds
        }
        (out / f"bnb_scenarios_seed{seed}.json").write_text(json.dumps(optima) + "\n")

        tabu = workloads.WORKLOADS["tabu_large"](seed, workloads.PROFILES["full"]["tabu_large"], Path(tmp))
        _report, results = pipeline.run_robust_analysis(tabu.gen, tabu.config)
        deep = solver.SolverConfig(
            mode="heuristic", time_budget=None, restarts=BEST_KNOWN_RESTARTS, seed=12345
        )
        best = [
            max(r.value, solver.solve_heuristic(inst, deep).solution.value)
            for r, inst in zip(results, tabu.instances)
        ]
        (out / f"tabu_large_seed{seed}.json").write_text(json.dumps(best) + "\n")


if __name__ == "__main__":
    main()
