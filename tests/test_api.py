"""The public surface: exported names and command-line flags stay put."""

import argparse

import qrobust
from qrobust.cli import build_parser

PUBLIC_NAMES = [
    "BinarySolution", "BoundComparison", "BoundRow", "DesignMatrix", "DifferenceSet",
    "FixReport", "ParseError", "PoolEntry", "QuboInstance", "RobustnessReport",
    "ScenarioGenerators", "ScenarioResult", "SensitivityRecord", "SensitivityReport",
    "SolveOutcome", "SolverConfig", "SurfaceModel", "average_instance", "build_design",
    "code_scenario", "compare_bounds", "coverage", "differing_elements", "estimate",
    "evaluate", "fit_model", "fix_slack", "fix_variables", "format_instance",
    "instantiate_scenario", "most_robust", "one_flip_gain", "pair_slack", "parse_instance",
    "perturbed_generators", "positive_sum_bound", "random_scenario", "reduce_instance",
    "run_count", "run_robust_analysis", "sensitivity_report", "solve", "solve_batch",
    "solve_exact", "solve_heuristic", "upper_bound",
]

SOLVER_FLAGS = ["--budget", "--enum-threshold", "--mode", "--restarts", "--seed"]
COMMAND_FLAGS = {
    "solve": ["--in", "--out", *SOLVER_FLAGS],
    "preprocess": ["--in", "--out", "--tolerance"],
    "design": ["--gen", "--out"],
    "analyze": ["--gen", "--in", "--jobs", "--out", "--perturb", "--reference", "--scenarios",
                *SOLVER_FLAGS],
    "fit": ["--design", "--gen", "--out", "--scenarios", *SOLVER_FLAGS],
    "bound": ["--design", "--gen", "--model", "--out", "--scenarios", "--validate",
              *SOLVER_FLAGS],
}


def test_exported_names():
    assert len(PUBLIC_NAMES) == 46
    assert sorted(qrobust.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(qrobust, name) is not None


def test_subcommands_and_flags():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(COMMAND_FLAGS)
    for name, flags in COMMAND_FLAGS.items():
        options = {o for a in sub.choices[name]._actions for o in a.option_strings}
        assert options - {"-h", "--help"} == set(flags), name
