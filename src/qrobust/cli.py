"""Command-line front end.

One binary with subcommands; stages chain through files so each is
independently scriptable.  All randomness flows from --seed (a fixed
constant by default, never the clock), so every command is reproducible
byte for byte.

Exit codes: 0 success, 2 usage or input error, 3 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from .design import (
    average_instance,
    build_design,
    design_from_csv,
    design_to_csv,
    differing_elements,
    generators_from_json,
    perturbed_generators,
    run_count,
)
from .pipeline import report_to_json, results_to_csv, run_robust_analysis
from .preprocess import fix_variables, sensitivity_report
from .qubo import ParseError, format_number, parse_instance
from .response_surface import (
    compare_bounds,
    comparison_to_csv,
    fit_model,
    model_from_json,
    model_to_json,
)
from .solver import BUDGET_EXHAUSTED, SolverConfig, solve

DEFAULT_SEED = 42


def _read_text(path: str) -> str:
    return Path(path).read_text()


def _write_text(path: str, text: str) -> None:
    Path(path).write_text(text)


def _load_instance(path: str):
    return parse_instance(_read_text(path), name=Path(path).stem)


def _load_generators(path: str):
    return generators_from_json(json.loads(_read_text(path)))


def _solver_config(args) -> SolverConfig:
    budget = args.budget
    if budget is not None and budget <= 0:
        budget = None  # zero or negative means "no limit"
    return SolverConfig(
        mode=args.mode,
        enum_threshold=args.enum_threshold,
        time_budget=budget,
        restarts=args.restarts,
        seed=args.seed,
    )


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mode", choices=["auto", "exact", "heuristic"], default="auto")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--budget",
        type=float,
        default=10.0,
        help="nominal seconds per scenario, never read from the clock: each second "
        "caps the scenario's own work at 3e7 sweep assignments, 2e3 search nodes or 5e4 "
        "tabu moves (auto mode's tabu fallback has its own cap and reports nodes plus "
        "moves); <= 0 lifts the limit",
    )
    parser.add_argument("--restarts", type=int, default=10)
    parser.add_argument("--enum-threshold", type=int, default=22, dest="enum_threshold")


def _generators_from_args(args):
    if args.gen is not None:
        if args.instance is not None or args.perturb is not None:
            raise ValueError("give either --gen, or --in with --perturb, not both")
        return _load_generators(args.gen)
    if args.instance is None or args.perturb is None:
        raise ValueError("need --gen, or --in together with --perturb")
    return perturbed_generators(_load_instance(args.instance), args.perturb)


def cmd_solve(args) -> int:
    instance = _load_instance(args.instance)
    outcome = solve(instance, _solver_config(args))
    sol = outcome.solution
    print(f"value={format_number(sol.value)} bits={sol.bitstring} status={outcome.status}")
    if args.out:
        doc = {
            "bits": sol.bitstring,
            "value": sol.value,
            "status": outcome.status,
            "nodes_or_iterations": outcome.nodes_or_iterations,
        }
        _write_text(args.out, json.dumps(doc, indent=2) + "\n")
    return 0


def cmd_preprocess(args) -> int:
    instance = _load_instance(args.instance)
    report = fix_variables(instance)
    sens = sensitivity_report(instance, args.tolerance)
    for (i, b), delta in zip(report.assignments, report.deltas):
        print(f"fix x{i}={b} delta={format_number(delta)}")
    print(
        f"constant={format_number(report.constant)} "
        f"reduced_n={report.reduced.n} rounds={report.rounds}"
    )
    for rec in sens.records:
        if rec.near_threshold:
            print(f"near x{rec.index} delta={format_number(rec.delta)}")
    if args.out:
        doc = {
            "fixed": [
                {"index": i, "bit": b, "delta": d}
                for (i, b), d in zip(report.assignments, report.deltas)
            ],
            "constant": report.constant,
            "reduced_n": report.reduced.n,
            "rounds": report.rounds,
            "sensitivity": sens.to_json_rows(),
        }
        _write_text(args.out, json.dumps(doc, indent=2) + "\n")
    return 0


def cmd_design(args) -> int:
    gen = _load_generators(args.gen)
    diff = differing_elements(gen)
    if diff.d == 0:
        raise ValueError("generators have no differing elements; nothing to design")
    design = build_design(run_count(diff.d), diff.d)
    csv = design_to_csv(design, diff)
    if args.out:
        _write_text(args.out, csv)
        print(f"wrote {design.k}x{design.d} design to {args.out}")
    else:
        sys.stdout.write(csv)
    return 0


def _require_optima(results) -> None:
    """Refuse scenario results whose solve ran out of budget before proving an optimum."""
    for r in results:
        if r.status == BUDGET_EXHAUSTED:
            raise ValueError(
                f"scenario {r.scenario_index} is {r.status}, not an optimum; "
                "raise --budget or pass --budget 0"
            )


def cmd_analyze(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {args.jobs}")
    gen = _generators_from_args(args)
    config = _solver_config(args)
    diff = differing_elements(gen)
    if diff.d == 0:
        print("warning: generators have no differing elements; single-scenario report")
    reference = None
    if args.reference == "average":
        reference = solve(average_instance(gen), config).solution.bits
    report, results = run_robust_analysis(gen, config, jobs=args.jobs, reference=reference)
    _require_optima(results)
    for entry in report.pool:
        print(f"{entry.bits} freq={entry.frequency} mean={format_number(entry.mean_value)}")
    print(f"most_robust={report.most_robust}")
    if report.reference is not None:
        print(f"coverage[{report.reference[0]}]={format_number(report.reference[1])}%")
    print(f"k={report.k} exactness={format_number(report.exactness)}")
    if args.out:
        _write_text(args.out, json.dumps(report_to_json(report), indent=2) + "\n")
    if args.scenarios:
        _write_text(args.scenarios, results_to_csv(results))
    return 0


def _scenario_optima(text: str) -> list[float]:
    """Optima column of a scenarios CSV, in scenario order.

    Rows must carry indices 0, 1, 2, ... in order and finite values, and a
    row whose solve ran out of budget holds no optimum: each fault is
    refused with the line named.
    """
    optima: list[float] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if lineno == 1 or not line.strip():
            continue
        cols = line.split(",")
        if len(cols) != 4:
            raise ParseError(f"expected 'index,bits,value,status', got {line!r}", lineno)
        index, _bits, value, status = cols
        if index != str(len(optima)):
            raise ParseError(f"scenario index {index!r}, expected {len(optima)}", lineno)
        if status == BUDGET_EXHAUSTED:
            raise ParseError(f"scenario {index} is {status}, not an optimum", lineno)
        try:
            optimum = float(value)
        except ValueError:
            raise ParseError(f"non-numeric value {value!r}", lineno) from None
        if not math.isfinite(optimum):
            raise ParseError(f"non-finite value {value!r}", lineno)
        optima.append(optimum)
    return optima


def _fit_from_args(args, gen, config):
    diff = differing_elements(gen)
    if args.design is not None and args.scenarios is not None:
        design, csv_diff = design_from_csv(_read_text(args.design))
        if csv_diff.positions != diff.positions:
            raise ValueError("design columns do not match the generators' differing elements")
        return fit_model(design, _scenario_optima(_read_text(args.scenarios)), diff)
    if args.design is not None or args.scenarios is not None:
        raise ValueError("--design and --scenarios must be given together")
    if diff.d == 0:
        raise ValueError(
            "regression needs k - d - 1 >= 1 residual degrees of freedom, got k=1, d=0"
        )
    _report, results = run_robust_analysis(gen, config)
    _require_optima(results)
    design = build_design(run_count(diff.d), diff.d)
    return fit_model(design, [r.value for r in results], diff)


def cmd_fit(args) -> int:
    gen = _load_generators(args.gen)
    model = _fit_from_args(args, gen, _solver_config(args))
    doc = json.dumps(model_to_json(model), indent=2) + "\n"
    if args.out:
        _write_text(args.out, doc)
        print(
            f"intercept={format_number(model.intercept)} "
            f"se={format_number(model.standard_error)} dof={model.dof}"
        )
    else:
        sys.stdout.write(doc)
    return 0


def cmd_bound(args) -> int:
    gen = _load_generators(args.gen)
    config = _solver_config(args)
    if args.model is not None:
        model = model_from_json(json.loads(_read_text(args.model)))
    else:
        model = _fit_from_args(args, gen, config)
    comparison = compare_bounds(model, gen, args.validate, args.seed, config)
    csv = comparison_to_csv(comparison)
    if args.out:
        _write_text(args.out, csv)
    else:
        sys.stdout.write(csv)
    try:
        g_gap, p_gap = comparison.mean_gaps()
        print(f"mean_g_gap={format_number(g_gap)}% mean_possum_gap={format_number(p_gap)}%")
    except ValueError:
        print("no proven rows with defined gaps")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrobust",
        description="Robust optimization toolkit for binary quadratic problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="maximize one instance")
    p.add_argument("--in", dest="instance", required=True)
    p.add_argument("--out")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("preprocess", help="variable fixing and sensitivity ranges")
    p.add_argument("--in", dest="instance", required=True)
    p.add_argument("--out")
    p.add_argument("--tolerance", type=float, default=0.0)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("design", help="orthogonal scenario design for generators")
    p.add_argument("--gen", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("analyze", help="solve every scenario and report robustness")
    p.add_argument("--gen")
    p.add_argument("--in", dest="instance")
    p.add_argument("--perturb", type=float)
    p.add_argument("--out")
    p.add_argument("--scenarios", help="write per-scenario results CSV here")
    p.add_argument("--reference", choices=["average"])
    p.add_argument(
        "--jobs", type=int, default=1,
        help="at most this many worker processes, each solving one contiguous slice "
        "of the scenarios. Enumerated scenarios are one in-process batch. Otherwise, "
        "with 1 each scenario is solved alone; heuristic mode always uses workers; exact "
        "and auto mode use them when a work estimate from the scenario count and size "
        "says they pay, else one in-process batch",
    )
    _add_solver_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("fit", help="fit the response-surface model")
    p.add_argument("--gen", required=True)
    p.add_argument("--design", help="reuse a design CSV instead of solving inline")
    p.add_argument("--scenarios", help="scenario results CSV matching --design")
    p.add_argument("--out")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("bound", help="validate surface bounds on random scenarios")
    p.add_argument("--gen", required=True)
    p.add_argument("--model", help="reuse a fitted model JSON")
    p.add_argument("--design", help="fit from a design CSV")
    p.add_argument("--scenarios", help="scenario results CSV matching --design")
    p.add_argument("--validate", type=int, default=64)
    p.add_argument("--out")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_bound)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process.

    Parsing leaves it as it was: every default is immutable, and each call
    fills a fresh namespace.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort guard for exit code 3
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
