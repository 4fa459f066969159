"""Command-line entry points.

Subcommands mirror the pipeline stages so each step can run standalone:
simulate, ingest, goals, coordinate, evaluate, conjoint and pipeline. Each
one loads its input files and calls the pipeline's own stage function, so a
stage writes the same artifacts from the command line as in a full run.
Flags mirror the ExperimentConfig fields; `pipeline --config file.json`
loads a full configuration and flag overrides win.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from .conjoint import read_response_csv
from .coordination import CostWeights, read_portfolio_dir, read_run_choices
from .errors import DataCollectiveError, InvalidInputError
from .goals import build_goal_signals, read_goal_signal
from .ingest import export_responses, ingest, load_mapping
from .metrics import ConditionSnapshot
from .pipeline import (
    OUTPUT_ENV_VAR,
    ExperimentConfig,
    conjoint_stage,
    coordinate_stage,
    goals_stage,
    metrics_stage,
    portfolio_stage,
    run_pipeline,
    simulate_stage,
)
from .population import CONDITIONS, INTRINSIC, load_population_spec, population_from_spec
from .sharing import (
    Budget,
    RewardModel,
    default_catalog,
    read_catalog,
    read_weight_profiles,
)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        args.func(args)
    except DataCollectiveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of every subcommand, built on first use; parsing
    leaves it as it was, so each call of ``main`` reuses it."""
    parser = argparse.ArgumentParser(
        prog="datacollective",
        description="Simulate, coordinate and evaluate collective data sharing.",
    )
    sub = parser.add_subparsers(dest="command")
    parser.set_defaults(command=None)

    p = sub.add_parser("simulate", help="generate and simulate a synthetic population")
    p.add_argument("--n", type=int, default=84)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=192)
    p.add_argument("--z", type=int, default=5)
    p.add_argument("--population-spec", help="JSON spec file; overrides --n/--seed/--z")
    p.add_argument("--catalog")
    p.add_argument("--reward-mode", choices=["linear", "geometric"], default="linear")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("ingest", help="map an external archive to the canonical schema")
    p.add_argument("--responses", required=True)
    p.add_argument("--profiles")
    p.add_argument("--mapping", help="JSON column-mapping config")
    p.add_argument("--catalog")
    p.add_argument("--z", type=int, default=5)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("goals", help="build goal signals from unrewarded selections")
    p.add_argument("--selections", required=True, help="canonical selections CSV")
    p.add_argument("--condition", default=INTRINSIC)
    p.add_argument("--z", type=int, default=5)
    p.add_argument("--catalog")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_goals)

    p = sub.add_parser("coordinate", help="run the tree optimizer over plan files")
    p.add_argument("--plans-dir", required=True)
    p.add_argument("--goal-file", required=True)
    p.add_argument("--goal-level", type=int, default=5)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--iterations", type=int, default=50)
    p.add_argument("--repetitions", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--children-per-node", type=int, default=2)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_coordinate)

    p = sub.add_parser("evaluate", help="privacy, mismatch, cost and recovery reports")
    p.add_argument("--selections", required=True, help="canonical selections CSV")
    p.add_argument("--profiles", required=True)
    p.add_argument(
        "--runs-json", required=True, help="coordination runs for the coordinated condition"
    )
    p.add_argument("--plans-dir", required=True, help="the portfolios the runs chose from")
    p.add_argument("--catalog")
    p.add_argument("--z", type=int, default=5)
    p.add_argument("--reward-mode", choices=["linear", "geometric"], default="linear")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("conjoint", help="dummy-code, fit and report partworths")
    p.add_argument("--response", required=True, help="CSV with scenario_id,value")
    p.add_argument("--references", help="comma-separated reference elements")
    p.add_argument("--catalog")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_conjoint)

    p = sub.add_parser("pipeline", help="run every stage from one config")
    p.add_argument("--config", help="ExperimentConfig JSON")
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--goal-level", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--iterations", type=int)
    p.add_argument("--repetitions", type=int)
    p.add_argument("--responses")
    p.add_argument("--profiles")
    p.add_argument("--mapping")
    p.add_argument("--catalog")
    p.add_argument("--out")
    p.set_defaults(func=cmd_pipeline)

    return parser


def _outdir(args) -> Path:
    import os

    out = args.out or os.environ.get(OUTPUT_ENV_VAR, "out")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _catalog(args):
    return read_catalog(args.catalog) if args.catalog else default_catalog()


def cmd_simulate(args) -> None:
    catalog = _catalog(args)
    if args.population_spec:
        spec = load_population_spec(args.population_spec)
    else:
        spec = {"n": args.n, "seed": args.seed, "z": args.z}
    population = population_from_spec(spec, catalog)
    steps = int(spec.get("steps", args.steps))
    reward_model = RewardModel(Budget(), args.reward_mode, population.participants[0].behavior.z)
    out = _outdir(args)
    selections = simulate_stage(population, steps, catalog, reward_model, out)
    portfolio_stage(selections, out)
    print(f"simulated {len(population.participants)} participants -> {out}")


def cmd_ingest(args) -> None:
    catalog = _catalog(args)
    mapping = load_mapping(args.mapping)
    bundle, report = ingest(
        args.responses, args.profiles, mapping, catalog, z=args.z,
        provenance=args.responses,
    )
    out = _outdir(args)
    snapshots = [
        bundle.snapshot(condition, catalog.m, args.z, report)
        for condition in sorted(bundle.conditions())
    ]
    export_responses(out / "selections.csv", [s for s in snapshots if s is not None])
    report.write_json(out / "ingest_report.json")
    print(
        f"ingested {report.accepted}/{report.total_rows} rows "
        f"({report.rejected} rejected, {report.duplicates} duplicates) -> {out}"
    )


def _read_selections(path, conditions, m, z):
    """The snapshot of each condition from one read of a canonical
    selections CSV, for the participants complete in every condition, and
    the ingest report that lists the participants left out."""
    bundle, report = ingest(path, z=z, provenance=str(path))
    return bundle.complete_snapshots(conditions, m, z, report), report


def cmd_goals(args) -> None:
    catalog = _catalog(args)
    selections, report = _read_selections(
        args.selections, [args.condition], catalog.m, args.z
    )
    out = _outdir(args)
    report.write_json(out / "ingest_report.json")
    signals = goals_stage(selections[args.condition], out)
    print(f"wrote {len(signals)} goal signals -> {out}")


def cmd_coordinate(args) -> None:
    portfolios = read_portfolio_dir(args.plans_dir)
    goal = read_goal_signal(args.goal_file, level=args.goal_level)
    m = portfolios[0].plan_length
    if goal.values.size != m:
        raise InvalidInputError(f"--goal-file {args.goal_file} has {goal.values.size} values, "
                                f"but --plans-dir {args.plans_dir} has plans of length {m}")
    out = _outdir(args)
    runs = coordinate_stage(
        portfolios, goal, CostWeights(args.alpha, args.beta), out,
        iterations=args.iterations, repetitions=args.repetitions,
        seed=args.seed, children_per_node=args.children_per_node,
    )
    final_costs = np.array([run.final_cost() for run in runs])
    print(
        f"coordinated {len(portfolios)} agents x {args.repetitions} repetitions: "
        f"final cost {final_costs.mean():.6g} (sigma {final_costs.std():.3g}) -> {out}"
    )


def cmd_evaluate(args) -> None:
    catalog = _catalog(args)
    selections, report = _read_selections(args.selections, CONDITIONS, catalog.m, args.z)
    profiles = {
        p.participant_id: p for p in read_weight_profiles(args.profiles, catalog)
    }
    # The .plans files carry no labels; the pipeline writes plans in CONDITIONS order.
    portfolios = read_portfolio_dir(args.plans_dir, labels=list(CONDITIONS))
    if portfolios[0].plan_length != catalog.m:
        raise InvalidInputError(
            f"--plans-dir {args.plans_dir}: plans of length {portfolios[0].plan_length}, "
            f"but the catalog has {catalog.m} scenarios"
        )
    intrinsic = selections[INTRINSIC]
    agents, selected = {p.agent_id for p in portfolios}, set(intrinsic.participant_ids)
    if agents != selected:
        raise InvalidInputError(
            f"{args.plans_dir} and {args.selections} cover different participants: "
            f"only in {args.plans_dir}: {sorted(agents - selected)[:5]}, "
            f"only in {args.selections}: {sorted(selected - agents)[:5]}"
        )
    coordinated = ConditionSnapshot.from_choices(
        "coordinated", portfolios, read_run_choices(args.runs_json), args.z
    )
    signals = build_goal_signals(intrinsic.selections[0], intrinsic.z)
    out = _outdir(args)
    report.write_json(out / "ingest_report.json")
    reward_model = RewardModel(Budget(), args.reward_mode, args.z)
    metrics_stage(selections, profiles, coordinated, signals, catalog, reward_model, out)
    print(f"evaluation reports -> {out}")


def cmd_conjoint(args) -> None:
    catalog = _catalog(args)
    response = read_response_csv(args.response, catalog.m)
    references = args.references.split(",") if args.references else None
    out = _outdir(args)
    fit_result, report = conjoint_stage(response, catalog, out, references)
    utilities = ", ".join(
        f"{name}={value:.2f}%"
        for name, value in zip(report.criterion_names, report.criterion_utilities)
    )
    print(f"R2 {fit_result.r_squared:.4f}; criterion importance: {utilities} -> {out}")


def cmd_pipeline(args) -> None:
    config = ExperimentConfig.from_json(args.config) if args.config else ExperimentConfig()
    overrides = {
        "n": args.n,
        "master_seed": args.seed,
        "steps": args.steps,
        "goal_level": args.goal_level,
        "alpha": args.alpha,
        "beta": args.beta,
        "iterations": args.iterations,
        "repetitions": args.repetitions,
        "responses_path": args.responses,
        "profiles_path": args.profiles,
        "mapping_path": args.mapping,
        "catalog_path": args.catalog,
        "output_dir": args.out,
    }
    for key, value in overrides.items():
        if value is not None:
            setattr(config, key, value)
    out = run_pipeline(config)
    print(f"pipeline complete -> {out}")


if __name__ == "__main__":
    raise SystemExit(main())
