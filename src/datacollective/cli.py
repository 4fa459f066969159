"""Command-line entry points.

Subcommands mirror the pipeline stages so each step can run standalone:
simulate, ingest, goals, coordinate, evaluate, conjoint and pipeline. Flags
mirror the ExperimentConfig fields; `pipeline --config file.json` loads a
full configuration and flag overrides win.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .conjoint import (
    encode,
    fit,
    partworths,
    read_response_csv,
    write_coefficients_csv,
    write_partworths_json,
)
from .coordination import (
    CostWeights,
    coordinate,
    read_portfolio_dir,
    selection_summary,
    write_cost_trace_csv,
    write_portfolio_dir,
    write_runs_json,
)
from .errors import DataCollectiveError
from .goals import build_goal_signals, level_name, read_goal_signal, write_goal_signal
from .ingest import export_responses, ingest, load_mapping
from .metrics import (
    ConditionSnapshot,
    collection_cost,
    privacy_recovery,
    write_cost_csv,
    write_mismatch_csv,
    write_scenario_privacy_csv,
)
from .pipeline import OUTPUT_ENV_VAR, ExperimentConfig, run_pipeline, simulate_stage
from .population import (
    CONDITIONS,
    INTRINSIC,
    build_portfolios,
    generate_population,
    load_population_spec,
    population_from_spec,
)
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


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--runs-json", help="coordination runs for the coordinated condition")
    p.add_argument("--plans-dir")
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
        population = population_from_spec(spec, catalog)
        steps = int(spec.get("steps", args.steps))
    else:
        population = generate_population(args.n, master_seed=args.seed, catalog=catalog)
        steps = args.steps
    reward_model = RewardModel(Budget(), args.reward_mode, population.participants[0].behavior.z)
    out = _outdir(args)
    simulations = simulate_stage(population, steps, catalog, reward_model, out)
    write_portfolio_dir(out / "portfolios", build_portfolios(simulations))
    print(f"simulated {len(population.participants)} participants -> {out}")


def cmd_ingest(args) -> None:
    catalog = _catalog(args)
    mapping = load_mapping(args.mapping)
    bundle, report = ingest(
        args.responses, args.profiles, mapping, catalog, z=args.z,
        provenance=args.responses,
    )
    out = _outdir(args)
    simulations = {}
    for condition in sorted(bundle.conditions()):
        for pid, sv in bundle.selection_vectors(condition, catalog.m, args.z).items():
            simulations.setdefault(pid, {})[condition] = sv
    export_responses(out / "selections.csv", simulations)
    report.write_json(out / "ingest_report.json")
    print(
        f"ingested {report.accepted}/{report.total_rows} rows "
        f"({report.rejected} rejected, {report.duplicates} duplicates) -> {out}"
    )


def _selection_vectors_from_csv(path, condition, m, z):
    bundle, _ = ingest(path, z=z, provenance=str(path))
    vectors = bundle.selection_vectors(condition, m, z)
    if not vectors:
        raise DataCollectiveError(
            f"no complete participants for condition '{condition}' in {path}"
        )
    return vectors


def cmd_goals(args) -> None:
    catalog = _catalog(args)
    vectors = _selection_vectors_from_csv(args.selections, args.condition, catalog.m, args.z)
    signals = build_goal_signals(list(vectors.values()))
    out = _outdir(args)
    for signal in signals:
        write_goal_signal(out / f"goal_{level_name(signal.level, args.z)}.csv", signal)
    print(f"wrote {len(signals)} goal signals -> {out}")


def cmd_coordinate(args) -> None:
    portfolios = read_portfolio_dir(args.plans_dir)
    goal = read_goal_signal(args.goal_file, level=args.goal_level)
    runs = coordinate(
        portfolios,
        goal,
        CostWeights(args.alpha, args.beta),
        iterations=args.iterations,
        repetitions=args.repetitions,
        seed=args.seed,
        children_per_node=args.children_per_node,
    )
    out = _outdir(args)
    write_runs_json(out / "coordination_runs.json", runs)
    write_cost_trace_csv(out / "cost_trace.csv", runs)
    summary = selection_summary(runs, portfolios)
    print(
        f"coordinated {len(portfolios)} agents x {args.repetitions} repetitions: "
        f"final cost {summary.mean_cost:.6g} (sigma {summary.cost_std:.3g}) -> {out}"
    )


def cmd_evaluate(args) -> None:
    catalog = _catalog(args)
    reward_model = RewardModel(Budget(), args.reward_mode, args.z)
    profiles = {
        p.participant_id: p for p in read_weight_profiles(args.profiles, catalog)
    }
    snapshots = []
    simulations = {}
    for condition in CONDITIONS:
        vectors = _selection_vectors_from_csv(args.selections, condition, catalog.m, args.z)
        for pid, sv in vectors.items():
            simulations.setdefault(pid, {})[condition] = sv
        snapshots.append(ConditionSnapshot.from_selections(condition, vectors))
    intrinsic_vectors = [conds[INTRINSIC] for conds in simulations.values() if INTRINSIC in conds]
    signals = build_goal_signals(intrinsic_vectors)
    if args.runs_json and args.plans_dir:
        snapshots.append(_coordinated_snapshot(args, catalog))
    out = _outdir(args)
    write_scenario_privacy_csv(out / "privacy_by_scenario.csv", snapshots)
    write_mismatch_csv(out / "mismatch_by_scenario.csv", snapshots, [signals[0], signals[-1]])
    reports = [
        collection_cost(s, profiles, reward_model, catalog) for s in snapshots
        if set(s.participant_ids) <= set(profiles)
    ]
    write_cost_csv(out / "costs.csv", reports)
    if len(snapshots) == 4:
        rewarded = snapshots[1]
        recovery = privacy_recovery(rewarded, snapshots[3], snapshots[0])
        (out / "recovery.json").write_text(
            json.dumps(
                {"privacy_recovery_percent": None if recovery.undefined else recovery.percent},
                indent=2,
            )
            + "\n"
        )
    print(f"evaluation reports -> {out}")


def _coordinated_snapshot(args, catalog):
    from .coordination import CoordinationRun, TreeTopology

    portfolios = read_portfolio_dir(args.plans_dir, labels=list(CONDITIONS))
    payload = json.loads(Path(args.runs_json).read_text())
    runs = []
    for entry in payload["runs"]:
        n = len(entry["final_selections"])
        topo = TreeTopology(
            order=np.arange(n),
            children_per_node=entry.get("children_per_node", 2),
            seed=entry.get("topology_seed", 0),
        )
        sel = np.array(entry["final_selections"], dtype=np.intp)[None, :]
        runs.append(
            CoordinationRun(
                repetition=entry["repetition"],
                topology=topo,
                selections=sel,
                global_response=np.array(entry["final_response"])[None, :],
                cost_trace=np.array(entry["cost_trace"][-1:]),
                weights=CostWeights(entry.get("alpha", 0.0), entry.get("beta", 0.0)),
                goal_level=entry.get("goal_level", 5),
            )
        )
    return ConditionSnapshot.from_runs("coordinated", runs, portfolios, z=args.z)


def cmd_conjoint(args) -> None:
    catalog = _catalog(args)
    response = read_response_csv(args.response, catalog.m)
    references = args.references.split(",") if args.references else None
    design = encode(catalog, references)
    fit_result = fit(design, response)
    report = partworths(fit_result)
    out = _outdir(args)
    write_coefficients_csv(out / "conjoint_coefficients.csv", fit_result)
    write_partworths_json(out / "partworths.json", report)
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
