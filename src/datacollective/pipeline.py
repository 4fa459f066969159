"""Experiment configuration and the reproducible end-to-end pipeline.

A pipeline run goes simulate (or ingest) -> goal signals -> portfolios ->
coordination -> metrics -> conjoint, writing plot-ready CSV/JSON artifacts
plus a manifest recording the config hash, all seeds, library versions and a
content hash per output file. Outputs are fully determined by the config, so
re-running with the same config reproduces every numeric file byte for byte.

Each stage is one public function (``simulate_stage``, ``goals_stage``,
``portfolio_stage``, ``coordinate_stage``, ``metrics_stage``,
``conjoint_stage``) that takes its inputs, writes its artifacts and returns
what later stages need. ``run_pipeline`` composes them; the CLI subcommands
load files and call the same functions.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .conjoint import (
    encode,
    fit,
    partworths,
    write_coefficients_csv,
    write_partworths_json,
    write_response_csv,
)
from .coordination import (
    CostWeights,
    coordinate,
    selection_summary,
    write_cost_trace_csv,
    write_portfolio_dir,
    write_runs_json,
)
from .errors import DataCollectiveError, InvalidInputError, PipelineError, read_json_object
from .goals import build_goal_signals, level_name, mismatch, write_goal_signal
from .ingest import export_responses, ingest, load_mapping
from .metrics import (
    ConditionSnapshot,
    cost_report,
    privacy_recovery,
    reinforcement_report,
    reward_tables,
    scenario_privacy,
    write_cost_csv,
    write_mismatch_csv,
    write_scenario_privacy_csv,
)
from .population import (
    CONDITIONS,
    INTRINSIC,
    REWARDED1,
    REWARDED2,
    RNG_ALGORITHM,
    build_portfolios,
    population_from_spec,
    simulate_conditions,
)
from .retrieval import write_event_log
from .sharing import (
    Budget,
    RewardModel,
    default_catalog,
    read_catalog,
    write_weight_profiles,
)

OUTPUT_ENV_VAR = "DATACOLLECTIVE_OUTPUT"


@dataclass
class ExperimentConfig:
    """Everything a pipeline run depends on; JSON-serializable."""

    # scenario space and budget
    catalog_path: str | None = None
    budget_total: float = 17.5
    budget_participation: float = 2.5
    budget_sharing: float = 15.0
    reward_mode: str = "linear"
    z: int = 5
    # synthetic population (ignored when dataset paths are given)
    n: int = 84
    master_seed: int = 0
    steps: int = 192
    group_mix: dict[str, float] | None = None
    drift_overrides: dict[str, float] | None = None
    # dataset ingestion
    responses_path: str | None = None
    profiles_path: str | None = None
    mapping_path: str | None = None
    # coordination
    goal_level: int = 5
    alpha: float = 0.0
    beta: float = 0.0
    iterations: int = 50
    repetitions: int = 10
    children_per_node: int = 2
    coordination_seed: int = 0
    # output
    output_dir: str = field(
        default_factory=lambda: os.environ.get(OUTPUT_ENV_VAR, "out")
    )

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        """Load a config file, rejecting unknown keys and values of the
        wrong JSON type."""
        data = read_json_object(path)
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise InvalidInputError(f"unknown config keys: {sorted(unknown)}")
        for key, value in data.items():
            kind = cls.__dataclass_fields__[key].type  # e.g. "dict[str, float] | None"
            if not _json_matches(value, kind):
                raise InvalidInputError(f"{path}: '{key}' must be {kind}, not {value!r}")
        return cls(**data)

    def to_json(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(asdict(self), indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )

    def experiment_dict(self) -> dict:
        """Config fields that define the experiment; where the artifacts land
        is not part of the experiment identity."""
        data = asdict(self)
        data.pop("output_dir")
        return data

    def config_hash(self) -> str:
        canonical = json.dumps(self.experiment_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()

    def validate(self) -> None:
        """Fail fast: every referenced file must exist and parse before any
        computation starts."""
        if self.reward_mode not in ("linear", "geometric"):
            raise InvalidInputError(f"unknown reward mode '{self.reward_mode}'")
        Budget(self.budget_total, self.budget_participation, self.budget_sharing)
        CostWeights(self.alpha, self.beta)
        if not 1 <= self.goal_level <= self.z:
            raise InvalidInputError("goal level outside 1..z")
        if self.n < 1 or self.steps < 1 or self.iterations < 1 or self.repetitions < 1:
            raise InvalidInputError("counts must be positive")
        for label, path in (
            ("catalog_path", self.catalog_path),
            ("responses_path", self.responses_path),
            ("profiles_path", self.profiles_path),
            ("mapping_path", self.mapping_path),
        ):
            if path is not None and not Path(path).is_file():
                raise InvalidInputError(f"{label} '{path}' does not exist")
        if self.catalog_path is not None:
            read_catalog(self.catalog_path)
        if self.mapping_path is not None:
            load_mapping(self.mapping_path)

    def catalog(self):
        return read_catalog(self.catalog_path) if self.catalog_path else default_catalog()

    def reward_model(self) -> RewardModel:
        return RewardModel(
            budget=Budget(self.budget_total, self.budget_participation, self.budget_sharing),
            mode=self.reward_mode,
            z=self.z,
        )


def _json_matches(value, kind: str) -> bool:
    """Whether a parsed JSON value fits a config field's annotation."""
    if value is None:
        return kind.endswith(" | None")
    if isinstance(value, bool):  # JSON true/false are not numbers
        return False
    kind = kind.removesuffix(" | None")
    if kind.startswith("dict"):
        return isinstance(value, dict) and all(
            _json_matches(v, "float") for v in value.values()
        )
    return isinstance(value, {"int": int, "float": (int, float), "str": str}[kind])


def run_pipeline(config: ExperimentConfig) -> Path:
    """Execute all stages; returns the artifact directory.

    Any stage failure aborts with the stage name and cause.
    """
    _stage("validate", config.validate)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    catalog = config.catalog()
    reward_model = config.reward_model()

    simulations, profiles = _stage(
        "ingest" if config.responses_path else "simulate",
        lambda: _collect_selections(config, catalog, reward_model, out),
    )
    goal_signals = _stage(
        "goals", lambda: goals_stage([conds[INTRINSIC] for conds in simulations.values()], out)
    )
    portfolios = _stage("portfolios", lambda: portfolio_stage(simulations, out))
    runs = _stage(
        "coordinate",
        lambda: coordinate_stage(
            portfolios, goal_signals[config.goal_level - 1],
            CostWeights(config.alpha, config.beta), out,
            iterations=config.iterations, repetitions=config.repetitions,
            seed=config.coordination_seed, children_per_node=config.children_per_node,
        ),
    )
    snapshots = _stage(
        "metrics",
        lambda: metrics_stage(
            simulations, profiles,
            ConditionSnapshot.from_runs("coordinated", runs, portfolios, z=config.z),
            goal_signals, catalog, reward_model, out, provenance=config.responses_path,
        ),
    )
    _stage(
        "conjoint",
        lambda: conjoint_stage(scenario_privacy(snapshots[INTRINSIC]), catalog, out),
    )
    _stage("manifest", lambda: _write_manifest(config, out))
    return out


def _stage(name: str, thunk):
    try:
        return thunk()
    except PipelineError:
        raise
    except (DataCollectiveError, OSError, ValueError) as exc:
        raise PipelineError(name, str(exc)) from exc
    except (KeyError, IndexError) as exc:
        # a bare lookup error reads as just the key, so name its type too
        raise PipelineError(name, repr(exc)) from exc


def _collect_selections(config, catalog, reward_model, out: Path):
    """Simulate a synthetic population, or ingest the configured dataset."""
    if config.responses_path:
        bundle, report = ingest(
            config.responses_path,
            config.profiles_path,
            load_mapping(config.mapping_path),
            catalog,
            z=config.z,
            provenance=str(config.responses_path),
        )
        try:
            simulations = bundle.complete_selections(CONDITIONS, catalog.m, config.z, report)
        finally:
            report.write_json(out / "ingest_report.json")
        missing = [pid for pid in simulations if pid not in bundle.profiles]
        if missing:
            raise InvalidInputError(f"missing weight profiles for {missing[:5]}")
        return simulations, bundle.profiles

    spec = {
        "n": config.n, "mix": config.group_mix, "seed": config.master_seed,
        "z": config.z, "drift_overrides": config.drift_overrides,
    }
    population = population_from_spec(spec, catalog)
    simulations = simulate_stage(population, config.steps, catalog, reward_model, out)
    groups = {
        p.participant_id: p.behavior.kind for p in population.participants
    }
    (out / "groups.json").write_text(
        json.dumps(groups, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    profiles = {p.participant_id: p.profile for p in population.participants}
    return simulations, profiles


def simulate_stage(population, steps: int, catalog, reward_model, out: Path):
    """Simulate every condition of a synthetic population and write the
    selections, the weight profiles and one event log per condition."""
    simulations = {p.participant_id: {} for p in population.participants}
    for condition in CONDITIONS:
        run = simulate_conditions(
            population.participants, condition, steps, catalog, reward_model,
            contention=population.contention,
        )
        for participant, selection in zip(population.participants, run.selections):
            simulations[participant.participant_id][condition] = selection
        write_event_log(out / f"events_{condition}.csv", run.events)
    export_responses(out / "selections.csv", simulations)
    write_weight_profiles(
        out / "profiles.csv", [p.profile for p in population.participants], catalog
    )
    return simulations


def goals_stage(selections, out: Path):
    """One goal signal per sharing level from unrewarded selections, each
    written to its own file."""
    signals = build_goal_signals(selections)
    for signal in signals:
        write_goal_signal(out / f"goal_{level_name(signal.level, len(signals))}.csv", signal)
    return signals


def portfolio_stage(simulations, out: Path):
    """Every participant's candidate plans, written one file per agent."""
    portfolios = build_portfolios(simulations)
    write_portfolio_dir(out / "portfolios", portfolios)
    return portfolios


def coordinate_stage(
    portfolios, goal, weights: CostWeights, out: Path, *,
    iterations: int, repetitions: int, seed: int, children_per_node: int,
):
    """Run the tree optimizer and write its runs, cost traces and summary."""
    runs = coordinate(
        portfolios, goal, weights, iterations=iterations, repetitions=repetitions,
        seed=seed, children_per_node=children_per_node,
    )
    write_runs_json(out / "coordination_runs.json", runs)
    write_cost_trace_csv(out / "cost_trace.csv", runs)
    summary = selection_summary(runs, portfolios)
    (out / "coordination_summary.json").write_text(
        json.dumps(
            {
                "mean_cost": summary.mean_cost,
                "cost_std": summary.cost_std,
                "final_costs": [float(c) for c in summary.final_costs],
                "alpha": weights.alpha,
                "beta": weights.beta,
                "goal_level": goal.level,
                "selected_labels": {
                    agent: list(labels)
                    for agent, labels in zip(summary.agent_ids, summary.selected_labels)
                },
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    return runs


def metrics_stage(
    simulations, profiles, coordinated, goal_signals, catalog, reward_model, out: Path,
    provenance: str | None = None,
):
    """Privacy, mismatch, cost, recovery and reinforcement of the three
    conditions and the coordinated snapshot; returns the snapshots by label.

    With a ``provenance`` (an ingested archive) a comparison report is
    written too.
    """
    snapshots = {
        condition: ConditionSnapshot.from_selections(
            condition, {pid: conds[condition] for pid, conds in simulations.items()}
        )
        for condition in CONDITIONS
    }
    snapshots["coordinated"] = coordinated
    ordered = list(snapshots.values())

    write_scenario_privacy_csv(out / "privacy_by_scenario.csv", ordered)
    lowest, highest = goal_signals[0], goal_signals[-1]
    write_mismatch_csv(out / "mismatch_by_scenario.csv", ordered, [lowest, highest])

    # One reward table for every snapshot's participants, taken one snapshot
    # at a time; the coordinated snapshot comes last and is priced twice.
    cost_reports = []
    for snapshot, rmax in zip(ordered, reward_tables(ordered, profiles, reward_model, catalog)):
        cost_reports.append(cost_report(snapshot, rmax, reward_model))
    cost_reports.append(
        cost_report(
            coordinated, rmax, reward_model,
            include_intrinsic_value=False, label="coordinated_no_intrinsic",
        )
    )
    write_cost_csv(out / "costs.csv", cost_reports)

    intrinsic = snapshots[INTRINSIC]
    write_response_csv(out / "response_intrinsic_privacy.csv", scenario_privacy(intrinsic))
    rewarded_both = ConditionSnapshot(
        label="rewarded",
        participant_ids=snapshots[REWARDED1].participant_ids,
        selections=np.concatenate(
            [snapshots[REWARDED1].selections, snapshots[REWARDED2].selections]
        ),
        z=intrinsic.z,
    )
    recovery = privacy_recovery(rewarded_both, coordinated, intrinsic)
    reinforcement = reinforcement_report(intrinsic, catalog)
    summary = {
        "privacy_recovery_percent": None if recovery.undefined else recovery.percent,
        "mean_privacy": {s.label: s.mean_privacy() for s in ordered},
        "mean_mismatch": {
            f"{s.label}/goal_{level_name(g.level, intrinsic.z)}": mismatch(
                s.aggregate_sharing(), g
            ).mean_abs
            for s in ordered
            for g in (lowest, highest)
        },
        "costs_chf": {r.label: r.total for r in cost_reports},
        "cost_sigma_chf": {r.label: r.sigma for r in cost_reports},
        "reinforcement_intrinsic": {
            label: None if np.isnan(value) else float(value)
            for label, value in zip(
                reinforcement.element_labels, reinforcement.reinforcement
            )
        },
    }
    (out / "evaluation.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    if provenance:
        # Comparison report for externally collected archives.
        (out / "comparison_report.json").write_text(
            json.dumps(
                {
                    "costs_chf": summary["costs_chf"],
                    "privacy_recovery_percent": summary["privacy_recovery_percent"],
                    "mean_mismatch": summary["mean_mismatch"],
                    "provenance": str(provenance),
                },
                indent=2,
                sort_keys=True,
            )
            + "\n",
            encoding="utf-8",
        )
    return snapshots


def conjoint_stage(response, catalog, out: Path, references=None):
    """Dummy-code the catalog, fit the per-scenario response and write the
    coefficients and partworths; returns the fit and the partworths."""
    fit_result = fit(encode(catalog, references), response)
    report = partworths(fit_result)
    write_coefficients_csv(out / "conjoint_coefficients.csv", fit_result)
    write_partworths_json(out / "partworths.json", report)
    return fit_result, report


def _write_manifest(config: ExperimentConfig, out: Path) -> None:
    files = {}
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            files[str(path.relative_to(out))] = hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
    manifest = {
        "config": config.experiment_dict(),
        "config_hash": config.config_hash(),
        "seeds": {
            "master_seed": config.master_seed,
            "coordination_seed": config.coordination_seed,
        },
        "rng_algorithm": RNG_ALGORITHM,
        "versions": {
            "datacollective": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "files": files,
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
