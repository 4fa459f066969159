"""One benchmark worker process: set up a workload, run its timed unit, check.

``run.py`` starts this script with one JSON argument and reads the result
file it names. The worker sets up (imports, config validation and, for
``cli-stages``, the ``simulate`` step). Given a deadline, it then runs the
timed unit at least once and again while the next unit is expected to end
before the deadline; without one it stops after set-up. Checks and digests
come after the last unit, so neither they nor their memory count in the
timings or in the peak RSS.
"""

from __future__ import annotations

import json
import resource
import shutil
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path
from statistics import mean

import numpy as np

import checks
from datacollective import cli, pipeline
from datacollective.coordination import CostWeights
from datacollective.goals import level_name
from datacollective.ingest import ingest
from datacollective.metrics import ConditionSnapshot, privacy_recovery
from datacollective.population import CONDITIONS, INTRINSIC, REWARDED1, REWARDED2
from datacollective.sharing import default_catalog

# Sizes per workload; "smoke" sizes keep every stage but run in well under a second.
PIPELINE_SIZES = {
    "desk": {},  # the ExperimentConfig defaults: the paper's reference scale
    "reassess-long": dict(steps=448, reward_mode="geometric", iterations=5, repetitions=2),
}
PIPELINE_SMOKE = {
    "desk": dict(n=6, steps=70, iterations=3, repetitions=2),
    "reassess-long": dict(n=6, steps=96, reward_mode="geometric", iterations=2, repetitions=2),
}
CLI_SIZES = dict(n=168, steps=192, iterations=50, repetitions=4)
CLI_SMOKE = dict(n=8, steps=70, iterations=3, repetitions=2)
# The two coordinate calls of cli-stages: goal level, alpha, beta.
CLI_COORDINATIONS = ((5, 0.0, 0.0), (1, 0.3, 0.2))


class Operation:
    """A run_pipeline call or a CLI subcommand, with what went wrong in it."""

    def __init__(self, name: str):
        self.name = name
        self.errors: list[str] = []

    def run(self, fn, *args) -> None:
        try:
            rc = fn(*args)
        except Exception:
            self.errors.append(traceback.format_exc(limit=-3))
            return
        if isinstance(rc, int) and rc != 0:
            self.errors.append(f"{self.name} returned {rc}")


class PipelineWorkload:
    def __init__(self, name: str, seed: int, smoke: bool, work: Path):
        sizes = (PIPELINE_SMOKE if smoke else PIPELINE_SIZES)[name]
        self.config = pipeline.ExperimentConfig(
            **sizes, master_seed=seed, coordination_seed=seed, output_dir=str(work)
        )
        self.config.validate()

    def setup(self) -> list[Operation]:
        return []

    def check_setup(self, ops: list[Operation]) -> None:
        pass

    def unit(self, out: Path) -> list[tuple[Operation, object, tuple]]:
        config = replace(self.config, output_dir=str(out))
        return [(Operation("run_pipeline"), pipeline.run_pipeline, (config,))]

    def check(self, out: Path, ops: list[Operation]) -> None:
        c = self.config
        goal_file = out / f"goal_{level_name(c.goal_level, c.z)}.csv"
        ops[0].errors += (
            checks.goal_shares(out, c.z)
            + checks.coordination_runs(
                out / "coordination_runs.json", out / "portfolios", goal_file,
                CostWeights(c.alpha, c.beta),
            )
            + checks.manifest(out)
            + checks.event_logs(out, c.n, default_catalog().m, c.steps)
        )

    def recovery(self, out: Path) -> dict:
        evaluation = json.loads((out / "evaluation.json").read_text())
        return {"pipeline": evaluation["privacy_recovery_percent"]}


class CliWorkload:
    def __init__(self, name: str, seed: int, smoke: bool, work: Path):
        self.sizes = CLI_SMOKE if smoke else CLI_SIZES
        self.seed = str(seed)
        self.sim = work / "sim"

    def setup(self) -> list[Operation]:
        op = Operation("simulate")
        op.run(cli.main, [
            "simulate", "--n", str(self.sizes["n"]), "--seed", self.seed,
            "--steps", str(self.sizes["steps"]), "--out", str(self.sim),
        ])
        return [op]

    def check_setup(self, ops: list[Operation]) -> None:
        if not ops[0].errors:
            ops[0].errors += checks.event_logs(
                self.sim, self.sizes["n"], default_catalog().m, self.sizes["steps"]
            )

    def unit(self, out: Path) -> list[tuple[Operation, object, tuple]]:
        sim, s = self.sim, self.sizes
        argvs = [["goals", "--selections", str(sim / "selections.csv"), "--out", str(out / "goals")]]
        for level, alpha, beta in CLI_COORDINATIONS:
            argvs.append([
                "coordinate", "--plans-dir", str(sim / "portfolios"),
                "--goal-file", str(out / "goals" / f"goal_{level_name(level)}.csv"),
                "--goal-level", str(level), "--alpha", str(alpha), "--beta", str(beta),
                "--iterations", str(s["iterations"]), "--repetitions", str(s["repetitions"]),
                "--seed", self.seed, "--out", str(out / f"coord_{level}"),
            ])
        argvs.append([
            "evaluate", "--selections", str(sim / "selections.csv"),
            "--profiles", str(sim / "profiles.csv"),
            "--runs-json", str(out / "coord_5" / "coordination_runs.json"),
            "--plans-dir", str(sim / "portfolios"), "--out", str(out / "eval"),
        ])
        return [(Operation(argv[0]), cli.main, (argv,)) for argv in argvs]

    def check(self, out: Path, ops: list[Operation]) -> None:
        ops[0].errors += checks.goal_shares(out / "goals")
        for op, (level, alpha, beta) in zip(ops[1:3], CLI_COORDINATIONS):
            op.errors += checks.coordination_runs(
                out / f"coord_{level}" / "coordination_runs.json", self.sim / "portfolios",
                out / "goals" / f"goal_{level_name(level)}.csv", CostWeights(alpha, beta),
            )

    def recovery(self, out: Path) -> dict:
        """The CLI's recovery (rewarded1 only) and the pipeline's definition
        (rewarded1 and rewarded2) on the same files. They are known to
        differ; both are recorded, neither is checked."""
        z = 5
        m = default_catalog().m
        bundle, _ = ingest(self.sim / "selections.csv", z=z)
        snaps = {
            c: ConditionSnapshot.from_selections(c, bundle.selection_vectors(c, m, z))
            for c in CONDITIONS
        }
        portfolios = checks.read_portfolio_dir(self.sim / "portfolios")
        runs = json.loads((out / "coord_5" / "coordination_runs.json").read_text())["runs"]
        levels = [
            [np.rint(z - p.plans[s].values * (z - 1)) for p, s in zip(portfolios, r["final_selections"])]
            for r in runs
        ]
        ids = snaps[INTRINSIC].participant_ids
        coordinated = ConditionSnapshot("coordinated", ids, np.array(levels), z)
        rewarded = ConditionSnapshot(
            "rewarded", ids,
            np.concatenate([snaps[REWARDED1].selections, snaps[REWARDED2].selections]), z,
        )
        both = privacy_recovery(rewarded, coordinated, snaps[INTRINSIC])
        cli_value = json.loads((out / "eval" / "recovery.json").read_text())
        return {
            "cli": cli_value["privacy_recovery_percent"],
            "pipeline": None if both.undefined else both.percent,
        }


def checked(ops: list[Operation], check, *args) -> None:
    """Run a check; a check that cannot run fails the last operation."""
    try:
        check(*args)
    except Exception:
        if ops:
            ops[-1].errors.append("check raised:\n" + traceback.format_exc(limit=-3))


def main(spec: dict) -> dict:
    work = Path(spec["work"])
    tracer = None
    if spec["traced"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    kind = CliWorkload if spec["workload"] == "cli-stages" else PipelineWorkload
    workload = kind(spec["workload"], spec["seed"], spec["smoke"], work)

    if tracer:
        tracer.current_op = 0  # set-up; no span is recorded in the checks below
    ops = workload.setup()
    started = time.monotonic()
    setup_s = started - spec["spawned"]

    # No deadline: set up only, to sample setup_s again.
    deadline = spec["deadline"]
    units = []
    while deadline is not None and (
        not units or time.monotonic() + mean(u["wall_s"] for u in units) <= deadline
    ):
        out = work / f"unit{len(units)}"
        unit_ops = workload.unit(out)
        t0 = time.perf_counter()
        for op, fn, args in unit_ops:
            if tracer:
                tracer.current_op += 1  # each operation gets its own span id
            op.run(fn, *args)
        wall = time.perf_counter() - t0
        units.append({"wall_s": wall, "out": out, "ops": [op for op, _, _ in unit_ops]})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.current_op = -1

    result = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "unit_walls": [u["wall_s"] for u in units],
        "digests": [],
        "artifact_bytes": sum(
            p.stat().st_size for u in units[:1] for p in u["out"].rglob("*") if p.is_file()
        ),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }
    checked(ops, workload.check_setup, ops)
    for i, unit in enumerate(units):
        if not any(op.errors for op in unit["ops"]):
            checked(unit["ops"], workload.check, unit["out"], unit["ops"])
        result["digests"].append(checks.digest(unit["out"]))
        if i == 0 and not any(op.errors for op in ops + unit["ops"]):
            try:
                result["recovery"] = workload.recovery(unit["out"])
            except Exception:  # recorded, never checked
                result["recovery"] = {"error": traceback.format_exc(limit=-1)}
        ops += unit["ops"]
    result["attempted"] = len(ops)
    result["errors"] = [f"{op.name}: {e}" for op in ops for e in op.errors]
    result["failed"] = sum(1 for op in ops if op.errors)
    if tracer:
        tracer.save(spec["spans"])
        first_unit = range(1, len(units[0]["ops"]) + 1)  # operation ids after set-up's 0
        result["layers"] = spans.layer_metrics(tracer, first_unit, units[0]["wall_s"])
    shutil.rmtree(work, ignore_errors=True)
    return result


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    Path(spec["result"]).write_text(json.dumps(main(spec)))
