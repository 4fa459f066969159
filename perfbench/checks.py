"""Output checks made from outside, through the package's public API and its
file formats. Each function returns a list of problems; empty means passed."""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import defaultdict
from pathlib import Path

import numpy as np

from datacollective.coordination import CostWeights, global_cost, read_portfolio_dir
from datacollective.goals import read_goal_signal
from datacollective.population import CONDITIONS, INTRINSIC

SHARE_TOL = 1e-9       # goal files hold 12 significant digits
TRACE_TOL = 1e-12      # the tolerance the test suite allows a cost trace
COST_REL_TOL = 1e-9


def digest(directory: Path) -> str:
    """SHA-256 over every file under ``directory``, by relative path."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def goal_shares(goal_dir: Path, z: int = 5) -> list[str]:
    """The z goal signals partition unity per scenario."""
    files = sorted(goal_dir.glob("goal_*.csv"))
    if len(files) != z:
        return [f"{goal_dir}: {len(files)} goal files, expected {z}"]
    total = sum(read_goal_signal(f, level=1).values for f in files)
    worst = float(np.max(np.abs(total - 1.0)))
    return [] if worst <= SHARE_TOL else [f"{goal_dir}: goal shares off 1 by {worst:.3g}"]


def coordination_runs(
    runs_json: Path, plans_dir: Path, goal_file: Path, weights: CostWeights
) -> list[str]:
    """Cost traces never rise, and each final cost equals ``global_cost`` of
    the final selections recomputed from the plan files."""
    problems = []
    portfolios = read_portfolio_dir(plans_dir)
    goal = read_goal_signal(goal_file, level=1)
    for run in json.loads(runs_json.read_text())["runs"]:
        rep = run["repetition"]
        trace = np.array(run["cost_trace"])
        if np.any(np.diff(trace) > TRACE_TOL):
            problems.append(f"{runs_json}: repetition {rep} cost trace rises")
        if len(run["final_selections"]) != len(portfolios):
            problems.append(f"{runs_json}: repetition {rep} does not select for every agent")
            continue
        plans = [p.plans[s] for p, s in zip(portfolios, run["final_selections"])]
        aggregate = np.sum([plan.values for plan in plans], axis=0)
        recomputed = global_cost(aggregate, goal, [plan.local_cost for plan in plans], weights)
        if not math.isclose(recomputed, trace[-1], rel_tol=COST_REL_TOL, abs_tol=0.0):
            problems.append(
                f"{runs_json}: repetition {rep} final cost {float(trace[-1])!r} "
                f"but global_cost gives {recomputed!r}"
            )
    return problems


def manifest(out: Path) -> list[str]:
    """manifest.json lists every other file with its SHA-256."""
    listed = json.loads((out / "manifest.json").read_text())["files"]
    actual = {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in out.rglob("*")
        if p.is_file() and p.name != "manifest.json"
    }
    if listed == actual:
        return []
    wrong = sorted(k for k in set(listed) | set(actual) if listed.get(k) != actual.get(k))
    return [f"{out}/manifest.json disagrees on {len(wrong)} files, e.g. {wrong[:3]}"]


def event_logs(directory: Path, n: int, m: int, steps: int) -> list[str]:
    """The logs hold n*(m + 2*steps) rows less the steps lost to saturation.

    Every participant logs steps 1..k without gaps, k = m unrewarded and
    m <= k <= steps rewarded; steps - k are counted as saturations.
    """
    problems = []
    rows = 0
    saturations = 0
    for condition in CONDITIONS:
        count = defaultdict(int)
        last = defaultdict(int)
        with open(directory / f"events_{condition}.csv", newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            for row in reader:
                count[row[0]] += 1
                last[row[0]] = max(last[row[0]], int(row[1]))
        rows += sum(count.values())
        if len(count) != n:
            problems.append(f"events_{condition}.csv: {len(count)} participants, expected {n}")
        for pid, k in last.items():
            expected_max = m if condition == INTRINSIC else steps
            if count[pid] != k or not m <= k <= expected_max:
                problems.append(f"events_{condition}.csv: {pid} logs {count[pid]} rows to step {k}")
            saturations += expected_max - k
    if rows != n * (m + 2 * steps) - saturations:
        problems.append(
            f"{directory}: {rows} event rows, expected {n * (m + 2 * steps)} - {saturations}"
        )
    return problems
