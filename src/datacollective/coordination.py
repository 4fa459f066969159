"""Decentralized plan coordination over a balanced tree overlay.

Every agent owns a small portfolio of candidate plans (vectors of normalized
sharing levels with a scalar local privacy cost) and must commit to exactly
one. The collective minimizes a weighted cost combining inefficiency (the
residual sum of squares between the standardized aggregate of selected plans
and a standardized goal signal), unfairness (variance of selected local
costs) and cost (their mean).

The optimizer runs iterations over a balanced tree. In the bottom-up pass
each agent evaluates its candidate plans against an approximate global
response: the previous iteration's global response with its own subtree
contribution swapped for the children's fresh subtree aggregates plus the
candidate. Cost statistics travel as (count, sum, sum of squares) triples, so
mean and variance are computable without per-agent disclosure. Keeping the
previous subtree configuration is itself a candidate at every agent, and at
the root the approximation is exact, so the realized global cost never
increases across iterations. The top-down pass fixes the root's choice and
broadcasts which subtrees keep their new configuration.

The tree is stored breadth-first, so the positions at one depth form a
contiguous range. A position's bottom-up step reads only its children's
fresh results, which lie one depth deeper, and the previous iteration's
state. Positions at one depth therefore never read each other, and scoring
a whole depth at once, deepest first, performs the same floating-point
operations as visiting the positions one by one. All repetitions share the
level structure (only the agent placement differs), so one kernel scores
every candidate of a depth, across all repetitions, as a single
(repetitions, positions, plans, scenarios) array.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, InvalidWeightsError
from .goals import GoalSignal, standardize

WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class Plan:
    """One candidate sharing plan: per-scenario values in [0, 1] plus its
    local privacy cost (mean value when built from selection levels)."""

    values: np.ndarray
    local_cost: float
    label: str = "plan"

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.size == 0:
            raise InvalidInputError("plan values must be a non-empty vector")
        # Written so that NaN fails the test too.
        if not np.all((vals >= 0) & (vals <= 1)):
            raise InvalidInputError("plan values must lie in [0, 1]")
        if not 0.0 <= self.local_cost <= 1.0:
            raise InvalidInputError("plan local cost must lie in [0, 1]")


@dataclass(frozen=True)
class PlanPortfolio:
    agent_id: str
    plans: tuple[Plan, ...]

    def __post_init__(self):
        object.__setattr__(self, "plans", tuple(self.plans))
        if not self.plans:
            raise InvalidInputError(f"agent '{self.agent_id}' has no plans")
        length = self.plans[0].values.size
        if any(p.values.size != length for p in self.plans):
            raise InvalidInputError(f"agent '{self.agent_id}' has mixed plan lengths")

    @property
    def plan_length(self) -> int:
        return int(self.plans[0].values.size)


@dataclass(frozen=True)
class CostWeights:
    """alpha weighs unfairness (variance), beta weighs cost (mean); the
    remaining 1 - alpha - beta weighs inefficiency. alpha + beta <= 1."""

    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0 or not 0.0 <= self.beta <= 1.0:
            raise InvalidWeightsError("alpha and beta must lie in [0, 1]")
        if self.alpha + self.beta > 1.0 + WEIGHT_TOL:
            raise InvalidWeightsError("alpha + beta must not exceed 1")


@dataclass
class TreeTopology:
    """Balanced c-ary tree in array form: position p's children occupy
    positions c*p + 1 .. c*p + c, the root sits at position 0."""

    order: np.ndarray  # order[position] = agent index in the portfolio list
    children_per_node: int
    seed: int

    @property
    def n(self) -> int:
        return int(self.order.size)

    def children(self, position: int) -> list[int]:
        c = self.children_per_node
        first = c * position + 1
        return [p for p in range(first, min(first + c, self.n))]

    def parent(self, position: int) -> int:
        return -1 if position == 0 else (position - 1) // self.children_per_node

    def depth(self, position: int) -> int:
        d = 0
        while position > 0:
            position = self.parent(position)
            d += 1
        return d


def build_tree(n: int, children_per_node: int = 2, seed: int = 0) -> TreeTopology:
    """Place a seeded permutation of agents breadth-first into the tree."""
    if n < 1:
        raise InvalidInputError("need at least one agent")
    if children_per_node < 1:
        raise InvalidInputError("children_per_node must be >= 1")
    rng = np.random.default_rng(seed)
    return TreeTopology(
        order=rng.permutation(n), children_per_node=children_per_node, seed=seed
    )


def residual_sum_of_squares(aggregate: np.ndarray, goal_values: np.ndarray) -> float:
    return float(np.sum((standardize(aggregate) - standardize(goal_values)) ** 2))


def global_cost(
    aggregate: np.ndarray,
    goal: GoalSignal | np.ndarray,
    selected_costs: Sequence[float] | np.ndarray,
    weights: CostWeights = CostWeights(),
) -> float:
    """(1 - a - b) * RSS(std aggregate, std goal) + a * Var(costs) + b * Mean(costs)."""
    goal_values = goal.values if isinstance(goal, GoalSignal) else np.asarray(goal, dtype=float)
    costs = np.asarray(selected_costs, dtype=float)
    if costs.size < 1:
        raise InvalidInputError("need at least one selected local cost")
    inefficiency = residual_sum_of_squares(np.asarray(aggregate, dtype=float), goal_values)
    return (
        (1.0 - weights.alpha - weights.beta) * inefficiency
        + weights.alpha * float(np.var(costs))
        + weights.beta * float(np.mean(costs))
    )


@dataclass
class CoordinationRun:
    """Trace of one repetition: selections, responses and costs per iteration."""

    repetition: int
    topology: TreeTopology
    selections: np.ndarray       # (iterations, n) plan index per agent
    global_response: np.ndarray  # (iterations, m)
    cost_trace: np.ndarray       # (iterations,)
    weights: CostWeights
    goal_level: int

    def final_selections(self) -> np.ndarray:
        return self.selections[-1]

    def final_cost(self) -> float:
        return float(self.cost_trace[-1])

    def final_response(self) -> np.ndarray:
        return self.global_response[-1]


def coordinate(
    portfolios: Sequence[PlanPortfolio],
    goal: GoalSignal,
    weights: CostWeights = CostWeights(),
    iterations: int = 50,
    repetitions: int = 10,
    seed: int = 0,
    children_per_node: int = 2,
    early_stop_after: int | None = None,
) -> list[CoordinationRun]:
    """Run the tree optimizer for several random agent placements.

    Each repetition draws a fresh permutation from the master seed and runs
    the given number of iterations. ``early_stop_after`` optionally stops a
    repetition once the cost trace has been flat for that many consecutive
    iterations (off by default; the trace is then padded to full length so
    shapes stay regular).
    """
    portfolios = list(portfolios)
    if not portfolios:
        raise InvalidInputError("need at least one portfolio")
    m = portfolios[0].plan_length
    if any(p.plan_length != m for p in portfolios):
        raise InvalidInputError("portfolios disagree on plan length")
    if goal.values.size != m:
        raise InvalidInputError("goal signal length does not match plan length")
    if iterations < 1 or repetitions < 1:
        raise InvalidInputError("iterations and repetitions must be >= 1")

    rep_seeds = [int(s.generate_state(1, np.uint32)[0])
                 for s in np.random.SeedSequence(seed).spawn(repetitions)]
    topologies = [build_tree(len(portfolios), children_per_node, s) for s in rep_seeds]
    selections, responses, traces = _optimize(
        portfolios, goal, weights, iterations, topologies, early_stop_after
    )
    return [
        CoordinationRun(
            repetition=rep,
            topology=topology,
            selections=selections[rep],
            global_response=responses[rep],
            cost_trace=traces[rep],
            weights=weights,
            goal_level=goal.level,
        )
        for rep, topology in enumerate(topologies)
    ]


def _optimize(
    portfolios: list[PlanPortfolio],
    goal: GoalSignal,
    weights: CostWeights,
    iterations: int,
    topologies: list[TreeTopology],
    early_stop_after: int | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All repetitions at once: (R, iterations, n) selections in portfolio
    order, (R, iterations, m) global responses and (R, iterations) costs."""
    n, m = len(portfolios), portfolios[0].plan_length
    c = topologies[0].children_per_node
    order = np.stack([t.order for t in topologies])  # (R, n) agent per position
    R = order.shape[0]
    goal_std = standardize(goal.values)
    # Per agent, K plan slots; an agent with fewer plans gets padded slots
    # that cost +inf, with count 1 so their mean stays finite.
    K = max(len(p.plans) for p in portfolios)
    values = np.zeros((n, K, m))
    plan_stats = np.tile([1.0, 0.0, 0.0], (n, K, 1))
    padded = np.ones((n, K), dtype=bool)
    for a, portfolio in enumerate(portfolios):
        k = len(portfolio.plans)
        values[a, :k] = [p.values for p in portfolio.plans]
        plan_stats[a, :k, 1:] = [[p.local_cost, p.local_cost**2] for p in portfolio.plans]
        padded[a, :k] = False
    levels = []  # depth d covers positions [s, c*s + 1)
    s = 0
    while s < n:
        levels.append((s, min(c * s + 1, n)))
        s = levels[-1][1]
    parent = (np.arange(n) - 1) // c

    sel = np.zeros((R, n), dtype=np.intp)  # by tree position
    agg = np.zeros((R, n, m))              # resolved subtree aggregates
    stats = np.zeros((R, n, 3))
    agg_new, stats_new = np.empty_like(agg), np.empty_like(stats)
    cand = np.empty((R, n), dtype=np.intp)
    keep = np.empty((R, n), dtype=bool)
    cost_prev = np.full(R, np.inf)
    w_rss = 1.0 - weights.alpha - weights.beta

    selections = np.zeros((R, iterations, n), dtype=np.intp)
    responses = np.zeros((R, iterations, m))
    trace = np.zeros((R, iterations))
    stop = np.full(R, iterations)  # iteration a repetition stopped at
    flat_streak = np.zeros(R, dtype=np.intp)

    for it in range(iterations):
        # Bottom-up, deepest depth first. Position p's children are
        # c*p + 1 .. c*p + c, so child j of the depth's l-th position is the
        # next depth's (c*l + j)-th; summing j in order matches the
        # one-position-at-a-time sum.
        for s, e in reversed(levels):
            child_agg = np.zeros((R, e - s, m))
            child_stats = np.zeros((R, e - s, 3))
            for j in range(c):
                kids = slice(e + j, min(c * e + 1, n), c)
                k = len(range(n)[kids])  # children with offset j
                child_agg[:, :k] += agg_new[:, kids]
                child_stats[:, :k] += stats_new[:, kids]
            # The previous global response is the root's resolved aggregate.
            base = agg[:, :1] - agg[:, s:e] + child_agg
            base_stats = stats[:, :1] - stats[:, s:e] + child_stats
            agents = order[:, s:e]
            cand_stats = base_stats[:, :, None] + plan_stats[agents]
            count, total, sumsq = np.moveaxis(cand_stats, -1, 0)
            mean = total / count
            var = np.maximum(sumsq / count - mean * mean, 0.0)
            # In place where the order of operations allows, to keep few
            # (R, L, K, m) temporaries alive at once.
            x = values[agents]
            x += base[:, :, None]
            x = standardize(x)
            x -= goal_std
            rss = np.sum(np.square(x, out=x), axis=-1)
            costs = w_rss * rss + weights.alpha * var + weights.beta * mean
            costs[padded[agents]] = np.inf
            best = np.argmin(costs, axis=-1)
            best_cost = costs.min(axis=-1)
            # Reverting the whole subtree to its previous configuration
            # reproduces the previous global response exactly, so its cost is
            # the previous realized cost.
            accepted = best_cost <= cost_prev[:, None]
            cand[:, s:e] = best
            keep[:, s:e] = accepted
            agg_new[:, s:e] = np.where(
                accepted[..., None], child_agg + values[agents, best], agg[:, s:e]
            )
            stats_new[:, s:e] = np.where(
                accepted[..., None], child_stats + plan_stats[agents, best], stats[:, s:e]
            )

        # Top-down: the root's choice is exact; an ancestor's revert discards
        # every newer choice below it. A position takes its new state only if
        # it and every ancestor accepted.
        for s, e in levels[1:]:
            keep[:, s:e] &= keep[:, parent[s:e]]
        np.copyto(sel, cand, where=keep)
        np.copyto(agg, agg_new, where=keep[..., None])
        np.copyto(stats, stats_new, where=keep[..., None])
        # At the root the candidate cost is the realized cost, bit for bit:
        # its context is the previous global response minus itself, i.e. zero.
        cost_prev = np.where(keep[:, 0], best_cost[:, 0], cost_prev)

        selections[:, it] = sel
        responses[:, it] = agg[:, 0]
        trace[:, it] = cost_prev

        if early_stop_after is not None and it > 0:
            flat = trace[:, it] == trace[:, it - 1]
            flat_streak = np.where(flat, flat_streak + 1, 0)
            stop[(stop == iterations) & (flat_streak >= early_stop_after)] = it
            if np.all(stop < iterations):
                break

    # A stopped repetition repeats its final state to full length; selections
    # are reported in portfolio order rather than tree order.
    last = np.minimum(np.arange(iterations), stop[:, None])
    rows = np.arange(R)[:, None]
    agent_position = np.argsort(order, axis=1)[:, None, :]
    by_agent = np.take_along_axis(selections[rows, last], agent_position, axis=2)
    return by_agent, responses[rows, last], trace[rows, last]


@dataclass(frozen=True)
class SelectionSummary:
    """Cross-repetition summary of a coordination experiment."""

    agent_ids: tuple[str, ...]
    selected_labels: tuple[tuple[str, ...], ...]  # [agent][repetition]
    mean_response: np.ndarray
    final_costs: np.ndarray
    mean_cost: float
    cost_std: float


def selection_summary(
    runs: Sequence[CoordinationRun], portfolios: Sequence[PlanPortfolio]
) -> SelectionSummary:
    """Final-cost statistics and per-agent selected plan labels per repetition."""
    if not runs:
        raise InvalidInputError("need at least one run")
    finals = np.array([run.final_cost() for run in runs])
    labels = tuple(
        tuple(
            portfolios[a].plans[run.final_selections()[a]].label for run in runs
        )
        for a in range(len(portfolios))
    )
    return SelectionSummary(
        agent_ids=tuple(p.agent_id for p in portfolios),
        selected_labels=labels,
        mean_response=np.mean([run.final_response() for run in runs], axis=0),
        final_costs=finals,
        mean_cost=float(finals.mean()),
        cost_std=float(finals.std()),
    )


# ---------------------------------------------------------------------------
# Plan portfolio files: one agent per file, one plan per line, formatted as
# "local_cost:v1,v2,...,vm".

def write_portfolio(path: str | Path, portfolio: PlanPortfolio) -> None:
    lines = []
    for plan in portfolio.plans:
        values = ",".join(format(v, ".12g") for v in plan.values)
        lines.append(f"{format(plan.local_cost, '.12g')}:{values}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_portfolio(
    path: str | Path,
    agent_id: str | None = None,
    labels: Sequence[str] | None = None,
) -> PlanPortfolio:
    path = Path(path)
    agent_id = agent_id if agent_id is not None else path.stem
    plans = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if ":" not in line:
            raise InvalidInputError(f"{path}:{lineno}: expected 'cost:v1,v2,...'")
        cost_part, _, values_part = line.partition(":")
        label = (
            labels[len(plans)]
            if labels is not None and len(plans) < len(labels)
            else f"plan{len(plans) + 1}"
        )
        try:
            values = np.array([float(v) for v in values_part.split(",")])
            plans.append(Plan(values=values, local_cost=float(cost_part), label=label))
        except ValueError as exc:  # also InvalidInputError from Plan
            raise InvalidInputError(f"{path}:{lineno}: {exc}") from exc
    return PlanPortfolio(agent_id=agent_id, plans=tuple(plans))


def write_portfolio_dir(
    directory: str | Path, portfolios: Sequence[PlanPortfolio]
) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for portfolio in portfolios:
        write_portfolio(directory / f"{portfolio.agent_id}.plans", portfolio)


def read_portfolio_dir(
    directory: str | Path, labels: Sequence[str] | None = None
) -> list[PlanPortfolio]:
    paths = sorted(Path(directory).glob("*.plans"))
    if not paths:
        raise InvalidInputError(f"no .plans files under {directory}")
    return [read_portfolio(p, labels=labels) for p in paths]


def run_to_dict(run: CoordinationRun) -> dict:
    """JSON-ready view of a run (cost trace, selections, final response)."""
    return {
        "repetition": run.repetition,
        "topology_seed": run.topology.seed,
        "children_per_node": run.topology.children_per_node,
        "alpha": run.weights.alpha,
        "beta": run.weights.beta,
        "goal_level": run.goal_level,
        "cost_trace": [float(c) for c in run.cost_trace],
        "final_selections": [int(s) for s in run.final_selections()],
        "final_response": [float(v) for v in run.final_response()],
    }


def write_runs_json(path: str | Path, runs: Sequence[CoordinationRun]) -> None:
    payload = {"runs": [run_to_dict(run) for run in runs]}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_cost_trace_csv(path: str | Path, runs: Sequence[CoordinationRun]) -> None:
    """Flatten cost traces for plotting: repetition, iteration, cost."""
    lines = ["repetition,iteration,cost"]
    for run in runs:
        for it, cost in enumerate(run.cost_trace, start=1):
            lines.append(f"{run.repetition},{it},{format(cost, '.12g')}")
    Path(path).write_text("\n".join(lines) + "\n")
