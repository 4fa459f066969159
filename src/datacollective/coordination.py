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

An iteration reads only the resolved aggregates, their cost statistics and
the last realized cost, so once one leaves these and the selections unchanged,
bit for bit, every later one repeats it: the repetition stops, and its final
state fills the remaining rows.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, InvalidWeightsError, read_json_object, read_text
from .goals import GoalSignal, standardize
from .textformat import float_table, is_file_stem

WEIGHT_TOL = 1e-12


VALUES_OUT_OF_RANGE = "plan values must lie in [0, 1]"
COST_OUT_OF_RANGE = "plan local cost must lie in [0, 1]"


def _in_unit(x):
    """Elementwise 0 <= x <= 1, written so that NaN fails the test too."""
    return (x >= 0) & (x <= 1)


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
        if not _in_unit(vals).all():
            raise InvalidInputError(VALUES_OUT_OF_RANGE)
        if not _in_unit(self.local_cost):
            raise InvalidInputError(COST_OUT_OF_RANGE)


@dataclass(frozen=True, init=False, eq=False)
class PlanPortfolio:
    """An agent's K candidate plans as one read-only (K, m) array of values
    in [0, 1], their (K,) local costs in [0, 1] and K labels.

    ``PlanPortfolio(agent_id, plans)`` stacks ``Plan`` rows;
    ``from_arrays`` takes the arrays and checks them by the same rules.
    """

    agent_id: str
    values: np.ndarray
    costs: np.ndarray
    labels: tuple[str, ...]

    def __init__(self, agent_id: str, plans: Sequence[Plan]):
        plans = tuple(plans)
        if not plans:
            raise InvalidInputError(f"agent '{agent_id}' has no plans")
        if any(p.values.size != plans[0].values.size for p in plans):
            raise InvalidInputError(f"agent '{agent_id}' has mixed plan lengths")
        self._set(
            agent_id,
            np.array([p.values for p in plans]),
            np.array([p.local_cost for p in plans], dtype=float),
            tuple(p.label for p in plans),
        )

    @classmethod
    def from_arrays(
        cls,
        agent_id: str,
        values: np.ndarray,
        costs: np.ndarray,
        labels: Sequence[str] | None = None,
    ) -> "PlanPortfolio":
        """Plans from a (K, m) value array and (K,) costs; labels default to
        plan1..planK."""
        values = np.array(values, dtype=float)
        costs = np.array(costs, dtype=float)
        if values.ndim != 2 or values.shape[0] == 0:
            raise InvalidInputError(f"agent '{agent_id}' has no plans")
        if values.shape[1] == 0:
            raise InvalidInputError("plan values must be a non-empty vector")
        k = values.shape[0]
        labels = tuple(f"plan{j}" for j in range(1, k + 1)) if labels is None else tuple(labels)
        if costs.shape != (k,) or len(labels) != k:
            raise InvalidInputError(f"agent '{agent_id}' needs one cost and one label per plan")
        if not _in_unit(values).all():
            raise InvalidInputError(VALUES_OUT_OF_RANGE)
        if not _in_unit(costs).all():
            raise InvalidInputError(COST_OUT_OF_RANGE)
        return cls.__new__(cls)._set(agent_id, values, costs, labels)

    def _set(self, agent_id, values, costs, labels) -> "PlanPortfolio":
        values.flags.writeable = costs.flags.writeable = False
        for name, value in zip(("agent_id", "values", "costs", "labels"),
                               (agent_id, values, costs, labels)):
            object.__setattr__(self, name, value)
        return self

    @property
    def plan_length(self) -> int:
        return int(self.values.shape[1])

    @cached_property
    def plans(self) -> tuple[Plan, ...]:
        """The plans as ``Plan`` rows, whose values are views of ``values``;
        the portfolio's checks stand for ``Plan``'s, which are not run again."""
        plans = []
        for values, cost, label in zip(self.values, self.costs.tolist(), self.labels):
            plan = Plan.__new__(Plan)
            plan.__dict__.update(values=values, local_cost=cost, label=label)
            plans.append(plan)
        return tuple(plans)


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

    def levels(self) -> list[tuple[int, int]]:
        """The position range [s, e) of each depth, root first."""
        levels = [(0, 1)]
        while levels[-1][1] < self.n:
            s = levels[-1][1]
            levels.append((s, min(self.children_per_node * s + 1, self.n)))
        return levels


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
    stats = np.array([costs.size, costs.sum(), np.square(costs).sum()])
    return float(
        _cost(np.asarray(aggregate, dtype=float), standardize(goal_values), stats, weights)
    )


def _cost(
    aggregate: np.ndarray, goal_std: np.ndarray, stats: np.ndarray, weights: CostWeights
) -> np.ndarray:
    """The collective cost of aggregates (..., m) whose selected local costs
    are summarized as (count, sum, sum of squares) triples (..., 3)."""
    count, total, sumsq = stats[..., 0], stats[..., 1], stats[..., 2]
    mean = total / count
    var = np.maximum(sumsq / count - mean * mean, 0.0)
    x = standardize(aggregate)
    x -= goal_std
    rss = np.sum(np.square(x, out=x), axis=-1)
    return (1.0 - weights.alpha - weights.beta) * rss + weights.alpha * var + weights.beta * mean


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
) -> list[CoordinationRun]:
    """Run the tree optimizer for several random agent placements.

    Each repetition draws a fresh permutation from the master seed and runs
    the given number of iterations; one that reaches a fixed point repeats
    it to full length.
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
    selections, responses, traces = _optimize(portfolios, goal, weights, iterations, topologies)
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All repetitions at once: (R, iterations, n) selections in portfolio
    order, (R, iterations, m) global responses and (R, iterations) costs."""
    n, m = len(portfolios), portfolios[0].plan_length
    c = topologies[0].children_per_node
    order = np.stack([t.order for t in topologies])  # (R, n) agent per position
    R = order.shape[0]
    goal_std = standardize(goal.values)
    # Per agent, K plan slots, each its m values followed by its cost
    # statistics (count, sum, sum of squares); an agent with fewer plans gets
    # padded slots that cost +inf, with count 1 so their mean stays finite.
    counts = np.array([len(p.costs) for p in portfolios])
    K = counts.max()
    padded = np.arange(K) >= counts[:, None]
    ragged = bool(padded.any())
    plans = np.zeros((n, K, m + 3))
    plans[..., m] = 1.0
    plans[~padded, :m] = np.concatenate([p.values for p in portfolios])
    costs = np.concatenate([p.costs for p in portfolios])
    plans[~padded, m + 1:] = np.column_stack([costs, costs**2])
    levels = topologies[0].levels()
    parent = (np.arange(n) - 1) // c

    sel = np.zeros((R, n), dtype=np.intp)  # by tree position
    # resolved subtree aggregates, each followed by its cost statistics
    agg = np.zeros((R, n, m + 3))
    agg_new = np.empty_like(agg)
    cand = np.empty((R, n), dtype=np.intp)
    keep = np.empty((R, n), dtype=bool)
    cost_prev = np.full(R, np.inf)

    selections = np.zeros((R, iterations, n), dtype=np.intp)
    responses = np.zeros((R, iterations, m))
    trace = np.zeros((R, iterations))
    stop = np.full(R, iterations)  # iteration a repetition stopped at
    live = np.arange(R)  # the repetition in each row of the working arrays
    agent_position = np.argsort(order, axis=1)[:, None, :]

    for it in range(iterations):
        # Bottom-up, deepest depth first. Position p's children are
        # c*p + 1 .. c*p + c, so child j of the depth's l-th position is the
        # next depth's (c*l + j)-th; summing j in order matches the
        # one-position-at-a-time sum.
        for s, e in reversed(levels):
            child = np.zeros((live.size, e - s, m + 3))
            for j in range(c):
                kids = slice(e + j, min(c * e + 1, n), c)
                k = len(range(n)[kids])  # children with offset j
                child[:, :k] += agg_new[:, kids]
            # The previous global response is the root's resolved aggregate.
            base = agg[:, :1] - agg[:, s:e] + child
            agents = order[:, s:e]
            # In place, to keep few (R, L, K, m + 3) temporaries alive at once.
            x = plans[agents]
            x += base[:, :, None]
            costs = _cost(x[..., :m], goal_std, x[..., m:], weights)
            if ragged:
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
                accepted[..., None], child + plans[agents, best], agg[:, s:e]
            )

        # Top-down: the root's choice is exact; an ancestor's revert discards
        # every newer choice below it. A position takes its new state only if
        # it and every ancestor accepted.
        for s, e in levels[1:]:
            keep[:, s:e] &= keep[:, parent[s:e]]
        # The kept positions' new state against the old, per repetition.
        moved = (keep & (cand != sel)).any(1) | (keep[:, 0] & (best_cost[:, 0] != cost_prev))
        moved |= (keep[..., None] & (agg_new != agg)).any((1, 2))
        np.copyto(sel, cand, where=keep)
        np.copyto(agg, agg_new, where=keep[..., None])
        # At the root the candidate cost is the realized cost, bit for bit:
        # its context is the previous global response minus itself, i.e. zero.
        cost_prev = np.where(keep[:, 0], best_cost[:, 0], cost_prev)

        selections[live, it] = sel
        responses[live, it] = agg[:, 0, :m]
        trace[live, it] = cost_prev

        # A fixed point (see the module docstring): later iterations repeat
        # it, so the repetition leaves the working arrays. Repetitions never
        # read each other's rows.
        if not moved.all():
            stop[live[~moved]] = it
            live = live[moved]
            if not live.size:
                break
            sel, agg, agg_new, cand, keep, cost_prev, order = (
                x[moved] for x in (sel, agg, agg_new, cand, keep, cost_prev, order)
            )

    # A stopped repetition repeats its final state to full length; selections
    # are reported in portfolio order rather than tree order.
    last = np.minimum(np.arange(iterations), stop[:, None])
    rows = np.arange(R)[:, None]
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
        tuple(portfolio.labels[run.final_selections()[a]] for run in runs)
        for a, portfolio in enumerate(portfolios)
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
    Path(path).write_text(next(_portfolio_texts([portfolio])), encoding="utf-8")


def read_portfolio(
    path: str | Path,
    agent_id: str | None = None,
    labels: Sequence[str] | None = None,
) -> PlanPortfolio:
    path = Path(path)
    return _read_plan_files([path], [path.stem if agent_id is None else agent_id], labels)[0]


def write_portfolio_dir(
    directory: str | Path, portfolios: Sequence[PlanPortfolio]
) -> None:
    """One ``<agent id>.plans`` file per agent; an id that does not name a
    file in ``directory`` (a path separator, ``..``) is refused by name."""
    unsafe = [p.agent_id for p in portfolios if not is_file_stem(p.agent_id)]
    if unsafe:
        raise InvalidInputError(f"agent id {unsafe[0]!r} cannot name a .plans file")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for portfolio, text in zip(portfolios, _portfolio_texts(portfolios)):
        (directory / f"{portfolio.agent_id}.plans").write_text(text, encoding="utf-8")


def _portfolio_texts(portfolios: Sequence[PlanPortfolio]):
    """Each portfolio's file text, one join per agent. Every distinct plan
    value or cost among all the portfolios is formatted once, as ``%.12g``."""
    costs = np.concatenate([p.costs for p in portfolios])
    texts, inverse = float_table(
        np.concatenate([costs, *(p.values.ravel() for p in portfolios)])
    )
    cost_texts = iter(texts[inverse[: costs.size]].tolist())
    start = costs.size
    for portfolio in portfolios:
        k, m = portfolio.values.shape
        rows = texts[inverse[start : start + k * m]].reshape(k, m).tolist()
        start += k * m
        yield "".join(f"{next(cost_texts)}:{','.join(row)}\n" for row in rows)


def read_portfolio_dir(
    directory: str | Path, labels: Sequence[str] | None = None
) -> list[PlanPortfolio]:
    try:
        names = sorted(name for name in os.listdir(Path(directory)) if name.endswith(".plans"))
    except OSError:  # a missing directory, or a file
        names = []
    if not names:
        raise InvalidInputError(f"no .plans files under {directory}")
    # plain strings, and each name's Path(name).stem: a Path per file costs more
    paths = [os.path.join(directory, name) for name in names]
    return _read_plan_files(paths, [name[:-6] or name for name in names], labels)


def _read_plan_files(
    paths: Sequence[str | Path], agent_ids: Sequence[str], labels: Sequence[str] | None
) -> list[PlanPortfolio]:
    """Each file's portfolio, viewing its rows of one (plans, m) table of all
    the files' plans. Files that any rule rejects are read again, line by
    line, which raises the first error."""
    table = _plan_table(paths)
    values, costs, counts = table or _plan_table_by_line(list(map(Path, paths)), agent_ids)
    plan_labels = tuple(
        labels[j] if labels is not None and j < len(labels) else f"plan{j + 1}"
        for j in range(max(counts))
    )
    bounds = np.cumsum([0, *counts]).tolist()
    return [
        PlanPortfolio.__new__(PlanPortfolio)._set(
            agent_id, values[a:b], costs[a:b], plan_labels[:b - a]
        )
        for agent_id, a, b in zip(agent_ids, bounds, bounds[1:])
    ]


def _plan_table(paths: Sequence[str | Path]):
    """All files' plans as a (plans, m) value table, their costs and each
    file's plan count, converting each distinct number text once; ``None``
    for files that cannot be read as UTF-8 or break any rule of
    ``_plan_table_by_line``."""
    texts = []
    try:
        for path in paths:
            with open(path, "rb") as fh:
                texts.append(fh.read().decode("utf-8"))
    except (OSError, UnicodeDecodeError):
        return None
    files = [[line for line in map(str.strip, text.splitlines()) if line] for text in texts]
    if not all(files):
        return None
    lines = [line for plans in files for line in plans]
    # a line without ':' leaves an empty values text, which no float parses
    costs, _, values = zip(*(line.partition(":") for line in lines))
    if len({v.count(",") for v in values}) != 1:
        return None
    texts = ",".join(values).split(",")
    try:
        table = {text: float(text) for text in {*texts, *costs}}
    except ValueError:
        return None
    numbers = np.fromiter(map(table.__getitem__, texts), float, len(texts))
    costs = np.fromiter(map(table.__getitem__, costs), float, len(costs))
    if not (_in_unit(numbers).all() and _in_unit(costs).all()):
        return None
    return numbers.reshape(len(lines), -1), costs, list(map(len, files))


def _plan_table_by_line(paths: Sequence[Path], agent_ids: Sequence[str]):
    """``_plan_table`` read one line at a time, raising the first error met:
    in file order, then line order, per line a missing ':', a value or cost
    that is not a number, a value out of range, a cost out of range and a
    length unlike the file's first plan; a file without plans after its last
    line; and, once every file has been read, a plan length unlike the first
    file's."""
    files = []
    for path, agent_id in zip(paths, agent_ids):
        plans = []
        for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            cost, colon, values = line.partition(":")
            if not colon:
                raise InvalidInputError(f"{path}:{lineno}: expected 'cost:v1,v2,...'")
            try:
                plan = Plan([float(v) for v in values.split(",")], float(cost))
            except ValueError as exc:  # not a number, or out of range
                raise InvalidInputError(f"{path}:{lineno}: {exc}") from None
            if plans and plan.values.size != plans[0].values.size:
                raise InvalidInputError(
                    f"{path}:{lineno}: plan of length {plan.values.size}, "
                    f"but the first plan has length {plans[0].values.size}"
                )
            plans.append(plan)
        if not plans:
            raise InvalidInputError(f"{path}: agent '{agent_id}' has no plans")
        files.append(plans)
    for path, plans in zip(paths, files):
        if plans[0].values.size != files[0][0].values.size:
            raise InvalidInputError(
                f"{path}: plans of length {plans[0].values.size}, "
                f"but {paths[0].name} has plans of length {files[0][0].values.size}"
            )
    plans = [plan for plans in files for plan in plans]
    return (np.array([p.values for p in plans]), np.array([p.local_cost for p in plans]),
            list(map(len, files)))


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
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def read_run_choices(path: str | Path) -> list[list[int]]:
    """Every run's final plan choice per agent, from a runs JSON file."""
    data = read_json_object(path)
    try:
        return [[int(k) for k in run["final_selections"]] for run in data["runs"]]
    except (ValueError, TypeError, KeyError) as exc:
        raise InvalidInputError(f"{path}: not a coordination runs file ({exc!r})") from exc


def write_cost_trace_csv(path: str | Path, runs: Sequence[CoordinationRun]) -> None:
    """Flatten cost traces for plotting: repetition, iteration, cost."""
    lines = ["repetition,iteration,cost"]
    for run in runs:
        for it, cost in enumerate(run.cost_trace, start=1):
            lines.append(f"{run.repetition},{it},{format(cost, '.12g')}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
