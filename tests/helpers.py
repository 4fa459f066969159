"""Shared test utilities: independent oracles and instance generators."""

from itertools import product

import numpy as np

from datacollective.coordination import Plan, PlanPortfolio
from datacollective.goals import GoalSignal
from datacollective.population import INTRINSIC, _condition_rng, _draw_intrinsic
from datacollective.retrieval import (
    IMPROVE_PRIVACY,
    IMPROVE_REWARDS,
    BalanceState,
    Event,
    apply_choice,
    improvement_box,
    retrieve_next,
)
from datacollective.sharing import SelectionVector


def standardize_oracle(x):
    """Independent standardization: plain formula, no library reuse."""
    x = np.asarray(x, dtype=float)
    mu = sum(x) / len(x)
    var = sum((v - mu) ** 2 for v in x) / len(x)
    if var == 0:
        return np.zeros_like(x)
    return (x - mu) / var**0.5


def cost_oracle(aggregate, goal_values, local_costs, alpha, beta):
    """Direct transcription of the collective cost, independent of the
    library implementation."""
    a = standardize_oracle(aggregate)
    g = standardize_oracle(goal_values)
    rss = float(np.sum((a - g) ** 2))
    costs = np.asarray(local_costs, dtype=float)
    mean = float(costs.mean())
    var = float(((costs - mean) ** 2).mean())
    return (1 - alpha - beta) * rss + alpha * var + beta * mean


def brute_force_minimum(portfolios, goal, alpha, beta):
    """Exhaustive enumeration over every plan combination."""
    goal_values = goal.values if isinstance(goal, GoalSignal) else goal
    best = np.inf
    for combo in product(*[range(len(p.plans)) for p in portfolios]):
        agg = np.sum(
            [p.plans[i].values for p, i in zip(portfolios, combo)], axis=0
        )
        costs = [p.plans[i].local_cost for p, i in zip(portfolios, combo)]
        best = min(best, cost_oracle(agg, goal_values, costs, alpha, beta))
    return best


def random_portfolios(rng, n, plans_per_agent=3, m=16):
    portfolios = []
    for a in range(n):
        plans = []
        for i in range(plans_per_agent):
            values = rng.random(m)
            plans.append(Plan(values, float(values.mean()), f"plan{i + 1}"))
        portfolios.append(PlanPortfolio(f"agent{a}", tuple(plans)))
    return portfolios


def ragged_portfolios(rng, n, m=16):
    """Portfolios of 1 to 4 plans per agent, so agents' plan counts differ."""
    portfolios = []
    for a in range(n):
        values = rng.random((int(rng.integers(1, 5)), m))
        plans = tuple(
            Plan(v, float(v.mean()), f"plan{i + 1}") for i, v in enumerate(values)
        )
        portfolios.append(PlanPortfolio(f"agent{a}", plans))
    return portfolios


def read_plans_reference(paths, labels=None):
    """The line-by-line ``.plans`` reader: per file its agent id, plan values,
    costs and labels, or the message of the first broken rule."""
    portfolios = []
    for path in paths:
        plans = []
        for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            if ":" not in line:
                return f"{path}:{lineno}: expected 'cost:v1,v2,...'"
            cost_part, _, values_part = line.partition(":")
            try:
                values = [float(v) for v in values_part.split(",")]
                cost = float(cost_part)
            except ValueError as exc:
                return f"{path}:{lineno}: {exc}"
            if not all(0 <= v <= 1 for v in values):  # NaN fails too
                return f"{path}:{lineno}: plan values must lie in [0, 1]"
            if not 0 <= cost <= 1:
                return f"{path}:{lineno}: plan local cost must lie in [0, 1]"
            if plans and len(values) != len(plans[0][0]):
                return (f"{path}:{lineno}: plan of length {len(values)}, "
                        f"but the first plan has length {len(plans[0][0])}")
            k = len(plans)
            plans.append((values, cost, labels[k] if labels and k < len(labels) else f"plan{k + 1}"))
        if not plans:
            return f"{path}: agent '{path.stem}' has no plans"
        portfolios.append((path.stem, plans))
    length = len(portfolios[0][1][0][0])
    for path, (_, plans) in zip(paths, portfolios):
        if len(plans[0][0]) != length:
            return (f"{path}: plans of length {len(plans[0][0])}, "
                    f"but {paths[0].name} has plans of length {length}")
    return [
        (agent_id, [v for v, _, _ in plans], [c for _, c, _ in plans], [l for _, _, l in plans])
        for agent_id, plans in portfolios
    ]


def random_goal(rng, m=16, level=5):
    return GoalSignal(level, rng.random(m))


def simulate_condition_oracle(
    participant, condition, steps, catalog, reward_model, contention=None
):
    """One participant's condition, one validated step at a time.

    The reference the lockstep kernel is checked against: every step goes
    through the public single-step API (BalanceState, retrieve_next,
    improvement_box, apply_choice) and draws from the participant's own
    condition stream in the same order. Returns (selection, events, lost
    steps).
    """
    z = reward_model.z
    m = catalog.m
    behavior = participant.behavior
    rng = _condition_rng(participant, condition)
    rmax = reward_model.max_rewards(participant.profile, catalog)
    pid = participant.participant_id

    if condition == INTRINSIC:
        first_pass = _draw_intrinsic(behavior, m, rng, contention)
    else:
        first_pass = rng.choice(np.arange(1, z + 1), size=m, p=behavior.rewarded_policy)
    events = []
    state = BalanceState.from_selection(
        SelectionVector(np.full(m, z, dtype=np.intp), z), rmax, reward_model
    )
    for j in range(1, m + 1):
        state = apply_choice(state, j, int(first_pass[j - 1]))
        events.append(
            Event(pid, j, "first_pass", j, int(first_pass[j - 1]),
                  state.accumulated_rewards, state.privacy)
        )
    if condition == INTRINSIC:
        return state.selection, events, 0

    p_privacy = min(1.0, max(0.0, 0.5 + behavior.drift))
    for step in range(m + 1, steps + 1):
        goal = IMPROVE_PRIVACY if rng.random() < p_privacy else IMPROVE_REWARDS
        scenario_id = retrieve_next(state, goal)
        if scenario_id is None:
            goal = IMPROVE_REWARDS if goal == IMPROVE_PRIVACY else IMPROVE_PRIVACY
            scenario_id = retrieve_next(state, goal)
            if scenario_id is None:
                return state.selection, events, steps + 1 - step
        box = sorted(improvement_box(state, scenario_id, goal))
        option = int(rng.choice(box))
        state = apply_choice(state, scenario_id, option)
        events.append(
            Event(pid, step, goal, scenario_id, option,
                  state.accumulated_rewards, state.privacy)
        )
    return state.selection, events, 0
