"""Shared test utilities: independent oracles and instance generators."""

from itertools import product

import numpy as np

from datacollective.coordination import Plan, PlanPortfolio
from datacollective.goals import GoalSignal


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


def random_goal(rng, m=16, level=5):
    return GoalSignal(level, rng.random(m))
