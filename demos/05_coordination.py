"""Coordinating plan choices over the tree to match a goal signal.

Each participant brings three candidate plans (unrewarded, two rewarded);
the tree optimizer picks one per agent to minimize the collective cost. The
cost trace never increases, repetitions with different random placements
show the dispersion, and on a small instance the result is checked against
exhaustive enumeration.

Run with: python demos/05_coordination.py
"""

from itertools import product

import numpy as np

from datacollective import (
    CostWeights,
    build_goal_signals,
    coordinate,
    generate_population,
    global_cost,
    selection_summary,
)
from datacollective.population import build_portfolios, simulate_population

population = generate_population(84, master_seed=0)
simulations = simulate_population(population, steps=192)
ids = [p.participant_id for p in population.participants]
portfolios = build_portfolios(ids, simulations, z=5)
signals = build_goal_signals(simulations["intrinsic"], z=5)
goal = signals[4]  # very-high preservation

runs = coordinate(portfolios, goal, CostWeights(alpha=0.0, beta=0.0),
                  iterations=50, repetitions=10, seed=0)
summary = selection_summary(runs, portfolios)
trace = runs[0].cost_trace
print("repetition 0 cost trace:",
      " ".join(f"{c:.2f}" for c in trace[:6]), "...", f"{trace[-1]:.2f}")
print(f"monotone: {bool(np.all(np.diff(trace) <= 0))}")
print(f"final cost over 10 repetitions: {summary.mean_cost:.2f} "
      f"(sigma {summary.cost_std:.2f})")

chosen = [labels[0] for labels in summary.selected_labels]
shares = {label: f"{chosen.count(label) / len(chosen):.0%}" for label in sorted(set(chosen))}
print("plan shares in repetition 0:", shares)

# small instance: the optimizer hits the exhaustive optimum
small = portfolios[:8]
small_runs = coordinate(small, goal, iterations=30, repetitions=5, seed=1)
best = min(run.final_cost() for run in small_runs)
optimum = min(
    global_cost(
        np.sum([p.plans[i].values for p, i in zip(small, combo)], axis=0),
        goal,
        [p.plans[i].local_cost for p, i in zip(small, combo)],
    )
    for combo in product(range(3), repeat=len(small))
)
print(f"\n8-agent instance: optimizer {best:.4f} vs exhaustive {optimum:.4f} "
      f"over 3^8 combinations")
