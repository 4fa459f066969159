"""Goal signals from unrewarded choices, and how conditions match them.

The five goal signals give, per scenario, the share of participants who
picked each sharing level without rewards; per scenario the shares sum to 1.
We then measure the standardized mismatch between each condition's aggregate
sharing and the very-low / very-high preservation goals.

Run with: python demos/04_goal_signals_and_mismatch.py
"""

import numpy as np

from datacollective import build_goal_signals, generate_population, mismatch
from datacollective.goals import level_name
from datacollective.population import simulate_population

population = generate_population(84, master_seed=0)
simulations = simulate_population(population, steps=192)

signals = build_goal_signals(simulations["intrinsic"], z=5)

print("goal signals (first 6 scenarios):")
for signal in signals:
    head = " ".join(f"{v:.2f}" for v in signal.values[:6])
    print(f"  {level_name(signal.level):10s} {head} ...")
column_sums = np.sum([s.values for s in signals], axis=0)
print("per-scenario share sums:", np.unique(np.round(column_sums, 9)))

print("\nmean standardized mismatch against the two extreme goals:")
print(f"{'condition':12s} {'very low':>9s} {'very high':>10s}")
for condition in ("intrinsic", "rewarded1", "rewarded2"):
    aggregate = ((5 - simulations[condition]) / 4).sum(axis=0)
    low = mismatch(aggregate, signals[0]).mean_abs
    high = mismatch(aggregate, signals[4]).mean_abs
    print(f"{condition:12s} {low:9.3f} {high:10.3f}")
print("\nunrewarded choices track their own goal signals far better than")
print("rewarded ones, and low-preservation goals are easier to match.")
