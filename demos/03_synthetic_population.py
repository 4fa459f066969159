"""A synthetic population with the five data-sharing behaviors.

Generates the default 84-participant mix, simulates the unrewarded and two
rewarded conditions, tabulates per-group privacy, and re-extracts the groups
from the (unrewarded, rewarded) privacy plane with k-means.

Run with: python demos/03_synthetic_population.py
"""

import numpy as np

from datacollective import generate_population
from datacollective.population import (
    GROUP_ORDER,
    extract_groups,
    simulate_population,
)

N = 84
SEED = 0
STEPS = 192  # 64 first-pass answers plus 128 reassessment dilemmas

population = generate_population(N, master_seed=SEED)
print("group counts:", population.group_counts())

simulations = simulate_population(population, steps=STEPS)
# each participant's mean normalized privacy (0 shares all, 1 shares none),
# one column per condition
privacy = np.column_stack([
    ((simulations[c] - 1) / 4).mean(axis=1) for c in ("intrinsic", "rewarded1", "rewarded2")
])
kinds = np.array([p.behavior.kind for p in population.participants])

print("\nmean privacy per group:")
print(f"{'group':20s} {'unrewarded':>10s} {'rewarded 1':>10s} {'rewarded 2':>10s}")
for kind in GROUP_ORDER:
    arr = privacy[kinds == kind]
    print(f"{kind:20s} {arr[:,0].mean():10.3f} {arr[:,1].mean():10.3f} {arr[:,2].mean():10.3f}")

result = extract_groups(privacy[:, :2].copy(), k=5, seed=SEED)
print("\nk-means on (unrewarded, rewarded) privacy pairs:")
for c, centroid in enumerate(result.centroids):
    size = int((result.labels == c).sum())
    print(f"  cluster {c}: centroid ({centroid[0]:.2f}, {centroid[1]:.2f}), {size} members")
print(f"within-cluster sum of squares: {result.inertia:.3f} "
      f"after {result.n_iter} iterations")
