"""Conjoint analysis: which criteria drive the sharing choices.

Dummy-encodes the factorial design (dropping acc/cor/soc as references),
fits the per-scenario mean unrewarded privacy by ordinary least squares, and
converts the coefficients into partworth utilities: the relative importance
of each criterion and element.

Run with: python demos/06_conjoint_partworths.py
"""

from datacollective import generate_population
from datacollective.conjoint import encode, fit, partworths
from datacollective.metrics import ConditionSnapshot, scenario_privacy
from datacollective.population import simulate_population
from datacollective.sharing import default_catalog

catalog = default_catalog()
population = generate_population(84, master_seed=0)
simulations = simulate_population(population, steps=192)

ids = tuple(p.participant_id for p in population.participants)
snapshot = ConditionSnapshot("intrinsic", ids, simulations["intrinsic"])
response = scenario_privacy(snapshot)

design = encode(catalog)
print(f"design matrix: {design.matrix.shape[0]} scenarios x "
      f"{design.matrix.shape[1]} columns (intercept + 9 dummies)")

result = fit(design, response)
print(f"fit: R2 {result.r_squared:.3f}, adjusted {result.adj_r_squared:.3f}, "
      f"intercept {result.intercept:.4f}")
for label, coefficient in result.coefficients.items():
    print(f"  {label}: {coefficient:+.4f}")

report = partworths(result)
print("\ncriterion importance (sums to 100%):")
for name, value in zip(report.criterion_names, report.criterion_utilities):
    print(f"  {name:10s} {value:6.2f}%")

print("\nelement utilities within each criterion:")
for names, values in zip(report.element_names, report.element_within):
    row = "  ".join(f"{n} {v:+.2f}" for n, v in zip(names, values))
    print(f"  {row}")
