"""datacollective: simulate, coordinate and evaluate collective data sharing.

The package models discrete data-sharing choices over a factorial scenario
space with personalized monetary rewards, simulates participant populations
with distinct privacy behaviors, coordinates their candidate plans with a
decentralized tree optimizer against privacy-preservation goal signals, and
evaluates the outcome (mismatch, collection cost, privacy recovery, conjoint
partworths).
"""

__version__ = "0.1.0"

from .coordination import (
    CoordinationRun,
    CostWeights,
    Plan,
    PlanPortfolio,
    TreeTopology,
    build_tree,
    coordinate,
    global_cost,
    selection_summary,
)
from .goals import GoalSignal, MismatchReport, build_goal_signals, mismatch, standardize
from .population import (
    GroupBehavior,
    SyntheticPopulation,
    build_portfolio,
    extract_groups,
    generate_population,
    simulate_condition,
    simulate_conditions,
)
from .retrieval import (
    IMPROVE_PRIVACY,
    IMPROVE_REWARDS,
    BalanceState,
    apply_choice,
    improvement,
    improvement_box,
    retrieve_next,
)
from .sharing import (
    Budget,
    Criterion,
    RewardModel,
    Scenario,
    ScenarioCatalog,
    SelectionVector,
    ValuationScheme,
    WeightProfile,
    default_catalog,
    enumerate_scenarios,
    geometric_rewards,
    linear_rewards,
    max_rewards,
    privacy_cost,
    privacy_score,
    total_weight,
)

__all__ = [
    "__version__",
    "Budget",
    "BalanceState",
    "CoordinationRun",
    "CostWeights",
    "Criterion",
    "GoalSignal",
    "GroupBehavior",
    "IMPROVE_PRIVACY",
    "IMPROVE_REWARDS",
    "MismatchReport",
    "Plan",
    "PlanPortfolio",
    "RewardModel",
    "Scenario",
    "ScenarioCatalog",
    "SelectionVector",
    "SyntheticPopulation",
    "TreeTopology",
    "ValuationScheme",
    "WeightProfile",
    "apply_choice",
    "build_goal_signals",
    "build_portfolio",
    "build_tree",
    "coordinate",
    "default_catalog",
    "enumerate_scenarios",
    "extract_groups",
    "generate_population",
    "geometric_rewards",
    "global_cost",
    "improvement",
    "improvement_box",
    "linear_rewards",
    "max_rewards",
    "mismatch",
    "privacy_cost",
    "privacy_score",
    "retrieve_next",
    "selection_summary",
    "simulate_condition",
    "simulate_conditions",
    "standardize",
    "total_weight",
]
