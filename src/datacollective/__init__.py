"""datacollective: simulate, coordinate and evaluate collective data sharing.

The package models discrete data-sharing choices over a factorial scenario
space with personalized monetary rewards, simulates participant populations
with distinct privacy behaviors, coordinates their candidate plans with a
decentralized tree optimizer against privacy-preservation goal signals, and
evaluates the outcome (mismatch, collection cost, privacy recovery, conjoint
partworths).
"""

__version__ = "0.1.0"

from .coordination import CostWeights, coordinate, global_cost, selection_summary
from .goals import build_goal_signals, mismatch
from .population import generate_population
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
    RewardModel,
    SelectionVector,
    ValuationScheme,
    WeightProfile,
    default_catalog,
    geometric_rewards,
    linear_rewards,
    max_rewards,
    privacy_cost,
    privacy_score,
)

__all__ = [
    "__version__",
    "Budget",
    "BalanceState",
    "CostWeights",
    "IMPROVE_PRIVACY",
    "IMPROVE_REWARDS",
    "RewardModel",
    "SelectionVector",
    "ValuationScheme",
    "WeightProfile",
    "apply_choice",
    "build_goal_signals",
    "coordinate",
    "default_catalog",
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
]
