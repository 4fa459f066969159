"""Privacy-preservation goal signals and standardized mismatch.

For each sharing level, a goal signal records per scenario the share of
participants who picked that level without rewards; across the z signals the
shares partition unity per scenario. Mismatch between an aggregate sharing
signal and a goal is the per-scenario absolute error after standardizing
both, which makes the comparison invariant to positive affine rescaling.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, open_text
from .sharing import SelectionVector

LEVEL_NAMES = ("very_low", "low", "medium", "high", "very_high")

GOAL_NOT_A_VECTOR = "goal signal must be a non-empty vector"
GOAL_OUT_OF_RANGE = "goal signal values must lie in [0, 1]"


def level_name(level: int, z: int = 5) -> str:
    """Preservation label for a sharing level (1 = very low preservation)."""
    if z == len(LEVEL_NAMES):
        return LEVEL_NAMES[level - 1]
    return f"level_{level}"


@dataclass(frozen=True)
class GoalSignal:
    """Target shares per scenario for one preservation level."""

    level: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.size == 0:
            raise InvalidInputError(GOAL_NOT_A_VECTOR)
        # Written so that NaN fails the test too.
        if not np.all((vals >= 0) & (vals <= 1)):
            raise InvalidInputError(GOAL_OUT_OF_RANGE)


@dataclass(frozen=True)
class MismatchReport:
    """Per-scenario absolute errors of standardized signals plus summaries."""

    per_scenario: np.ndarray
    mean_abs: float
    rmse: float


def build_goal_signals(intrinsic: Sequence[SelectionVector]) -> list[GoalSignal]:
    """One goal signal per sharing level from unrewarded selections.

    Signal o holds, per scenario, the fraction of participants whose
    unrewarded choice was level o; the z signals sum to 1 per scenario.
    """
    if not intrinsic:
        raise InvalidInputError("need at least one participant")
    z = intrinsic[0].z
    m = intrinsic[0].m
    for sv in intrinsic:
        if sv.z != z or sv.m != m:
            raise InvalidInputError("selection vectors disagree in shape")
    stacked = np.stack([sv.selections for sv in intrinsic])
    n = stacked.shape[0]
    return [
        GoalSignal(level=o, values=np.count_nonzero(stacked == o, axis=0) / n)
        for o in range(1, z + 1)
    ]


def standardize(values: np.ndarray | Sequence[float]) -> np.ndarray:
    """Zero-mean, unit population-variance transform along the last axis.

    A constant input has no scale to recover; it maps to all zeros rather
    than failing, since a unanimous aggregate is a legitimate outcome.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim < 1 or x.shape[-1] < 2:
        raise InvalidInputError("standardize needs vectors of length >= 2")
    centered = x - x.mean(axis=-1, keepdims=True)
    sd = np.sqrt(np.mean(centered**2, axis=-1, keepdims=True))
    return np.divide(centered, sd, out=np.zeros_like(centered), where=sd != 0.0)


def mismatch(aggregate: np.ndarray | Sequence[float], goal: GoalSignal | np.ndarray) -> MismatchReport:
    """Absolute error between standardized aggregate and standardized goal."""
    goal_values = goal.values if isinstance(goal, GoalSignal) else np.asarray(goal, dtype=float)
    agg = np.asarray(aggregate, dtype=float)
    if agg.shape != goal_values.shape:
        raise InvalidInputError("aggregate and goal lengths differ")
    errors = np.abs(standardize(agg) - standardize(goal_values))
    return MismatchReport(
        per_scenario=errors,
        mean_abs=float(errors.mean()),
        rmse=float(np.sqrt(np.mean(errors**2))),
    )


def write_goal_signal(path: str | Path, signal: GoalSignal) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario_id", "value"])
        for j, v in enumerate(signal.values, start=1):
            writer.writerow([j, format(v, ".12g")])


def read_goal_signal(
    path: str | Path, level: int, expected_length: int | None = None
) -> GoalSignal:
    values = []
    with open_text(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["scenario_id", "value"]:
            raise InvalidInputError(f"{path}: expected header scenario_id,value")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise InvalidInputError(f"{path}:{lineno}: wrong column count")
            try:
                scenario_id, value = int(row[0]), float(row[1])
            except ValueError:
                raise InvalidInputError(f"{path}:{lineno}: not a number in {row}") from None
            if scenario_id != len(values) + 1:
                raise InvalidInputError(f"{path}:{lineno}: scenario ids must be 1..m in order")
            if not 0 <= value <= 1:  # NaN fails too
                raise InvalidInputError(f"{path}:{lineno}: {GOAL_OUT_OF_RANGE}")
            values.append(value)
    if expected_length is not None and len(values) != expected_length:
        raise InvalidInputError(
            f"{path}: expected {expected_length} scenarios, found {len(values)}"
        )
    if not values:
        raise InvalidInputError(f"{path}: {GOAL_NOT_A_VECTOR}")
    return GoalSignal(level=level, values=np.array(values))
