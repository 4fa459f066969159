"""Condition-level evaluation: privacy, reinforcement, costs and recovery.

A condition snapshot freezes every participant's sharing levels under one
condition (the coordinated condition holds one selection matrix per
repetition). From it: per-scenario and per-element mean privacy, the privacy
expected from an element's constituents (whose relative difference to the
actual value is the privacy reinforcement), total data-collection cost in
CHF, and the share of rewarded privacy loss regained by coordination.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from . import sharing
from .coordination import CoordinationRun, PlanPortfolio
from .errors import InvalidInputError
from .goals import GoalSignal, mismatch
from .population import INTRINSIC
from .sharing import RewardModel, ScenarioCatalog, SelectionVector, WeightProfile

RECOVERY_EPS = 1e-9


@dataclass(frozen=True)
class ConditionSnapshot:
    """Sharing levels for one condition.

    ``selections`` has shape (repetitions, participants, m); plain conditions
    use a single repetition. ``plan_labels`` (repetitions, participants)
    records which portfolio plan each coordinated choice came from.
    """

    label: str
    participant_ids: tuple[str, ...]
    selections: np.ndarray
    z: int = 5
    plan_labels: np.ndarray | None = None

    def __post_init__(self):
        sel = np.asarray(self.selections, dtype=np.intp)
        if sel.ndim == 2:
            sel = sel[None, :, :]
        object.__setattr__(self, "selections", sel)
        if sel.ndim != 3 or sel.shape[1] == 0:
            raise InvalidInputError("selections must be (repetitions, participants, m)")
        if sel.shape[1] != len(self.participant_ids):
            raise InvalidInputError("participant ids do not match selections")
        if np.any(sel < 1) or np.any(sel > self.z):
            raise InvalidInputError(f"levels must lie in 1..{self.z}")

    @property
    def m(self) -> int:
        return int(self.selections.shape[2])

    @classmethod
    def from_selections(
        cls,
        label: str,
        selections: Mapping[str, SelectionVector] | Sequence[tuple[str, SelectionVector]],
    ) -> "ConditionSnapshot":
        items = list(selections.items()) if isinstance(selections, Mapping) else list(selections)
        if not items:
            raise InvalidInputError("snapshot needs at least one participant")
        z = items[0][1].z
        return cls(
            label=label,
            participant_ids=tuple(pid for pid, _ in items),
            selections=np.stack([sv.selections for _, sv in items])[None, :, :],
            z=z,
        )

    @classmethod
    def from_choices(
        cls,
        label: str,
        portfolios: Sequence[PlanPortfolio],
        choices: Sequence[Sequence[int]],
        z: int = 5,
    ) -> "ConditionSnapshot":
        """Snapshot of coordinated selections, one layer per repetition;
        ``choices[r][a]`` is the plan agent ``a`` chose in repetition ``r``.

        Plan values are mapped back to levels via s = z - v * (z - 1); plans
        built from selection levels land exactly on that grid.
        """
        if not choices:
            raise InvalidInputError("need at least one coordination run")
        n = len(portfolios)
        counts = np.array([len(p.costs) for p in portfolios])
        # A repetition of the wrong length, or with a choice too large for
        # an index, keeps the choices -1, which never fit.
        chosen = np.full((len(choices), n), -1, dtype=np.intp)
        for r, row in enumerate(choices):
            if len(row) == n:
                try:
                    chosen[r] = row
                except OverflowError:
                    pass
        misfit = ((chosen < 0) | (chosen >= counts)).any(axis=1)
        if misfit.any():
            raise InvalidInputError(
                f"repetition {int(np.argmax(misfit))}: plan choices do not fit the {n} portfolios"
            )
        # Every repetition's chosen plans, as rows of all plans stacked.
        rows = np.cumsum(counts) - counts + chosen
        values = np.concatenate([p.values for p in portfolios])[rows]
        sel = np.clip(np.rint(z - values * (z - 1)).astype(np.intp), 1, z)
        labels = np.array([label for p in portfolios for label in p.labels], dtype=object)[rows]
        return cls(
            label=label,
            participant_ids=tuple(p.agent_id for p in portfolios),
            selections=sel,
            z=z,
            plan_labels=labels,
        )

    @classmethod
    def from_runs(
        cls,
        label: str,
        runs: Sequence[CoordinationRun],
        portfolios: Sequence[PlanPortfolio],
        z: int = 5,
    ) -> "ConditionSnapshot":
        choices = [run.final_selections() for run in runs]
        return cls.from_choices(label, portfolios, choices, z)

    def normalized_privacy(self) -> np.ndarray:
        """(repetitions, participants, m) privacy fractions."""
        return (self.selections - 1) / (self.z - 1)

    def mean_privacy(self) -> float:
        return float(self.normalized_privacy().mean())

    def aggregate_sharing(self) -> np.ndarray:
        """Element-wise sum over participants of normalized shared-data
        levels, averaged over repetitions; the signal compared to goals."""
        shared = (self.z - self.selections) / (self.z - 1)
        return shared.sum(axis=1).mean(axis=0)


def scenario_privacy(snapshot: ConditionSnapshot) -> np.ndarray:
    """Mean normalized privacy per scenario across participants (and runs)."""
    return snapshot.normalized_privacy().mean(axis=(0, 1))


def element_privacy(
    snapshot: ConditionSnapshot, catalog: ScenarioCatalog, criterion: int, element: int
) -> float:
    """Mean scenario privacy over the m/q scenarios containing the element."""
    mask = catalog.element_mask(criterion, element)
    return float(scenario_privacy(snapshot)[mask].mean())


def expected_scenario_privacy(
    snapshot: ConditionSnapshot, catalog: ScenarioCatalog
) -> np.ndarray:
    """Expected privacy per scenario: mean of its elements' mean privacies."""
    _check_catalog(snapshot, catalog)
    per_element = {
        (u, o): element_privacy(snapshot, catalog, u, o)
        for u in range(1, catalog.k + 1)
        for o in range(1, catalog.criteria[u - 1].size + 1)
    }
    return np.array(
        [
            np.mean(
                [per_element[(u + 1, o)] for u, o in enumerate(s.element_indices)]
            )
            for s in catalog.scenarios
        ]
    )


@dataclass(frozen=True)
class ReinforcementReport:
    """Actual vs. expected privacy per element and their relative difference.

    Reinforcement is (actual - expected) / expected; entries with an expected
    value of zero are flagged undefined rather than divided.
    """

    element_labels: tuple[str, ...]
    actual: np.ndarray
    expected: np.ndarray
    reinforcement: np.ndarray
    undefined: np.ndarray


def reinforcement_report(
    snapshot: ConditionSnapshot, catalog: ScenarioCatalog
) -> ReinforcementReport:
    _check_catalog(snapshot, catalog)
    expected_per_scenario = expected_scenario_privacy(snapshot, catalog)
    actual_per_scenario = scenario_privacy(snapshot)
    labels, actual, expected = [], [], []
    for u in range(1, catalog.k + 1):
        for o in range(1, catalog.criteria[u - 1].size + 1):
            mask = catalog.element_mask(u, o)
            labels.append(catalog.criteria[u - 1].elements[o - 1])
            actual.append(float(actual_per_scenario[mask].mean()))
            expected.append(float(expected_per_scenario[mask].mean()))
    actual_arr = np.array(actual)
    expected_arr = np.array(expected)
    undefined = expected_arr == 0.0
    reinforcement = np.zeros_like(actual_arr)
    defined = ~undefined
    reinforcement[defined] = (actual_arr[defined] - expected_arr[defined]) / expected_arr[defined]
    reinforcement[undefined] = np.nan
    return ReinforcementReport(
        element_labels=tuple(labels),
        actual=actual_arr,
        expected=expected_arr,
        reinforcement=reinforcement,
        undefined=undefined,
    )


@dataclass(frozen=True)
class CostReport:
    """Data-collection cost in CHF; one entry per repetition."""

    label: str
    per_repetition: np.ndarray
    total: float
    sigma: float


def collection_cost(
    snapshot: ConditionSnapshot,
    profiles: Mapping[str, WeightProfile],
    reward_model: RewardModel,
    catalog: ScenarioCatalog,
    include_intrinsic_value: bool = True,
    label: str | None = None,
) -> CostReport:
    """Total rewards paid out for the snapshot's selections.

    Coordinated selections priced per repetition; with
    ``include_intrinsic_value`` off, choices of the unrewarded plan cost
    nothing (that data was volunteered).
    """
    (rmax,) = reward_tables([snapshot], profiles, reward_model, catalog)
    return cost_report(snapshot, rmax, reward_model, include_intrinsic_value, label)


def reward_tables(
    snapshots: Sequence[ConditionSnapshot],
    profiles: Mapping[str, WeightProfile],
    reward_model: RewardModel,
    catalog: ScenarioCatalog,
) -> Iterator[np.ndarray]:
    """Each snapshot's (participants, m) rmax table in turn, checked as
    ``collection_cost`` checks it when it is taken. Only the participants no
    earlier snapshot covers go into a ``reward_table`` call; the others take
    their earlier rows, which equal their own tables bit for bit (see
    ``sharing.reward_table``)."""
    rows: dict[str, np.ndarray] = {}
    for snapshot in snapshots:
        if snapshot.z != reward_model.z:
            raise InvalidInputError("snapshot and reward model disagree on levels")
        yield _reward_table(snapshot, profiles, reward_model, catalog, rows)


def cost_report(
    snapshot: ConditionSnapshot,
    rmax: np.ndarray,
    reward_model: RewardModel,
    include_intrinsic_value: bool = True,
    label: str | None = None,
) -> CostReport:
    """``collection_cost`` of a snapshot whose rmax table is given (one row
    per participant, as ``reward_tables`` gives it)."""
    reps = snapshot.selections.shape[0]
    totals = np.zeros(reps)
    for r in range(reps):
        rewards = reward_model.option_rewards(rmax, snapshot.selections[r])
        per_participant = rewards.sum(axis=1)
        if not include_intrinsic_value and snapshot.plan_labels is not None:
            free = np.array(
                [label == INTRINSIC for label in snapshot.plan_labels[r]]
            )
            per_participant = np.where(free, 0.0, per_participant)
        totals[r] = per_participant.sum()
    return CostReport(
        label=label or snapshot.label,
        per_repetition=totals,
        total=float(totals.mean()),
        sigma=float(totals.std()),
    )


def participant_rewards(
    snapshot: ConditionSnapshot,
    profiles: Mapping[str, WeightProfile],
    reward_model: RewardModel,
    catalog: ScenarioCatalog,
) -> np.ndarray:
    """Gained rewards per participant, averaged over repetitions."""
    rmax = _reward_table(snapshot, profiles, reward_model, catalog)
    rewards = reward_model.option_rewards(rmax[None, :, :], snapshot.selections)
    return rewards.sum(axis=2).mean(axis=0)


def valuation_report(
    snapshot: ConditionSnapshot,
    intrinsic: ConditionSnapshot,
    profiles: Mapping[str, WeightProfile],
    reward_model: RewardModel,
    catalog: ScenarioCatalog,
) -> dict[str, np.ndarray]:
    """Per-participant privacy cost under each of the four valuation schemes.

    Relative schemes take the participant's hypothetical unrewarded rewards
    as the baseline; the sacrifice reference is the reward model's pool.
    """
    if set(snapshot.participant_ids) != set(intrinsic.participant_ids):
        raise InvalidInputError("snapshots cover different participants")
    gained = participant_rewards(snapshot, profiles, reward_model, catalog)
    baseline_by_id = dict(
        zip(
            intrinsic.participant_ids,
            participant_rewards(intrinsic, profiles, reward_model, catalog),
        )
    )
    baseline = np.array([baseline_by_id[pid] for pid in snapshot.participant_ids])
    pool = reward_model.pool
    out: dict[str, np.ndarray] = {}
    for kind in sharing.VALUATION_KINDS:
        costs = [
            sharing.privacy_cost(
                r, sharing.ValuationScheme(kind, intrinsic_rewards=float(b)), pool
            )
            for r, b in zip(gained, baseline)
        ]
        out[kind] = np.array(costs)
    return out


@dataclass(frozen=True)
class RecoveryReport:
    """Share of the rewarded privacy loss regained by coordination."""

    percent: float
    undefined: bool
    intrinsic_mean: float
    rewarded_mean: float
    coordinated_mean: float


def privacy_recovery(
    rewarded: ConditionSnapshot,
    coordinated: ConditionSnapshot,
    intrinsic: ConditionSnapshot,
) -> RecoveryReport:
    """(coordinated - rewarded) / (intrinsic - rewarded) of mean privacy, in
    percent; 0 at the rewarded anchor, 100 at the intrinsic anchor."""
    ids = set(rewarded.participant_ids)
    if set(coordinated.participant_ids) != ids or set(intrinsic.participant_ids) != ids:
        raise InvalidInputError("snapshots cover different participants")
    p_rew = rewarded.mean_privacy()
    p_coord = coordinated.mean_privacy()
    p_intr = intrinsic.mean_privacy()
    denominator = p_intr - p_rew
    if abs(denominator) < RECOVERY_EPS:
        return RecoveryReport(float("nan"), True, p_intr, p_rew, p_coord)
    return RecoveryReport(
        percent=float((p_coord - p_rew) / denominator * 100.0),
        undefined=False,
        intrinsic_mean=p_intr,
        rewarded_mean=p_rew,
        coordinated_mean=p_coord,
    )


def _check_catalog(snapshot: ConditionSnapshot, catalog: ScenarioCatalog) -> None:
    if snapshot.m != catalog.m:
        raise InvalidInputError("snapshot scenario count does not match catalog")


def _reward_table(
    snapshot: ConditionSnapshot,
    profiles: Mapping[str, WeightProfile],
    reward_model: RewardModel,
    catalog: ScenarioCatalog,
    rows: dict[str, np.ndarray] | None = None,
) -> np.ndarray:
    """The (participants, m) rmax table in the snapshot's participant order.
    Participants with a row in ``rows`` take it; the others' rows come from
    one ``reward_table`` call and are added to ``rows``."""
    _check_catalog(snapshot, catalog)
    rows = {} if rows is None else rows
    new = [pid for pid in dict.fromkeys(snapshot.participant_ids) if pid not in rows]
    missing = [pid for pid in new if pid not in profiles]
    if missing:
        raise InvalidInputError(f"no weight profile for participant '{missing[0]}'")
    if new:
        rows.update(zip(new, reward_model.reward_table([profiles[pid] for pid in new], catalog)))
    return np.array([rows[pid] for pid in snapshot.participant_ids])


# ---------------------------------------------------------------------------
# Plot-ready CSV writers, one file per figure style.

def write_scenario_privacy_csv(
    path: str | Path, snapshots: Sequence[ConditionSnapshot]
) -> None:
    """Per-scenario privacy per condition (privacy-by-scenario figure)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario_id"] + [s.label for s in snapshots])
        columns = [scenario_privacy(s) for s in snapshots]
        for j in range(snapshots[0].m):
            writer.writerow(
                [j + 1] + [format(col[j], ".12g") for col in columns]
            )


def write_mismatch_csv(
    path: str | Path,
    snapshots: Sequence[ConditionSnapshot],
    goals: Sequence[GoalSignal],
) -> None:
    """Per-scenario mismatch per condition and goal (mismatch figure)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["goal_level", "condition", "scenario_id", "abs_error"])
        for goal in goals:
            for snapshot in snapshots:
                report = mismatch(snapshot.aggregate_sharing(), goal)
                for j, err in enumerate(report.per_scenario, start=1):
                    writer.writerow(
                        [goal.level, snapshot.label, j, format(err, ".12g")]
                    )


def write_cost_csv(path: str | Path, reports: Sequence[CostReport]) -> None:
    """Cost per condition with the per-repetition scatter (cost figure)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["condition", "repetition", "cost_chf", "mean_chf", "sigma_chf"])
        for report in reports:
            for r, value in enumerate(report.per_repetition):
                writer.writerow(
                    [
                        report.label,
                        r,
                        format(value, ".12g"),
                        format(report.total, ".12g"),
                        format(report.sigma, ".12g"),
                    ]
                )
