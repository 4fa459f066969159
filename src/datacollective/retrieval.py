"""On-demand scenario retrieval for the privacy-reward dilemma loop.

A participant holds a balance of accumulated rewards and a privacy level over
locked-in choices. Given a goal (improve privacy or improve rewards), the
engine scores every scenario by the best achievable improvement of the goal
metric and retrieves the argmax; options that strictly improve the goal form
the improvement box. Applying a choice overwrites the previous selection for
that scenario and recomputes the balance.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .errors import InvalidInputError, open_text
from .sharing import RewardModel, SelectionVector, privacy_score
from .textformat import csv_field, float_table

IMPROVE_PRIVACY = "improve_privacy"
IMPROVE_REWARDS = "improve_rewards"
GOALS = (IMPROVE_PRIVACY, IMPROVE_REWARDS)


@dataclass(frozen=True)
class BalanceState:
    """Current selections plus the derived privacy-reward balance."""

    selection: SelectionVector
    rmax: np.ndarray
    reward_model: RewardModel
    accumulated_rewards: float
    privacy: float

    @classmethod
    def from_selection(
        cls,
        selection: SelectionVector,
        rmax: np.ndarray,
        reward_model: RewardModel,
    ) -> "BalanceState":
        rmax = np.asarray(rmax, dtype=float)
        if rmax.shape != selection.selections.shape:
            raise InvalidInputError("rmax length does not match selection length")
        return cls(
            selection=selection,
            rmax=rmax,
            reward_model=reward_model,
            accumulated_rewards=reward_model.total_rewards(rmax, selection),
            privacy=privacy_score(selection),
        )


def improvement(state: BalanceState, scenario_id: int, goal: str) -> np.ndarray:
    """Signed change of the goal metric per option, 0 at the current option."""
    _check_goal(goal)
    sel = state.selection
    if not 1 <= scenario_id <= sel.m:
        raise InvalidInputError(f"scenario id {scenario_id} out of range")
    z = sel.z
    current = int(sel.selections[scenario_id - 1])
    options = np.arange(1, z + 1)
    if goal == IMPROVE_PRIVACY:
        return (options - current) / ((z - 1) * sel.m)
    rmax_j = state.rmax[scenario_id - 1]
    rewards = state.reward_model.option_rewards(rmax_j, options)
    return rewards - state.reward_model.option_rewards(rmax_j, current)


def improvement_box(state: BalanceState, scenario_id: int, goal: str) -> set[int]:
    """Options whose goal delta is strictly positive."""
    deltas = improvement(state, scenario_id, goal)
    return {o + 1 for o in np.flatnonzero(deltas > 0)}


def retrieve_next(state: BalanceState, goal: str) -> int | None:
    """Scenario whose best option maximally improves the goal.

    Ties break toward the lowest scenario id. Returns None when no scenario
    has a strictly positive best improvement (saturation), which is a normal
    outcome rather than an error.
    """
    _check_goal(goal)
    best = _best_deltas(state, goal)
    j = int(np.argmax(best))
    if best[j] <= 0:
        return None
    return j + 1


def apply_choice(state: BalanceState, scenario_id: int, option: int) -> BalanceState:
    """Overwrite the choice for one scenario and recompute the balance."""
    if not 1 <= option <= state.selection.z:
        raise InvalidInputError(f"option {option} outside 1..{state.selection.z}")
    return BalanceState.from_selection(
        state.selection.replace(scenario_id, option),
        state.rmax,
        state.reward_model,
    )


def _best_deltas(state: BalanceState, goal: str) -> np.ndarray:
    """Best-option goal delta per scenario, vectorized over all scenarios."""
    sel = state.selection
    z = sel.z
    current = sel.selections
    if goal == IMPROVE_PRIVACY:
        # Privacy deltas are linear in the option, so the best move is to z.
        return (z - current) / ((z - 1) * sel.m)
    options = np.arange(1, z + 1)
    rewards = state.reward_model.option_rewards(
        state.rmax[:, None], options[None, :]
    )
    current_rewards = rewards[np.arange(sel.m), current - 1]
    return rewards.max(axis=1) - current_rewards


def _check_goal(goal: str) -> None:
    if goal not in GOALS:
        raise InvalidInputError(f"unknown goal '{goal}'")


class Event(NamedTuple):
    """One row of the replayable event log."""

    participant_id: str
    step: int
    goal: str
    scenario_id: int
    option: int
    rewards_after: float
    privacy_after: float


EVENT_LOG_HEADER = [
    "participant_id",
    "step",
    "goal",
    "scenario_id",
    "option",
    "rewards_after",
    "privacy_after",
]

# Goal names by the codes an ``EventLog`` stores.
EVENT_GOALS = ("first_pass", IMPROVE_REWARDS, IMPROVE_PRIVACY)


@dataclass(frozen=True)
class EventLog:
    """The dilemma loop's event log, kept as the columns the loop fills.

    Each column is an (n, length) array with one row per participant; the
    first ``taken[i]`` entries of row i are participant i's steps 1..taken[i].
    ``goal`` holds codes into ``EVENT_GOALS``. Iterating yields the rows as
    ``Event`` objects, participant-major then by step.
    """

    participant_ids: tuple[str, ...]
    taken: np.ndarray
    goal: np.ndarray
    scenario_id: np.ndarray
    option: np.ndarray
    rewards_after: np.ndarray
    privacy_after: np.ndarray

    def __len__(self) -> int:
        return int(self.taken.sum())

    def __iter__(self) -> Iterator[Event]:
        for i, participant_id in enumerate(self.participant_ids):
            k = int(self.taken[i])
            for row in zip(
                range(1, k + 1),
                map(EVENT_GOALS.__getitem__, self.goal[i, :k].tolist()),
                self.scenario_id[i, :k].tolist(),
                self.option[i, :k].tolist(),
                self.rewards_after[i, :k].tolist(),
                self.privacy_after[i, :k].tolist(),
            ):
                yield Event(participant_id, *row)


def write_event_log(path: str | Path, events: EventLog) -> None:
    """Write the log as UTF-8 CSV, byte for byte what ``csv.writer`` writes:
    CRLF line ends, floats at 12 significant digits and ids quoted only when
    they need it. Each participant's rows are built with one join from
    lookup tables: step numbers and the ``,goal,scenario,option,`` middles
    are formatted once per file, the id once, and each distinct float once
    per participant. Participants are streamed one at a time, so the file
    is never held in memory as one string."""
    width = events.goal.shape[1]
    scenarios = int(events.scenario_id.max(initial=0)) + 1
    options = int(events.option.max(initial=0)) + 1
    steps = np.array([str(s) for s in range(1, width + 1)], dtype=object)
    middles = np.array([
        f",{goal},{j},{o},"
        for goal in EVENT_GOALS for j in range(scenarios) for o in range(options)
    ], dtype=object)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(EVENT_LOG_HEADER) + "\r\n")
        for i, participant_id in enumerate(events.participant_ids):
            k = int(events.taken[i])
            code = (events.goal[i, :k] * scenarios + events.scenario_id[i, :k]) * options
            floats, inverse = float_table(
                np.concatenate((events.rewards_after[i, :k], events.privacy_after[i, :k]))
            )
            cells = np.empty((k, 7), dtype=object)
            cells[:, 0] = csv_field(participant_id) + ","
            cells[:, 1] = steps[:k]
            cells[:, 2] = middles[code + events.option[i, :k]]
            cells[:, 3] = floats[inverse[:k]]
            cells[:, 4] = ","
            cells[:, 5] = floats[inverse[k:]]
            cells[:, 6] = "\r\n"
            fh.write("".join(cells.ravel().tolist()))


def read_event_log(path: str | Path) -> list[Event]:
    """The rows of an event log file. A file that cannot be read, or a row
    that is short or holds a non-number, raises an ``InvalidInputError``
    naming the file and line."""
    events = []
    with open_text(path) as fh:
        reader = csv.reader(fh)
        try:
            if next(reader, None) != EVENT_LOG_HEADER:
                raise InvalidInputError(f"{path}: unexpected event log header")
            for row in filter(None, reader):
                if len(row) < len(EVENT_LOG_HEADER):
                    raise InvalidInputError(
                        f"{path}:{reader.line_num}: {len(row)} fields, "
                        f"expected {len(EVENT_LOG_HEADER)}"
                    )
                events.append(Event(
                    row[0], int(row[1]), row[2], int(row[3]), int(row[4]),
                    float(row[5]), float(row[6]),
                ))
        except (InvalidInputError, UnicodeDecodeError):
            raise
        except (ValueError, csv.Error) as exc:
            raise InvalidInputError(f"{path}:{reader.line_num}: {exc}") from None
    return events
