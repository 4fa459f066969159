"""Factorial data-sharing scenarios, personalized weights, rewards and privacy.

A catalog enumerates every combination of criterion elements (e.g. which
sensor, shared with which collector, under which context) as a scenario.
Participants hold normalized privacy-sensitivity weights over criteria and
elements, which drive a personalized allocation of a monetary budget across
scenarios. Choosing a data-sharing level for a scenario trades rewards
against privacy; four valuation schemes translate gained rewards into a
privacy cost.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, product
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateProfileError,
    InvalidInputError,
    MissingParameterError,
    open_text,
    read_text,
)

WEIGHT_TOL = 1e-9

# Default experiment constants: 3 criteria x 4 elements, 5 sharing levels,
# 17.5 CHF per condition split into 2.5 participation + 15 sharing.
DEFAULT_LEVELS = 5
DEFAULT_TOTAL_BUDGET = 17.5
DEFAULT_PARTICIPATION_BUDGET = 2.5
DEFAULT_SHARING_BUDGET = 15.0

LIKERT_SCORES = {
    "very low": 1,
    "low": 2,
    "medium": 3,
    "high": 4,
    "very high": 5,
}


@dataclass(frozen=True)
class Criterion:
    """One dimension of the factorial design and its ordered elements."""

    name: str
    elements: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if len(self.elements) < 1:
            raise InvalidInputError(f"criterion '{self.name}' has no elements")
        if len(set(self.elements)) != len(self.elements):
            raise InvalidInputError(
                f"criterion '{self.name}' has duplicate element names"
            )

    @property
    def size(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class Scenario:
    """One combination of elements, identified by 1-based indices."""

    id: int
    element_indices: tuple[int, ...]


@dataclass(frozen=True)
class ScenarioCatalog:
    """The full factorial scenario space in deterministic enumeration order."""

    criteria: tuple[Criterion, ...]
    scenarios: tuple[Scenario, ...]

    @property
    def k(self) -> int:
        return len(self.criteria)

    @property
    def m(self) -> int:
        return len(self.scenarios)

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        return tuple(c.size for c in self.criteria)

    def index_matrix(self) -> np.ndarray:
        """0-based (m, k) matrix of element indices, row j for scenario j+1
        (built once per catalog, read-only)."""
        return self._index_matrix

    @cached_property
    def _index_matrix(self) -> np.ndarray:
        idx = np.array(
            [[o - 1 for o in s.element_indices] for s in self.scenarios],
            dtype=np.intp,
        )
        idx.setflags(write=False)
        return idx

    def element_mask(self, criterion: int, element: int) -> np.ndarray:
        """Boolean mask over scenarios containing element ``element`` of
        criterion ``criterion`` (both 1-based, matching scenario fields)."""
        if not 1 <= criterion <= self.k:
            raise InvalidInputError(f"criterion index {criterion} out of range")
        if not 1 <= element <= self.criteria[criterion - 1].size:
            raise InvalidInputError(f"element index {element} out of range")
        return self.index_matrix()[:, criterion - 1] == element - 1

    def scenario_labels(self) -> list[str]:
        """Human-readable label per scenario, e.g. ``gps/cor/soc``."""
        return [
            "/".join(
                self.criteria[u].elements[o - 1]
                for u, o in enumerate(s.element_indices)
            )
            for s in self.scenarios
        ]


def enumerate_scenarios(criteria: Sequence[Criterion]) -> ScenarioCatalog:
    """Enumerate the cartesian product of criterion elements.

    Order is lexicographic in the 1-based element indices with the first
    criterion outermost, so ids are stable across runs and implementations.
    """
    criteria = tuple(criteria)
    if not criteria:
        raise InvalidInputError("criterion list is empty")
    ranges = [range(1, c.size + 1) for c in criteria]
    scenarios = tuple(
        Scenario(id=j + 1, element_indices=combo)
        for j, combo in enumerate(product(*ranges))
    )
    return ScenarioCatalog(criteria=criteria, scenarios=scenarios)


def default_catalog() -> ScenarioCatalog:
    """The 4x4x4 smartphone-sensor catalog used throughout the experiments."""
    return enumerate_scenarios(
        [
            Criterion("sensor", ("acc", "lig", "noi", "gps")),
            Criterion("collector", ("cor", "ngo", "gov", "edu")),
            Criterion("context", ("soc", "env", "tra", "hea")),
        ]
    )


@dataclass(frozen=True)
class WeightProfile:
    """Per-participant privacy-sensitivity weights.

    ``criterion_weights`` sums to 1 across criteria; each row of
    ``element_weights`` sums to 1 within its criterion.
    """

    participant_id: str
    criterion_weights: np.ndarray
    element_weights: tuple[np.ndarray, ...]

    def __post_init__(self):
        cw = np.asarray(self.criterion_weights, dtype=float)
        ews = tuple(np.asarray(e, dtype=float) for e in self.element_weights)
        object.__setattr__(self, "criterion_weights", cw)
        object.__setattr__(self, "element_weights", ews)
        if cw.ndim != 1 or len(ews) != cw.shape[0]:
            raise InvalidInputError("criterion/element weight shapes disagree")
        weights = np.concatenate((cw, *ews), axis=None)
        # NaN fails no range or sum comparison below, so reject it here
        if not np.isfinite(weights).all():
            raise InvalidInputError("criterion and element weights must be finite")
        if cw.size and (cw.min() < -WEIGHT_TOL or cw.max() > 1 + WEIGHT_TOL):
            raise InvalidInputError("criterion weights must lie in [0, 1]")
        if abs(cw.sum() - 1.0) > WEIGHT_TOL:
            raise InvalidInputError("criterion weights must sum to 1")
        elements = weights[cw.size:]
        sums = [ew.sum() for ew in ews]
        if (
            elements.size and (elements.min() < -WEIGHT_TOL or elements.max() > 1 + WEIGHT_TOL)
            or any(abs(total - 1.0) > WEIGHT_TOL for total in sums)
        ):
            # name the first criterion whose elements break a rule, range first
            for u, (ew, total) in enumerate(zip(ews, sums), start=1):
                if np.any(ew < -WEIGHT_TOL) or np.any(ew > 1 + WEIGHT_TOL):
                    raise InvalidInputError(f"element weights of criterion {u} out of [0, 1]")
                if abs(total - 1.0) > WEIGHT_TOL:
                    raise InvalidInputError(f"element weights of criterion {u} must sum to 1")

    @classmethod
    def uniform(cls, catalog: ScenarioCatalog, participant_id: str = "uniform") -> "WeightProfile":
        k = catalog.k
        return cls(
            participant_id=participant_id,
            criterion_weights=np.full(k, 1.0 / k),
            element_weights=tuple(np.full(q, 1.0 / q) for q in catalog.sizes),
        )

    @classmethod
    def from_likert(
        cls,
        participant_id: str,
        criterion_answers: Sequence[int | str],
        element_answers: Sequence[Sequence[int | str]],
    ) -> "WeightProfile":
        """Map 5-point intrusion answers to normalized weights.

        Answers may be raw scores 1..5 or the labels 'very low'..'very high'.
        Scores are normalized to sum 1 across criteria and within each
        criterion's elements.
        """
        crit = np.array([_likert_score(a) for a in criterion_answers], dtype=float)
        elems = tuple(
            np.array([_likert_score(a) for a in answers], dtype=float)
            for answers in element_answers
        )
        return cls(
            participant_id=participant_id,
            criterion_weights=crit / crit.sum(),
            element_weights=tuple(e / e.sum() for e in elems),
        )

    def matches(self, catalog: ScenarioCatalog) -> bool:
        return (
            self.criterion_weights.shape[0] == catalog.k
            and tuple(e.shape[0] for e in self.element_weights) == catalog.sizes
        )


def _likert_score(answer: int | str) -> int:
    if isinstance(answer, str):
        key = answer.strip().lower()
        if key not in LIKERT_SCORES:
            raise InvalidInputError(f"unknown intrusion answer '{answer}'")
        return LIKERT_SCORES[key]
    score = int(answer)
    if not 1 <= score <= 5:
        raise InvalidInputError(f"intrusion score {score} outside 1..5")
    return score


@dataclass(frozen=True)
class Budget:
    """Monetary budget split into participation and sharing rewards."""

    total: float = DEFAULT_TOTAL_BUDGET
    participation: float = DEFAULT_PARTICIPATION_BUDGET
    sharing: float = DEFAULT_SHARING_BUDGET

    def __post_init__(self):
        if self.total < 0 or self.participation < 0 or self.sharing < 0:
            raise InvalidInputError("budget amounts must be non-negative")
        if abs(self.total - (self.participation + self.sharing)) > WEIGHT_TOL:
            raise InvalidInputError("total budget must equal participation + sharing")


DEFAULT_BUDGET = Budget()


@dataclass(frozen=True)
class SelectionVector:
    """Locked-in sharing levels, one per scenario; 1 shares all, z shares none."""

    selections: np.ndarray
    z: int = DEFAULT_LEVELS

    def __post_init__(self):
        sel = np.asarray(self.selections, dtype=np.intp)
        object.__setattr__(self, "selections", sel)
        _check_selections(sel, self.z, ndim=1)

    @classmethod
    def rows(cls, block: np.ndarray, z: int = DEFAULT_LEVELS) -> tuple["SelectionVector", ...]:
        """``SelectionVector(row, z)`` of each row of an (n, m) block, with
        the constructor's rules checked once on the whole block; the vectors
        hold read-only views of the block's rows."""
        block = np.asarray(block, dtype=np.intp)
        if block.ndim == 2 and not len(block):
            return ()
        _check_selections(block, z, ndim=2)
        block = block.view()
        block.flags.writeable = False
        vectors = []
        for row in block:
            vector = cls.__new__(cls)
            vector.__dict__.update(selections=row, z=z)
            vectors.append(vector)
        return tuple(vectors)

    @property
    def m(self) -> int:
        return int(self.selections.size)

    def replace(self, scenario_id: int, option: int) -> "SelectionVector":
        """Return a copy with scenario ``scenario_id`` (1-based) set to ``option``."""
        if not 1 <= scenario_id <= self.m:
            raise InvalidInputError(f"scenario id {scenario_id} out of range")
        sel = self.selections.copy()
        sel[scenario_id - 1] = option
        return SelectionVector(sel, self.z)


def _check_selections(sel: np.ndarray, z: int, ndim: int) -> None:
    """``SelectionVector``'s rules on one vector (``ndim`` 1) or on each row
    of a block (``ndim`` 2)."""
    if z < 2:
        raise InvalidInputError("need at least two data-sharing levels")
    if sel.ndim != ndim or sel.shape[-1] == 0:
        raise InvalidInputError("selections must be a non-empty vector")
    if np.any(sel < 1) or np.any(sel > z):
        raise InvalidInputError(f"selections must lie in 1..{z}")


def reward_table(
    profiles: Sequence[WeightProfile], catalog: ScenarioCatalog, pool: float
) -> np.ndarray:
    """Allocate a budget pool across scenarios for many profiles at once.

    Row i is profile i's rmax: each scenario's weight (the sum over criteria
    of the criterion weight times the weight of the scenario's element in
    it) over the profile's total weight, times ``pool``, so every row sums
    to ``pool`` up to floating-point tolerance. The table is a C-contiguous
    (n, m) array. A row equals the table of that profile alone bit for bit:
    the criteria are added in order, and the row sums run on the contiguous
    table (on a Fortran-ordered one they can differ in the last bit).
    """
    if pool < 0:
        raise InvalidInputError("budget pool must be non-negative")
    for profile in profiles:
        if not profile.matches(catalog):
            raise InvalidInputError(
                f"profile of participant '{profile.participant_id}' does not "
                "match the catalog dimensions"
            )
    n, idx = len(profiles), catalog.index_matrix()
    weights = np.zeros((n, catalog.m))
    for u, q in enumerate(catalog.sizes):
        criterion = np.array([p.criterion_weights[u] for p in profiles])
        elements = np.array([p.element_weights[u] for p in profiles]).reshape(n, q)
        weights += criterion[:, None] * elements[:, idx[:, u]]
    totals = weights.sum(axis=1)
    degenerate = np.flatnonzero(totals <= 0)
    if degenerate.size:
        raise DegenerateProfileError(
            f"participant '{profiles[degenerate[0]].participant_id}': "
            "total scenario weight is zero"
        )
    return weights / totals[:, None] * pool


def max_rewards(
    profile: WeightProfile, catalog: ScenarioCatalog, pool: float
) -> np.ndarray:
    """One profile's row of ``reward_table``: the pool split across
    scenarios in proportion to their weights."""
    return reward_table([profile], catalog, pool)[0]


def linear_rewards(rmax: float | np.ndarray, s: int | np.ndarray, z: int) -> float | np.ndarray:
    """Rewards decrease linearly with the sharing level: (z - s)/(z - 1) * rmax."""
    if z < 2:
        raise InvalidInputError("need at least two data-sharing levels")
    s_arr = np.asarray(s)
    if np.any(s_arr < 1) or np.any(s_arr > z):
        raise InvalidInputError(f"selection outside 1..{z}")
    out = (z - s_arr) / (z - 1) * np.asarray(rmax)
    return float(out) if out.ndim == 0 else out


def geometric_rewards(
    rmax: float | np.ndarray,
    s: int | np.ndarray,
    z: int,
    budget: Budget,
) -> float | np.ndarray:
    """Rewards follow a geometric progression in the sharing level.

    Equivalent to rmax * ((Bp/B)^(1/(z-1)))^(s-1); computed with a single
    rational exponent so the endpoints s=1 -> rmax and s=z -> rmax * Bp/B
    hold exactly in floating point.
    """
    if z < 2:
        raise InvalidInputError("need at least two data-sharing levels")
    if budget.total <= 0:
        raise InvalidInputError("total budget must be positive")
    s_arr = np.asarray(s)
    if np.any(s_arr < 1) or np.any(s_arr > z):
        raise InvalidInputError(f"selection outside 1..{z}")
    ratio = budget.participation / budget.total
    out = np.asarray(rmax) * ratio ** ((s_arr - 1) / (z - 1))
    return float(out) if out.ndim == 0 else out


def privacy_score(selection: SelectionVector) -> float:
    """Mean normalized privacy over all scenarios, 0 (share all) to 1 (share none)."""
    s = selection.selections
    return float(np.mean((s - 1) / (selection.z - 1)))


# Valuation scheme kinds for translating gained rewards into a privacy cost.
ABSOLUTE_SHARED_DATA = "absolute_shared_data"
ABSOLUTE_SACRIFICED_REWARDS = "absolute_sacrificed_rewards"
RELATIVE_SHARED_DATA = "relative_shared_data"
RELATIVE_SACRIFICED_REWARDS = "relative_sacrificed_rewards"

VALUATION_KINDS = (
    ABSOLUTE_SHARED_DATA,
    ABSOLUTE_SACRIFICED_REWARDS,
    RELATIVE_SHARED_DATA,
    RELATIVE_SACRIFICED_REWARDS,
)

_RELATIVE_KINDS = (RELATIVE_SHARED_DATA, RELATIVE_SACRIFICED_REWARDS)


@dataclass(frozen=True)
class ValuationScheme:
    """One of the four privacy valuations; relative kinds need the intrinsic
    baseline rewards (the hypothetical rewards of unrewarded sharing)."""

    kind: str = ABSOLUTE_SHARED_DATA
    intrinsic_rewards: float | None = None

    def __post_init__(self):
        if self.kind not in VALUATION_KINDS:
            raise InvalidInputError(f"unknown valuation kind '{self.kind}'")
        if self.kind in _RELATIVE_KINDS and self.intrinsic_rewards is None:
            raise MissingParameterError(
                f"valuation '{self.kind}' requires intrinsic_rewards"
            )


def privacy_cost(
    gained_rewards: float, scheme: ValuationScheme, sharing_budget: float
) -> float:
    """Privacy cost of a plan as a function of its gained rewards.

    absolute shared data:        r
    absolute sacrificed rewards: r - Bs
    relative shared data:        r - r_intrinsic
    relative sacrificed rewards: r - (Bs - r_intrinsic)
    """
    r = float(gained_rewards)
    if scheme.kind == ABSOLUTE_SHARED_DATA:
        return r
    if scheme.kind == ABSOLUTE_SACRIFICED_REWARDS:
        return r - sharing_budget
    if scheme.intrinsic_rewards is None:
        raise MissingParameterError(f"valuation '{scheme.kind}' requires intrinsic_rewards")
    if not -WEIGHT_TOL <= scheme.intrinsic_rewards <= sharing_budget + WEIGHT_TOL:
        raise InvalidInputError(
            "intrinsic baseline rewards must lie within [0, sharing budget]"
        )
    if scheme.kind == RELATIVE_SHARED_DATA:
        return r - scheme.intrinsic_rewards
    return r - (sharing_budget - scheme.intrinsic_rewards)


# Reward modes: which progression applies and which pool it draws from.
# The linear mode pays out of the sharing budget; the geometric mode spreads
# the full budget so the no-sharing floor totals the participation amount.
LINEAR = "linear"
GEOMETRIC = "geometric"
REWARD_MODES = (LINEAR, GEOMETRIC)


@dataclass(frozen=True)
class RewardModel:
    """Budget, progression mode and level count bundled as configuration."""

    budget: Budget = DEFAULT_BUDGET
    mode: str = LINEAR
    z: int = DEFAULT_LEVELS

    def __post_init__(self):
        if self.mode not in REWARD_MODES:
            raise InvalidInputError(f"unknown reward mode '{self.mode}'")
        if self.z < 2:
            raise InvalidInputError("need at least two data-sharing levels")

    @property
    def pool(self) -> float:
        return self.budget.sharing if self.mode == LINEAR else self.budget.total

    def reward_table(
        self, profiles: Sequence[WeightProfile], catalog: ScenarioCatalog
    ) -> np.ndarray:
        return reward_table(profiles, catalog, self.pool)

    def max_rewards(self, profile: WeightProfile, catalog: ScenarioCatalog) -> np.ndarray:
        return max_rewards(profile, catalog, self.pool)

    def option_rewards(self, rmax, s):
        if self.mode == LINEAR:
            return linear_rewards(rmax, s, self.z)
        return geometric_rewards(rmax, s, self.z, self.budget)

    def total_rewards(self, rmax: np.ndarray, selection: SelectionVector) -> float:
        if selection.z != self.z:
            raise InvalidInputError("selection level count does not match reward model")
        return float(np.sum(self.option_rewards(rmax, selection.selections)))


# ---------------------------------------------------------------------------
# File formats: catalog definition and weight-profile CSV.

def read_catalog(path: str | Path) -> ScenarioCatalog:
    """Parse a catalog definition file: one ``name = el1, el2, ...`` line per
    criterion, '#' comments allowed, criterion order = file order."""
    criteria = []
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidInputError(f"{path}:{lineno}: expected 'name = elements'")
        name, _, elements = line.partition("=")
        names = [e.strip() for e in elements.split(",") if e.strip()]
        try:
            criteria.append(Criterion(name.strip(), tuple(names)))
        except InvalidInputError as exc:
            raise InvalidInputError(f"{path}:{lineno}: {exc}") from None
    try:
        return enumerate_scenarios(criteria)
    except InvalidInputError as exc:  # no criterion
        raise InvalidInputError(f"{path}: {exc}") from None


def write_catalog(path: str | Path, catalog: ScenarioCatalog) -> None:
    lines = [
        f"{c.name} = {', '.join(c.elements)}" for c in catalog.criteria
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def profile_csv_header(catalog: ScenarioCatalog) -> list[str]:
    header = ["participant_id"]
    header += [f"w:{c.name}" for c in catalog.criteria]
    for c in catalog.criteria:
        header += [f"w:{c.name}:{e}" for e in c.elements]
    return header


def write_weight_profiles(
    path: str | Path, profiles: Iterable[WeightProfile], catalog: ScenarioCatalog
) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(profile_csv_header(catalog))
        for p in profiles:
            row = [p.participant_id]
            row += [format(w, ".12g") for w in p.criterion_weights]
            for ew in p.element_weights:
                row += [format(w, ".12g") for w in ew]
            writer.writerow(row)


def read_weight_profiles(path: str | Path, catalog: ScenarioCatalog) -> list[WeightProfile]:
    """Load profiles from CSV; the header row is mandatory and validated. A
    file whose every row passes is checked as one array; any other file is
    read again by the row loop, which words the first error."""
    profiles = _profile_table(path, catalog)
    return _read_profile_rows(path, catalog) if profiles is None else profiles


def _profile_table(path: str | Path, catalog: ScenarioCatalog) -> list[WeightProfile] | None:
    """The profiles of a file that every rule accepts, with
    ``WeightProfile``'s rules checked once on one (profiles, weights) array;
    ``None`` for any other file. A row passes the sum rules here only if its
    sums lie within half the tolerance of 1, so the per-row sums, added in
    whatever order, pass them too; any other row is left to the loop."""
    expected = profile_csv_header(catalog)
    try:
        with open_text(path) as fh:
            reader = csv.reader(fh)
            if next(reader, None) != expected:
                return None
            rows = [row for row in reader if row]
        if any(len(row) != len(expected) for row in rows):
            return None
        weights = np.fromiter(
            map(float, chain.from_iterable(row[1:] for row in rows)), float,
            len(rows) * (len(expected) - 1),
        ).reshape(len(rows), -1)
    except (InvalidInputError, csv.Error, ValueError):
        return None
    # the criterion weights, then each criterion's element weights
    starts = np.cumsum([0, catalog.k, *catalog.sizes]).tolist()
    # NaN fails the range test too
    if rows and not (
        weights.min() >= -WEIGHT_TOL and weights.max() <= 1 + WEIGHT_TOL
        and np.all(np.abs(np.add.reduceat(weights, starts[:-1], axis=1) - 1.0) <= WEIGHT_TOL / 2)
    ):
        return None
    groups = list(zip(starts[1:-1], starts[2:]))
    profiles = []
    for row, w in zip(rows, weights):
        profile = WeightProfile.__new__(WeightProfile)
        profile.__dict__.update(
            participant_id=row[0], criterion_weights=w[: starts[1]],
            element_weights=tuple(w[a:b] for a, b in groups),
        )
        profiles.append(profile)
    return profiles


def _read_profile_rows(path: str | Path, catalog: ScenarioCatalog) -> list[WeightProfile]:
    """The profiles one row at a time, each checked by ``WeightProfile``;
    the first row that breaks a rule raises, naming the file and line."""
    expected = profile_csv_header(catalog)
    profiles = []
    with open_text(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != expected:
            raise InvalidInputError(
                f"{path}: header mismatch, expected {expected[:4]}..."
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(expected):
                raise InvalidInputError(f"{path}:{lineno}: wrong column count")
            try:
                values = [float(v) for v in row[1:]]
            except ValueError:
                raise InvalidInputError(f"{path}:{lineno}: not a number in {row}") from None
            k = catalog.k
            crit = np.array(values[:k])
            elems = []
            offset = k
            for q in catalog.sizes:
                elems.append(np.array(values[offset : offset + q]))
                offset += q
            try:
                profiles.append(WeightProfile(row[0], crit, tuple(elems)))
            except InvalidInputError as exc:
                raise InvalidInputError(f"{path}:{lineno}: {exc}") from None
    return profiles
