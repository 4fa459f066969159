"""Synthetic participant populations exhibiting the five group behaviors.

Each group pairs a sharing-level policy for unrewarded choices with one for
rewarded first-pass choices, plus a drift that biases which goal (privacy or
rewards) a participant pursues during reassessment rounds. Unrewarded
choices additionally polarize on contentious scenarios: each population
draws a latent per-scenario contention trait, and groups with an extreme
level snap toward it there (preservers toward sharing nothing, ignorants and
seekers toward sharing everything). Rewards flatten this scenario structure,
so rewarded first passes ignore contention. The polarization is what gives
unrewarded aggregates their scenario shape; without it, goal signals would
be pure sampling noise.

Populations are generated deterministically from a master seed (numpy PCG64
streams). A condition's selections travel as one (n, m) block of levels,
rows in participant order, and the three conditions' blocks give every
participant a plan portfolio for coordination. Group extraction from
(intrinsic, rewarded) privacy pairs uses seeded k-means++ with Lloyd
iterations.

The dilemma loop runs in ``simulate_conditions``, which steps all participants
of a condition in lockstep on arrays (one reward table, one selection matrix,
vectorized retrieval and improvement boxes). It matches the single-step path
through ``retrieval`` byte for byte: every logged balance is a full re-sum
over all scenarios, never a running total; and the row sums of a C-contiguous
(n, m) array equal those of each row on its own (a mean is that sum over m, as
``np.mean`` computes it). Each participant keeps its own condition stream. The
first pass draws on the real ``Generator``; the reassessment rounds then read
one block of each stream's raw PCG64 output, and ``_RawStreams`` emulates the
``random()`` goal draw and the ``integers(0, box size)`` option draw (what
``choice`` over the sorted box draws) for all participants at once, bit for
bit. ``TestStreamEmulator`` in the test suite guards that emulation against
the real calls, so a numpy release that changes them fails there. The event
log stays in the (n, steps) columns the loop fills (``retrieval.EventLog``):
no object is built per row, and ``retrieval.write_event_log`` formats the rows
straight from the columns.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .coordination import PlanPortfolio
from .errors import IncompletePortfolioError, InvalidInputError, read_json_object
from .retrieval import EventLog
from .sharing import RewardModel, ScenarioCatalog, WeightProfile, default_catalog

RNG_ALGORITHM = "numpy-pcg64"  # recorded in manifests for portability

logger = logging.getLogger("datacollective")

PRIVACY_IGNORANT = "privacy_ignorant"
PRIVACY_NEUTRAL = "privacy_neutral"
PRIVACY_PRESERVER = "privacy_preserver"
REWARD_SEEKER = "reward_seeker"
REWARD_OPPORTUNIST = "reward_opportunist"

GROUP_ORDER = (
    PRIVACY_IGNORANT,
    PRIVACY_NEUTRAL,
    PRIVACY_PRESERVER,
    REWARD_SEEKER,
    REWARD_OPPORTUNIST,
)

INTRINSIC = "intrinsic"
REWARDED1 = "rewarded1"
REWARDED2 = "rewarded2"
CONDITIONS = (INTRINSIC, REWARDED1, REWARDED2)

POLICY_TOL = 1e-9


@dataclass(frozen=True)
class GroupBehavior:
    """Level policies and reassessment drift for one behavioral group.

    ``drift`` is a signed fraction in [-1, 1]; positive values bias
    reassessment goals toward improving privacy, negative toward rewards.
    ``extreme_level`` is the level the group snaps toward on contentious
    scenarios during unrewarded choices, with strength ``polarization``.
    """

    kind: str
    intrinsic_policy: np.ndarray
    rewarded_policy: np.ndarray
    drift: float
    polarization: float = 0.0
    extreme_level: int | None = None

    def __post_init__(self):
        ip = np.asarray(self.intrinsic_policy, dtype=float)
        rp = np.asarray(self.rewarded_policy, dtype=float)
        object.__setattr__(self, "intrinsic_policy", ip)
        object.__setattr__(self, "rewarded_policy", rp)
        for name, p in (("intrinsic", ip), ("rewarded", rp)):
            if p.ndim != 1 or p.size < 2:
                raise InvalidInputError(f"{name} policy must cover >= 2 levels")
            if np.any(p < 0) or abs(p.sum() - 1.0) > POLICY_TOL:
                raise InvalidInputError(f"{name} policy must be a distribution")
        if not -1.0 <= self.drift <= 1.0:
            raise InvalidInputError("drift must lie in [-1, 1]")
        if not 0.0 <= self.polarization <= 1.0:
            raise InvalidInputError("polarization must lie in [0, 1]")
        if self.extreme_level is not None and not 1 <= self.extreme_level <= self.z:
            raise InvalidInputError("extreme level outside 1..z")

    @property
    def z(self) -> int:
        return int(self.intrinsic_policy.size)


def level_distribution(center: int, z: int = 5, spread: float = 1.0) -> np.ndarray:
    """Discrete distribution over levels 1..z decaying away from ``center``."""
    if not 1 <= center <= z:
        raise InvalidInputError(f"center {center} outside 1..{z}")
    levels = np.arange(1, z + 1)
    weights = np.exp(-np.abs(levels - center) / spread)
    return weights / weights.sum()


def default_behaviors(z: int = 5) -> dict[str, GroupBehavior]:
    """Qualitative defaults: centers at low/moderate/high sharing with unit
    spread, drifts signed to match the observed reassessment trends, and
    polarization strengths calibrated so unrewarded aggregates track the
    goal-signal shapes better than rewarded ones."""
    low_sharing = level_distribution(z, z)       # mass near "share nothing"
    moderate = level_distribution((z + 1) // 2, z)
    high_sharing = level_distribution(1, z)      # mass near "share all"
    return {
        PRIVACY_IGNORANT: GroupBehavior(
            PRIVACY_IGNORANT, high_sharing, high_sharing, drift=-0.6,
            polarization=0.9, extreme_level=1,
        ),
        PRIVACY_NEUTRAL: GroupBehavior(
            PRIVACY_NEUTRAL, moderate, moderate, drift=0.1,
        ),
        PRIVACY_PRESERVER: GroupBehavior(
            PRIVACY_PRESERVER, low_sharing, low_sharing, drift=0.3,
            polarization=1.0, extreme_level=z,
        ),
        REWARD_SEEKER: GroupBehavior(
            REWARD_SEEKER, moderate, high_sharing, drift=-0.5,
            polarization=0.8, extreme_level=1,
        ),
        REWARD_OPPORTUNIST: GroupBehavior(
            REWARD_OPPORTUNIST, low_sharing, high_sharing, drift=-0.3,
            polarization=1.0, extreme_level=z,
        ),
    }


# Group split matching the observed population: the preserver/opportunist
# pair totals 26.2%, the neutral/seeker pair 57.14%, ignorants the rest;
# pairs are split evenly between their two members.
DEFAULT_GROUP_MIX = {
    PRIVACY_IGNORANT: 0.1666,
    PRIVACY_NEUTRAL: 0.28570,
    PRIVACY_PRESERVER: 0.1310,
    REWARD_SEEKER: 0.28570,
    REWARD_OPPORTUNIST: 0.1310,
}


@dataclass(frozen=True)
class Participant:
    profile: WeightProfile
    behavior: GroupBehavior
    seed: int

    @property
    def participant_id(self) -> str:
        return self.profile.participant_id


@dataclass(frozen=True)
class SyntheticPopulation:
    """Participants plus the population-level contention trait per scenario
    (1 marks contentious scenarios where choices polarize)."""

    participants: tuple[Participant, ...]
    group_mix: Mapping[str, float]
    master_seed: int
    contention: np.ndarray | None = None

    def group_counts(self) -> dict[str, int]:
        counts = {kind: 0 for kind in GROUP_ORDER}
        for p in self.participants:
            counts[p.behavior.kind] += 1
        return counts


def largest_remainder_counts(n: int, fractions: Sequence[float]) -> list[int]:
    """Integer counts summing to n, faithful to fractions via largest remainder.

    Remainder ties resolve toward earlier positions, so the split is
    deterministic for a fixed fraction order.
    """
    if n < 0:
        raise InvalidInputError("count must be non-negative")
    fr = np.asarray(fractions, dtype=float)
    if np.any(fr < 0):
        raise InvalidInputError("fractions must be non-negative")
    if abs(fr.sum() - 1.0) > 1e-9:
        raise InvalidInputError("fractions must sum to 1")
    raw = n * fr
    counts = np.floor(raw).astype(int)
    remainders = raw - counts
    leftover = n - int(counts.sum())
    # argsort is stable, so equal remainders keep their original order
    order = np.argsort(-remainders, kind="stable")
    for idx in order[:leftover]:
        counts[idx] += 1
    return counts.tolist()


def generate_population(
    n: int,
    mix: Mapping[str, float] | None = None,
    master_seed: int = 0,
    catalog: ScenarioCatalog | None = None,
    behaviors: Mapping[str, GroupBehavior] | None = None,
) -> SyntheticPopulation:
    """Deterministically generate n participants with group-faithful counts.

    Weight profiles are drawn as random 5-point intrusion answers and
    normalized, so reward allocations vary across participants.
    """
    if n < 1:
        raise InvalidInputError("population size must be >= 1")
    catalog = catalog or default_catalog()
    behaviors = dict(behaviors or default_behaviors())
    mix = dict(mix or DEFAULT_GROUP_MIX)
    for kind in mix:
        if kind not in behaviors:
            raise InvalidInputError(f"no behavior defined for group '{kind}'")
    kinds = [k for k in GROUP_ORDER if k in mix] + [
        k for k in mix if k not in GROUP_ORDER
    ]
    counts = largest_remainder_counts(n, [mix[k] for k in kinds])

    root = np.random.SeedSequence(master_seed)
    streams = root.spawn(n + 1)
    participant_seeds, contention_seed = streams[:n], streams[n]
    # Half the scenarios are contentious; which half is a population trait.
    contention_rng = np.random.default_rng(contention_seed)
    contention = (contention_rng.permutation(catalog.m) >= catalog.m // 2).astype(float)
    participants = []
    idx = 0
    for kind, count in zip(kinds, counts):
        for _ in range(count):
            seq = participant_seeds[idx]
            rng = np.random.default_rng(seq)
            profile = _random_profile(f"p{idx:04d}", catalog, rng)
            participants.append(
                Participant(
                    profile=profile,
                    behavior=behaviors[kind],
                    seed=int(seq.generate_state(1, np.uint64)[0]),
                )
            )
            idx += 1
    return SyntheticPopulation(
        participants=tuple(participants),
        group_mix=mix,
        master_seed=master_seed,
        contention=contention,
    )


def _random_profile(
    participant_id: str, catalog: ScenarioCatalog, rng: np.random.Generator
) -> WeightProfile:
    crit = rng.integers(1, 6, size=catalog.k).astype(float)
    elems = tuple(rng.integers(1, 6, size=q).astype(float) for q in catalog.sizes)
    return WeightProfile(
        participant_id=participant_id,
        criterion_weights=crit / crit.sum(),
        element_weights=tuple(e / e.sum() for e in elems),
    )


def _condition_rng(participant: Participant, condition: str) -> np.random.Generator:
    key = CONDITIONS.index(condition)
    return np.random.default_rng(
        np.random.SeedSequence(participant.seed, spawn_key=(key,))
    )


class _RawStreams:
    """``Generator.random()`` and ``Generator.integers(0, size)`` for many
    PCG64 generators at once, emulated bit for bit from their raw output.

    Each row holds a block of its generator's raw 64-bit output, a cursor
    into it and numpy's held 32-bit half (``has_uint32``/``uinteger``).
    ``random()`` is the top 53 bits of the next u64 and leaves the held half
    alone. ``integers(0, size)`` is numpy's buffered 32-bit Lemire method
    (Lemire, ACM TOMACS 2019): size 1 draws nothing; otherwise it takes the
    held high half, or the low half of the next u64 and holds its high half,
    returns ``(u32 * size) >> 32``, and redraws while the low 32 bits of that
    product are below ``(2**32 - size) % size``. Rows that run out of raw
    output get another block from their generators. The ``rows`` passed to
    a draw are distinct row indices.
    """

    def __init__(self, rngs: Sequence[np.random.Generator], block: int):
        states = [rng.bit_generator.state for rng in rngs]
        self.rngs, self.block = rngs, block
        self.held = np.array([s["has_uint32"] for s in states], dtype=bool)
        self.half = np.array([s["uinteger"] for s in states], dtype=np.uint64)
        self.cursor = np.zeros(len(rngs), dtype=np.intp)
        self.raw = self._draw(block)

    def _draw(self, count: int) -> np.ndarray:
        raw = np.empty((len(self.rngs), count), dtype=np.uint64)
        for row, rng in zip(raw, self.rngs):
            row[:] = rng.bit_generator.random_raw(count)
        return raw

    def _next64(self, rows: np.ndarray) -> np.ndarray:
        at = self.cursor[rows]
        if at.size and at.max() >= self.raw.shape[1]:
            self.raw = np.hstack([self.raw, self._draw(self.block)])
        self.cursor[rows] = at + 1
        return self.raw[rows, at]

    def random(self, rows: np.ndarray) -> np.ndarray:
        """One ``random()`` per row of ``rows``."""
        return (self._next64(rows) >> 11) * 2.0**-53

    def _next32(self, rows: np.ndarray) -> np.ndarray:
        fresh = ~self.held[rows]
        out = self.half[rows]
        if fresh.any():
            u = self._next64(rows[fresh])
            out[fresh] = u & 0xFFFFFFFF
            self.half[rows[fresh]] = u >> 32
        self.held[rows] = fresh
        return out

    def integers(self, rows: np.ndarray, size: np.ndarray) -> np.ndarray:
        """One ``integers(0, size[i])`` per row ``rows[i]``."""
        size = size.astype(np.uint64)
        out = np.zeros(len(rows), dtype=np.intp)
        todo = np.flatnonzero(size > 1)
        while todo.size:
            s = size[todo]
            product = self._next32(rows[todo]) * s
            out[todo] = product >> 32
            todo = todo[(product & 0xFFFFFFFF) < (2**32 - s) % s]
        return out


@dataclass(frozen=True)
class ConditionRun:
    """One condition for a group of participants: the read-only (n, m)
    selections, rows in participant order, the event log as columns (rows
    participant-major then by step), and the participants who saturated
    (nothing left to improve) before the last step with the steps they did
    not take."""

    selections: np.ndarray
    events: EventLog
    saturated: int
    lost_steps: int


def simulate_conditions(
    participants: Sequence[Participant],
    condition: str,
    steps: int,
    catalog: ScenarioCatalog | None = None,
    reward_model: RewardModel | None = None,
    contention: np.ndarray | None = None,
) -> ConditionRun:
    """Simulate one condition for every participant, all in lockstep.

    Unrewarded: each scenario is answered once from the intrinsic policy,
    polarized toward the group's extreme level on contentious scenarios.
    Rewarded: the first pass answers all scenarios from the rewarded policy,
    then the remaining steps are reassessment rounds: the group drift biases
    the chosen goal, the scenario whose best option most improves it is
    retrieved (the other goal when that one is saturated), and the applied
    option is drawn uniformly from the improvement box. A participant with
    nothing left to improve in either direction stops early.
    """
    if condition not in CONDITIONS:
        raise InvalidInputError(f"unknown condition '{condition}'")
    catalog = catalog or default_catalog()
    reward_model = reward_model or RewardModel()
    z, m, n = reward_model.z, catalog.m, len(participants)
    if any(p.behavior.z != z for p in participants):
        raise InvalidInputError("behavior policies do not cover the level count")
    rewarded = condition != INTRINSIC
    if rewarded and steps < m:
        raise InvalidInputError("rewarded conditions need steps >= scenario count")
    rngs = [_condition_rng(p, condition) for p in participants]
    levels = np.arange(1, z + 1)
    first = np.array([
        rng.choice(levels, size=m, p=p.behavior.rewarded_policy) if rewarded
        else _draw_intrinsic(p.behavior, m, rng, contention)
        for p, rng in zip(participants, rngs)
    ], dtype=np.intp).reshape(n, m)
    rmax = reward_model.reward_table([p.profile for p in participants], catalog)
    table = reward_model.option_rewards(rmax.reshape(n, m, 1), levels)  # (n, m, z)

    # Unanswered scenarios count as share-nothing. ``gained`` and ``privacy``
    # hold each scenario's reward and normalized privacy at its current
    # level; every logged balance is a full row-wise re-sum of them. The log
    # has one column per step; goal codes index ``EVENT_GOALS`` (0 first
    # pass, 1 rewards, 2 privacy).
    length = steps if rewarded else m
    selections = np.full((n, m), z, dtype=np.intp)
    gained = table[:, :, z - 1].copy()
    privacy = (selections - 1) / (z - 1)
    goal, scenario_id, option_log = (np.zeros((n, length), dtype=np.intp) for _ in range(3))
    rewards_after, privacy_after = np.zeros((n, length)), np.zeros((n, length))

    def apply(who, scenario, option, step):
        selections[who, scenario] = option
        gained[who, scenario] = table[who, scenario, option - 1]
        privacy[who, scenario] = (option - 1) / (z - 1)
        scenario_id[who, step] = scenario + 1
        option_log[who, step] = option
        rewards_after[who, step] = gained.sum(axis=1)[who]
        privacy_after[who, step] = privacy.sum(axis=1)[who] / m

    active = np.arange(n)
    for j in range(m):
        apply(active, j, first[:, j], j)
    taken = np.full(n, length)
    # A step draws one u64 for the goal and one 32-bit half for the option,
    # so the block only grows after a rejected option draw (odds below
    # size / 2**32 each).
    rounds = length - m
    streams = _RawStreams(rngs, rounds + (rounds + 1) // 2) if rounds else None
    p_privacy = np.array([min(1.0, max(0.0, 0.5 + p.behavior.drift)) for p in participants])
    best_gained = table.max(axis=2)
    for step in range(m, length):
        wants_privacy = streams.random(active) < p_privacy[active]
        # Privacy gains are linear in the level, so the lowest level gains
        # most; reward gains are the best option's reward minus the current.
        # argmin/argmax break ties toward the lowest scenario id.
        privacy_target = np.argmin(selections, axis=1)[active]
        privacy_open = selections[active, privacy_target] < z
        reward_gain = best_gained - gained
        reward_target = np.argmax(reward_gain, axis=1)[active]
        reward_open = reward_gain[active, reward_target] > 0
        served = privacy_open | reward_open
        taken[active[~served]] = step
        active = active[served]
        if active.size == 0:
            break
        # the wanted goal, or the other one when the wanted one is saturated
        privacy_goal = np.where(wants_privacy, privacy_open, ~reward_open)[served]
        scenario = np.where(privacy_goal, privacy_target[served], reward_target[served])
        current = selections[active, scenario]
        box = np.where(
            privacy_goal[:, None],
            levels > current[:, None],
            table[active, scenario] > gained[active, scenario][:, None],
        )
        picks = streams.integers(active, box.sum(axis=1))
        option = np.argmax(np.cumsum(box, axis=1) > picks[:, None], axis=1) + 1
        goal[active, step] = 1 + privacy_goal
        apply(active, scenario, option, step)

    saturated = int(np.count_nonzero(taken < length))
    lost_steps = int((length - taken).sum())
    if saturated:
        logger.info(
            "%s: %d of %d participants saturated early, %d steps not taken",
            condition, saturated, n, lost_steps,
        )
    selections.flags.writeable = False
    return ConditionRun(
        selections,
        EventLog(
            tuple(p.participant_id for p in participants), taken,
            goal, scenario_id, option_log, rewards_after, privacy_after,
        ),
        saturated, lost_steps,
    )


def _draw_intrinsic(
    behavior: GroupBehavior,
    m: int,
    rng: np.random.Generator,
    contention: np.ndarray | None,
) -> np.ndarray:
    """Draw unrewarded levels, mixing each scenario's policy toward the
    group's extreme level in proportion to polarization * contention."""
    z = behavior.z
    base = behavior.intrinsic_policy
    if (
        contention is None
        or behavior.extreme_level is None
        or behavior.polarization == 0.0
    ):
        return rng.choice(np.arange(1, z + 1), size=m, p=base)
    contention = np.asarray(contention, dtype=float)
    if contention.shape != (m,):
        raise InvalidInputError("contention length does not match scenario count")
    extreme = np.zeros(z)
    extreme[behavior.extreme_level - 1] = 1.0
    mix = behavior.polarization * contention[:, None]
    policies = (1.0 - mix) * base[None, :] + mix * extreme[None, :]
    cumulative = np.cumsum(policies, axis=1)
    draws = rng.random((m, 1))
    # cumulative sums can land a hair below 1; a draw in that sliver must
    # still map to the last level
    levels = np.minimum((draws > cumulative).sum(axis=1), z - 1)
    return levels.astype(np.intp) + 1


def simulate_population(
    population: SyntheticPopulation,
    steps: int = 192,
    catalog: ScenarioCatalog | None = None,
    reward_model: RewardModel | None = None,
    conditions: Sequence[str] = CONDITIONS,
) -> dict[str, np.ndarray]:
    """Run the requested conditions for every participant.

    Returns {condition: (n, m) selections}, rows in
    ``population.participants`` order. Event logs are dropped here; use
    simulate_conditions directly when the log matters.
    """
    return {
        condition: simulate_conditions(
            population.participants, condition, steps, catalog, reward_model,
            contention=population.contention,
        ).selections
        for condition in conditions
    }


def build_portfolios(
    participant_ids: Sequence[str],
    selections: Mapping[str, np.ndarray],
    z: int,
    required: Sequence[str] = CONDITIONS,
) -> list[PlanPortfolio]:
    """Turn every participant's per-condition selections into candidate plans.

    ``selections`` holds one (n, m) block of levels per condition, rows in
    ``participant_ids`` order. Plan values are normalized shared-data levels
    (z - s)/(z - 1); the local privacy cost of a plan is the mean of its
    values.
    """
    missing = [c for c in required if c not in selections]
    if missing:
        raise IncompletePortfolioError(f"selections lack conditions: {missing}")
    values = (z - np.stack([selections[c] for c in required], axis=1)) / (z - 1)
    costs = values.mean(axis=2)
    return [
        PlanPortfolio.from_arrays(pid, plans, cost, required)
        for pid, plans, cost in zip(participant_ids, values, costs)
    ]


# ---------------------------------------------------------------------------
# Population spec files: JSON with n, mix, z, seed and policy overrides.

def load_population_spec(path) -> dict:
    spec = read_json_object(path)
    known = {"n", "mix", "z", "seed", "steps", "drift_overrides", "policy_overrides"}
    unknown = set(spec) - known
    if unknown:
        raise InvalidInputError(f"unknown population spec keys: {sorted(unknown)}")
    if "n" not in spec:
        raise InvalidInputError("population spec needs 'n'")
    return spec


_OVERRIDABLE_FIELDS = {
    "intrinsic_policy",
    "rewarded_policy",
    "drift",
    "polarization",
    "extreme_level",
}


def population_from_spec(
    spec: Mapping, catalog: ScenarioCatalog | None = None
) -> SyntheticPopulation:
    z = int(spec.get("z", 5))
    behaviors = default_behaviors(z)
    for kind, drift in (spec.get("drift_overrides") or {}).items():
        if kind not in behaviors:
            raise InvalidInputError(f"unknown group '{kind}' in drift_overrides")
        behaviors[kind] = replace(behaviors[kind], drift=float(drift))
    for kind, fields in (spec.get("policy_overrides") or {}).items():
        if kind not in behaviors:
            raise InvalidInputError(f"unknown group '{kind}' in policy_overrides")
        unknown = set(fields) - _OVERRIDABLE_FIELDS
        if unknown:
            raise InvalidInputError(
                f"unknown policy override fields for '{kind}': {sorted(unknown)}"
            )
        updates = {
            key: np.asarray(value, dtype=float) if key.endswith("_policy") else value
            for key, value in fields.items()
        }
        behaviors[kind] = replace(behaviors[kind], **updates)
    return generate_population(
        int(spec["n"]),
        mix=spec.get("mix"),
        master_seed=int(spec.get("seed", 0)),
        catalog=catalog,
        behaviors=behaviors,
    )


# ---------------------------------------------------------------------------
# Group extraction: seeded k-means++ with Lloyd iterations.

@dataclass(frozen=True)
class KMeansResult:
    labels: np.ndarray
    centroids: np.ndarray
    inertia: float
    n_iter: int
    inertia_history: tuple[float, ...] = field(default=())


def extract_groups(
    points: np.ndarray | Sequence[Sequence[float]],
    k: int,
    seed: int = 0,
    max_iter: int = 300,
    tol: float = 1e-9,
) -> KMeansResult:
    """Cluster behavior points (typically intrinsic vs. rewarded privacy).

    k-means++ initialization and Lloyd updates, deterministic for a given
    seed. An emptied cluster is re-seeded from the point farthest from its
    assigned centroid.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = pts.shape[0]
    if k < 1:
        raise InvalidInputError("cluster count must be >= 1")
    if n < k:
        raise InvalidInputError(f"need at least {k} points, got {n}")
    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(pts, k, rng)

    history = []
    labels = np.zeros(n, dtype=np.intp)
    for iteration in range(1, max_iter + 1):
        d2 = _sq_distances(pts, centroids)
        labels = np.argmin(d2, axis=1)
        history.append(float(d2[np.arange(n), labels].sum()))
        new_centroids = centroids.copy()
        for c in range(k):
            members = pts[labels == c]
            if members.shape[0] == 0:
                # re-seed from the point farthest from its current centroid
                farthest = int(np.argmax(d2[np.arange(n), labels]))
                new_centroids[c] = pts[farthest]
                labels[farthest] = c
            else:
                new_centroids[c] = members.mean(axis=0)
        shift = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        if shift < tol:
            break
    d2 = _sq_distances(pts, centroids)
    labels = np.argmin(d2, axis=1)
    inertia = float(d2[np.arange(n), labels].sum())
    return KMeansResult(
        labels=labels,
        centroids=centroids,
        inertia=inertia,
        n_iter=iteration,
        inertia_history=tuple(history),
    )


def _kmeans_pp_init(pts: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = pts.shape[0]
    centroids = np.empty((k, pts.shape[1]), dtype=float)
    centroids[0] = pts[rng.integers(n)]
    d2 = np.sum((pts - centroids[0]) ** 2, axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            centroids[c] = pts[rng.integers(n)]
            continue
        probs = d2 / total
        centroids[c] = pts[rng.choice(n, p=probs)]
        d2 = np.minimum(d2, np.sum((pts - centroids[c]) ** 2, axis=1))
    return centroids


def _sq_distances(pts: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    return np.sum((pts[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
