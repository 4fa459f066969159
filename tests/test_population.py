import json
import logging

import numpy as np
import pytest

from datacollective.errors import IncompletePortfolioError, InvalidInputError
from datacollective.population import (
    CONDITIONS,
    DEFAULT_GROUP_MIX,
    INTRINSIC,
    PRIVACY_IGNORANT,
    PRIVACY_NEUTRAL,
    PRIVACY_PRESERVER,
    REWARD_OPPORTUNIST,
    REWARD_SEEKER,
    GroupBehavior,
    _RawStreams,
    build_portfolio,
    default_behaviors,
    extract_groups,
    generate_population,
    largest_remainder_counts,
    level_distribution,
    load_population_spec,
    population_from_spec,
    simulate_conditions,
    simulate_population,
)
from datacollective.sharing import (
    Budget,
    Criterion,
    RewardModel,
    SelectionVector,
    default_catalog,
    enumerate_scenarios,
    privacy_score,
)
from helpers import simulate_condition_oracle

# Participation equals the whole budget, so no option changes the rewards
# and every reassessment ends once privacy is maxed out.
FLAT_BUDGET = Budget(17.5, 17.5, 0.0)


class TestLevelDistribution:
    def test_sums_to_one_and_peaks_at_center(self):
        for center in (1, 3, 5):
            dist = level_distribution(center)
            assert dist.sum() == pytest.approx(1.0)
            assert np.argmax(dist) == center - 1

    def test_center_out_of_range(self):
        with pytest.raises(InvalidInputError):
            level_distribution(6)


class TestBehaviors:
    def test_defaults_are_valid(self):
        behaviors = default_behaviors()
        assert set(behaviors) == {
            PRIVACY_IGNORANT,
            PRIVACY_NEUTRAL,
            PRIVACY_PRESERVER,
            REWARD_SEEKER,
            REWARD_OPPORTUNIST,
        }
        opportunist = behaviors[REWARD_OPPORTUNIST]
        # high privacy without rewards, heavy sharing with rewards
        assert np.argmax(opportunist.intrinsic_policy) == 4
        assert np.argmax(opportunist.rewarded_policy) == 0

    def test_policy_validation(self):
        with pytest.raises(InvalidInputError):
            GroupBehavior("bad", np.array([0.5, 0.4]), np.array([0.5, 0.5]), 0.0)
        with pytest.raises(InvalidInputError):
            GroupBehavior(
                "bad", np.array([0.5, 0.5]), np.array([0.5, 0.5]), 2.0
            )
        with pytest.raises(InvalidInputError):
            GroupBehavior(
                "bad", np.array([0.5, 0.5]), np.array([0.5, 0.5]), 0.0,
                polarization=0.5, extreme_level=9,
            )


class TestLargestRemainder:
    def test_observed_population_split(self):
        # 26.2% preservers+opportunists, 57.14% neutrals+seekers, 16.7% ignorants
        counts = largest_remainder_counts(84, [0.262, 0.5714, 0.1666])
        assert counts == [22, 48, 14]

    def test_sums_to_n(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            fractions = rng.dirichlet(np.ones(rng.integers(2, 7)))
            n = int(rng.integers(1, 200))
            counts = largest_remainder_counts(n, fractions)
            assert sum(counts) == n
            assert all(c >= 0 for c in counts)

    def test_invalid_fractions(self):
        with pytest.raises(InvalidInputError):
            largest_remainder_counts(10, [0.5, 0.6])
        with pytest.raises(InvalidInputError):
            largest_remainder_counts(10, [-0.1, 1.1])


class TestGeneratePopulation:
    def test_default_mix_counts_at_84(self):
        population = generate_population(84, master_seed=0)
        counts = population.group_counts()
        preservers_opportunists = counts[PRIVACY_PRESERVER] + counts[REWARD_OPPORTUNIST]
        neutrals_seekers = counts[PRIVACY_NEUTRAL] + counts[REWARD_SEEKER]
        assert preservers_opportunists == 22
        assert neutrals_seekers == 48
        assert counts[PRIVACY_IGNORANT] == 14

    def test_point_mass_mix(self):
        population = generate_population(1, mix={PRIVACY_PRESERVER: 1.0}, master_seed=1)
        assert population.group_counts()[PRIVACY_PRESERVER] == 1

    def test_same_seed_same_population(self):
        a = generate_population(20, master_seed=9)
        b = generate_population(20, master_seed=9)
        for pa, pb in zip(a.participants, b.participants):
            assert pa.seed == pb.seed
            assert pa.behavior.kind == pb.behavior.kind
            assert pa.profile.criterion_weights == pytest.approx(pb.profile.criterion_weights)
        assert a.contention == pytest.approx(b.contention)

    def test_profiles_are_valid_and_distinct(self):
        population = generate_population(10, master_seed=3)
        weights = [tuple(p.profile.criterion_weights) for p in population.participants]
        assert len(set(weights)) > 1

    def test_bad_inputs(self):
        with pytest.raises(InvalidInputError):
            generate_population(0)
        with pytest.raises(InvalidInputError):
            generate_population(5, mix={"no_such_group": 1.0})


class TestSimulateCondition:
    def test_point_mass_preserver_has_full_privacy(self, catalog):
        behavior = GroupBehavior(
            PRIVACY_PRESERVER,
            np.array([0, 0, 0, 0, 1.0]),
            np.array([0, 0, 0, 0, 1.0]),
            drift=0.0,
        )
        population = generate_population(
            1, mix={PRIVACY_PRESERVER: 1.0}, master_seed=5,
            behaviors={PRIVACY_PRESERVER: behavior},
        )
        run = simulate_conditions(
            population.participants, "intrinsic", 64, catalog, RewardModel()
        )
        assert privacy_score(run.selections[0]) == 1.0
        assert len(run.events) == 64

    def test_opportunist_privacy_ordering(self, catalog):
        population = generate_population(
            12, mix={REWARD_OPPORTUNIST: 1.0}, master_seed=6
        )
        intrinsic, rewarded = [], []
        for participant in population.participants:
            sims = {}
            for condition in ("intrinsic", "rewarded1"):
                run = simulate_conditions(
                    [participant], condition, 128, catalog, RewardModel(),
                    contention=population.contention,
                )
                sims[condition] = run.selections[0]
            intrinsic.append(privacy_score(sims["intrinsic"]))
            rewarded.append(privacy_score(sims["rewarded1"]))
        assert np.mean(intrinsic) > np.mean(rewarded)

    def test_zero_drift_keeps_mean_privacy(self, catalog):
        behavior = GroupBehavior(
            PRIVACY_NEUTRAL, level_distribution(3), level_distribution(3), drift=0.0
        )
        population = generate_population(
            60, mix={PRIVACY_NEUTRAL: 1.0}, master_seed=7,
            behaviors={PRIVACY_NEUTRAL: behavior},
        )
        first_pass, final = [], []
        for participant in population.participants:
            run = simulate_conditions([participant], "rewarded1", 192, catalog, RewardModel())
            last_first_pass = [e for e in run.events if e.goal == "first_pass"][-1]
            first_pass.append(last_first_pass.privacy_after)
            final.append(privacy_score(run.selections[0]))
        assert abs(np.mean(final) - np.mean(first_pass)) < 0.06

    def test_rewarded_needs_full_first_pass(self, catalog):
        population = generate_population(1, master_seed=8)
        with pytest.raises(InvalidInputError):
            simulate_conditions(population.participants, "rewarded1", 10, catalog)

    def test_unknown_condition(self, catalog):
        population = generate_population(1, master_seed=8)
        with pytest.raises(InvalidInputError):
            simulate_conditions(population.participants, "entry", 64, catalog)

    def test_simulation_reproducible(self, catalog):
        population = generate_population(6, master_seed=11)
        a = simulate_population(population, steps=90)
        b = simulate_population(population, steps=90)
        for pid in a:
            for condition in CONDITIONS:
                assert np.array_equal(
                    a[pid][condition].selections, b[pid][condition].selections
                )

    def test_group_privacy_ordering_on_defaults(self):
        population = generate_population(84, master_seed=0)
        sims = simulate_population(population, steps=128)
        rewarded = {}
        for participant in population.participants:
            rewarded.setdefault(participant.behavior.kind, []).append(
                privacy_score(sims[participant.participant_id]["rewarded1"])
            )
        means = {kind: np.mean(vals) for kind, vals in rewarded.items()}
        assert means[PRIVACY_PRESERVER] > means[PRIVACY_NEUTRAL]
        assert means[PRIVACY_NEUTRAL] > means[REWARD_SEEKER]
        assert means[PRIVACY_NEUTRAL] > means[REWARD_OPPORTUNIST]
        assert means[PRIVACY_NEUTRAL] > means[PRIVACY_IGNORANT]


def two_by_two_catalog():
    return enumerate_scenarios(
        [Criterion("sensor", ("acc", "gps")), Criterion("collector", ("cor", "gov"))]
    )


class TestLockstepKernel:
    """The lockstep kernel against the one-step-at-a-time oracle: equal
    selections and equal event logs, floats compared with ==."""

    @pytest.mark.parametrize(
        "mode, z, small_catalog, n, steps, budget",
        [
            ("linear", 5, False, 7, 192, Budget()),
            ("geometric", 5, False, 7, 192, Budget()),
            ("geometric", 5, False, 84, 72, Budget()),
            ("linear", 5, False, 1, 96, Budget()),
            ("linear", 3, True, 84, 40, Budget()),
            ("geometric", 3, True, 1, 24, Budget()),
            ("geometric", 5, True, 84, 30, Budget()),
            ("linear", 5, False, 7, 448, FLAT_BUDGET),
            ("geometric", 3, True, 84, 40, FLAT_BUDGET),
        ],
    )
    def test_matches_single_step_oracle(self, mode, z, small_catalog, n, steps, budget):
        catalog = two_by_two_catalog() if small_catalog else default_catalog()
        reward_model = RewardModel(budget, mode, z)
        population = generate_population(
            n, master_seed=n + z, catalog=catalog, behaviors=default_behaviors(z)
        )
        for condition in CONDITIONS:
            run = simulate_conditions(
                population.participants, condition, steps, catalog, reward_model,
                population.contention,
            )
            events, lost = [], 0
            for participant, selection in zip(population.participants, run.selections):
                expected, logged, missed = simulate_condition_oracle(
                    participant, condition, steps, catalog, reward_model,
                    population.contention,
                )
                assert np.array_equal(selection.selections, expected.selections)
                events += logged
                lost += missed
            assert list(run.events) == events
            assert run.lost_steps == lost

    def test_saturations_are_counted_and_logged(self, catalog, caplog):
        n, steps = 7, 448
        population = generate_population(n, master_seed=3)
        reward_model = RewardModel(FLAT_BUDGET)
        rows = lost = 0
        with caplog.at_level(logging.INFO, logger="datacollective"):
            for condition in CONDITIONS:
                run = simulate_conditions(
                    population.participants, condition, steps, catalog, reward_model,
                    population.contention,
                )
                if condition != INTRINSIC:
                    assert run.saturated > 0
                    assert f"{condition}: {run.saturated} of {n} participants" in caplog.text
                rows += len(run.events)
                lost += run.lost_steps
        assert lost > 0
        assert rows == n * (catalog.m + 2 * steps) - lost


PCG64_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341


def zero_output_generator(seed):
    """A PCG64 generator whose next raw output is 0. PCG64 steps its 128-bit
    state, then outputs the XOR of the new state's halves, rotated; so the
    state is set to the preimage of one with equal halves."""
    rng = np.random.default_rng(seed)
    state = rng.bit_generator.state
    inc = state["state"]["inc"]
    half = 0x0123456789ABCDEF
    target = (half << 64) | half
    state["state"]["state"] = (target - inc) * pow(PCG64_MULTIPLIER, -1, 2**128) % 2**128
    rng.bit_generator.state = state
    return rng


class TestStreamEmulator:
    """``_RawStreams`` against the real ``Generator`` calls it emulates for
    the dilemma loop. A numpy release that changes how ``random()`` or
    ``integers(0, size)`` consume PCG64 output fails here."""

    @staticmethod
    def assert_in_step(streams, reals):
        """Same held half as each real generator, and the same next output."""
        for i, real in enumerate(reals):
            state = real.bit_generator.state
            assert bool(streams.held[i]) == bool(state["has_uint32"])
            assert int(streams.half[i]) == state["uinteger"]
        rows = np.arange(len(reals))
        assert streams._next64(rows).tolist() == [r.bit_generator.random_raw() for r in reals]

    def run_draws(self, seeds, draws, block):
        """Interleave ``random()`` and ``integers(0, 1..5)`` on every row,
        leaving out a random fifth of the rows at each draw as the lockstep
        loop leaves out saturated participants."""
        reals = [np.random.default_rng(s) for s in seeds]
        twins = [np.random.default_rng(s) for s in seeds]
        for real, twin in zip(reals[::2], twins[::2]):
            # half the rows start with a high half held
            assert real.integers(0, 3) == twin.integers(0, 3)
        streams = _RawStreams(twins, block)
        schedule = np.random.default_rng(len(reals))
        for _ in range(draws):
            rows = np.flatnonzero(schedule.random(len(reals)) < 0.8)
            sizes = schedule.integers(1, 6, size=rows.size)
            expected = [reals[i].random() for i in rows.tolist()]
            assert streams.random(rows).tolist() == expected
            expected = [reals[i].integers(0, s) for i, s in zip(rows.tolist(), sizes.tolist())]
            assert streams.integers(rows, sizes).tolist() == expected
        self.assert_in_step(streams, reals)
        return streams

    def test_matches_generator_calls(self):
        streams = self.run_draws(range(200), 300, block=600)
        assert streams.raw.shape[1] == 600

    @pytest.mark.parametrize("size, used", [(2, 1), (3, 2), (4, 1), (5, 2)])
    def test_rejected_draws_are_redrawn(self, size, used):
        # A half of 0 is rejected by sizes 3 and 5 (threshold 1) and kept by
        # sizes 2 and 4 (threshold 0); no seed search reaches one.
        assert zero_output_generator(0).bit_generator.random_raw() == 0
        reals = [zero_output_generator(0), np.random.default_rng(1)]
        twins = [zero_output_generator(0), np.random.default_rng(1)]
        streams = _RawStreams(twins, 4)
        drawn = streams.integers(np.arange(2), np.array([size, size]))
        assert drawn.tolist() == [real.integers(0, size) for real in reals]
        # Sizes 3 and 5 reject both halves of the zero output and take the
        # low half of the next one; every draw holds the high half of the
        # last output it used. The other row draws once.
        assert streams.cursor.tolist() == [used, 1]
        assert streams.held.tolist() == [True, True]
        self.assert_in_step(streams, reals)

    def test_short_block_grows(self):
        streams = self.run_draws(range(5), 100, block=3)
        assert streams.raw.shape[1] > 3


class TestPortfolios:
    def test_share_nothing_plan(self):
        sv = SelectionVector(np.full(64, 5))
        portfolio = build_portfolio("p", {c: sv for c in CONDITIONS})
        for plan in portfolio.plans:
            assert plan.values == pytest.approx(np.zeros(64))
            assert plan.local_cost == 0.0

    def test_share_everything_plan(self):
        sv = SelectionVector(np.full(64, 1))
        portfolio = build_portfolio("p", {c: sv for c in CONDITIONS})
        assert portfolio.plans[0].values == pytest.approx(np.ones(64))
        assert portfolio.plans[0].local_cost == 1.0

    def test_cost_is_mean_of_values(self):
        rng = np.random.default_rng(14)
        sv = SelectionVector(rng.integers(1, 6, size=64))
        portfolio = build_portfolio("p", {c: sv for c in CONDITIONS})
        plan = portfolio.plans[0]
        assert plan.local_cost == pytest.approx(plan.values.mean())
        assert np.all((plan.values >= 0) & (plan.values <= 1))

    def test_missing_condition(self):
        sv = SelectionVector(np.full(64, 3))
        with pytest.raises(IncompletePortfolioError):
            build_portfolio("p", {"intrinsic": sv})

    def test_labels_follow_conditions(self):
        sv = SelectionVector(np.full(4, 2))
        portfolio = build_portfolio("p", {c: sv for c in CONDITIONS})
        assert tuple(p.label for p in portfolio.plans) == CONDITIONS


class TestPopulationSpec:
    def test_spec_round_trip(self, tmp_path):
        spec_path = tmp_path / "population.json"
        spec_path.write_text(
            json.dumps(
                {
                    "n": 10,
                    "seed": 4,
                    "mix": {PRIVACY_PRESERVER: 0.5, PRIVACY_IGNORANT: 0.5},
                    "drift_overrides": {PRIVACY_PRESERVER: 0.9},
                }
            )
        )
        spec = load_population_spec(spec_path)
        population = population_from_spec(spec)
        assert len(population.participants) == 10
        drifts = {
            p.behavior.kind: p.behavior.drift for p in population.participants
        }
        assert drifts[PRIVACY_PRESERVER] == 0.9

    def test_unknown_keys_rejected(self, tmp_path):
        spec_path = tmp_path / "population.json"
        spec_path.write_text('{"n": 5, "bogus": 1}')
        with pytest.raises(InvalidInputError):
            load_population_spec(spec_path)

    def test_policy_overrides(self):
        spec = {
            "n": 4,
            "seed": 1,
            "mix": {PRIVACY_NEUTRAL: 1.0},
            "policy_overrides": {
                PRIVACY_NEUTRAL: {
                    "intrinsic_policy": [0, 0, 0, 0, 1.0],
                    "polarization": 0.0,
                }
            },
        }
        population = population_from_spec(spec)
        behavior = population.participants[0].behavior
        assert behavior.intrinsic_policy[-1] == 1.0
        with pytest.raises(InvalidInputError):
            population_from_spec(
                {"n": 2, "policy_overrides": {PRIVACY_NEUTRAL: {"nope": 1}}}
            )

    def test_default_mix_sums_to_one(self):
        assert sum(DEFAULT_GROUP_MIX.values()) == pytest.approx(1.0, abs=1e-9)


class TestExtractGroups:
    def test_single_cluster_is_mean(self):
        rng = np.random.default_rng(15)
        points = rng.random((40, 2))
        result = extract_groups(points, k=1, seed=0)
        assert result.centroids[0] == pytest.approx(points.mean(axis=0))
        assert set(result.labels) == {0}

    def test_planted_blobs_recovered(self):
        rng = np.random.default_rng(16)
        centers = np.array([[0, 0], [10, 0], [0, 10], [10, 10], [5, 20]], dtype=float)
        points, truth = [], []
        for label, center in enumerate(centers):
            points.append(center + 0.4 * rng.standard_normal((30, 2)))
            truth.extend([label] * 30)
        points = np.vstack(points)
        result = extract_groups(points, k=5, seed=3)
        assert _best_accuracy(result.labels, np.array(truth), 5) >= 0.95

    def test_duplicate_points_no_crash(self):
        points = np.ones((10, 2))
        result = extract_groups(points, k=2, seed=1)
        assert result.labels.shape == (10,)
        assert result.inertia == pytest.approx(0.0)

    def test_fewer_points_than_clusters(self):
        with pytest.raises(InvalidInputError):
            extract_groups(np.ones((2, 2)), k=3)

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(18)
        points = rng.random((200, 2))
        result = extract_groups(points, k=4, seed=5)
        history = np.array(result.inertia_history)
        assert np.all(np.diff(history) <= 1e-9)

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(19)
        points = rng.random((50, 2))
        a = extract_groups(points, k=3, seed=7)
        b = extract_groups(points, k=3, seed=7)
        assert np.array_equal(a.labels, b.labels)
        assert a.centroids == pytest.approx(b.centroids)


def _best_accuracy(labels, truth, k):
    from itertools import permutations

    best = 0.0
    for perm in permutations(range(k)):
        mapped = np.array([perm[l] for l in labels])
        best = max(best, float(np.mean(mapped == truth)))
    return best
