import re

import numpy as np
import pytest

from conftest import random_profile
from datacollective.errors import (
    DegenerateProfileError,
    InvalidInputError,
    MissingParameterError,
)
from datacollective.population import generate_population
from datacollective.sharing import (
    ABSOLUTE_SACRIFICED_REWARDS,
    ABSOLUTE_SHARED_DATA,
    RELATIVE_SACRIFICED_REWARDS,
    RELATIVE_SHARED_DATA,
    Budget,
    Criterion,
    RewardModel,
    SelectionVector,
    ValuationScheme,
    WeightProfile,
    enumerate_scenarios,
    geometric_rewards,
    linear_rewards,
    max_rewards,
    privacy_cost,
    privacy_score,
    read_catalog,
    read_weight_profiles,
    reward_table,
    write_weight_profiles,
)


class TestEnumeration:
    def test_default_catalog_is_64(self, catalog):
        assert catalog.m == 64
        assert catalog.k == 3
        assert catalog.sizes == (4, 4, 4)

    def test_degenerate_single_element(self):
        cat = enumerate_scenarios([Criterion("only", ("a",))])
        assert cat.m == 1
        assert cat.scenarios[0].element_indices == (1,)

    def test_two_by_three_order(self):
        cat = enumerate_scenarios(
            [Criterion("first", ("a", "b")), Criterion("second", ("x", "y", "z"))]
        )
        expected = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)]
        assert [s.element_indices for s in cat.scenarios] == expected
        assert [s.id for s in cat.scenarios] == [1, 2, 3, 4, 5, 6]

    def test_enumeration_is_bijection(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            sizes = rng.integers(1, 5, size=rng.integers(1, 4))
            criteria = [
                Criterion(f"c{u}", tuple(f"e{u}_{o}" for o in range(q)))
                for u, q in enumerate(sizes)
            ]
            cat = enumerate_scenarios(criteria)
            combos = {s.element_indices for s in cat.scenarios}
            assert len(combos) == cat.m == int(np.prod(sizes))

    def test_empty_criteria_rejected(self):
        with pytest.raises(InvalidInputError):
            enumerate_scenarios([])
        with pytest.raises(InvalidInputError):
            Criterion("empty", ())

    def test_duplicate_elements_rejected(self):
        with pytest.raises(InvalidInputError):
            Criterion("dup", ("a", "a"))

    def test_index_matrix_is_built_once_and_read_only(self):
        cat = enumerate_scenarios(
            [Criterion("first", ("a", "b")), Criterion("second", ("x", "y", "z"))]
        )
        idx = cat.index_matrix()
        assert idx is cat.index_matrix()
        assert idx.tolist() == [[o - 1 for o in s.element_indices] for s in cat.scenarios]
        with pytest.raises(ValueError):
            idx[0, 0] = 1

    def test_element_mask_counts(self, catalog):
        for u in (1, 2, 3):
            for o in (1, 2, 3, 4):
                assert catalog.element_mask(u, o).sum() == 16


class TestWeights:
    # Every 4x4x4 profile's scenario weights total m/4 = 16, so the reward
    # table at pool 16 holds the scenario weights themselves.
    def test_uniform_scenario_weight(self, catalog, uniform_profile):
        weights = reward_table([uniform_profile], catalog, 16.0)[0]
        for j in range(8):
            assert weights[j] == pytest.approx(0.25)

    def test_point_mass_weight(self, catalog):
        profile = WeightProfile(
            "point",
            np.array([1.0, 0.0, 0.0]),
            (
                np.array([1.0, 0, 0, 0]),
                np.full(4, 0.25),
                np.full(4, 0.25),
            ),
        )
        assert reward_table([profile], catalog, 16.0)[0, 0] == pytest.approx(1.0)

    def test_hand_computed_weight(self, catalog):
        profile = WeightProfile(
            "hand",
            np.array([0.5, 0.3, 0.2]),
            (
                np.array([0.4, 0.2, 0.2, 0.2]),
                np.array([0.1, 0.3, 0.3, 0.3]),
                np.array([0.25, 0.25, 0.25, 0.25]),
            ),
        )
        # 0.5*0.4 + 0.3*0.1 + 0.2*0.25
        assert reward_table([profile], catalog, 16.0)[0, 0] == pytest.approx(0.28)

    def test_uniform_total_weight(self, catalog, uniform_profile):
        # total weight 16 over 64 scenarios: each gets 1/64 of any pool
        rmax = reward_table([uniform_profile], catalog, 16.0)
        assert rmax.sum() == pytest.approx(16.0)
        assert rmax == pytest.approx(np.full((1, 64), 0.25))

    def test_single_scenario_total(self):
        cat = enumerate_scenarios([Criterion("c", ("a",))])
        profile = WeightProfile("p", np.array([1.0]), (np.array([1.0]),))
        assert reward_table([profile], cat, 3.0).tolist() == [[3.0]]

    def test_dimension_mismatch(self, catalog, uniform_profile):
        small = enumerate_scenarios([Criterion("c", ("a", "b"))])
        fits = WeightProfile.uniform(small, "fits")
        with pytest.raises(InvalidInputError, match="participant 'uniform'"):
            reward_table([fits, uniform_profile], small, 15.0)

    def test_invalid_profile_sums(self, catalog):
        with pytest.raises(InvalidInputError):
            WeightProfile(
                "bad", np.array([0.5, 0.5, 0.5]), tuple(np.full(4, 0.25) for _ in range(3))
            )

    @pytest.mark.parametrize(
        "crit, elems, message",
        [
            ([0.5, 0.5], [[1.0]], "criterion/element weight shapes disagree"),
            ([[0.5, 0.5]], [[1.0]], "criterion/element weight shapes disagree"),
            ([0.5, 0.5], [[1.0], [np.nan]], "criterion and element weights must be finite"),
            ([np.inf, 0.5], [[1.0], [1.0]], "criterion and element weights must be finite"),
            ([1.5, -0.5], [[1.0], [1.0]], "criterion weights must lie in [0, 1]"),
            ([0.5, 0.6], [[1.0], [1.0]], "criterion weights must sum to 1"),
            # criterion 2's elements break both rules; criterion 1's only the sum
            ([0.5, 0.5], [[1.0], [1.5, -0.5]], "element weights of criterion 2 out of [0, 1]"),
            ([0.5, 0.5], [[1.0], [0.5, 0.6]], "element weights of criterion 2 must sum to 1"),
            ([0.5, 0.5], [[0.6], [1.5, -0.5]], "element weights of criterion 1 must sum to 1"),
            ([0.5, 0.5], [[1.2, -0.3], [0.5, 0.6]], "element weights of criterion 1 out of [0, 1]"),
            ([0.5, 0.5], [[1.0], []], "element weights of criterion 2 must sum to 1"),
        ],
    )
    def test_invalid_profile_messages(self, crit, elems, message):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            WeightProfile("bad", np.array(crit), tuple(np.array(e) for e in elems))

    def test_likert_mapping(self):
        profile = WeightProfile.from_likert(
            "likert",
            ["very low", "medium", "very high"],
            [[1, 1, 1, 1], [5, 5, 5, 5], ["low", "high", 2, 4]],
        )
        assert profile.criterion_weights == pytest.approx(np.array([1, 3, 5]) / 9)
        assert profile.element_weights[2] == pytest.approx(np.array([2, 4, 2, 4]) / 12)
        with pytest.raises(InvalidInputError):
            WeightProfile.from_likert("bad", ["nonsense"], [[1]])


class TestRewards:
    def test_uniform_max_rewards(self, catalog, uniform_profile):
        rmax = max_rewards(uniform_profile, catalog, 15.0)
        assert rmax == pytest.approx(np.full(64, 15.0 / 64))

    def test_zero_pool(self, catalog, uniform_profile):
        assert max_rewards(uniform_profile, catalog, 0.0) == pytest.approx(np.zeros(64))

    def test_budget_conservation_random(self, catalog):
        rng = np.random.default_rng(11)
        for _ in range(50):
            profile = random_profile(catalog, rng)
            pool = float(rng.uniform(0, 100))
            assert abs(max_rewards(profile, catalog, pool).sum() - pool) < 1e-9

    def test_degenerate_profile_guard(self, catalog, uniform_profile):
        broken = WeightProfile.uniform(catalog, "broken")
        object.__setattr__(broken, "criterion_weights", np.zeros(3))
        with pytest.raises(DegenerateProfileError):
            max_rewards(broken, catalog, 15.0)
        with pytest.raises(DegenerateProfileError, match="participant 'broken'"):
            reward_table([uniform_profile, broken], catalog, 15.0)

    @pytest.mark.parametrize("mode", ["linear", "geometric"])
    def test_reward_table_rows_equal_per_profile(self, catalog, mode):
        """The batched table is the per-profile allocation bit for bit, both
        through ``max_rewards`` and through the scenario weights summed one
        profile at a time."""
        model = RewardModel(mode=mode)
        profiles = [
            p.profile
            for p in generate_population(840, master_seed=3, catalog=catalog).participants
        ]
        table = model.reward_table(profiles, catalog)
        assert table.shape == (840, 64) and table.flags.c_contiguous
        idx = catalog.index_matrix()
        for row, profile in zip(table, profiles):
            assert np.array_equal(row, model.max_rewards(profile, catalog))
            weights = np.sum(
                [profile.criterion_weights[u] * profile.element_weights[u][idx[:, u]]
                 for u in range(catalog.k)],
                axis=0,
            )
            assert np.array_equal(row, weights / weights.sum() * model.pool)

    def test_linear_examples(self):
        assert linear_rewards(2.0, 1, 5) == pytest.approx(2.0)
        assert linear_rewards(2.0, 5, 5) == 0.0
        assert linear_rewards(2.0, 3, 5) == pytest.approx(1.0)
        with pytest.raises(InvalidInputError):
            linear_rewards(1.0, 1, 1)
        with pytest.raises(InvalidInputError):
            linear_rewards(1.0, 6, 5)

    def test_linear_complementarity(self):
        z = 5
        for s in range(1, z + 1):
            assert linear_rewards(1.0, s, z) + (s - 1) / (z - 1) == pytest.approx(1.0)

    def test_geometric_examples(self):
        budget = Budget(17.5, 2.5, 15.0)
        assert geometric_rewards(1.0, 1, 5, budget) == 1.0
        assert geometric_rewards(1.0, 5, 5, budget) == pytest.approx(1 / 7, abs=1e-15)
        assert geometric_rewards(1.0, 3, 5, budget) == pytest.approx(7**-0.5)

    def test_geometric_endpoint_identity_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            participation = float(rng.uniform(0.1, 5))
            sharing = float(rng.uniform(0.1, 20))
            budget = Budget(participation + sharing, participation, sharing)
            rmax = float(rng.uniform(0, 3))
            z = int(rng.integers(2, 9))
            assert geometric_rewards(rmax, 1, z, budget) == rmax
            assert geometric_rewards(rmax, z, z, budget) == rmax * (
                budget.participation / budget.total
            )

    def test_rewards_monotone_in_level(self):
        budget = Budget()
        for z in (2, 5, 7):
            lin = [linear_rewards(1.0, s, z) for s in range(1, z + 1)]
            geo = [geometric_rewards(1.0, s, z, budget) for s in range(1, z + 1)]
            assert all(a >= b for a, b in zip(lin, lin[1:]))
            assert all(a > b for a, b in zip(geo, geo[1:]))

    def test_geometric_rejects_zero_budget(self):
        with pytest.raises(InvalidInputError):
            geometric_rewards(1.0, 1, 5, Budget(0.0, 0.0, 0.0))

    def test_reward_model_pools(self, catalog, uniform_profile):
        linear = RewardModel(mode="linear")
        geometric = RewardModel(mode="geometric")
        assert linear.pool == 15.0
        assert geometric.pool == 17.5
        assert linear.max_rewards(uniform_profile, catalog).sum() == pytest.approx(15.0)
        assert geometric.max_rewards(uniform_profile, catalog).sum() == pytest.approx(17.5)


class TestPrivacy:
    def test_privacy_endpoints(self):
        assert privacy_score(SelectionVector(np.full(64, 1))) == 0.0
        assert privacy_score(SelectionVector(np.full(64, 5))) == 1.0
        assert privacy_score(SelectionVector(np.full(64, 3))) == pytest.approx(0.5)

    def test_privacy_monotone_in_each_selection(self):
        rng = np.random.default_rng(7)
        sel = SelectionVector(rng.integers(1, 5, size=64))
        p = privacy_score(sel)
        bumped = sel.replace(10, int(sel.selections[9]) + 1)
        assert privacy_score(bumped) > p

    def test_selection_validation(self):
        with pytest.raises(InvalidInputError):
            SelectionVector(np.array([0, 1, 2]))
        with pytest.raises(InvalidInputError):
            SelectionVector(np.array([1, 6]), z=5)
        with pytest.raises(InvalidInputError):
            SelectionVector(np.array([1, 2]), z=1)


class TestValuations:
    def test_scheme_examples(self):
        bs = 17.5
        assert privacy_cost(17.5, ValuationScheme(ABSOLUTE_SHARED_DATA), bs) == 17.5
        assert privacy_cost(0.0, ValuationScheme(ABSOLUTE_SACRIFICED_REWARDS), bs) == -17.5
        scheme = ValuationScheme(RELATIVE_SHARED_DATA, intrinsic_rewards=4.2)
        assert privacy_cost(4.2, scheme, bs) == pytest.approx(0.0)

    def test_relative_requires_baseline(self):
        with pytest.raises(MissingParameterError):
            ValuationScheme(RELATIVE_SHARED_DATA)
        with pytest.raises(MissingParameterError):
            ValuationScheme(RELATIVE_SACRIFICED_REWARDS)

    def test_unknown_kind(self):
        with pytest.raises(InvalidInputError):
            ValuationScheme("made_up")

    def test_baseline_outside_budget_rejected(self):
        scheme = ValuationScheme(RELATIVE_SHARED_DATA, intrinsic_rewards=20.0)
        with pytest.raises(InvalidInputError):
            privacy_cost(5.0, scheme, 17.5)

    def test_ranges_match_table(self):
        # Bounds per scheme for r in [0, 17.5] and baseline in {0, 17.5}.
        bs = 17.5
        bounds = {
            (ABSOLUTE_SHARED_DATA, None): (0.0, 17.5),
            (ABSOLUTE_SACRIFICED_REWARDS, None): (-17.5, 0.0),
            (RELATIVE_SHARED_DATA, 0.0): (0.0, 17.5),
            (RELATIVE_SHARED_DATA, 17.5): (-17.5, 0.0),
            (RELATIVE_SACRIFICED_REWARDS, 0.0): (-17.5, 0.0),
            (RELATIVE_SACRIFICED_REWARDS, 17.5): (0.0, 17.5),
        }
        for (kind, baseline), (lo, hi) in bounds.items():
            scheme = ValuationScheme(kind, intrinsic_rewards=baseline)
            for r in np.linspace(0, 17.5, 15):
                value = privacy_cost(float(r), scheme, bs)
                assert lo - 1e-9 <= value <= hi + 1e-9


class TestBudget:
    def test_default_split(self):
        b = Budget()
        assert (b.total, b.participation, b.sharing) == (17.5, 2.5, 15.0)

    def test_inconsistent_split_rejected(self):
        with pytest.raises(InvalidInputError):
            Budget(10.0, 5.0, 4.0)
        with pytest.raises(InvalidInputError):
            Budget(-1.0, 0.0, -1.0)


class TestFiles:
    def test_catalog_round_trip(self, tmp_path, catalog):
        path = tmp_path / "catalog.txt"
        path.write_text(
            "".join(f"{c.name} = {', '.join(c.elements)}\n" for c in catalog.criteria),
            encoding="utf-8",
        )
        loaded = read_catalog(path)
        assert loaded == catalog

    def test_catalog_parse_errors(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("sensor acc, lig\n")
        with pytest.raises(InvalidInputError):
            read_catalog(path)

    def test_profile_csv_round_trip(self, tmp_path, catalog):
        rng = np.random.default_rng(8)
        profiles = [random_profile(catalog, rng, f"p{i}") for i in range(5)]
        path = tmp_path / "profiles.csv"
        write_weight_profiles(path, profiles, catalog)
        loaded = read_weight_profiles(path, catalog)
        assert [p.participant_id for p in loaded] == [p.participant_id for p in profiles]
        for a, b in zip(loaded, profiles):
            assert a.criterion_weights == pytest.approx(b.criterion_weights, abs=1e-9)

    def test_profile_csv_header_mandatory(self, tmp_path, catalog):
        path = tmp_path / "noheader.csv"
        path.write_text("p0,0.3,0.3,0.4\n")
        with pytest.raises(InvalidInputError):
            read_weight_profiles(path, catalog)
