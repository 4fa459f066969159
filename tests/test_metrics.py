import numpy as np
import pytest

from conftest import random_profile
from datacollective.coordination import CostWeights, PlanPortfolio, coordinate
from datacollective.errors import InvalidInputError
from datacollective.goals import GoalSignal
from datacollective.metrics import (
    ConditionSnapshot,
    collection_cost,
    element_privacy,
    expected_scenario_privacy,
    privacy_recovery,
    reinforcement_report,
    scenario_privacy,
    write_cost_csv,
    write_mismatch_csv,
    write_scenario_privacy_csv,
)
from datacollective.population import CONDITIONS, build_portfolios
from datacollective.sharing import RewardModel


def snapshot_from_matrix(label, matrix, z=5):
    matrix = np.asarray(matrix)
    ids = tuple(f"p{i}" for i in range(matrix.shape[0]))
    return ConditionSnapshot(label, ids, matrix, z)


class TestScenarioPrivacy:
    def test_share_nothing_everywhere(self):
        snap = snapshot_from_matrix("x", np.full((3, 64), 5))
        assert scenario_privacy(snap) == pytest.approx(np.ones(64))

    def test_two_participant_split(self):
        snap = snapshot_from_matrix("x", np.vstack([np.full(64, 1), np.full(64, 5)]))
        assert scenario_privacy(snap) == pytest.approx(np.full(64, 0.5))

    def test_recomputation_oracle(self):
        rng = np.random.default_rng(40)
        matrix = rng.integers(1, 6, size=(11, 64))
        snap = snapshot_from_matrix("x", matrix)
        direct = ((matrix - 1) / 4).mean(axis=0)
        assert scenario_privacy(snap) == pytest.approx(direct, abs=1e-12)

    def test_empty_snapshot_rejected(self):
        with pytest.raises(InvalidInputError):
            ConditionSnapshot("x", (), np.zeros((1, 0, 64)))


class TestExpectedPrivacy:
    def test_uniform_is_flat(self, catalog):
        snap = snapshot_from_matrix("x", np.full((4, 64), 3))
        expected = expected_scenario_privacy(snap, catalog)
        assert expected == pytest.approx(np.full(64, 0.5))
        report = reinforcement_report(snap, catalog)
        assert report.reinforcement == pytest.approx(np.zeros(12), abs=1e-12)

    def test_asymmetric_element_oracle(self, catalog):
        # all scenarios containing element 1 of criterion 1 at full privacy,
        # everything else shared: actual 1.0 vs expected 0.5 exactly.
        mask = catalog.element_mask(1, 1)
        row = np.where(mask, 5, 1)
        snap = snapshot_from_matrix("x", row[None, :])
        assert element_privacy(snap, catalog, 1, 1) == pytest.approx(1.0)
        report = reinforcement_report(snap, catalog)
        idx = report.element_labels.index("acc")
        assert report.expected[idx] == pytest.approx(0.5)
        assert report.reinforcement[idx] == pytest.approx(1.0)

    def test_swap_symmetry(self, catalog):
        rng = np.random.default_rng(41)
        row = rng.integers(1, 6, size=64)
        snap = snapshot_from_matrix("x", row[None, :])
        # swapping selections between two elements' scenarios swaps reports
        mask_a = catalog.element_mask(1, 2)
        mask_b = catalog.element_mask(1, 3)
        swapped = row.copy()
        swapped[mask_a], swapped[mask_b] = row[mask_b], row[mask_a]
        snap_swapped = snapshot_from_matrix("x", swapped[None, :])
        assert element_privacy(snap, catalog, 1, 2) == pytest.approx(
            element_privacy(snap_swapped, catalog, 1, 3)
        )

    def test_element_privacy_within_scenario_bounds(self, catalog):
        rng = np.random.default_rng(42)
        snap = snapshot_from_matrix("x", rng.integers(1, 6, size=(7, 64)))
        per_scenario = scenario_privacy(snap)
        for u in range(1, 4):
            for o in range(1, 5):
                value = element_privacy(snap, catalog, u, o)
                assert per_scenario.min() - 1e-12 <= value <= per_scenario.max() + 1e-12

    def test_zero_expected_flagged(self, catalog):
        snap = snapshot_from_matrix("x", np.full((2, 64), 1))
        report = reinforcement_report(snap, catalog)
        assert np.all(report.undefined)
        assert np.all(np.isnan(report.reinforcement))


class TestCollectionCost:
    def make_profiles(self, catalog, ids, seed=0):
        rng = np.random.default_rng(seed)
        return {pid: random_profile(catalog, rng, pid) for pid in ids}

    def test_share_nothing_costs_zero(self, catalog):
        snap = snapshot_from_matrix("x", np.full((5, 64), 5))
        profiles = self.make_profiles(catalog, snap.participant_ids)
        report = collection_cost(snap, profiles, RewardModel(), catalog)
        assert report.total == pytest.approx(0.0)

    def test_share_everything_costs_pool_each(self, catalog):
        snap = snapshot_from_matrix("x", np.full((5, 64), 1))
        profiles = self.make_profiles(catalog, snap.participant_ids)
        model = RewardModel()
        report = collection_cost(snap, profiles, model, catalog)
        assert report.total == pytest.approx(5 * model.pool)

    def test_cost_monotone_in_sharing(self, catalog):
        rng = np.random.default_rng(43)
        matrix = rng.integers(2, 6, size=(4, 64))
        profiles = self.make_profiles(catalog, tuple(f"p{i}" for i in range(4)))
        base = collection_cost(
            snapshot_from_matrix("x", matrix), profiles, RewardModel(), catalog
        ).total
        bumped = matrix.copy()
        bumped[2, 17] -= 1  # share strictly more
        more = collection_cost(
            snapshot_from_matrix("x", bumped), profiles, RewardModel(), catalog
        ).total
        assert more >= base

    def test_missing_profile_rejected(self, catalog):
        snap = snapshot_from_matrix("x", np.full((2, 64), 3))
        profiles = self.make_profiles(catalog, ("p0",))
        with pytest.raises(InvalidInputError):
            collection_cost(snap, profiles, RewardModel(), catalog)

    def test_intrinsic_plans_can_be_free(self, catalog):
        rng = np.random.default_rng(44)
        ids = tuple(f"p{i}" for i in range(6))
        draws = rng.integers(1, 6, size=(len(CONDITIONS), 6, 64))
        portfolios = build_portfolios(ids, dict(zip(CONDITIONS, draws)), 5)
        goal = GoalSignal(5, rng.random(64))
        runs = coordinate(portfolios, goal, CostWeights(), iterations=8,
                          repetitions=2, seed=1)
        snap = ConditionSnapshot.from_runs("coordinated", runs, portfolios)
        profiles = self.make_profiles(catalog, ids)
        with_value = collection_cost(snap, profiles, RewardModel(), catalog)
        without = collection_cost(
            snap, profiles, RewardModel(), catalog, include_intrinsic_value=False
        )
        assert without.total <= with_value.total
        picked_intrinsic = np.any(snap.plan_labels == "intrinsic")
        if picked_intrinsic:
            assert without.total < with_value.total


class TestValuations:
    def test_four_scheme_anchors(self, catalog):
        from datacollective.metrics import valuation_report
        from datacollective.sharing import (
            ABSOLUTE_SACRIFICED_REWARDS,
            ABSOLUTE_SHARED_DATA,
            RELATIVE_SACRIFICED_REWARDS,
            RELATIVE_SHARED_DATA,
        )

        rng = np.random.default_rng(47)
        ids = tuple(f"p{i}" for i in range(3))
        profiles = {pid: random_profile(catalog, rng, pid) for pid in ids}
        share_all = ConditionSnapshot("rewarded1", ids, np.full((1, 3, 64), 1))
        share_none = ConditionSnapshot("intrinsic", ids, np.full((1, 3, 64), 5))
        model = RewardModel()
        costs = valuation_report(share_all, share_none, profiles, model, catalog)
        pool = model.pool
        assert costs[ABSOLUTE_SHARED_DATA] == pytest.approx(np.full(3, pool))
        assert costs[ABSOLUTE_SACRIFICED_REWARDS] == pytest.approx(np.zeros(3), abs=1e-9)
        assert costs[RELATIVE_SHARED_DATA] == pytest.approx(np.full(3, pool))
        assert costs[RELATIVE_SACRIFICED_REWARDS] == pytest.approx(np.zeros(3), abs=1e-9)

    def test_population_mismatch_rejected(self, catalog):
        from datacollective.metrics import valuation_report

        rng = np.random.default_rng(48)
        a = ConditionSnapshot("a", ("p0",), np.full((1, 1, 64), 3))
        b = ConditionSnapshot("b", ("q0",), np.full((1, 1, 64), 3))
        profiles = {pid: random_profile(catalog, rng, pid) for pid in ("p0", "q0")}
        with pytest.raises(InvalidInputError):
            valuation_report(a, b, profiles, RewardModel(), catalog)


class TestCoordinatedSnapshot:
    @staticmethod
    def portfolios(rng, z=5, m=8):
        """Agents with 1 to 3 plans, each plan on the level grid of z."""
        portfolios = []
        for a in range(5):
            values = (z - rng.integers(1, z + 1, size=(int(rng.integers(1, 4)), m))) / (z - 1)
            portfolios.append(PlanPortfolio.from_arrays(
                f"p{a}", values, values.mean(axis=1), [f"a{a}k{k}" for k in range(len(values))]
            ))
        return portfolios

    @pytest.mark.parametrize("z", [3, 5])
    def test_choices_gather_each_chosen_plan(self, z):
        rng = np.random.default_rng(z)
        portfolios = self.portfolios(rng, z)
        choices = [[int(rng.integers(len(p.labels))) for p in portfolios] for _ in range(3)]
        snap = ConditionSnapshot.from_choices("coordinated", portfolios, choices, z)
        for r, chosen in enumerate(choices):
            for a, (portfolio, k) in enumerate(zip(portfolios, chosen)):
                plan = portfolio.plans[k]
                levels = np.rint(z - plan.values * (z - 1)).astype(np.intp)
                assert snap.selections[r, a].tolist() == np.clip(levels, 1, z).tolist()
                assert snap.plan_labels[r, a] == plan.label

    @pytest.mark.parametrize(
        "choices, r",
        [
            ([[0, 0, 0, 0, 0], [0, 0, 0, 0]], 1),
            ([[0, 0, 0, 0, 0], [0, 3, 0, 0, 0]], 1),
            ([[0, -1, 0, 0, 0]], 0),
            ([[0, 10**20, 0, 0, 0], [0, 0, 0, 0]], 0),
        ],
    )
    def test_choices_that_do_not_fit_name_the_repetition(self, choices, r):
        portfolios = self.portfolios(np.random.default_rng(1))
        portfolios[1] = PlanPortfolio.from_arrays("p1", np.zeros((3, 8)), np.zeros(3))
        message = f"repetition {r}: plan choices do not fit the 5 portfolios"
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            ConditionSnapshot.from_choices("coordinated", portfolios, choices)


class TestPrivacyRecovery:
    def test_anchors(self):
        intrinsic = snapshot_from_matrix("intrinsic", np.full((3, 64), 5))
        rewarded = snapshot_from_matrix("rewarded", np.full((3, 64), 1))
        assert privacy_recovery(rewarded, intrinsic, intrinsic).percent == pytest.approx(100.0)
        assert privacy_recovery(rewarded, rewarded, intrinsic).percent == pytest.approx(0.0)

    def test_halfway(self):
        intrinsic = snapshot_from_matrix("intrinsic", np.full((2, 64), 5))
        rewarded = snapshot_from_matrix("rewarded", np.full((2, 64), 1))
        halfway = snapshot_from_matrix("coordinated", np.full((2, 64), 3))
        report = privacy_recovery(rewarded, halfway, intrinsic)
        assert report.percent == pytest.approx(50.0)

    def test_reflection_invariance(self):
        rng = np.random.default_rng(45)
        mats = {k: rng.integers(1, 6, size=(4, 64)) for k in ("i", "r", "c")}
        direct = privacy_recovery(
            snapshot_from_matrix("r", mats["r"]),
            snapshot_from_matrix("c", mats["c"]),
            snapshot_from_matrix("i", mats["i"]),
        )
        reflected = privacy_recovery(
            snapshot_from_matrix("r", 6 - mats["r"]),
            snapshot_from_matrix("c", 6 - mats["c"]),
            snapshot_from_matrix("i", 6 - mats["i"]),
        )
        assert reflected.percent == pytest.approx(direct.percent, abs=1e-9)

    def test_undefined_when_anchors_coincide(self):
        same = snapshot_from_matrix("x", np.full((2, 64), 3))
        report = privacy_recovery(same, same, same)
        assert report.undefined

    def test_population_mismatch_rejected(self):
        a = snapshot_from_matrix("a", np.full((2, 64), 3))
        b = ConditionSnapshot("b", ("q0", "q1"), np.full((2, 64), 3))
        with pytest.raises(InvalidInputError):
            privacy_recovery(a, a, b)


class TestReportWriters:
    def test_csv_outputs(self, tmp_path, catalog):
        rng = np.random.default_rng(46)
        snaps = [
            snapshot_from_matrix(label, rng.integers(1, 6, size=(5, 64)))
            for label in ("intrinsic", "rewarded1")
        ]
        goals = [GoalSignal(1, rng.random(64)), GoalSignal(5, rng.random(64))]
        write_scenario_privacy_csv(tmp_path / "privacy.csv", snaps)
        write_mismatch_csv(tmp_path / "mismatch.csv", snaps, goals)
        profiles = {
            pid: random_profile(catalog, rng, pid) for pid in snaps[0].participant_ids
        }
        reports = [
            collection_cost(s, profiles, RewardModel(), catalog) for s in snaps
        ]
        write_cost_csv(tmp_path / "costs.csv", reports)
        privacy_lines = (tmp_path / "privacy.csv").read_text().splitlines()
        assert privacy_lines[0] == "scenario_id,intrinsic,rewarded1"
        assert len(privacy_lines) == 65
        mismatch_lines = (tmp_path / "mismatch.csv").read_text().splitlines()
        assert len(mismatch_lines) == 1 + 2 * 2 * 64
        cost_lines = (tmp_path / "costs.csv").read_text().splitlines()
        assert cost_lines[0] == "condition,repetition,cost_chf,mean_chf,sigma_chf"
