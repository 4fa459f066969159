import numpy as np
import pytest

from datacollective.errors import InvalidInputError
from datacollective.goals import (
    GoalSignal,
    build_goal_signals,
    level_name,
    mismatch,
    read_goal_signal,
    standardize,
    write_goal_signal,
)
from datacollective.sharing import SelectionVector
from helpers import standardize_oracle


def make(selections, z=5):
    return SelectionVector(np.asarray(selections), z)


class TestGoalSignals:
    def test_unanimous_choice(self):
        participants = [make([5, 1, 3]) for _ in range(3)]
        signals = build_goal_signals(participants)
        assert signals[4].values[0] == 1.0
        assert all(signals[o].values[0] == 0.0 for o in range(4))

    def test_even_split(self):
        signals = build_goal_signals([make([1, 1]), make([5, 1])])
        assert signals[0].values[0] == 0.5
        assert signals[4].values[0] == 0.5

    def test_partition_of_unity_random(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(1, 30))
            sels = [make(rng.integers(1, 6, size=64)) for _ in range(n)]
            signals = build_goal_signals(sels)
            total = np.sum([s.values for s in signals], axis=0)
            assert total == pytest.approx(np.ones(64), abs=1e-9)

    def test_empty_population_rejected(self):
        with pytest.raises(InvalidInputError):
            build_goal_signals([])

    def test_level_names(self):
        assert level_name(1) == "very_low"
        assert level_name(5) == "very_high"
        assert level_name(2, z=7) == "level_2"

    def test_signal_bounds_enforced(self):
        with pytest.raises(InvalidInputError):
            GoalSignal(1, np.array([0.2, 1.4]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(InvalidInputError):
            GoalSignal(1, np.array([bad, 0.5]))


class TestStandardize:
    def test_hand_computed(self):
        out = standardize(np.array([1.0, 2.0, 3.0]))
        assert out == pytest.approx([-1.2247448714, 0.0, 1.2247448714])

    def test_constant_maps_to_zero(self):
        assert standardize(np.full(10, 3.3)) == pytest.approx(np.zeros(10))

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        x = standardize(rng.random(50))
        assert standardize(x) == pytest.approx(x, abs=1e-9)

    def test_moments(self):
        rng = np.random.default_rng(6)
        z = standardize(rng.random(101) * 40 - 7)
        assert z.mean() == pytest.approx(0.0, abs=1e-9)
        assert np.sqrt(np.mean(z**2)) == pytest.approx(1.0, abs=1e-9)

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.random(30)
        assert standardize(x) == pytest.approx(standardize_oracle(x), abs=1e-12)

    def test_too_short_rejected(self):
        with pytest.raises(InvalidInputError):
            standardize(np.array([1.0]))
        with pytest.raises(InvalidInputError):
            standardize(np.ones((3, 1)))

    def test_rows_match_vector_form_exactly(self):
        rng = np.random.default_rng(8)
        x = rng.random((2, 3, 64))
        x[1, 2] = 0.25
        out = standardize(x)
        assert out.shape == x.shape
        assert np.array_equal(out[1, 2], np.zeros(64))
        for got, row in zip(out.reshape(-1, 64), x.reshape(-1, 64)):
            assert np.array_equal(got, standardize(row))


class TestMismatch:
    def test_affine_aggregate_matches_exactly(self):
        rng = np.random.default_rng(9)
        goal = GoalSignal(3, rng.random(64))
        aggregate = 5.0 * goal.values + 2.0
        report = mismatch(aggregate, goal)
        assert report.per_scenario == pytest.approx(np.zeros(64), abs=1e-9)
        assert report.mean_abs == pytest.approx(0.0, abs=1e-9)

    def test_sign_flip(self):
        rng = np.random.default_rng(10)
        goal = GoalSignal(3, rng.random(64))
        report = mismatch(-goal.values, goal)
        expected = 2 * np.abs(standardize(goal.values))
        assert report.per_scenario == pytest.approx(expected, abs=1e-9)

    def test_rmse_recomputation_oracle(self):
        rng = np.random.default_rng(11)
        goal = GoalSignal(2, rng.random(64))
        aggregate = rng.random(64)
        report = mismatch(aggregate, goal)
        errors = np.abs(standardize_oracle(aggregate) - standardize_oracle(goal.values))
        assert report.mean_abs == pytest.approx(errors.mean(), abs=1e-12)
        assert report.rmse == pytest.approx(np.sqrt(np.mean(errors**2)), abs=1e-12)

    def test_mean_abs_bounded_by_rmse(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            report = mismatch(rng.random(32), GoalSignal(1, rng.random(32)))
            assert report.mean_abs <= report.rmse + 1e-12

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            mismatch(np.ones(10), GoalSignal(1, np.ones(12) / 2))


class TestGoalSignalFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        signal = GoalSignal(4, rng.integers(0, 100, size=64) / 100)
        path = tmp_path / "goal_high.csv"
        write_goal_signal(path, signal)
        loaded = read_goal_signal(path, level=4, expected_length=64)
        assert loaded.level == 4
        assert loaded.values == pytest.approx(signal.values, abs=1e-12)

    def test_length_validation(self, tmp_path):
        path = tmp_path / "goal.csv"
        write_goal_signal(path, GoalSignal(1, np.zeros(8)))
        with pytest.raises(InvalidInputError):
            read_goal_signal(path, level=1, expected_length=64)
