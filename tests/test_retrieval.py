import csv
import re
import tracemalloc

import numpy as np
import pytest

from conftest import random_profile
from datacollective.errors import InvalidInputError
from datacollective.retrieval import (
    IMPROVE_PRIVACY,
    IMPROVE_REWARDS,
    EVENT_GOALS,
    EVENT_LOG_HEADER,
    BalanceState,
    Event,
    EventLog,
    apply_choice,
    improvement,
    improvement_box,
    read_event_log,
    retrieve_next,
    write_event_log,
)
from datacollective.sharing import RewardModel, SelectionVector


@pytest.fixture
def reward_model():
    return RewardModel()


def state_from(selections, rmax, reward_model):
    return BalanceState.from_selection(
        SelectionVector(np.asarray(selections)), np.asarray(rmax, dtype=float), reward_model
    )


@pytest.fixture
def uniform_state(catalog, uniform_profile, reward_model):
    rmax = reward_model.max_rewards(uniform_profile, catalog)
    return state_from(np.full(64, 5), rmax, reward_model)


class TestImprovement:
    def test_privacy_deltas_from_share_all(self, catalog, uniform_profile, reward_model):
        rmax = reward_model.max_rewards(uniform_profile, catalog)
        state = state_from(np.full(64, 1), rmax, reward_model)
        deltas = improvement(state, 1, IMPROVE_PRIVACY)
        m = 64
        assert deltas == pytest.approx([0, 1 / (4 * m), 2 / (4 * m), 3 / (4 * m), 4 / (4 * m)])

    def test_reward_delta_from_share_nothing(self, uniform_state):
        deltas = improvement(uniform_state, 7, IMPROVE_REWARDS)
        assert deltas[0] == pytest.approx(uniform_state.rmax[6])
        assert deltas[4] == 0.0

    def test_current_option_is_zero(self, catalog, uniform_profile, reward_model):
        rng = np.random.default_rng(3)
        rmax = reward_model.max_rewards(uniform_profile, catalog)
        sel = rng.integers(1, 6, size=64)
        state = state_from(sel, rmax, reward_model)
        for j in (1, 13, 64):
            for goal in (IMPROVE_PRIVACY, IMPROVE_REWARDS):
                assert improvement(state, j, goal)[sel[j - 1] - 1] == 0.0

    def test_unknown_goal_rejected(self, uniform_state):
        with pytest.raises(InvalidInputError):
            improvement(uniform_state, 1, "improve_everything")


class TestImprovementBox:
    def test_full_privacy_box(self, catalog, uniform_profile, reward_model):
        rmax = reward_model.max_rewards(uniform_profile, catalog)
        state = state_from(np.full(64, 1), rmax, reward_model)
        assert improvement_box(state, 1, IMPROVE_PRIVACY) == {2, 3, 4, 5}
        assert improvement_box(state, 1, IMPROVE_REWARDS) == set()

    def test_mid_level_privacy_box(self, catalog, uniform_profile, reward_model):
        rmax = reward_model.max_rewards(uniform_profile, catalog)
        state = state_from(np.full(64, 3), rmax, reward_model)
        assert improvement_box(state, 5, IMPROVE_PRIVACY) == {4, 5}
        assert improvement_box(state, 5, IMPROVE_REWARDS) == {1, 2}

    def test_box_is_positive_delta_set(self, catalog, reward_model):
        rng = np.random.default_rng(17)
        for _ in range(10):
            profile = random_profile(catalog, rng)
            rmax = reward_model.max_rewards(profile, catalog)
            state = state_from(rng.integers(1, 6, size=64), rmax, reward_model)
            j = int(rng.integers(1, 65))
            for goal in (IMPROVE_PRIVACY, IMPROVE_REWARDS):
                deltas = improvement(state, j, goal)
                expected = {o + 1 for o in np.flatnonzero(deltas > 0)}
                assert improvement_box(state, j, goal) == expected


class TestRetrieveNext:
    def test_tie_breaks_to_lowest_id(self, uniform_state):
        assert retrieve_next(uniform_state, IMPROVE_REWARDS) == 1

    def test_heavier_scenario_wins(self, catalog, reward_model):
        rmax = np.full(64, 0.2)
        rmax[41] = 0.4
        state = state_from(np.full(64, 5), rmax, reward_model)
        assert retrieve_next(state, IMPROVE_REWARDS) == 42

    def test_saturated_returns_none(self, catalog, uniform_profile, reward_model):
        rmax = reward_model.max_rewards(uniform_profile, catalog)
        all_sharing = state_from(np.full(64, 1), rmax, reward_model)
        assert retrieve_next(all_sharing, IMPROVE_REWARDS) is None
        all_private = state_from(np.full(64, 5), rmax, reward_model)
        assert retrieve_next(all_private, IMPROVE_PRIVACY) is None

    def test_argmax_matches_exhaustive_scan(self, catalog, reward_model):
        rng = np.random.default_rng(29)
        for _ in range(10):
            profile = random_profile(catalog, rng)
            rmax = reward_model.max_rewards(profile, catalog)
            state = state_from(rng.integers(1, 6, size=64), rmax, reward_model)
            for goal in (IMPROVE_PRIVACY, IMPROVE_REWARDS):
                best = retrieve_next(state, goal)
                scan = [max(improvement(state, j, goal)) for j in range(1, 65)]
                if best is None:
                    assert max(scan) <= 0
                else:
                    assert scan[best - 1] == pytest.approx(max(scan))
                    assert scan.index(max(scan)) == best - 1


class TestApplyChoice:
    def test_noop_keeps_state(self, uniform_state):
        after = apply_choice(uniform_state, 3, 5)
        assert np.array_equal(after.selection.selections, uniform_state.selection.selections)
        assert after.accumulated_rewards == pytest.approx(uniform_state.accumulated_rewards)
        assert after.privacy == pytest.approx(uniform_state.privacy)

    def test_share_everything_sequentially(self, uniform_state, reward_model):
        state = uniform_state
        for j in range(1, 65):
            state = apply_choice(state, j, 1)
        assert state.accumulated_rewards == pytest.approx(reward_model.pool)
        assert state.privacy == 0.0

    def test_overwrite_semantics(self, uniform_state):
        state = apply_choice(uniform_state, 10, 5)
        state = apply_choice(state, 10, 3)
        expected = apply_choice(uniform_state, 10, 3)
        assert state.accumulated_rewards == pytest.approx(expected.accumulated_rewards)
        assert state.selection.selections[9] == 3

    def test_bookkeeping_matches_recompute(self, catalog, reward_model):
        rng = np.random.default_rng(31)
        profile = random_profile(catalog, rng)
        rmax = reward_model.max_rewards(profile, catalog)
        state = state_from(np.full(64, 5), rmax, reward_model)
        for _ in range(100):
            state = apply_choice(
                state, int(rng.integers(1, 65)), int(rng.integers(1, 6))
            )
        rebuilt = BalanceState.from_selection(state.selection, rmax, reward_model)
        assert state.accumulated_rewards == pytest.approx(rebuilt.accumulated_rewards, abs=1e-9)
        assert state.privacy == pytest.approx(rebuilt.privacy, abs=1e-12)

    def test_option_out_of_range(self, uniform_state):
        with pytest.raises(InvalidInputError):
            apply_choice(uniform_state, 1, 6)


class TestGeometricMode:
    def test_deltas_follow_configured_mode(self, catalog, uniform_profile):
        from datacollective.sharing import Budget, geometric_rewards

        model = RewardModel(mode="geometric")
        rmax = model.max_rewards(uniform_profile, catalog)
        state = state_from(np.full(64, 5), rmax, model)
        deltas = improvement(state, 3, IMPROVE_REWARDS)
        budget = Budget()
        expected_top = rmax[2] - geometric_rewards(rmax[2], 5, 5, budget)
        assert deltas[0] == pytest.approx(expected_top)
        assert deltas[4] == 0.0

    def test_greedy_loop_reaches_total_budget(self, catalog):
        rng = np.random.default_rng(53)
        model = RewardModel(mode="geometric")
        profile = random_profile(catalog, rng)
        rmax = model.max_rewards(profile, catalog)
        state = state_from(rng.integers(1, 6, size=64), rmax, model)
        steps = 0
        while (j := retrieve_next(state, IMPROVE_REWARDS)) is not None:
            deltas = improvement(state, j, IMPROVE_REWARDS)
            state = apply_choice(state, j, int(np.argmax(deltas)) + 1)
            steps += 1
        assert steps <= 64
        assert state.accumulated_rewards == pytest.approx(model.pool)
        assert model.pool == 17.5  # geometric mode draws the full budget


class TestGreedyLoop:
    def test_reward_greedy_reaches_pool(self, catalog, reward_model):
        rng = np.random.default_rng(37)
        profile = random_profile(catalog, rng)
        rmax = reward_model.max_rewards(profile, catalog)
        state = state_from(rng.integers(1, 6, size=64), rmax, reward_model)
        steps = 0
        while (j := retrieve_next(state, IMPROVE_REWARDS)) is not None:
            deltas = improvement(state, j, IMPROVE_REWARDS)
            state = apply_choice(state, j, int(np.argmax(deltas)) + 1)
            steps += 1
        assert steps <= 64
        assert state.privacy == 0.0
        assert state.accumulated_rewards == pytest.approx(reward_model.pool)


def event_log(events):
    """The columnar log of ``events``, which come participant-major with
    steps 1..k per participant. The cells past a participant's last step
    hold filler, so a writer that reads them writes rows no event has."""
    ids = list(dict.fromkeys(e.participant_id for e in events))
    rows = [[e for e in events if e.participant_id == pid] for pid in ids]
    width = max(len(r) for r in rows)

    def column(values, dtype):
        out = np.full((len(ids), width), 2 if dtype is np.intp else 0.875, dtype=dtype)
        for i, r in enumerate(rows):
            out[i, : len(r)] = [values(e) for e in r]
        return out

    return EventLog(
        tuple(ids),
        np.array([len(r) for r in rows]),
        column(lambda e: EVENT_GOALS.index(e.goal), np.intp),
        column(lambda e: e.scenario_id, np.intp),
        column(lambda e: e.option, np.intp),
        column(lambda e: e.rewards_after, float),
        column(lambda e: e.privacy_after, float),
    )


def write_reference_event_log(path, events):
    """The event log as ``csv.writer`` writes it, with .12g floats."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(EVENT_LOG_HEADER)
        for e in events:
            writer.writerow(
                [*e[:5], format(e.rewards_after, ".12g"), format(e.privacy_after, ".12g")]
            )


class TestEventLog:
    def test_round_trip(self, tmp_path):
        awkward = 'a,"b"\nc'  # comma, double quote and newline
        events = [
            Event("p1", 1, "first_pass", 1, 3, 1.25, 0.5),
            Event("p1", 2, IMPROVE_PRIVACY, 40, 5, 1.1, 0.52),
            Event(awkward, 1, "first_pass", 7, 1, 0.3, 0.125),
            Event(awkward, 2, IMPROVE_REWARDS, 64, 2, 1e-20, 123456.789),
            Event(awkward, 3, IMPROVE_PRIVACY, 2, 4, 17.5, 0.0),
            Event("100%", 1, "first_pass", 3, 2, 2.5, 0.25),
            Event("two\r\nlines", 1, "first_pass", 5, 5, 0.0, 1.0),
            # non-ASCII text, a %d that is text, and -0.0 next to 0.0, NaN
            # and 1e-20 in one column; the same value in both float columns
            Event("pé,%d", 1, "first_pass", 9, 1, -0.0, 0.0),
            Event("pé,%d", 2, IMPROVE_REWARDS, 10, 2, 0.0, -0.0),
            Event("pé,%d", 3, IMPROVE_REWARDS, 11, 3, float("nan"), 1e-20),
            Event("pé,%d", 4, IMPROVE_PRIVACY, 12, 4, 1e-20, float("nan")),
            Event("pé,%d", 5, IMPROVE_PRIVACY, 13, 5, 0.1 + 0.2, 0.1 + 0.2),
            Event("pé,%d", 6, IMPROVE_PRIVACY, 13, 5, 0.3, float("inf")),
        ]
        # every participant but the last is cut before the log's width
        log = event_log(events)
        assert len(log) == len(events)
        # repr, so that NaN compares equal to itself and -0.0 differs from 0.0
        assert repr(list(log)) == repr(events)
        path = tmp_path / "events.csv"
        write_event_log(path, log)
        # floats come back at the 12 digits they were written with
        assert repr(read_event_log(path)) == repr([
            e._replace(rewards_after=float(f"{e.rewards_after:.12g}"),
                       privacy_after=float(f"{e.privacy_after:.12g}"))
            for e in events
        ])

        expected = tmp_path / "expected.csv"
        write_reference_event_log(expected, events)
        assert path.read_bytes() == expected.read_bytes()

    def test_writing_streams_one_participant_at_a_time(self, tmp_path):
        """Writing 84 participants x 448 steps of distinct floats never
        allocates as much as the 2.2 MB file at once."""
        n, k = 84, 448
        rng = np.random.default_rng(9)
        log = EventLog(
            tuple(f"p{i:04d}" for i in range(n)),
            np.full(n, k),
            rng.integers(0, 3, size=(n, k)),
            rng.integers(1, 65, size=(n, k)),
            rng.integers(1, 6, size=(n, k)),
            rng.random((n, k)) * 10,
            rng.random((n, k)),
        )
        path = tmp_path / "events.csv"
        tracemalloc.start()
        try:
            write_event_log(path, log)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 2_000_000
        assert peak < 2_000_000, peak

    def test_bad_files_name_the_file_and_line(self, tmp_path):
        missing = tmp_path / "missing.csv"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(str(missing))}: cannot read"):
            read_event_log(missing)
        header = ",".join(EVENT_LOG_HEADER) + "\r\n"
        good = "p1,1,first_pass,1,3,1.25,0.5\r\n"
        for bad, line, fragment in [
            ("p1,x,first_pass,1,3,1.25,0.5\r\n", 3, "invalid literal for int()"),
            ("p1,2,first_pass,1,3,abc,0.5\r\n", 3, "could not convert string to float"),
            ("p1,2,first_pass\r\n", 3, "3 fields, expected 7"),
            ("p" * 200_000 + ",2,first_pass,1,3,1.25,0.5\r\n", 3, "field larger than"),
        ]:
            path = tmp_path / "events.csv"
            path.write_text(header + good + bad, encoding="utf-8", newline="")
            with pytest.raises(
                InvalidInputError, match=f"^{re.escape(str(path))}:{line}: .*{re.escape(fragment)}"
            ):
                read_event_log(path)
        path.write_bytes((header + good).encode() + b"p\xff,2,first_pass,1,3,1.25,0.5\r\n")
        with pytest.raises(InvalidInputError, match=f"^{re.escape(str(path))}:3: not UTF-8 text"):
            read_event_log(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("nope\n")
        with pytest.raises(InvalidInputError):
            read_event_log(path)
