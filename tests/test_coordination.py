import hashlib
import json
import re

import numpy as np
import pytest

from datacollective import coordination
from datacollective.coordination import (
    CostWeights,
    Plan,
    PlanPortfolio,
    _cost,
    build_tree,
    coordinate,
    global_cost,
    read_portfolio,
    read_portfolio_dir,
    run_to_dict,
    selection_summary,
    write_cost_trace_csv,
    write_portfolio,
    write_portfolio_dir,
    write_runs_json,
)
from datacollective.errors import InvalidInputError, InvalidWeightsError
from datacollective.goals import GoalSignal, standardize
from helpers import (
    brute_force_minimum,
    cost_oracle,
    ragged_portfolios,
    random_goal,
    random_portfolios,
    read_plans_reference,
)

# SHA-256 of the JSON of ``run_to_dict`` for every run of a seeded ternary-tree
# instance with 1-4 plans per agent, keyed by (n, alpha, beta). Recorded from
# the per-agent reference optimizer; any change to the optimizer's arithmetic
# or tie rules shows up here.
PINNED_RUNS = {
    (1, 0, 0): "7a189c9785acaa8eb7cc81c71b4a97ab5343a8721fec26ec82aca08c661202e4",
    (1, 0.3, 0.2): "cc23b11ab695473b358bd3862cf3a3be9da6c4abf012d5c356066a0e546b1e7b",
    (1, 0, 1): "ee7b6caa99974860c8c3da11085bfb10dd3ceb1ddc1d0f4e95966e53876e67ef",
    (1, 1, 0): "bd4be8aa8bbec87d09d21516e65497e831fcf8cd5a0caa8357266aab5f451519",
    (2, 0, 0): "f9933a067118903e3d4ef1e68424de1145957ec8a12587626bff2464adf44022",
    (2, 0.3, 0.2): "459e74b158d2505f6990bb0cf7dab78c1f0a60a69867a1d6fad7dce0be61fe58",
    (2, 0, 1): "56a8d7a4e675ca521b27a94fb104849adf54b4f497ebd970679f6b83b006a55d",
    (2, 1, 0): "dff59e571b220bb7e58dc907764a53fbaccf87643094c3b9edafaf8111595435",
    (7, 0, 0): "88b3356ab1f8fd79a5a305064573147ddbd5699f5b0493d9d03312846d64f0fd",
    (7, 0.3, 0.2): "0f836cfc1de773b739157f703aeeae00e7e19059df24759b10bf47c49e422be9",
    (7, 0, 1): "6459feef927b7dd95076a62cb61cfc039c15070067640ba92e82ce22dce10dc8",
    (7, 1, 0): "b3552b33b92317f95f49e17cc7aada78ed01b66376481257831ab935e8e33958",
    (40, 0, 0): "86d237a242022bb5bba3a6b26b9991b8fbe12f3999aba211c43ad09b38f243f7",
    (40, 0.3, 0.2): "37137215adb2c36851aa07d63d3fa48fc526dfe44b0a6ec2ba92f7faffc4695c",
    (40, 0, 1): "9d50263697650f79ee4979345f0ab8a6d41d53f5f2fdea293f99a528ab8435e6",
    (40, 1, 0): "95f298475ebeb3c4c852e5c8048f5ee4807e811115df4065ee60820018b4b70e",
}

# The same digest for longer runs (60 iterations x 4 repetitions) on binary and
# ternary trees, keyed by (n, children_per_node, alpha, beta). Recorded from
# the optimizer that ran every iteration, so the fixed-point exit, which skips
# iterations that cannot change anything, must reproduce them bit for bit.
PINNED_LONG_RUNS = {
    (37, 2, 0, 0): "e6233afd305f65816de78cc2b94f83e771248f46be131b72277b3299fce2d9d8",
    (37, 2, 0.3, 0.2): "935385492bf84da4a4f157cf5282e79ecfbded6d487b65bfb8c376c4a9091377",
    (37, 3, 0, 0): "b65938b7b9ac7129cda9d66e4e08478fd7fcc17b004c2c471c0c4fcfd7b47f63",
    (37, 3, 0.3, 0.2): "d18635af11dfdc26405cd94fe108558f8d37ab9ffea6aaac10d16cb352968f9d",
    (200, 2, 0, 0): "e7d0de534f574976b9552e5a2c3934885704512581aeba3b229bc7d2cd8b73a1",
    (200, 2, 0.3, 0.2): "361b3291b9529fc1eac284a0a849bcb377e18302ecca448689f62e2ee8039c32",
    (200, 3, 0, 0): "8d2bcffd0c48dd40707bcbc5c6702c816b5d6baf9750cca54d06f586c7256991",
    (200, 3, 0.3, 0.2): "7755334a644761d459206c4f13e150acb77ceb2f9212b4226fbf868a83b2333e",
}


def _runs_digest(runs):
    payload = json.dumps([run_to_dict(run) for run in runs], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("key", sorted(PINNED_LONG_RUNS), ids=str)
def test_long_runs_match_pinned(key):
    n, children, alpha, beta = key
    rng = np.random.default_rng(n)
    portfolios = ragged_portfolios(rng, n)
    goal = random_goal(rng)
    runs = coordinate(
        portfolios, goal, CostWeights(alpha, beta),
        iterations=60, repetitions=4, seed=n, children_per_node=children,
    )
    assert _runs_digest(runs) == PINNED_LONG_RUNS[key]


def test_fixed_point_exit_stops_computing(monkeypatch):
    rng = np.random.default_rng(2)
    portfolios = ragged_portfolios(rng, 40)
    goal = random_goal(rng)
    calls = []

    def counted_cost(*args):
        calls.append(1)
        return _cost(*args)

    monkeypatch.setattr(coordination, "_cost", counted_cost)
    iterations, children = 40, 3
    runs = coordinate(portfolios, goal, CostWeights(0.3, 0.2), iterations=iterations,
                      repetitions=6, seed=2, children_per_node=children)
    depths = len(build_tree(40, children).levels())
    ran, rest = divmod(len(calls), depths)
    assert rest == 0 and 2 <= ran < iterations
    # The loop ends at the iteration where the last repetition left its state
    # unchanged, so every row from the one before it on is that state.
    for run in runs:
        for rows in (run.selections, run.global_response, run.cost_trace):
            assert rows.shape[0] == iterations
            assert np.all(rows[ran - 2:] == rows[ran - 1])


def test_stopped_repetitions_leave_the_kernel(monkeypatch):
    rng = np.random.default_rng(5)
    portfolios = ragged_portfolios(rng, 50)
    goal = random_goal(rng)
    leading = []

    def recorded_cost(*args):
        leading.append(args[0].shape[0])
        return _cost(*args)

    monkeypatch.setattr(coordination, "_cost", recorded_cost)
    runs = coordinate(portfolios, goal, CostWeights(0.3, 0.2), iterations=30, repetitions=5,
                      seed=5)
    # A repetition stops at the first iteration that repeats the one before.
    stops = [
        next(it for it in range(1, 30)
             if np.array_equal(run.selections[it], run.selections[it - 1])
             and run.cost_trace[it] == run.cost_trace[it - 1])
        for run in runs
    ]
    assert len(set(stops)) == len(runs)
    # Every depth of an iteration scores the repetitions still running.
    depths = len(build_tree(50).levels())
    assert leading == [
        sum(stop >= it for stop in stops) for it in range(max(stops) + 1) for _ in range(depths)
    ]
    # Recorded from the optimizer that kept every repetition to the end.
    assert _runs_digest(runs) == "c752c63d0fe09a8f7f673ba2f4dc4c75686c7f5086576a09723a4bdf47976312"


def test_flat_cost_does_not_stop_a_moving_repetition():
    # Plan values on a quarter grid with alpha = 1 (variance only) make
    # distinct configurations tie in cost, so a repetition can keep its cost
    # for an iteration while its plans still move towards a lower cost.
    rng = np.random.default_rng(67)
    portfolios = []
    for a in range(15):
        values = rng.integers(0, 5, size=(int(rng.integers(1, 4)), 8)) / 4
        plans = tuple(Plan(v, float(v.mean())) for v in values)
        portfolios.append(PlanPortfolio(f"agent{a}", plans))
    goal = GoalSignal(5, rng.random(8))
    runs = coordinate(portfolios, goal, CostWeights(1, 0), iterations=20, repetitions=4,
                      seed=67)
    assert any(
        run.cost_trace[it] == run.cost_trace[it - 1] > run.final_cost()
        for run in runs for it in range(1, 20)
    )
    # Recorded from the optimizer that ran every iteration.
    assert _runs_digest(runs) == "f260f6b4e0d0ef9b57e8c196ade10e2e82b7ed7957633aba23f6260a36688141"


class TestPlans:
    def test_value_bounds_enforced(self):
        with pytest.raises(InvalidInputError):
            Plan(np.array([0.5, 1.2]), 0.5)
        with pytest.raises(InvalidInputError):
            Plan(np.array([0.5, 0.5]), 1.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(InvalidInputError):
            Plan(np.array([bad, 0.5]), 0.3)
        with pytest.raises(InvalidInputError):
            Plan(np.array([0.5, 0.5]), bad)

    def test_portfolio_needs_consistent_lengths(self):
        with pytest.raises(InvalidInputError):
            PlanPortfolio(
                "a",
                (Plan(np.zeros(4), 0.0), Plan(np.zeros(5), 0.0)),
            )
        with pytest.raises(InvalidInputError):
            PlanPortfolio("a", ())

    @pytest.mark.parametrize(
        "values, costs, labels, message",
        [
            (np.zeros((0, 3)), [], None, "agent 'a' has no plans"),
            (np.zeros(3), [0.0], None, "agent 'a' has no plans"),
            (np.zeros((2, 0)), [0.0, 0.0], None, "plan values must be a non-empty vector"),
            (np.zeros((2, 3)), [0.0], None, "agent 'a' needs one cost and one label per plan"),
            (np.zeros((2, 3)), [0.0, 0.0], ["x"], "agent 'a' needs one cost and one label per plan"),
            (np.full((1, 2), np.nan), [0.0], None, "plan values must lie in [0, 1]"),
            (np.zeros((1, 2)), [1.5], None, "plan local cost must lie in [0, 1]"),
        ],
    )
    def test_portfolio_from_arrays_checks_the_plan_rules(self, values, costs, labels, message):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            PlanPortfolio.from_arrays("a", values, costs, labels)

    def test_portfolio_rows_are_plans(self):
        values = np.array([[0.0, 0.5], [1.0, 0.25]])
        portfolio = PlanPortfolio.from_arrays("a", values, [0.25, 0.625], ["x", "y"])
        assert [(p.values.tolist(), p.local_cost, p.label) for p in portfolio.plans] == [
            ([0.0, 0.5], 0.25, "x"), ([1.0, 0.25], 0.625, "y"),
        ]
        assert PlanPortfolio("a", portfolio.plans).values.tobytes() == values.tobytes()
        values[0, 0] = 1.0  # the portfolio holds its own read-only copy
        assert portfolio.values[0, 0] == 0.0 and not portfolio.values.flags.writeable


class TestCostWeights:
    def test_alpha_beta_limit(self):
        CostWeights(0.5, 0.5)
        CostWeights(0.0, 1.0)
        with pytest.raises(InvalidWeightsError):
            CostWeights(0.6, 0.6)
        with pytest.raises(InvalidWeightsError):
            CostWeights(-0.1, 0.0)


class TestBuildTree:
    def test_single_agent(self):
        tree = build_tree(1, seed=0)
        assert tree.n == 1
        assert tree.levels() == [(0, 1)]

    def test_perfect_binary_tree(self):
        tree = build_tree(7, children_per_node=2, seed=1)
        assert tree.levels() == [(0, 1), (1, 3), (3, 7)]

    def test_balanced_for_any_n(self):
        for c in (2, 3):
            for n in (2, 5, 12, 33):
                levels = build_tree(n, children_per_node=c, seed=2).levels()
                # Consecutive depths tile the positions; every depth but the
                # last is full, so leaves sit on the last two depths.
                assert [p for s, e in levels for p in range(s, e)] == list(range(n))
                for d, ((s, e), (s_next, e_next)) in enumerate(zip(levels, levels[1:])):
                    assert e - s == c**d and s_next == e and e_next - s_next <= c * (e - s)

    def test_permutation_covers_agents(self):
        tree = build_tree(10, seed=3)
        assert sorted(tree.order.tolist()) == list(range(10))

    def test_deterministic(self):
        assert np.array_equal(build_tree(20, seed=5).order, build_tree(20, seed=5).order)
        assert not np.array_equal(
            build_tree(20, seed=5).order, build_tree(20, seed=6).order
        )


class TestGlobalCost:
    def test_selfish_degenerate_is_mean(self):
        rng = np.random.default_rng(1)
        aggregate = rng.random(16)
        goal = random_goal(rng)
        costs = [0.2, 0.4, 0.9]
        value = global_cost(aggregate, goal, costs, CostWeights(0.0, 1.0))
        assert value == pytest.approx(np.mean(costs))

    def test_altruistic_degenerate_is_rss(self):
        rng = np.random.default_rng(2)
        aggregate = rng.random(16)
        goal = random_goal(rng)
        value = global_cost(aggregate, goal, [0.3], CostWeights(0.0, 0.0))
        rss = np.sum((standardize(aggregate) - standardize(goal.values)) ** 2)
        assert value == pytest.approx(rss)

    def test_identical_costs_kill_variance_term(self):
        rng = np.random.default_rng(3)
        aggregate = rng.random(16)
        goal = random_goal(rng)
        a = global_cost(aggregate, goal, [0.5, 0.5, 0.5], CostWeights(0.9, 0.0))
        b = global_cost(aggregate, goal, [0.5], CostWeights(0.0, 0.0))
        assert a == pytest.approx(0.1 * b + 0.9 * 0.0)

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(4)
        aggregate = rng.random(32)
        goal_values = rng.random(32)
        costs = rng.random(6)
        for alpha, beta in ((0, 0), (0.3, 0.2), (0, 1), (1, 0)):
            mine = global_cost(aggregate, GoalSignal(1, goal_values), costs,
                               CostWeights(alpha, beta))
            assert mine == pytest.approx(
                cost_oracle(aggregate, goal_values, costs, alpha, beta), abs=1e-12
            )

    def test_empty_costs_rejected(self):
        with pytest.raises(InvalidInputError):
            global_cost(np.ones(4), GoalSignal(1, np.zeros(4)), [])


class TestCoordinate:
    def test_single_selfish_agent(self):
        rng = np.random.default_rng(5)
        portfolios = random_portfolios(rng, n=1, plans_per_agent=4)
        goal = random_goal(rng)
        runs = coordinate(
            portfolios, goal, CostWeights(0.0, 1.0), iterations=10, repetitions=1, seed=0
        )
        run = runs[0]
        local = [p.local_cost for p in portfolios[0].plans]
        assert run.final_selections()[0] == int(np.argmin(local))
        assert run.cost_trace == pytest.approx(np.full(10, min(local)))

    def test_two_agents_reach_brute_force_optimum(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            portfolios = random_portfolios(rng, n=2, plans_per_agent=2)
            goal = random_goal(rng)
            runs = coordinate(portfolios, goal, iterations=20, repetitions=1, seed=trial)
            optimum = brute_force_minimum(portfolios, goal, 0.0, 0.0)
            assert runs[0].final_cost() == pytest.approx(optimum, abs=1e-9)

    def test_ten_agents_respect_oracle_floor(self):
        rng = np.random.default_rng(7)
        portfolios = random_portfolios(rng, n=10, plans_per_agent=3)
        goal = random_goal(rng)
        for alpha, beta in ((0.0, 0.0), (0.2, 0.3)):
            runs = coordinate(
                portfolios, goal, CostWeights(alpha, beta),
                iterations=25, repetitions=3, seed=11,
            )
            optimum = brute_force_minimum(portfolios, goal, alpha, beta)
            for run in runs:
                assert run.final_cost() >= optimum - 1e-9
                assert np.all(np.diff(run.cost_trace) <= 1e-12)

    def test_selfish_degenerate_selections(self):
        rng = np.random.default_rng(8)
        portfolios = random_portfolios(rng, n=17, plans_per_agent=4)
        goal = random_goal(rng)
        runs = coordinate(
            portfolios, goal, CostWeights(0.0, 1.0), iterations=10, repetitions=2, seed=2
        )
        expected = [int(np.argmin([p.local_cost for p in pf.plans])) for pf in portfolios]
        for run in runs:
            assert run.final_selections().tolist() == expected

    def test_aggregation_consistency(self):
        rng = np.random.default_rng(9)
        portfolios = random_portfolios(rng, n=23, plans_per_agent=3)
        goal = random_goal(rng)
        runs = coordinate(portfolios, goal, iterations=15, repetitions=2, seed=4)
        for run in runs:
            for it in range(run.selections.shape[0]):
                total = np.sum(
                    [
                        portfolios[a].plans[run.selections[it, a]].values
                        for a in range(len(portfolios))
                    ],
                    axis=0,
                )
                assert total == pytest.approx(run.global_response[it], abs=1e-9)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(10)
        portfolios = random_portfolios(rng, n=12, plans_per_agent=3)
        goal = random_goal(rng)
        a = coordinate(portfolios, goal, iterations=10, repetitions=4, seed=42)
        b = coordinate(portfolios, goal, iterations=10, repetitions=4, seed=42)
        for run_a, run_b in zip(a, b):
            assert np.array_equal(run_a.selections, run_b.selections)
            assert run_a.cost_trace == pytest.approx(run_b.cost_trace, abs=0)

    def test_mismatched_plan_lengths_rejected(self):
        rng = np.random.default_rng(11)
        portfolios = random_portfolios(rng, n=2, m=8)
        portfolios.append(random_portfolios(rng, n=1, m=9)[0])
        with pytest.raises(InvalidInputError):
            coordinate(portfolios, random_goal(rng, m=8))

    def test_ternary_tree_respects_floor(self):
        rng = np.random.default_rng(77)
        for n in (4, 7, 9):
            portfolios = random_portfolios(rng, n=n, plans_per_agent=3, m=12)
            goal = random_goal(rng, m=12)
            runs = coordinate(portfolios, goal, iterations=20, repetitions=2,
                              seed=5, children_per_node=3)
            optimum = brute_force_minimum(portfolios, goal, 0.0, 0.0)
            for run in runs:
                assert run.final_cost() >= optimum - 1e-9
                assert np.all(np.diff(run.cost_trace) <= 1e-12)

    @pytest.mark.parametrize("key", sorted(PINNED_RUNS), ids=str)
    def test_ragged_portfolios_match_pinned_runs(self, key):
        n, alpha, beta = key
        rng = np.random.default_rng(n)
        portfolios = ragged_portfolios(rng, n)
        goal = random_goal(rng)
        runs = coordinate(
            portfolios, goal, CostWeights(alpha, beta),
            iterations=12, repetitions=3, seed=n, children_per_node=3,
        )
        assert _runs_digest(runs) == PINNED_RUNS[key]


class TestSelectionSummary:
    def test_single_repetition(self):
        rng = np.random.default_rng(13)
        portfolios = random_portfolios(rng, n=5)
        goal = random_goal(rng)
        runs = coordinate(portfolios, goal, iterations=10, repetitions=1, seed=1)
        summary = selection_summary(runs, portfolios)
        assert summary.mean_cost == pytest.approx(runs[0].final_cost())
        assert summary.cost_std == 0.0
        assert summary.final_costs.shape == (1,)

    def test_statistics_match_recomputation(self):
        rng = np.random.default_rng(14)
        portfolios = random_portfolios(rng, n=9)
        goal = random_goal(rng)
        runs = coordinate(portfolios, goal, iterations=10, repetitions=6, seed=3)
        summary = selection_summary(runs, portfolios)
        finals = np.array([r.final_cost() for r in runs])
        assert summary.mean_cost == pytest.approx(finals.mean())
        assert summary.cost_std == pytest.approx(finals.std())
        assert len(summary.selected_labels) == 9
        assert all(len(labels) == 6 for labels in summary.selected_labels)


def reference_portfolio_text(portfolio):
    """A portfolio file's text with each value formatted on its own."""
    return "".join(
        format(plan.local_cost, ".12g") + ":"
        + ",".join(format(v, ".12g") for v in plan.values) + "\n"
        for plan in portfolio.plans
    )


class TestPortfolioFiles:
    def test_round_trip(self, tmp_path):
        # -0.0 next to 0.0, 1e-20, and two values that print alike at 12 digits
        values = np.array([0.0, -0.0, 1e-20, 0.25, 0.1 + 0.2, 0.3, 1 / 3, 1.0])
        portfolio = PlanPortfolio(
            "agent7",
            (
                Plan(values, float(values.mean()), "intrinsic"),
                Plan(values[::-1].copy(), -0.0, "rewarded1"),
            ),
        )
        path = tmp_path / "agent7.plans"
        write_portfolio(path, portfolio)
        assert path.read_text(encoding="utf-8") == reference_portfolio_text(portfolio)
        loaded = read_portfolio(path, labels=["intrinsic", "rewarded1"])
        assert loaded.agent_id == "agent7"
        for a, b in zip(loaded.plans, portfolio.plans):
            assert a.values.tobytes() == np.array(
                [float(format(v, ".12g")) for v in b.values]
            ).tobytes()
            assert repr(a.local_cost) == repr(float(format(b.local_cost, ".12g")))
            assert a.label == b.label

    def test_directory_round_trip(self, tmp_path):
        rng = np.random.default_rng(15)
        # ids with a comma, a quote, a % and non-ASCII text become file names
        ids = ["p0", 'p,"1"', "p2%d", "pé3"]
        portfolios = []
        for i, agent_id in enumerate(ids):
            levels = rng.integers(1, 6, size=(i + 1, 8))
            values = (5 - levels) / 4
            portfolios.append(PlanPortfolio(
                agent_id, tuple(Plan(v, float(v.mean())) for v in values)
            ))
        write_portfolio_dir(tmp_path / "plans", portfolios)
        for portfolio in portfolios:
            path = tmp_path / "plans" / f"{portfolio.agent_id}.plans"
            assert path.read_text(encoding="utf-8") == reference_portfolio_text(portfolio)
        loaded = read_portfolio_dir(tmp_path / "plans")
        # files are read in sorted path order, which for these ids is id order
        assert [p.agent_id for p in loaded] == sorted(ids)
        expected = sorted(portfolios, key=lambda p: p.agent_id)
        for a, b in zip(loaded, expected, strict=True):
            for pa, pb in zip(a.plans, b.plans, strict=True):
                assert np.array_equal(pa.values, pb.values)

    def test_agents_of_different_plan_lengths_match_the_reference(self, tmp_path):
        """One table for all agents still writes each agent's own values."""
        rng = np.random.default_rng(8)
        portfolios = [
            PlanPortfolio(f"a{i}", tuple(
                Plan(v, float(rng.random())) for v in rng.random((k, m))
            ))
            for i, (k, m) in enumerate([(3, 64), (1, 5), (2, 1), (3, 64)])
        ]
        write_portfolio_dir(tmp_path, portfolios)
        for portfolio in portfolios:
            text = (tmp_path / f"{portfolio.agent_id}.plans").read_text(encoding="utf-8")
            assert text == reference_portfolio_text(portfolio)

    @pytest.mark.parametrize("case", ["empty", "blank lines", "ragged"])
    def test_bad_files_name_the_file(self, tmp_path, case):
        path = tmp_path / "p7.plans"
        if case == "ragged":
            path.write_text("0.5:0.1,0.2\n\n0.5:0.1\n")
            message = f"{path}:3: plan of length 1, but the first plan has length 2"
        else:
            path.write_text("" if case == "empty" else "\n  \n")
            message = f"{path}: agent 'p7' has no plans"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            read_portfolio(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.plans"
        path.write_text("0.5 0.1,0.2\n")
        with pytest.raises(InvalidInputError):
            read_portfolio(path)

    @pytest.mark.parametrize(
        "line",
        ["0.5:nan,0.2", "0.5:0.1,abc", "0.5:0.1,1.5", "nan:0.1,0.2", "x:0.1,0.2", "0.5:0.1,"],
    )
    def test_bad_number_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "bad.plans"
        path.write_text(f"0.5:0.1,0.2\n\n{line}\n")
        with pytest.raises(InvalidInputError, match=rf"bad\.plans:3: "):
            read_portfolio(path)

    def test_directory_reads_back_the_written_arrays(self, tmp_path):
        # levels on a quarter grid and their means print exactly at 12 digits
        rng = np.random.default_rng(21)
        portfolios = []
        for i, k in enumerate([1, 4, 2, 3, 1]):
            values = (5 - rng.integers(1, 6, size=(k, 8))) / 4
            portfolios.append(PlanPortfolio.from_arrays(f"p{i}", values, values.mean(axis=1)))
        write_portfolio_dir(tmp_path, portfolios)
        loaded = read_portfolio_dir(tmp_path, labels=["a", "b", "c"])
        assert [p.agent_id for p in loaded] == [p.agent_id for p in portfolios]
        for a, b in zip(loaded, portfolios, strict=True):
            assert a.values.tobytes() == b.values.tobytes()
            assert a.costs.tobytes() == b.costs.tobytes()
            assert a.labels == ("a", "b", "c", "plan4")[: len(b.labels)]
            with pytest.raises(ValueError):
                a.values[0, 0] = 0.5

    @pytest.mark.parametrize(
        "second, message",
        [
            ("0.5:0.1,0.2\n0.25:1,0\nnan:0.5,0.5\n", "p1.plans:3: plan local cost must lie in [0, 1]"),
            ("0.5:0.1,0.2\n\n0.25:1,1.5\n", "p1.plans:3: plan values must lie in [0, 1]"),
        ],
    )
    def test_directory_names_the_file_and_line(self, tmp_path, second, message):
        (tmp_path / "p0.plans").write_text("0.5:0.5,0.5\n")
        (tmp_path / "p1.plans").write_text(second)
        (tmp_path / "p2.plans").write_text("0.5:0.5,0.5,0.5\n")  # would be reported later
        with pytest.raises(InvalidInputError, match=f"^{re.escape(f'{tmp_path}/{message}')}$"):
            read_portfolio_dir(tmp_path)

    @pytest.mark.parametrize("seed", range(4))
    def test_directory_matches_the_line_by_line_reader(self, tmp_path, seed):
        """Seeded directories with blank lines, lines without ':', numbers
        that do not parse or lie outside [0, 1], and plans of other lengths:
        the same portfolios, or the same first error, as a reader that goes
        line by line."""
        rng = np.random.default_rng(seed)
        odd = ["nan", "1.5", "-0.1", "abc", "", " 0.25", "0.5:0.2", "inf", "1e-3"]

        def number():
            return str(rng.choice(odd)) if rng.random() < 0.04 else str(rng.choice(["0", "0.25", "1"]))

        for case in range(60):
            directory = tmp_path / str(case)
            directory.mkdir()
            for f in range(int(rng.integers(1, 5))):
                m = int(rng.choice([2, 3, 3, 3]))
                lines = []
                for _ in range(int(rng.integers(0, 5))):
                    r = rng.random()
                    if r < 0.05:
                        lines.append("" if r < 0.03 else "0.5 0.1,0.2")
                        continue
                    size = m + int(rng.random() < 0.05) - int(rng.random() < 0.05)
                    lines.append(f"{number()}:{','.join(number() for _ in range(max(size, 1)))}")
                (directory / f"a{f}.plans").write_text("\n".join(lines) + "\n")
            labels = [None, ["x"], ["x", "y", "z", "w"]][case % 3]
            expected = read_plans_reference(sorted(directory.glob("*.plans")), labels)
            try:
                loaded = read_portfolio_dir(directory, labels=labels)
            except InvalidInputError as exc:
                assert str(exc) == expected
                continue
            assert [
                (p.agent_id, p.values.tolist(), p.costs.tolist(), list(p.labels)) for p in loaded
            ] == expected

    def test_directory_of_two_plan_lengths(self, tmp_path):
        (tmp_path / "p0.plans").write_text("0.5:0.5,0.5\n0.5:1,0\n")
        (tmp_path / "p1.plans").write_text("0.5:0.5,0.5,0.5\n")
        message = f"{tmp_path / 'p1.plans'}: plans of length 3, but p0.plans has plans of length 2"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            read_portfolio_dir(tmp_path)

    @pytest.mark.parametrize("agent_id", ["grp/p0000", "../x", "..", "a\\b", "p\x00"])
    def test_ids_that_cannot_name_a_file_are_refused(self, tmp_path, agent_id):
        portfolios = [
            PlanPortfolio(name, (Plan(np.zeros(2), 0.0),)) for name in ("p1", agent_id)
        ]
        message = f"agent id {agent_id!r} cannot name a .plans file"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            write_portfolio_dir(tmp_path / "plans", portfolios)
        assert list(tmp_path.iterdir()) == []

    def test_missing_directory(self, tmp_path):
        with pytest.raises(InvalidInputError):
            read_portfolio_dir(tmp_path / "nope")


class TestRunArtifacts:
    def test_json_and_csv_writers(self, tmp_path):
        import json

        rng = np.random.default_rng(16)
        portfolios = random_portfolios(rng, n=4)
        goal = random_goal(rng)
        runs = coordinate(portfolios, goal, iterations=5, repetitions=2, seed=9)
        write_runs_json(tmp_path / "runs.json", runs)
        write_cost_trace_csv(tmp_path / "trace.csv", runs)
        payload = json.loads((tmp_path / "runs.json").read_text())
        assert len(payload["runs"]) == 2
        assert len(payload["runs"][0]["cost_trace"]) == 5
        lines = (tmp_path / "trace.csv").read_text().strip().splitlines()
        assert lines[0] == "repetition,iteration,cost"
        assert len(lines) == 1 + 2 * 5
