import hashlib
import json

import numpy as np
import pytest

from datacollective.coordination import (
    CostWeights,
    Plan,
    PlanPortfolio,
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
        assert tree.children(0) == []
        assert tree.parent(0) == -1

    def test_perfect_binary_tree(self):
        tree = build_tree(7, children_per_node=2, seed=1)
        depths = [tree.depth(p) for p in range(7)]
        assert depths == [0, 1, 1, 2, 2, 2, 2]

    def test_balanced_for_any_n(self):
        for n in (2, 5, 12, 33):
            tree = build_tree(n, children_per_node=2, seed=2)
            leaf_depths = [
                tree.depth(p) for p in range(n) if not tree.children(p)
            ]
            assert max(leaf_depths) - min(leaf_depths) <= 1

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

    def test_early_stop_pads_trace(self):
        rng = np.random.default_rng(12)
        portfolios = random_portfolios(rng, n=1, plans_per_agent=2)
        goal = random_goal(rng)
        runs = coordinate(
            portfolios, goal, CostWeights(0.0, 1.0),
            iterations=30, repetitions=1, seed=0, early_stop_after=3,
        )
        trace = runs[0].cost_trace
        assert trace.shape == (30,)
        assert np.all(trace == trace[-1])

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
        payload = json.dumps([run_to_dict(run) for run in runs], sort_keys=True)
        assert hashlib.sha256(payload.encode()).hexdigest() == PINNED_RUNS[key]

    def test_early_stop_is_per_repetition(self):
        rng = np.random.default_rng(2)
        portfolios = ragged_portfolios(rng, 40)
        goal = random_goal(rng)
        kwargs = dict(weights=CostWeights(0.3, 0.2), iterations=40, repetitions=6,
                      seed=2, children_per_node=3)
        full = coordinate(portfolios, goal, **kwargs)
        stopped = coordinate(portfolios, goal, early_stop_after=2, **kwargs)
        stops = []
        for run_full, run in zip(full, stopped):
            flat = np.diff(run_full.cost_trace) == 0
            # First iteration that ends two consecutive flat steps.
            stop = 1 + next(it for it in range(1, flat.size) if flat[it - 1] and flat[it])
            stops.append(stop)
            head = slice(0, stop + 1)
            assert np.array_equal(run.selections[head], run_full.selections[head])
            assert np.array_equal(run.global_response[head], run_full.global_response[head])
            assert np.array_equal(run.cost_trace[head], run_full.cost_trace[head])
            assert np.all(run.selections[stop:] == run.selections[stop])
            assert np.all(run.global_response[stop:] == run.global_response[stop])
            assert np.all(run.cost_trace[stop:] == run.cost_trace[stop])
        assert len(set(stops)) >= 3


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


class TestPortfolioFiles:
    def test_round_trip(self, tmp_path):
        values = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        portfolio = PlanPortfolio(
            "agent7",
            (
                Plan(values, float(values.mean()), "intrinsic"),
                Plan(values[::-1].copy(), 0.5, "rewarded1"),
            ),
        )
        path = tmp_path / "agent7.plans"
        write_portfolio(path, portfolio)
        loaded = read_portfolio(path, labels=["intrinsic", "rewarded1"])
        assert loaded.agent_id == "agent7"
        for a, b in zip(loaded.plans, portfolio.plans):
            assert np.array_equal(a.values, b.values)
            assert a.local_cost == b.local_cost
            assert a.label == b.label

    def test_directory_round_trip(self, tmp_path):
        rng = np.random.default_rng(15)
        portfolios = []
        for i in range(4):
            levels = rng.integers(1, 6, size=8)
            values = (5 - levels) / 4
            portfolios.append(
                PlanPortfolio(f"p{i}", (Plan(values, float(values.mean())),))
            )
        write_portfolio_dir(tmp_path / "plans", portfolios)
        loaded = read_portfolio_dir(tmp_path / "plans")
        assert [p.agent_id for p in loaded] == [p.agent_id for p in portfolios]
        for a, b in zip(loaded, portfolios):
            assert np.array_equal(a.plans[0].values, b.plans[0].values)

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
