import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import datacollective
from datacollective.cli import build_parser, main
from datacollective.errors import open_text, read_text
from datacollective.pipeline import ExperimentConfig, run_pipeline
from datacollective.population import population_from_spec
from datacollective.sharing import default_catalog, profile_csv_header


def test_full_cli_chain(tmp_path):
    sim = tmp_path / "sim"
    assert main(["simulate", "--n", "12", "--seed", "3", "--steps", "80",
                 "--out", str(sim)]) == 0
    assert (sim / "selections.csv").is_file()
    assert (sim / "profiles.csv").is_file()
    assert (sim / "events_rewarded1.csv").is_file()

    goals = tmp_path / "goals"
    assert main(["goals", "--selections", str(sim / "selections.csv"),
                 "--out", str(goals)]) == 0
    assert (goals / "goal_very_high.csv").is_file()

    coord = tmp_path / "coord"
    assert main([
        "coordinate",
        "--plans-dir", str(sim / "portfolios"),
        "--goal-file", str(goals / "goal_very_high.csv"),
        "--goal-level", "5",
        "--iterations", "8",
        "--repetitions", "2",
        "--out", str(coord),
    ]) == 0
    assert (coord / "coordination_runs.json").is_file()

    ev = tmp_path / "eval"
    assert main([
        "evaluate",
        "--selections", str(sim / "selections.csv"),
        "--profiles", str(sim / "profiles.csv"),
        "--runs-json", str(coord / "coordination_runs.json"),
        "--plans-dir", str(sim / "portfolios"),
        "--out", str(ev),
    ]) == 0
    assert (ev / "privacy_by_scenario.csv").is_file()
    evaluation = json.loads((ev / "evaluation.json").read_text())
    assert evaluation["privacy_recovery_percent"] is not None

    cj = tmp_path / "conjoint"
    response = tmp_path / "response.csv"
    lines = ["scenario_id,value"] + [f"{j},{(j % 7) / 10}" for j in range(1, 65)]
    response.write_text("\n".join(lines) + "\n")
    assert main(["conjoint", "--response", str(response), "--out", str(cj)]) == 0
    payload = json.loads((cj / "partworths.json").read_text())
    assert "criterion_utilities" in payload


def test_ingest_command(tmp_path):
    src = tmp_path / "raw.csv"
    src.write_text(
        "user,phase,q,answer\n"
        "u1,entry,1,5\n"
        "u1,entry,2,9\n"
    )
    mapping = tmp_path / "mapping.json"
    mapping.write_text(json.dumps({
        "participant_id": "user",
        "condition": "phase",
        "scenario_id": "q",
        "selection": "answer",
        "condition_values": {"entry": "intrinsic"},
    }))
    out = tmp_path / "ingested"
    assert main(["ingest", "--responses", str(src), "--mapping", str(mapping),
                 "--out", str(out)]) == 0
    report = json.loads((out / "ingest_report.json").read_text())
    assert report["accepted"] == 1
    assert report["rejected"] == 1
    # u1 answers one of the 64 scenarios, so its intrinsic vector is left out
    assert report["dropped"] == {
        "intrinsic": {"incomplete": {"count": 1, "first_ids": ["u1"]}}
    }


def test_pipeline_command_with_config(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "n": 10,
        "steps": 70,
        "iterations": 6,
        "repetitions": 2,
        "master_seed": 1,
        "output_dir": str(tmp_path / "out"),
    }))
    assert main(["pipeline", "--config", str(config)]) == 0
    assert (tmp_path / "out" / "manifest.json").is_file()


def test_population_spec_flag(tmp_path):
    spec = tmp_path / "population.json"
    spec.write_text(json.dumps({"n": 6, "seed": 2, "steps": 70}))
    out = tmp_path / "sim"
    assert main(["simulate", "--population-spec", str(spec), "--out", str(out)]) == 0
    selection_lines = (out / "selections.csv").read_text().splitlines()
    assert len(selection_lines) == 1 + 6 * 3 * 64


def test_simulate_honours_z(tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--n", "2", "--z", "3", "--steps", "64", "--out", str(out)]) == 0
    with open(out / "selections.csv", newline="") as fh:
        levels = {int(row["selection"]) for row in csv.DictReader(fh)}
    assert levels <= {1, 2, 3}


METRIC_FILES = (
    "privacy_by_scenario.csv",
    "mismatch_by_scenario.csv",
    "costs.csv",
    "response_intrinsic_privacy.csv",
)


def _evaluate(root, profiles, out):
    return main([
        "evaluate",
        "--selections", str(root / "selections.csv"),
        "--profiles", str(profiles),
        "--runs-json", str(root / "coordination_runs.json"),
        "--plans-dir", str(root / "portfolios"),
        "--out", str(out),
    ])


def test_evaluate_matches_pipeline(tmp_path):
    """The command line computes its metrics with the pipeline's own stage:
    on a pipeline run's files it writes the pipeline's metric files."""
    root = run_pipeline(ExperimentConfig(
        n=24, steps=96, iterations=15, repetitions=4, master_seed=7,
        output_dir=str(tmp_path / "run"),
    ))
    # profiles.csv keeps 12 significant digits, so costs priced from it may
    # differ from the pipeline's in the last digits; the same profiles at
    # full precision must give every file byte for byte.
    catalog = default_catalog()
    population = population_from_spec({"n": 24, "seed": 7, "z": 5}, catalog)
    exact = tmp_path / "profiles_exact.csv"
    with open(exact, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(profile_csv_header(catalog))
        for p in population.participants:
            weights = [p.profile.criterion_weights, *p.profile.element_weights]
            writer.writerow([p.participant_id] + [repr(float(w)) for ws in weights for w in ws])
    assert _evaluate(root, exact, tmp_path / "exact") == 0
    for name in METRIC_FILES + ("evaluation.json",):
        assert (tmp_path / "exact" / name).read_bytes() == (root / name).read_bytes(), name

    ev = tmp_path / "eval"
    assert _evaluate(root, root / "profiles.csv", ev) == 0
    for name in METRIC_FILES:
        assert (ev / name).read_bytes() == (root / name).read_bytes(), name
    mine = json.loads((ev / "evaluation.json").read_text())
    theirs = json.loads((root / "evaluation.json").read_text())
    for key in ("costs_chf", "cost_sigma_chf"):
        assert mine.pop(key) == pytest.approx(theirs.pop(key), rel=1e-12, abs=1e-9)
    assert mine == theirs


def test_evaluate_rejects_runs_that_do_not_fit(tmp_path, capsys):
    root = run_pipeline(ExperimentConfig(
        n=4, steps=64, iterations=2, repetitions=2, output_dir=str(tmp_path / "run"),
    ))
    runs = json.loads((root / "coordination_runs.json").read_text())
    runs["runs"][0]["final_selections"][0] = -1
    (root / "coordination_runs.json").write_text(json.dumps(runs))
    assert _evaluate(root, root / "profiles.csv", tmp_path / "eval") == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "repetition 0" in err


def test_pipeline_config_rejects_wrong_types(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": "84", "output_dir": str(tmp_path / "out")}))
    assert main(["pipeline", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and err.count("\n") == 1 and "Traceback" not in err
    assert str(config) in err and "'n'" in err
    assert not (tmp_path / "out").exists()


def test_cli_reports_errors(tmp_path):
    assert main(["coordinate", "--plans-dir", str(tmp_path / "missing"),
                 "--goal-file", str(tmp_path / "none.csv")]) == 1


def test_goals_rejects_out_of_range_scenario_id(tmp_path, capsys):
    selections = tmp_path / "selections.csv"
    rows = [f"p1,intrinsic,{j},3,0" for j in [*range(1, 64), 65]]
    selections.write_text(
        "participant_id,condition,scenario_id,selection,timestamp\n"
        + "\n".join(rows) + "\n"
    )
    assert main(["goals", "--selections", str(selections), "--out", str(tmp_path / "g")]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "Traceback" not in err
    assert str(selections) in err and "'p1'" in err and "[65]" in err


def test_no_command_prints_help(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out.lower()


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A simulated 4-participant run: selections, profiles and portfolios."""
    sim = tmp_path_factory.mktemp("sim")
    assert main(["simulate", "--n", "4", "--steps", "64", "--out", str(sim)]) == 0
    return sim


def test_goals_and_evaluate_report_dropped_participants(small_run, tmp_path):
    selections = tmp_path / "selections.csv"
    lines = (small_run / "selections.csv").read_text().splitlines(keepends=True)
    selections.write_text("".join(
        line for line in lines if not line.startswith("p0001,intrinsic,5,")
    ))
    goals = tmp_path / "goals"
    assert main(["goals", "--selections", str(selections), "--out", str(goals)]) == 0
    report = json.loads((goals / "ingest_report.json").read_text())
    assert report["dropped"] == {
        "intrinsic": {"incomplete": {"count": 1, "first_ids": ["p0001"]}}
    }

    plans = tmp_path / "plans"
    plans.mkdir()
    for name in ("p0000", "p0002", "p0003"):
        (plans / f"{name}.plans").write_bytes(
            (small_run / "portfolios" / f"{name}.plans").read_bytes()
        )
    coord = tmp_path / "coord"
    assert main([
        "coordinate", "--plans-dir", str(plans),
        "--goal-file", str(goals / "goal_very_high.csv"),
        "--iterations", "2", "--repetitions", "1", "--out", str(coord),
    ]) == 0
    ev = tmp_path / "eval"
    assert main([
        "evaluate", "--selections", str(selections),
        "--profiles", str(small_run / "profiles.csv"),
        "--runs-json", str(coord / "coordination_runs.json"),
        "--plans-dir", str(plans), "--out", str(ev),
    ]) == 0
    report = json.loads((ev / "ingest_report.json").read_text())
    dropped = {"count": 1, "first_ids": ["p0001"]}
    assert report["dropped"] == {
        "intrinsic": {"incomplete": dropped},
        "rewarded1": {"incomplete_elsewhere": dropped},
        "rewarded2": {"incomplete_elsewhere": dropped},
    }


def _assert_one_error(argv, capsys, *fragments):
    """The command exits 1 with a single ``error:`` line holding every fragment."""
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and err.count("\n") == 1, err
    for fragment in fragments:
        assert fragment in err, (fragment, err)


def test_goal_file_with_a_non_number(small_run, tmp_path, capsys):
    goal = tmp_path / "goal.csv"
    goal.write_text("scenario_id,value\n1,0.5\n2,abc\n")
    _assert_one_error([
        "coordinate", "--plans-dir", str(small_run / "portfolios"),
        "--goal-file", str(goal), "--out", str(tmp_path / "coord"),
    ], capsys, f"{goal}:3:")


@pytest.mark.parametrize("value", ["1.5", "nan", "-0.25"])
def test_goal_file_with_a_value_out_of_range(small_run, tmp_path, capsys, value):
    goal = tmp_path / "goal.csv"
    goal.write_text(f"scenario_id,value\n1,0.5\n2,{value}\n")
    _assert_one_error([
        "coordinate", "--plans-dir", str(small_run / "portfolios"),
        "--goal-file", str(goal), "--out", str(tmp_path / "coord"),
    ], capsys, f"error: {goal}:3: goal signal values must lie in [0, 1]\n")


def test_goal_file_without_values(small_run, tmp_path, capsys):
    goal = tmp_path / "goal.csv"
    goal.write_text("scenario_id,value\n\n")
    _assert_one_error([
        "coordinate", "--plans-dir", str(small_run / "portfolios"),
        "--goal-file", str(goal), "--out", str(tmp_path / "coord"),
    ], capsys, f"error: {goal}: goal signal must be a non-empty vector\n")


@pytest.mark.parametrize("level", ["0", "-2"])
def test_goal_level_below_one(small_run, tmp_path, capsys, level):
    goal = tmp_path / "goal.csv"
    goal.write_text("scenario_id,value\n" + "".join(f"{j},0.5\n" for j in range(1, 65)))
    coord = tmp_path / "coord"
    _assert_one_error([
        "coordinate", "--plans-dir", str(small_run / "portfolios"),
        "--goal-file", str(goal), "--goal-level", level, "--out", str(coord),
    ], capsys, f"error: goal level {level} is below 1\n")
    assert not (coord / "coordination_summary.json").exists()


@pytest.mark.parametrize(
    "text, where, message",
    [
        ("sensor = a, b\ncollector = x, x\n", ":2", "criterion 'collector' has duplicate element names"),
        ("# sensors\nsensor =\n", ":2", "criterion 'sensor' has no elements"),
        ("# only a comment\n\n", "", "criterion list is empty"),
    ],
    ids=["duplicate-elements", "no-elements", "no-criteria"],
)
def test_catalog_file_errors_name_the_file(tmp_path, capsys, text, where, message):
    catalog = tmp_path / "catalog.txt"
    catalog.write_text(text)
    _assert_one_error([
        "conjoint", "--catalog", str(catalog), "--response", str(tmp_path / "response.csv"),
        "--out", str(tmp_path / "conjoint"),
    ], capsys, f"error: {catalog}{where}: {message}\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_response_with_a_value_that_is_not_finite(tmp_path, capsys, value):
    response = tmp_path / "response.csv"
    values = [str(j / 64) for j in range(1, 65)]
    values[2] = value
    response.write_text("scenario_id,value\n" + "".join(
        f"{j},{v}\n" for j, v in enumerate(values, start=1)
    ))
    out = tmp_path / "conjoint"
    _assert_one_error(
        ["conjoint", "--response", str(response), "--out", str(out)], capsys,
        f"error: {response}:4: not a finite number in ['3', '{value}']\n",
    )
    assert not (out / "partworths.json").exists()


# A JSON object cut off after its second line, and a JSON list.
NOT_A_JSON_OBJECT = [
    ('{\n  "n": 4,\n', ":3: malformed JSON"),
    ('["n", 4]\n', ": expected a JSON object, found list"),
]


@pytest.mark.parametrize("text, fragment", NOT_A_JSON_OBJECT, ids=["truncated", "list"])
def test_mapping_that_is_not_a_json_object(tmp_path, capsys, text, fragment):
    mapping = tmp_path / "mapping.json"
    mapping.write_text(text)
    _assert_one_error([
        "ingest", "--responses", str(tmp_path / "raw.csv"), "--mapping", str(mapping),
        "--out", str(tmp_path / "ingested"),
    ], capsys, f"{mapping}{fragment}")


@pytest.mark.parametrize("entry, fragment", [
    ({"condition_values": ["intrinsic"]},
     """'condition_values' must be an object of strings, found ["intrinsic"]"""),
    ({"condition_values": {"entry": 1}},
     """'condition_values' must be an object of strings, found {"entry": 1}"""),
    ({"scenario_id": 3}, "'scenario_id' must be a string, found 3"),
    ({"participant_id": ["user"]}, """'participant_id' must be a string, found ["user"]"""),
    ({"timestamp": {}}, "'timestamp' must be a string, found {}"),
], ids=["condition-list", "condition-number", "column-number", "column-list", "timestamp"])
def test_mapping_values_of_the_wrong_type(small_run, tmp_path, capsys, entry, fragment):
    mapping = tmp_path / "mapping.json"
    mapping.write_text(json.dumps(entry))
    _assert_one_error([
        "ingest", "--responses", str(small_run / "selections.csv"), "--mapping", str(mapping),
        "--out", str(tmp_path / "ingested"),
    ], capsys, f"{mapping}: {fragment}")


def test_mapping_without_a_timestamp_column(small_run, tmp_path):
    mapping = tmp_path / "mapping.json"
    mapping.write_text('{"timestamp": null}')
    assert main([
        "ingest", "--responses", str(small_run / "selections.csv"), "--mapping", str(mapping),
        "--out", str(tmp_path / "ingested"),
    ]) == 0


@pytest.mark.parametrize("text, fragment", NOT_A_JSON_OBJECT, ids=["truncated", "list"])
def test_population_spec_that_is_not_a_json_object(tmp_path, capsys, text, fragment):
    spec = tmp_path / "population.json"
    spec.write_text(text)
    _assert_one_error([
        "simulate", "--population-spec", str(spec), "--out", str(tmp_path / "sim"),
    ], capsys, f"{spec}{fragment}")


def test_selections_that_are_not_utf8(tmp_path, capsys):
    selections = tmp_path / "selections.csv"
    selections.write_bytes(
        b"participant_id,condition,scenario_id,selection,timestamp\n"
        b"p1,intrinsic,1,3,0\n"
        b"p\xff2,intrinsic,1,3,0\n"
    )
    _assert_one_error([
        "goals", "--selections", str(selections), "--out", str(tmp_path / "goals"),
    ], capsys, f"{selections}:3: not UTF-8")


@pytest.mark.parametrize("command", ["goals", "evaluate"])
def test_missing_selections_file(small_run, tmp_path, capsys, command):
    selections = tmp_path / "missing.csv"
    argv = [command, "--selections", str(selections), "--out", str(tmp_path / "out")]
    if command == "evaluate":
        argv += [
            "--profiles", str(small_run / "profiles.csv"),
            "--runs-json", str(tmp_path / "runs.json"),
            "--plans-dir", str(small_run / "portfolios"),
        ]
    _assert_one_error(argv, capsys, f"{selections}: cannot read")
    assert not (tmp_path / "out").exists()


def test_profiles_and_response_files_that_cannot_be_read(small_run, tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    evaluate = [
        "evaluate", "--selections", str(small_run / "selections.csv"),
        "--runs-json", str(tmp_path / "runs.json"),
        "--plans-dir", str(small_run / "portfolios"), "--out", str(tmp_path / "eval"),
    ]
    _assert_one_error(evaluate + ["--profiles", str(missing)], capsys, f"{missing}: cannot read")
    profiles = tmp_path / "profiles.csv"
    lines = (small_run / "profiles.csv").read_text().splitlines()
    profiles.write_text("\n".join(lines[:2] + [lines[2].replace(",", ",x", 1)]) + "\n")
    _assert_one_error(evaluate + ["--profiles", str(profiles)], capsys, f"{profiles}:3:")
    runs = tmp_path / "runs.json"
    _assert_one_error(
        evaluate + ["--profiles", str(small_run / "profiles.csv")], capsys,
        f"{runs}: cannot read",
    )

    conjoint = ["conjoint", "--out", str(tmp_path / "conjoint"), "--response"]
    _assert_one_error(conjoint + [str(missing)], capsys, f"{missing}: cannot read")
    response = tmp_path / "response.csv"
    response.write_bytes(b"scenario_id,value\n1,0.5\n2,\xff\n")
    _assert_one_error(conjoint + [str(response)], capsys, f"{response}:3: not UTF-8")
    response.write_text("scenario_id,value\n1,0.5\n2,abc\n")
    _assert_one_error(conjoint + [str(response)], capsys, f"{response}:3: not a number")


@pytest.mark.parametrize("reader", ["goal", "profiles", "response"])
def test_csv_fields_over_the_size_limit(small_run, small_coordination, tmp_path, capsys, reader):
    """A field larger than ``csv.field_size_limit()`` in a goal, profiles or
    response file ends in one ``error:`` line naming the file and line, not
    in a raw ``csv.Error``."""
    path = tmp_path / f"{reader}.csv"
    if reader == "profiles":
        lines = (small_run / "profiles.csv").read_text().splitlines()
        lines[2] = lines[2].replace(",", "," + "1" * 200_000, 1)
        path.write_text("\n".join(lines) + "\n")
        argv = [
            "evaluate", "--selections", str(small_run / "selections.csv"),
            "--profiles", str(path),
            "--runs-json", str(small_coordination / "coordination_runs.json"),
            "--plans-dir", str(small_run / "portfolios"), "--out", str(tmp_path / "eval"),
        ]
    else:
        path.write_text("scenario_id,value\n1,0.5\n2," + "5" * 200_000 + "\n")
        argv = (["coordinate", "--plans-dir", str(small_run / "portfolios"),
                 "--goal-file", str(path), "--out", str(tmp_path / "coord")]
                if reader == "goal" else
                ["conjoint", "--response", str(path), "--out", str(tmp_path / "conjoint")])
    _assert_one_error(argv, capsys, f"{path}:3: malformed CSV (field larger than field limit")


@pytest.fixture(scope="module")
def small_coordination(small_run, tmp_path_factory):
    """Goal signals of ``small_run`` and one short coordination of its portfolios."""
    out = tmp_path_factory.mktemp("coord")
    assert main(["goals", "--selections", str(small_run / "selections.csv"),
                 "--out", str(out)]) == 0
    assert main([
        "coordinate", "--plans-dir", str(small_run / "portfolios"),
        "--goal-file", str(out / "goal_very_high.csv"),
        "--iterations", "2", "--repetitions", "1", "--out", str(out),
    ]) == 0
    return out


def test_one_parser_serves_every_call(small_run, small_coordination, tmp_path):
    """``main`` builds its parser once; ``goals`` and then ``coordinate`` in
    one process each parse their own flags with it, and neither leaves an
    option behind for the next call."""
    assert build_parser() is build_parser()
    goals = tmp_path / "goals"
    assert main(["goals", "--selections", str(small_run / "selections.csv"),
                 "--out", str(goals)]) == 0
    coordinate = [
        "coordinate", "--plans-dir", str(small_run / "portfolios"),
        "--goal-file", str(goals / "goal_very_high.csv"),
        "--iterations", "2", "--repetitions", "1", "--out", str(tmp_path / "coord"),
    ]
    assert main(coordinate) == 0
    assert (tmp_path / "coord" / "coordination_runs.json").read_bytes() == (
        small_coordination / "coordination_runs.json"
    ).read_bytes()
    assert "selections" not in vars(build_parser().parse_args(coordinate))


def _evaluate_small(small_run, small_coordination, tmp_path, selections, plans):
    return [
        "evaluate", "--selections", str(selections),
        "--profiles", str(small_run / "profiles.csv"),
        "--runs-json", str(small_coordination / "coordination_runs.json"),
        "--plans-dir", str(plans), "--out", str(tmp_path / "eval"),
    ]


def test_evaluate_names_participants_without_selections(
    small_run, small_coordination, tmp_path, capsys
):
    # p0001 is dropped from the selections but still has a .plans file
    selections = tmp_path / "selections.csv"
    lines = (small_run / "selections.csv").read_text().splitlines(keepends=True)
    selections.write_text("".join(
        line for line in lines if not line.startswith("p0001,intrinsic,1,")
    ))
    plans = small_run / "portfolios"
    _assert_one_error(
        _evaluate_small(small_run, small_coordination, tmp_path, selections, plans), capsys,
        f"{plans} and {selections} cover different participants",
        f"only in {plans}: ['p0001']", f"only in {selections}: []",
    )


def test_plans_shorter_than_the_goal_file(small_run, small_coordination, tmp_path, capsys):
    plans = tmp_path / "plans"
    shutil.copytree(small_run / "portfolios", plans)
    for path in plans.glob("*.plans"):
        path.write_text("".join(
            line.rsplit(",", 1)[0] + "\n" for line in path.read_text().splitlines()
        ))
    goal = small_coordination / "goal_very_high.csv"
    _assert_one_error([
        "coordinate", "--plans-dir", str(plans), "--goal-file", str(goal),
        "--out", str(tmp_path / "coord"),
    ], capsys, f"--goal-file {goal} has 64 values, but --plans-dir {plans} has plans of length 63")
    assert not (tmp_path / "coord").exists()


def test_plans_of_different_lengths(small_run, small_coordination, tmp_path, capsys):
    plans = tmp_path / "plans"
    shutil.copytree(small_run / "portfolios", plans)
    short = plans / "p0002.plans"
    short.write_text("".join(
        line.rsplit(",", 1)[0] + "\n" for line in short.read_text().splitlines()
    ))
    fragment = f"{short}: plans of length 63, but p0000.plans has plans of length 64"
    _assert_one_error([
        "coordinate", "--plans-dir", str(plans),
        "--goal-file", str(small_coordination / "goal_very_high.csv"),
        "--out", str(tmp_path / "coord"),
    ], capsys, fragment)
    _assert_one_error(
        _evaluate_small(
            small_run, small_coordination, tmp_path, small_run / "selections.csv", plans
        ),
        capsys, fragment,
    )


@pytest.mark.parametrize("case", ["empty", "ragged"])
def test_plans_file_that_is_bad_is_named(small_run, small_coordination, tmp_path, capsys, case):
    plans = tmp_path / "plans"
    shutil.copytree(small_run / "portfolios", plans)
    if case == "empty":
        bad = plans / "p0001.plans"
        bad.write_text("")
        fragment = f"{bad}: agent 'p0001' has no plans"
    else:
        bad = plans / "p0002.plans"
        lines = bad.read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0]
        bad.write_text("\n".join(lines) + "\n")
        fragment = f"{bad}:2: plan of length 63, but the first plan has length 64"
    _assert_one_error([
        "coordinate", "--plans-dir", str(plans),
        "--goal-file", str(small_coordination / "goal_very_high.csv"),
        "--out", str(tmp_path / "coord"),
    ], capsys, fragment)
    _assert_one_error(
        _evaluate_small(
            small_run, small_coordination, tmp_path, small_run / "selections.csv", plans
        ),
        capsys, fragment,
    )


def test_artifacts_are_utf8_under_an_ascii_locale(tmp_path):
    """A participant id outside ASCII is written as UTF-8 whatever the
    locale's encoding, and reads back through the UTF-8 readers."""
    responses = tmp_path / "responses.csv"
    responses.write_text(
        "participant_id,condition,scenario_id,selection,timestamp\n"
        + "".join(f"pé01,intrinsic,{j},{j % 5 + 1},0\n" for j in range(1, 65)),
        encoding="utf-8",
    )
    src = Path(datacollective.__file__).parents[1]
    env = {
        **os.environ, "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C",
        "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])),
    }
    out = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, "-m", "datacollective", "ingest",
         "--responses", str(responses), "--out", str(out)],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    with open_text(out / "selections.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[1] == ["pé01", "intrinsic", "1", "2", "0"]
    assert len(rows) == 65
    assert json.loads(read_text(out / "ingest_report.json"))["accepted"] == 64


def test_profiles_with_a_weight_that_is_not_finite(
    small_run, small_coordination, tmp_path, capsys
):
    profiles = tmp_path / "profiles.csv"
    lines = (small_run / "profiles.csv").read_text().splitlines()
    fields = lines[3].split(",")
    fields[1] = "nan"  # w:sensor of the third participant
    profiles.write_text("\n".join(lines[:3] + [",".join(fields)] + lines[4:]) + "\n")
    argv = _evaluate_small(
        small_run, small_coordination, tmp_path, small_run / "selections.csv",
        small_run / "portfolios",
    )
    argv[argv.index("--profiles") + 1] = str(profiles)
    _assert_one_error(argv, capsys, f"{profiles}:4:", "finite")
    assert not (tmp_path / "eval" / "evaluation.json").exists()


def test_plans_shorter_than_the_catalog(small_run, small_coordination, tmp_path, capsys):
    plans = tmp_path / "plans"
    shutil.copytree(small_run / "portfolios", plans)
    for path in plans.glob("*.plans"):
        path.write_text("".join(
            line.rsplit(",", 1)[0] + "\n" for line in path.read_text().splitlines()
        ))
    _assert_one_error(
        _evaluate_small(
            small_run, small_coordination, tmp_path, small_run / "selections.csv", plans
        ),
        capsys, f"--plans-dir {plans}: plans of length 63", "the catalog has 64 scenarios",
    )


def _fuzzed_selections(text, rng, cases):
    """Seeded variants of a selections CSV: cut at a random byte, three
    random bytes flipped, one column dropped from every line, and one column
    dropped from about one data row in 200."""
    data = text.encode()
    lines = text.splitlines()

    def drop(column, keep_row):
        kept = [
            line if keep_row(i) else ",".join(
                f for c, f in enumerate(line.split(",")) if c != column
            )
            for i, line in enumerate(lines)
        ]
        return ("\n".join(kept) + "\n").encode()

    for case in range(cases):
        yield f"truncate{case}", data[: int(rng.integers(1, len(data)))]
        flipped = bytearray(data)
        for pos in rng.integers(0, len(data), size=3):
            flipped[pos] ^= int(rng.integers(1, 256))
        yield f"flip{case}", bytes(flipped)
        column = case % 5
        yield f"drop_column{case}", drop(column, lambda i: False)
        keep = rng.random(len(lines)) > 0.005
        keep[0] = True  # the header
        yield f"drop_in_rows{case}", drop(column, lambda i: keep[i])
    # a field longer than the csv module's field size limit
    yield "oversized_field", data + b"p9," + b"x" * 200_000 + b",1,3,0\n"


def test_fuzzed_selections(small_run, small_coordination, tmp_path, capsys):
    """``goals`` and ``evaluate`` on damaged selections files either stop
    with one ``error:`` line naming the file, or count every row once in
    the ingest report; nothing else escapes ``cli.main``."""
    rng = np.random.default_rng(20261018)
    text = (small_run / "selections.csv").read_text()
    selections = tmp_path / "selections.csv"
    for name, data in _fuzzed_selections(text, rng, cases=8):
        selections.write_bytes(data)
        out = tmp_path / name
        goals = ["goals", "--selections", str(selections), "--out", str(out / "goals")]
        evaluate = _evaluate_small(
            small_run, small_coordination, out, selections, small_run / "portfolios"
        )
        for argv, written in ((goals, out / "goals"), (evaluate, out / "eval")):
            code = main(argv)
            err = capsys.readouterr().err
            if code == 1:
                assert err.count("error:") == 1 and err.count("\n") == 1, (name, err)
                assert str(selections) in err, (name, err)
                continue
            assert code == 0, (name, err)
            report = json.loads((written / "ingest_report.json").read_text())
            assert report["total_rows"] == (
                report["accepted"] + report["duplicates"] + report["rejected"]
            ), name


GUARD_SCRIPT = """
import sys
from pathlib import Path
from datacollective.cli import main
from datacollective.pipeline import ExperimentConfig, run_pipeline
from datacollective.sharing import SelectionVector

def refuse(cls, *args, **kwargs):
    raise AssertionError("a per-participant SelectionVector was built")

SelectionVector.__new__ = refuse
tmp = Path(sys.argv[1])
stages = dict(n=6, steps=64, iterations=3, repetitions=2)
sim = run_pipeline(ExperimentConfig(**stages, output_dir=str(tmp / "sim")))
run_pipeline(ExperimentConfig(
    **stages, responses_path=str(sim / "selections.csv"),
    profiles_path=str(sim / "profiles.csv"), output_dir=str(tmp / "ingested"),
))
cli = tmp / "cli"
for argv in (
    ["simulate", "--n", "6", "--steps", "64", "--out", str(cli / "sim")],
    ["ingest", "--responses", str(cli / "sim" / "selections.csv"), "--out", str(cli / "ingest")],
    ["goals", "--selections", str(cli / "ingest" / "selections.csv"), "--out", str(cli / "goals")],
    ["coordinate", "--plans-dir", str(cli / "sim" / "portfolios"),
     "--goal-file", str(cli / "goals" / "goal_very_high.csv"),
     "--iterations", "3", "--repetitions", "2", "--out", str(cli / "coord")],
    ["evaluate", "--selections", str(cli / "ingest" / "selections.csv"),
     "--profiles", str(cli / "sim" / "profiles.csv"),
     "--runs-json", str(cli / "coord" / "coordination_runs.json"),
     "--plans-dir", str(cli / "sim" / "portfolios"), "--out", str(cli / "eval")],
):
    assert main(argv) == 0, argv
try:
    SelectionVector([1, 2])
except AssertionError:
    print("guarded")
"""


def test_selections_stay_blocks_from_kernel_and_reader_to_writers(tmp_path):
    """No ``SelectionVector`` is built between the dilemma kernel or the
    selections reader and the writers: each condition's selections travel
    as one block, in ``run_pipeline`` on both paths and in the CLI chain.
    It runs in its own process, since a class's ``__new__`` cannot be put
    back once replaced."""
    src = Path(datacollective.__file__).resolve().parents[1]
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])),
    }
    done = subprocess.run(
        [sys.executable, "-c", GUARD_SCRIPT, str(tmp_path)],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "guarded"
    assert (tmp_path / "cli" / "eval" / "evaluation.json").is_file()
