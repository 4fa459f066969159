import json

from datacollective.cli import main


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
    assert (ev / "recovery.json").is_file()

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
