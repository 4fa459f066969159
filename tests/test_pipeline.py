import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import pytest

from datacollective.errors import InvalidInputError, PipelineError
from datacollective import pipeline
from datacollective.pipeline import ExperimentConfig, run_pipeline


def small_config(out, **overrides):
    base = dict(
        n=16,
        steps=80,
        iterations=10,
        repetitions=3,
        master_seed=5,
        output_dir=str(out),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def tree_hashes(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestConfig:
    def test_json_round_trip(self, tmp_path):
        config = small_config(tmp_path / "out", goal_level=1, alpha=0.25)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(asdict(config)), encoding="utf-8")
        loaded = ExperimentConfig.from_json(path)
        assert loaded == config
        assert loaded.config_hash() == config.config_hash()

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"n": 5, "walrus": true}')
        with pytest.raises(InvalidInputError):
            ExperimentConfig.from_json(path)

    def test_validation_fails_fast_on_missing_file(self, tmp_path):
        config = small_config(tmp_path / "out", catalog_path=str(tmp_path / "nope.txt"))
        with pytest.raises(PipelineError) as err:
            run_pipeline(config)
        assert err.value.stage == "validate"
        assert not (tmp_path / "out").exists()  # no partial outputs

    @pytest.mark.parametrize("error", [KeyError(64), IndexError("index 64 is out of bounds")])
    def test_lookup_error_names_its_stage(self, tmp_path, monkeypatch, error):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(pipeline, "build_goal_signals", fail)
        with pytest.raises(PipelineError) as err:
            run_pipeline(small_config(tmp_path / "out", n=4, steps=64))
        assert err.value.stage == "goals"
        assert type(error).__name__ in str(err.value)

    def test_validation_checks_weights(self, tmp_path):
        config = small_config(tmp_path / "out", alpha=0.9, beta=0.9)
        with pytest.raises(PipelineError):
            run_pipeline(config)

    def test_output_env_var_default(self, monkeypatch, tmp_path):
        monkeypatch.setenv("DATACOLLECTIVE_OUTPUT", str(tmp_path / "from_env"))
        assert ExperimentConfig().output_dir == str(tmp_path / "from_env")


class TestRunPipeline:
    def test_smoke_emits_expected_artifacts(self, tmp_path):
        out = run_pipeline(small_config(tmp_path / "out"))
        expected = [
            "selections.csv",
            "profiles.csv",
            "groups.json",
            "goal_very_low.csv",
            "goal_very_high.csv",
            "coordination_runs.json",
            "cost_trace.csv",
            "coordination_summary.json",
            "privacy_by_scenario.csv",
            "mismatch_by_scenario.csv",
            "costs.csv",
            "evaluation.json",
            "response_intrinsic_privacy.csv",
            "conjoint_coefficients.csv",
            "partworths.json",
            "manifest.json",
        ]
        for name in expected:
            assert (out / name).is_file(), name
        assert (out / "portfolios").is_dir()
        evaluation = json.loads((out / "evaluation.json").read_text())
        assert set(evaluation["costs_chf"]) == {
            "intrinsic", "rewarded1", "rewarded2",
            "coordinated", "coordinated_no_intrinsic",
        }

    def test_rerun_is_byte_identical(self, tmp_path):
        first = run_pipeline(small_config(tmp_path / "a"))
        second = run_pipeline(small_config(tmp_path / "b"))
        assert tree_hashes(first) == tree_hashes(second)

    def test_different_seed_changes_outputs(self, tmp_path):
        first = run_pipeline(small_config(tmp_path / "a"))
        second = run_pipeline(small_config(tmp_path / "b", master_seed=6))
        assert tree_hashes(first) != tree_hashes(second)

    def test_manifest_covers_all_files(self, tmp_path):
        out = run_pipeline(small_config(tmp_path / "out"))
        manifest = json.loads((out / "manifest.json").read_text())
        on_disk = {
            str(p.relative_to(out))
            for p in out.rglob("*")
            if p.is_file() and p.name != "manifest.json"
        }
        assert set(manifest["files"]) == on_disk
        assert manifest["rng_algorithm"] == "numpy-pcg64"
        assert manifest["seeds"]["master_seed"] == 5

    def test_geometric_reward_mode(self, tmp_path):
        out = run_pipeline(small_config(tmp_path / "geo", reward_mode="geometric"))
        evaluation = json.loads((out / "evaluation.json").read_text())
        assert all(v >= 0 for v in evaluation["costs_chf"].values())
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["reward_mode"] == "geometric"

    def test_dataset_pipeline_round_trip(self, tmp_path):
        # simulate, export, then run the pipeline in ingest mode
        out_sim = run_pipeline(small_config(tmp_path / "sim"))
        config = small_config(
            tmp_path / "ingested",
            responses_path=str(out_sim / "selections.csv"),
            profiles_path=str(out_sim / "profiles.csv"),
        )
        out = run_pipeline(config)
        assert (out / "ingest_report.json").is_file()
        assert (out / "comparison_report.json").is_file()
        assert json.loads((out / "ingest_report.json").read_text())["dropped"] == {}
        sim_eval = json.loads((out_sim / "evaluation.json").read_text())
        ing_eval = json.loads((out / "evaluation.json").read_text())
        for condition in ("intrinsic", "rewarded1", "rewarded2"):
            assert ing_eval["mean_privacy"][condition] == pytest.approx(
                sim_eval["mean_privacy"][condition], abs=1e-12
            )

    @pytest.mark.parametrize("bad_id", ["grp/p0003", "../p0003"])
    def test_dataset_ids_that_cannot_name_a_file_are_rejected(self, tmp_path, bad_id):
        out_sim = run_pipeline(small_config(tmp_path / "sim"))
        responses = tmp_path / "responses.csv"
        responses.write_text(
            (out_sim / "selections.csv").read_text().replace("\np0003,", f"\n{bad_id},")
        )
        out = run_pipeline(small_config(
            tmp_path / "ingested",
            responses_path=str(responses),
            profiles_path=str(out_sim / "profiles.csv"),
        ))
        report = json.loads((out / "ingest_report.json").read_text())
        assert report["rejected"] == 3 * 64
        assert {message for _, message in report["row_errors"]} == {
            f"participant id {bad_id!r} cannot name a file"
        }
        groups = json.loads((out_sim / "groups.json").read_text())
        assert sorted(p.name for p in (out / "portfolios").iterdir()) == sorted(
            f"{pid}.plans" for pid in set(groups) - {"p0003"}
        )
        assert not (out / "p0003.plans").exists()

    def test_dataset_pipeline_reports_dropped_participant(self, tmp_path):
        out_sim = run_pipeline(small_config(tmp_path / "sim"))
        lines = (out_sim / "selections.csv").read_text().splitlines(keepends=True)
        responses = tmp_path / "responses.csv"
        # p0003 loses one rewarded2 answer
        responses.write_text("".join(
            line for line in lines if not line.startswith("p0003,rewarded2,5,")
        ))
        out = run_pipeline(small_config(
            tmp_path / "ingested",
            responses_path=str(responses),
            profiles_path=str(out_sim / "profiles.csv"),
        ))
        report = json.loads((out / "ingest_report.json").read_text())
        assert report["dropped"] == {
            "intrinsic": {"incomplete_elsewhere": {"count": 1, "first_ids": ["p0003"]}},
            "rewarded1": {"incomplete_elsewhere": {"count": 1, "first_ids": ["p0003"]}},
            "rewarded2": {"incomplete": {"count": 1, "first_ids": ["p0003"]}},
        }
        groups = json.loads((out_sim / "groups.json").read_text())
        plans = {p.stem for p in (out / "portfolios").iterdir()}
        assert plans == set(groups) - {"p0003"}
