import json

import numpy as np
import pytest

from datacollective.errors import IngestError
from datacollective.ingest import export_responses, ingest, load_mapping
from datacollective.population import generate_population, simulate_population
from datacollective.sharing import default_catalog


def write_rows(path, header, rows):
    lines = [",".join(header)] + [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


CANONICAL = ["participant_id", "condition", "scenario_id", "selection", "timestamp"]


class TestIngest:
    def test_empty_file_warns(self, tmp_path):
        path = tmp_path / "responses.csv"
        write_rows(path, CANONICAL, [])
        bundle, report = ingest(path)
        assert len(bundle.responses) == 0
        assert report.total_rows == 0
        assert report.warnings

    def test_duplicate_keeps_latest_timestamp(self, tmp_path):
        path = tmp_path / "responses.csv"
        write_rows(
            path,
            CANONICAL,
            [
                ["p1", "intrinsic", 1, 2, 100],
                ["p1", "intrinsic", 1, 4, 300],
                ["p1", "intrinsic", 1, 3, 200],
            ],
        )
        bundle, report = ingest(path)
        assert report.duplicates == 2
        assert len(bundle.responses) == 1
        assert bundle.responses[0].selection == 4

    def test_duplicate_is_not_also_accepted(self, tmp_path):
        path = tmp_path / "responses.csv"
        write_rows(
            path,
            CANONICAL,
            [
                ["p1", "intrinsic", 1, 2, 100],
                ["p1", "intrinsic", 2, 3, 100],
                ["p1", "intrinsic", 1, 4, 300],  # replaces the first row
                ["p1", "intrinsic", 3, 9, 100],  # rejected
            ],
        )
        bundle, report = ingest(path)
        assert (report.accepted, report.duplicates, report.rejected) == (2, 1, 1)
        assert report.total_rows == report.accepted + report.duplicates + report.rejected
        assert len(bundle.responses) == report.accepted

    def test_row_errors_reported_with_line_numbers(self, tmp_path):
        path = tmp_path / "responses.csv"
        write_rows(
            path,
            CANONICAL,
            [
                ["p1", "intrinsic", 1, 3, 0],
                ["p1", "intrinsic", 2, 9, 0],   # selection out of range
                ["p1", "intrinsic", "x", 3, 0], # unparseable scenario id
            ],
        )
        bundle, report = ingest(path)
        assert report.accepted == 1
        assert report.rejected == 2
        lines = [line for line, _ in report.row_errors]
        assert lines == [3, 4]

    def test_unmapped_column_is_structural_error(self, tmp_path):
        path = tmp_path / "responses.csv"
        write_rows(path, ["pid", "condition", "scenario_id", "selection"], [])
        with pytest.raises(IngestError):
            ingest(path)

    def test_column_mapping_and_condition_values(self, tmp_path):
        path = tmp_path / "responses.csv"
        write_rows(
            path,
            ["user", "phase", "q", "answer"],
            [["u7", "entry", 1, 5], ["u7", "day1", 1, 1]],
        )
        mapping = {
            "participant_id": "user",
            "condition": "phase",
            "scenario_id": "q",
            "selection": "answer",
            "condition_values": {"entry": "intrinsic", "day1": "rewarded1"},
        }
        bundle, report = ingest(path, mapping=mapping)
        assert report.accepted == 2
        assert bundle.conditions() == {"intrinsic", "rewarded1"}

    def test_mapping_file_loader(self, tmp_path):
        path = tmp_path / "mapping.json"
        path.write_text('{"participant_id": "uid"}')
        mapping = load_mapping(path)
        assert mapping["participant_id"] == "uid"
        assert mapping["condition"] == "condition"

    def test_selection_vectors_require_completeness(self, tmp_path):
        path = tmp_path / "responses.csv"
        rows = [["p1", "intrinsic", j, 3, 0] for j in range(1, 65)]
        rows += [["p2", "intrinsic", 1, 3, 0]]  # incomplete participant
        write_rows(path, CANONICAL, rows)
        bundle, _ = ingest(path)
        vectors = bundle.selection_vectors("intrinsic", 64)
        assert set(vectors) == {"p1"}
        assert vectors["p1"].selections.tolist() == [3] * 64

    def test_dropped_participants_are_reported(self, tmp_path):
        path = tmp_path / "responses.csv"
        rows = [
            [pid, condition, j, 3, 0]
            for pid in ("p1", "p2")
            for condition in ("intrinsic", "rewarded1")
            for j in range(1, 65)
        ]
        rows.remove(["p2", "intrinsic", 7, 3, 0])  # p2 is incomplete in intrinsic
        write_rows(path, CANONICAL, rows)
        bundle, report = ingest(path)
        selections = bundle.complete_selections(("intrinsic", "rewarded1"), 64, report=report)
        assert set(selections) == {"p1"}
        assert report.dropped == {
            "intrinsic": {"incomplete": ["p2"]},
            "rewarded1": {"incomplete_elsewhere": ["p2"]},
        }
        report.write_json(tmp_path / "report.json")
        written = json.loads((tmp_path / "report.json").read_text())
        assert written["dropped"] == {
            "intrinsic": {"incomplete": {"count": 1, "first_ids": ["p2"]}},
            "rewarded1": {"incomplete_elsewhere": {"count": 1, "first_ids": ["p2"]}},
        }


class TestRoundTrip:
    def test_simulated_population_round_trips_exactly(self, tmp_path):
        population = generate_population(5, master_seed=13)
        simulations = simulate_population(population, steps=80)
        path = tmp_path / "export.csv"
        export_responses(path, simulations)
        bundle, report = ingest(path, catalog=default_catalog())
        assert report.rejected == 0
        for condition in ("intrinsic", "rewarded1", "rewarded2"):
            vectors = bundle.selection_vectors(condition, 64)
            assert set(vectors) == set(simulations)
            for pid, sv in vectors.items():
                assert np.array_equal(
                    sv.selections, simulations[pid][condition].selections
                )
