import csv
import json

import numpy as np
import pytest

from datacollective.errors import IngestError
from datacollective.ingest import export_responses, ingest, load_mapping
from datacollective.population import generate_population, simulate_population
from datacollective.sharing import (
    Criterion,
    SelectionVector,
    default_catalog,
    enumerate_scenarios,
)


def write_rows(path, header, rows):
    lines = [",".join(header)] + [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


CANONICAL = ["participant_id", "condition", "scenario_id", "selection", "timestamp"]


class TestIngest:
    def test_empty_file_warns(self, tmp_path):
        path = tmp_path / "responses.csv"
        write_rows(path, CANONICAL, [])
        bundle, report = ingest(path)
        assert bundle.conditions() == set()
        assert report.total_rows == report.accepted == 0
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
        assert (report.accepted, report.duplicates) == (1, 2)
        vectors = bundle.selection_vectors("intrinsic", 1)
        assert vectors["p1"].selections.tolist() == [4]

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
        # the two accepted keys hold the latest answers of scenarios 1 and 2
        vectors = bundle.selection_vectors("intrinsic", 2)
        assert vectors["p1"].selections.tolist() == [4, 3]

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

    @pytest.mark.parametrize("pid", ["grp/p0000", "../x", "..", ".", "a\\b"])
    def test_ids_that_cannot_name_a_file_are_rejected(self, tmp_path, pid):
        # a participant id becomes the name of its .plans file
        path = tmp_path / "responses.csv"
        write_rows(
            path,
            CANONICAL,
            [
                ["p1", "intrinsic", 1, 3, 0],
                [pid, "intrinsic", 1, 3, 0],
                [pid, "intrinsic", 2, 4, 0],
                ["p1", "intrinsic", 2, 4, 0],
            ],
        )
        bundle, report = ingest(path)
        message = f"participant id {pid!r} cannot name a file"
        assert report.row_errors == [(3, message), (4, message)]
        assert report.accepted == 2
        assert list(bundle.answers["intrinsic"]) == ["p1"]

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

    def test_export_matches_the_csv_writer(self, tmp_path):
        """Ids and condition names that need quoting or are not ASCII, and
        vectors of two lengths and two level counts, in the bytes
        ``csv.writer`` writes."""
        rng = np.random.default_rng(3)
        awkward = ['a,"b"\r\nc', "100%", "pé01", "p%d", "plain"]
        simulations = {
            pid: {
                condition: SelectionVector(rng.integers(1, z + 1, size=m), z)
                for condition, m, z in [
                    ("intrinsic", 64, 5), ("re,warded", 64, 3), ("ré\"2", 7, 5)
                ]
            }
            for pid in awkward
        }
        path, expected = tmp_path / "export.csv", tmp_path / "expected.csv"
        export_responses(path, simulations)
        with open(expected, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CANONICAL)
            for pid in sorted(simulations):
                for condition in sorted(simulations[pid]):
                    for j, s in enumerate(simulations[pid][condition].selections, start=1):
                        writer.writerow([pid, condition, j, int(s), 0])
        assert path.read_bytes() == expected.read_bytes()
        bundle, report = ingest(path)
        assert report.rejected == 0
        for pid, by_condition in simulations.items():
            for condition, sv in by_condition.items():
                answers = bundle.answers[condition][pid]
                assert [answers[j] for j in range(1, sv.m + 1)] == sv.selections.tolist()


# One row for each rejection message, plus the rows the parser must accept:
# blank timestamps, a quoted id with a comma and spaces, padded fields,
# extra and missing trailing columns, mapped and unmapped condition values
# and duplicates resolved by timestamp (a tie goes to the later row). The
# columns are mapped and out of the canonical order.
CONTRACT_CSV = (
    "ts,answer,q,phase,user,note\n"
    "1,2,1,entry,p1,\n"
    "1,3,2,entry,p1,\n"
    "1,4,3,entry,p1,\n"
    "1,5,4,entry,p1,\n"
    "1,2,3\n"                          # ragged: no phase or user column
    "1,2,1,entry,  ,\n"                # empty id
    "1,2,x,entry,p2,\n"                # non-integer scenario id
    "1,2,5,entry,p2,\n"                # scenario id above catalog.m
    "1,2,0,entry,p2,\n"                # scenario id below 1
    "1,6,1,entry,p2,\n"                # selection outside 1..z
    "soon,2,1,entry,p2,\n"             # bad timestamp
    "\n"                               # blank line: skipped, not counted
    ",1,1,entry,p2,\n"                 # blank timestamp reads as 0
    "0,2,1,entry,p2,\n"                # tie with the blank one: the later row wins
    "2, 3 ,2, entry ,p2,extra,columns\n"
    "2,4,3,entry,p2,\n"
    "2,5,4,entry,p2,\n"
    '9,1,1,day1,"Doe, Jane ",\n'       # quoted id with a comma and spaces
    '9,2,2,day1,"Doe, Jane ",\n'
    '9,3,3,day1,"Doe, Jane ",\n'
    '9,4,4,day1,"Doe, Jane ",\n'
    "7,1,2,day1,p3,\n"                 # three-way duplicate, tied timestamps
    "7,2,2,day1,p3,\n"
    "7,3,2,day1,p3,\n"
    "7,1,1,day1,p3,\n"
    "7,1,3,day1,p3,\n"
    "7,1,4,day1,p3,\n"
    "5,5,1,day1,p1,\n"                 # a later timestamp replaces an earlier one
    "3,4,1,day1,p1,\n"                 # an earlier timestamp loses
    "4,1,2,day1,p1,\n"                 # p1 stays incomplete in rewarded1
    "1,3,1,later,p4,\n"                # an unmapped condition value is kept as is
    " ,3,2,later,p4,\n"                # a timestamp of spaces is blank too
    "1,3,3,later,p4,\n"
    "1,3,4,later,p4\n"                 # short row without the note column
)

CONTRACT_MAPPING = {
    "participant_id": "user",
    "condition": "phase",
    "scenario_id": "q",
    "selection": "answer",
    "timestamp": "ts",
    "condition_values": {"entry": "intrinsic", "day1": "rewarded1"},
}

CONTRACT_REPORT = {
    "total_rows": 33,
    "accepted": 22,
    "duplicates": 4,
    "rejected": 7,
    "row_errors": [
        [6, "unparseable row: list index out of range"],
        [7, "empty participant id"],
        [8, "unparseable row: invalid literal for int() with base 10: 'x'"],
        [9, "scenario id 5 out of range"],
        [10, "scenario id 0 out of range"],
        [11, "selection 6 outside 1..5"],
        [12, "unparseable timestamp 'soon'"],
    ],
    "warnings": [],
    "dropped": {"rewarded1": {"incomplete": {"count": 1, "first_ids": ["p1"]}}},
}

# Sorted ids per condition; a participant first seen in a later condition
# is appended.
CONTRACT_SELECTIONS = [
    ("p1", {"intrinsic": [2, 3, 4, 5]}),
    ("p2", {"intrinsic": [2, 3, 4, 5]}),
    ("p4", {"later": [3, 3, 3, 3]}),
    ("Doe, Jane", {"rewarded1": [1, 2, 3, 4]}),
    ("p3", {"rewarded1": [1, 3, 1, 1]}),
]


def test_row_level_contract(tmp_path):
    """Every accepted and rejected row of a mapped archive: the whole
    ingest report and every selection vector, in order."""
    catalog = enumerate_scenarios([Criterion("a", ("x", "y")), Criterion("b", ("u", "v"))])
    path = tmp_path / "responses.csv"
    path.write_text(CONTRACT_CSV)
    bundle, report = ingest(path, mapping=CONTRACT_MAPPING, catalog=catalog)
    conditions = sorted(bundle.conditions())
    assert conditions == ["intrinsic", "later", "rewarded1"]
    selections = bundle.selections_by_participant(conditions, catalog.m, 5, report)
    report.write_json(tmp_path / "ingest_report.json")
    assert json.loads((tmp_path / "ingest_report.json").read_text()) == CONTRACT_REPORT
    assert [
        (pid, {c: sv.selections.tolist() for c, sv in by_condition.items()})
        for pid, by_condition in selections.items()
    ] == CONTRACT_SELECTIONS
