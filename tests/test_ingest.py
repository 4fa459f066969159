import csv
import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from datacollective import ingest as ingest_module
from datacollective.errors import DataCollectiveError, IngestError, InvalidInputError
from datacollective.ingest import export_responses, ingest, load_mapping
from datacollective.metrics import ConditionSnapshot
from datacollective.pipeline import ExperimentConfig, run_pipeline
from datacollective.population import generate_population, simulate_population
from datacollective.sharing import (
    Criterion,
    SelectionVector,
    default_catalog,
    enumerate_scenarios,
)
from test_golden import GOLDEN


def write_rows(path, header, rows):
    lines = [",".join(header)] + [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


CANONICAL = ["participant_id", "condition", "scenario_id", "selection", "timestamp"]


def table_lists(table):
    """An answer table as lists: ids, offsets, scenario ids and selections."""
    return (table.participant_ids, table.offsets.tolist(), table.scenario_ids.tolist(),
            table.selections.tolist())


def simulated_table(snapshots, condition):
    """``table_lists`` of the table that the exported snapshot of
    ``condition`` reads back as: ids in sorted order, scenarios 1..m in
    order."""
    snapshot = snapshots[condition]
    ids, m = snapshot.participant_ids, snapshot.m
    order = sorted(range(len(ids)), key=ids.__getitem__)
    return ([ids[i] for i in order], list(range(0, (len(ids) + 1) * m, m)),
            list(range(1, m + 1)) * len(ids), snapshot.selections[0][order].ravel().tolist())


def rows_of(snapshot):
    """A snapshot's participants with their levels, in its order."""
    return list(zip(snapshot.participant_ids, snapshot.selections[0].tolist()))


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
        assert rows_of(bundle.snapshot("intrinsic", 1)) == [("p1", [4])]

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
        assert rows_of(bundle.snapshot("intrinsic", 2)) == [("p1", [4, 3])]

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
        assert bundle.tables["intrinsic"].participant_ids == ["p1"]

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
        assert rows_of(bundle.snapshot("intrinsic", 64)) == [("p1", [3] * 64)]
        assert bundle.snapshot("rewarded1", 64) is None

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
        snapshots = bundle.complete_snapshots(("intrinsic", "rewarded1"), 64, report=report)
        assert list(snapshots) == ["intrinsic", "rewarded1"]
        for condition, snapshot in snapshots.items():
            assert snapshot.label == condition
            assert rows_of(snapshot) == [("p1", [3] * 64)]
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
        ids = tuple(p.participant_id for p in population.participants)
        snapshots = [
            ConditionSnapshot(condition, ids, block)
            for condition, block in simulate_population(population, steps=80).items()
        ]
        path = tmp_path / "export.csv"
        export_responses(path, snapshots)
        bundle, report = ingest(path, catalog=default_catalog())
        assert report.rejected == 0
        for snapshot in snapshots:
            read = bundle.snapshot(snapshot.label, 64)
            assert read.participant_ids == ids
            assert np.array_equal(read.selections, snapshot.selections)

    def test_export_matches_the_csv_writer(self, tmp_path):
        """Ids and condition names that need quoting or are not ASCII,
        snapshots of two lengths and two level counts, with ids out of order
        and a condition that lists only some of them, in the bytes
        ``csv.writer`` writes: rows sorted by id, then by condition."""
        rng = np.random.default_rng(3)
        awkward = ('a,"b"\r\nc', "100%", "pé01", "p%d", "plain")
        snapshots = {
            condition: ConditionSnapshot(
                condition, ids, rng.integers(1, z + 1, size=(len(ids), m)), z
            )
            for condition, ids, m, z in [
                ("intrinsic", awkward, 64, 5), ("re,warded", awkward, 64, 3),
                ("ré\"2", awkward[1:4], 7, 5),
            ]
        }
        path, expected = tmp_path / "export.csv", tmp_path / "expected.csv"
        export_responses(path, snapshots.values())
        with open(expected, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CANONICAL)
            for pid in sorted(awkward):
                for condition in sorted(snapshots):
                    levels = dict(rows_of(snapshots[condition])).get(pid, [])
                    for j, s in enumerate(levels, start=1):
                        writer.writerow([pid, condition, j, s, 0])
        assert path.read_bytes() == expected.read_bytes()
        bundle, report = ingest(path)
        assert report.rejected == 0
        for condition in snapshots:
            assert table_lists(bundle.tables[condition]) == simulated_table(snapshots, condition)


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

# Each condition's complete participants in sorted id order.
CONTRACT_SELECTIONS = {
    "intrinsic": [("p1", [2, 3, 4, 5]), ("p2", [2, 3, 4, 5])],
    "later": [("p4", [3, 3, 3, 3])],
    "rewarded1": [("Doe, Jane", [1, 2, 3, 4]), ("p3", [1, 3, 1, 1])],
}


def test_row_level_contract(tmp_path):
    """Every accepted and rejected row of a mapped archive: the whole
    ingest report and every condition's selections, in order."""
    catalog = enumerate_scenarios([Criterion("a", ("x", "y")), Criterion("b", ("u", "v"))])
    path = tmp_path / "responses.csv"
    path.write_text(CONTRACT_CSV)
    bundle, report = ingest(path, mapping=CONTRACT_MAPPING, catalog=catalog)
    conditions = sorted(bundle.conditions())
    assert conditions == ["intrinsic", "later", "rewarded1"]
    snapshots = {c: bundle.snapshot(c, catalog.m, 5, report) for c in conditions}
    report.write_json(tmp_path / "ingest_report.json")
    assert json.loads((tmp_path / "ingest_report.json").read_text()) == CONTRACT_REPORT
    assert {c: rows_of(s) for c, s in snapshots.items()} == CONTRACT_SELECTIONS



@pytest.mark.parametrize("stamp", ["nan", "NaN", "inf", "-inf", "Infinity"])
def test_non_finite_timestamps_are_rejected(tmp_path, stamp):
    """A NaN stamp never loses a tie, so its answer would outlast every
    later duplicate; an infinite stamp orders nothing either."""
    path = tmp_path / "responses.csv"
    write_rows(path, CANONICAL, [["p1", "intrinsic", 1, 2, stamp], ["p1", "intrinsic", 1, 3, 5]])
    bundle, report = ingest(path)
    assert report.row_errors == [(2, f"unparseable timestamp '{stamp}'")]
    assert (report.total_rows, report.accepted, report.duplicates) == (2, 1, 0)
    assert {c: table_lists(t) for c, t in bundle.tables.items()} == {
        "intrinsic": (["p1"], [0, 1], [1], [3])
    }


# -- the block reader against the row loop -------------------------------------
#
# ``ingest`` reads a file in blocks when the row loop would accept every row
# as a new key, and leaves every other file to the loop. Each test below
# holds it to the loop called directly: the answers in insertion order and
# every report field, or the error's type and message.

BLOCK_SIZES = [1, 5, 17, ingest_module.BLOCK_BYTES]
CATALOG4 = enumerate_scenarios([Criterion("a", ("x", "y")), Criterion("b", ("u", "v"))])


def _outcome(read):
    try:
        answers, report = read()
    except DataCollectiveError as exc:
        return type(exc), str(exc)
    ordered = [(condition, table_lists(table)) for condition, table in answers.items()]
    return ordered, dataclasses.asdict(report)


def _ingest_and_loop(path, mapping, catalog, block_bytes, z=5):
    """The outcomes of ``ingest`` and of the row loop on one file, and
    whether ``ingest`` read it in blocks of ``block_bytes``."""
    blocks, taken = ingest_module._ingest_blocks, []

    def recorded(*args):
        result = blocks(*args)
        taken.append(result is not None)
        return result

    def via_ingest():
        bundle, report = ingest(path, mapping=mapping, catalog=catalog, z=z)
        return bundle.tables, report

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest_module, "_ingest_blocks", recorded)
        mp.setattr(ingest_module, "BLOCK_BYTES", block_bytes)
        fast = _outcome(via_ingest)
    full = {**ingest_module.DEFAULT_MAPPING, **(mapping or {})}
    m_limit = catalog.m if catalog is not None else math.inf
    slow = _outcome(lambda: ingest_module._ingest_rows(path, full, m_limit, z))
    return fast, slow, taken == [True]


def _text(header, rows):
    return "".join(",".join(line) + "\n" for line in [header, *rows])


def _rows(pids=("p1", "p2"), conditions=("intrinsic", "rewarded1"), m=4):
    return [
        [pid, condition, str(j), str(1 + (j + k) % 5), "0"]
        for k, pid in enumerate(pids) for condition in conditions for j in range(1, m + 1)
    ]


def _edited(rows, i, column, value):
    rows = [list(row) for row in rows]
    rows[i][column] = value
    return rows


def _nth(text, old, new, n):
    """``text`` with its ``n``-th ``old`` (from 0) replaced by ``new``."""
    parts = text.split(old)
    return old.join(parts[: n + 1]) + new + old.join(parts[n + 1:])


BASE = _text(CANONICAL, _rows())
MAPPED_NAMES = ["user", "phase", "q", "answer", "ts"]
MAPPED = dict(zip(ingest_module.DEFAULT_MAPPING, MAPPED_NAMES))
MERGING = {"condition_values": {"entry": "intrinsic", "day1": "rewarded1"}}
MOVED = _rows()
MOVED.append(MOVED.pop(2))  # p1's intrinsic scenario 3, after the other pairs
BLANKS = BASE.replace("p1,rewarded1,1", "\np1,rewarded1,1", 1).replace("\n", "\n\n", 1) + "\n\n"

# name -> (file content, mapping); the names in BLOCK_READ take the block path
NAMED_FILES = {
    "lf": (BASE, None),
    "crlf": (BASE.replace("\n", "\r\n"), None),
    "mixed_line_ends": (BASE.replace("\n", "\r\n", 5), None),
    "lone_cr": (_nth(BASE, "\n", "\r", 6), None),
    "cr_at_the_end": (BASE + "\r", None),
    "blank_lines": (BLANKS, None),
    "blank_lines_crlf": (BLANKS.replace("\n", "\r\n"), None),
    "no_final_newline": (BASE[:-1], None),
    "no_final_newline_crlf": (BASE.replace("\n", "\r\n")[:-2], None),
    "bom": ("\ufeff" + BASE, None),
    "bom_on_an_unmapped_column": ("\ufeffnote," + BASE.replace("\n", "\nx,")[:-2], None),
    "quoted_id": (_text(CANONICAL, _edited(_rows(), 0, 0, '"p1"')), None),
    "quoted_comma": (_text(CANONICAL, [['"Doe, Jane"', *row[1:]] for row in _rows()]), None),
    "quote_inside_a_field": (_text(CANONICAL, _edited(_rows(), 9, 1, 'int"rinsic')), None),
    "quoted_header": ('"participant_id"' + BASE[len("participant_id"):], None),
    "padded_id": (_text(CANONICAL, _edited(_rows(), 1, 0, " p1")), None),
    "padded_condition": (_text(CANONICAL, _edited(_rows(), 5, 1, "rewarded1 ")), None),
    "plus_sign": (_text(CANONICAL, _edited(_rows(), 2, 2, "+3")), None),
    "underscore": (_text(CANONICAL, _edited(_rows(), 2, 2, "0_3")), None),
    "underscore_out_of_range": (_text(CANONICAL, _edited(_rows(), 2, 2, "1_0")), None),
    "non_ascii_digits": (_text(CANONICAL, _edited(_rows(), 2, 2, "٣")), None),
    "padded_numbers": (_text(CANONICAL, _edited(_rows(), 3, 3, " 2 ")), None),
    "duplicate_tied": (_text(CANONICAL, _rows()[:4] + [["p1", "intrinsic", "2", "5", "0"]]
                              + _rows()[4:]), None),
    "duplicate_later_stamp": (
        _text(CANONICAL, _rows()[:4] + [["p1", "intrinsic", "2", "5", "1"]]), None
    ),
    "duplicate_earlier_stamp": (
        _text(CANONICAL, _rows()[:4] + [["p1", "intrinsic", "1", "5", "-1"]]), None
    ),
    "pair_seen_again": (_text(CANONICAL, MOVED), None),
    # entry maps to intrinsic: the loop files both runs into one participant's answers
    "merged_conditions": (_text(CANONICAL, _rows(pids=("p1",), conditions=("entry",), m=2)
                                + [["p1", "intrinsic", "3", "1", "0"],
                                   ["p1", "intrinsic", "4", "2", "0"]]), MERGING),
    "mapped_conditions": (_text(CANONICAL, _rows(conditions=("entry", "day1"))), MERGING),
    "mapped_columns": (_text(MAPPED_NAMES, _rows()), MAPPED),
    "reordered_columns": (_text([CANONICAL[i] for i in (3, 4, 0, 2, 1)],
                                [[row[i] for i in (3, 4, 0, 2, 1)] for row in _rows()]), None),
    "extra_columns": (_text(CANONICAL + ["note", ""], [row + ["x", ""] for row in _rows()]),
                      None),
    "no_timestamp_column": (_text(CANONICAL[:4], [row[:4] for row in _rows()]), None),
    "timestamps": (_text(CANONICAL, [row[:4] + [stamp] for row, stamp in zip(
        _rows(), ["", " ", "1.5e3", "-0", "1_0", "7", "٣"] * 3)]), None),
    "id_with_slash": (_text(CANONICAL, _rows(pids=("p1", "a/b"))), None),
    "dot_dot_id": (_text(CANONICAL, _rows(pids=("..", "p2"))), None),
    "empty_id": (_text(CANONICAL, _edited(_rows(), 0, 0, "")), None),
    "non_ascii_id": (_text(CANONICAL, _rows(pids=("pé01", "ид"))), None),
    "nan_timestamp": (_text(CANONICAL, _edited(_rows(), 3, 4, "nan")), None),
    "inf_timestamp": (_text(CANONICAL, _edited(_rows(), 3, 4, "inf")), None),
    "bad_timestamp": (_text(CANONICAL, _edited(_rows(), 3, 4, "soon")), None),
    "scenario_out_of_range": (_text(CANONICAL, _edited(_rows(), 3, 2, "5")), None),
    "scenario_zero": (_text(CANONICAL, _edited(_rows(), 3, 2, "0")), None),
    "selection_out_of_range": (_text(CANONICAL, _edited(_rows(), 3, 3, "6")), None),
    "unparseable_scenario": (_text(CANONICAL, _edited(_rows(), 3, 2, "x")), None),
    "short_row": (_text(CANONICAL, _rows()[:3] + [_rows()[3][:4]]), None),
    "long_row": (_text(CANONICAL, _rows()[:3] + [_rows()[3] + ["x"]]), None),
    "short_and_long_rows": (_text(CANONICAL, _rows()[:3] + [_rows()[3][:4], _rows()[4] + ["x"]]
                                  + _rows()[5:]), None),
    # every field after the short row lands one column early until the long
    # row, and each would pass in its new column
    "ragged_rows_that_realign": (_text(["note"] + CANONICAL, [
        ["n", *row[:4], "1"][: 5 if i == 3 else 6] + ["1"] * (i == 4)
        for i, row in enumerate(_rows())]), None),
    "padded_run_of_an_id": (_text(CANONICAL, [[" p2" if row[0] == "p2" else row[0], *row[1:]]
                                               for row in _rows()]), None),
    "padded_run_of_a_condition": (_text(CANONICAL, [
        [row[0], "rewarded1 " if row[0] == "p2" and row[1] == "rewarded1" else row[1], *row[2:]]
        for row in _rows()]), None),
    "nul": (_text(CANONICAL, _edited(_rows(), 3, 0, "p\x001")), None),
    # csv.reader takes a NUL in a field from Python 3.11 on, and raises before
    "nul_in_a_condition": (_text(CANONICAL, _edited(_rows(), 3, 1, "intrinsic\x00")), None),
    "oversized_field": (_text(CANONICAL + ["note"], [row + ["x" * 200_000] for row in _rows()]),
                        None),
    "empty_file": ("", None),
    "header_only": (_text(CANONICAL, []), None),
    "blank_header": ("\n" + BASE, None),
    "unmapped_column": (BASE, MAPPED),
    "not_utf8": (BASE.encode() + "p3,intrinsic,1,1,0\né".encode("latin-1"), None),
}
BLOCK_READ = {
    "lf", "crlf", "mixed_line_ends", "blank_lines", "blank_lines_crlf", "no_final_newline",
    "no_final_newline_crlf", "bom_on_an_unmapped_column", "plus_sign", "underscore",
    "non_ascii_digits", "padded_numbers", "mapped_conditions", "mapped_columns",
    "reordered_columns", "extra_columns", "no_timestamp_column", "timestamps", "non_ascii_id",
}


@pytest.mark.parametrize("block_chars", BLOCK_SIZES)
@pytest.mark.parametrize("name", NAMED_FILES)
def test_block_reader_matches_the_row_loop(tmp_path, name, block_chars):
    content, mapping = NAMED_FILES[name]
    path = tmp_path / "responses.csv"
    if isinstance(content, str):
        path.write_text(content, encoding="utf-8", newline="")
    else:
        path.write_bytes(content)
    fast, slow, took_blocks = _ingest_and_loop(path, mapping, CATALOG4, block_chars)
    assert fast == slow
    assert took_blocks == (name in BLOCK_READ)


@pytest.mark.parametrize("name", ["missing", "directory"])
def test_block_reader_on_a_file_that_cannot_be_read(tmp_path, name):
    path = tmp_path / "responses.csv"
    if name == "directory":
        path.mkdir()
    fast, slow, _ = _ingest_and_loop(path, None, None, ingest_module.BLOCK_BYTES)
    assert fast == slow and fast[0] is InvalidInputError


def test_block_reader_leaves_an_earlier_error_to_the_loop(tmp_path):
    """A byte that is not UTF-8 in the block after an oversized field: the
    block reader decodes the byte first, but the loop stops at the field."""
    path = tmp_path / "responses.csv"
    path.write_bytes((BASE + "p3,intrinsic," + "1" * 2000 + ",1,0\n"
                     + BASE.partition("\n")[2] * 30).encode()
                     + b"p3,intrinsic,1,1,\xe9\n")
    limit = csv.field_size_limit(1000)
    try:
        fast, slow, _ = _ingest_and_loop(path, None, None, ingest_module.BLOCK_BYTES)
    finally:
        csv.field_size_limit(limit)
    assert fast == slow and fast[0] is IngestError


# per column, field texts the row loop reads with a remark, or that are
# not what the block reader expects of a plain field
ODD_FIELDS = {
    "participant_id": [" p1", "p1 ", "", " ", "a/b", "..", '"p1"', '"Doe, Jane"', 'p"1',
                       "p\x001", "pé", "p "],
    "condition": [" intrinsic", "", '"intrinsic"', "entry", "rewarded1", "day1"],
    "scenario_id": ["+3", "0_3", "٣", " 2", "x", "0", "5", "", "1" * 25],
    "selection": ["+2", "٢", "6", "0", "x", "", "2.0"],
    "timestamp": ["nan", "inf", "-inf", "soon", "", " ", "1e3", "-0", "1_0", "7", "1e999"],
}


def _generated_file(rng):
    """A random selections file, its mapping and catalog: runs of rows of one
    (participant, condition) pair, mostly plain, then a few random edits of
    the kinds ``NAMED_FILES`` holds one at a time."""
    keys = list(ingest_module.DEFAULT_MAPPING)[:5]
    names = MAPPED_NAMES if rng.random() < 0.3 else CANONICAL
    mapping = dict(zip(keys, names)) | (MERGING if rng.random() < 0.5 else {})
    m = int(rng.integers(1, 6))
    rows = []
    for pid in rng.permutation(["p1", "p2", "pé", "x_9", "Doe Jane"])[: rng.integers(1, 4)]:
        conditions = rng.permutation(["intrinsic", "rewarded1", "entry", "day1"])
        for condition in conditions[: rng.integers(1, 3)]:
            for j in rng.permutation(m) + 1:
                rows.append({"participant_id": pid, "condition": condition, "scenario_id": str(j),
                             "selection": str(rng.integers(1, 6)),
                             "timestamp": str(rng.integers(0, 3))})
    columns = [key for key in keys if key != "timestamp" or rng.random() < 0.8]
    columns = list(rng.permutation(columns)) + ["note"] * int(rng.integers(0, 2))
    lines = [[row.get(key, "n") for key in columns] for row in rows]
    for _ in range(rng.poisson(0.6)):
        i, kind = int(rng.integers(len(lines))), rng.integers(5)
        if kind == 0:  # an odd field
            c = int(rng.integers(len(columns)))
            if columns[c] in ODD_FIELDS and c < len(lines[i]):
                lines[i][c] = rng.choice(ODD_FIELDS[columns[c]])
        elif kind == 1:  # a duplicate, next to its row or later
            twin = list(lines[i])
            lines.insert(int(rng.integers(i + 1, len(lines) + 1)), twin)
        elif kind == 2:  # a row moved to the end
            lines.append(lines.pop(i))
        elif kind == 3:  # a field too few or too many
            lines[i] = lines[i][:-1] if rng.random() < 0.5 else lines[i] + ["x"]
        else:
            lines.insert(i, [])
    end = rng.choice(["\n", "\r\n"])
    text = end.join(",".join(line) for line in [[names[keys.index(c)] if c in keys else c
                                                   for c in columns]] + lines)
    text += end if rng.random() < 0.8 else ""
    if rng.random() < 0.1:
        text = _nth(text, end, rng.choice(["\n", "\r\n", "\r"]), int(rng.integers(text.count(end))))
    if rng.random() < 0.05:
        text = "\ufeff" + text
    data = text.encode("latin-1", "replace") if rng.random() < 0.03 else text.encode()
    catalog = CATALOG4 if rng.random() < 0.5 else None
    return data, mapping, catalog


def test_block_reader_matches_the_row_loop_on_generated_files(tmp_path):
    rng = np.random.default_rng(20261019)
    path = tmp_path / "responses.csv"
    took_blocks = []
    for case in range(400):
        data, mapping, catalog = _generated_file(rng)
        path.write_bytes(data)
        block_chars = BLOCK_SIZES[case % len(BLOCK_SIZES)]
        fast, slow, took = _ingest_and_loop(path, mapping, catalog, block_chars)
        assert fast == slow, (case, data, block_chars)
        took_blocks.append(took)
    # both paths are exercised, and each on a fair share of the files
    assert 100 < sum(took_blocks) < 300


def _canonical_simulations(rng, n, m=64, z=5):
    conditions = ("intrinsic", "rewarded1", "rewarded2")
    ids = tuple(f"p{i:04d}" for i in range(n))
    blocks = rng.integers(1, z + 1, size=(len(conditions), n, m))
    return {c: ConditionSnapshot(c, ids, block, z) for c, block in zip(conditions, blocks)}


def _refuse(*args):
    raise AssertionError("the row loop read a file the block reader should have read")


def test_exported_and_golden_files_need_no_row_loop(tmp_path, monkeypatch):
    """``export_responses`` output and a pipeline run's own ``selections.csv``
    are read in blocks alone."""
    simulations = _canonical_simulations(np.random.default_rng(5), 40)
    export_responses(tmp_path / "export.csv", simulations.values())
    run_pipeline(ExperimentConfig(**GOLDEN, output_dir=str(tmp_path / "golden")))
    monkeypatch.setattr(ingest_module, "_ingest_rows", _refuse)
    bundle, report = ingest(tmp_path / "export.csv", catalog=default_catalog())
    assert (report.total_rows, report.accepted, report.rejected) == (40 * 3 * 64,) * 2 + (0,)
    for condition in ("intrinsic", "rewarded1", "rewarded2"):
        assert table_lists(bundle.tables[condition]) == simulated_table(simulations, condition)
    bundle, report = ingest(tmp_path / "golden" / "selections.csv", catalog=default_catalog())
    n = GOLDEN["n"]
    assert (report.total_rows, report.accepted, report.duplicates) == (n * 3 * 64,) * 2 + (0,)
    assert all(len(bundle.tables[c].participant_ids) == n
               for c in ("intrinsic", "rewarded1", "rewarded2"))


def test_block_reader_holds_one_block_at_a_time(tmp_path, monkeypatch):
    """On 30,720 canonical rows the block reader's tracemalloc peak stays
    below the row loop's: it holds one block's fields at a time, where a
    reader that split the whole file at once would hold every row's."""
    path = tmp_path / "export.csv"
    export_responses(path, _canonical_simulations(np.random.default_rng(6), 160).values())

    def peak(read):
        tracemalloc.start()
        try:
            read()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    loop_peak = peak(lambda: ingest_module._ingest_rows(
        path, ingest_module.DEFAULT_MAPPING, math.inf, 5
    ))
    monkeypatch.setattr(ingest_module, "_ingest_rows", _refuse)
    assert peak(lambda: ingest(path)) < loop_peak


# -- answer tables -------------------------------------------------------------

@pytest.mark.parametrize("catalog", [None, CATALOG4], ids=["no_catalog", "catalog"])
def test_scenario_ids_beyond_int64(tmp_path, catalog):
    """A 25-digit scenario id does not fit the block reader's int64 columns,
    so the row loop reads the file. Without a catalog it keeps the id, and
    ``snapshot`` names it; with one the row is rejected."""
    huge = "1" * 25
    path = tmp_path / "responses.csv"
    path.write_text(_text(CANONICAL, _edited(_rows(), 5, 2, huge)))
    fast, slow, took_blocks = _ingest_and_loop(path, None, catalog, ingest_module.BLOCK_BYTES)
    assert fast == slow and not took_blocks
    bundle, report = ingest(path, catalog=catalog)
    if catalog is None:
        assert report.rejected == 0
        with pytest.raises(InvalidInputError) as exc:
            bundle.snapshot("rewarded1", 4)
        assert str(exc.value) == (
            f"dataset: participant 'p1' answers scenario ids [{huge}] outside 1..4 "
            "in condition 'rewarded1'"
        )
    else:
        assert report.row_errors == [(7, f"scenario id {huge} out of range")]


@pytest.mark.parametrize("block_bytes", BLOCK_SIZES)
@pytest.mark.parametrize("stamps", [
    ["0", "7", "42", "123456789", "000000001", "99"],
    ["1.5", "-0.25", "2e3", "1_0", " 3 ", "", "1e-3", "7"],
], ids=["digits", "float_texts"])
def test_timestamp_columns_read_in_blocks(tmp_path, stamps, block_bytes):
    """Timestamps of plain digits are checked by position, any other column
    text by text; either way the block reader gives the row loop's outcome."""
    rows = [row[:4] + [stamps[i % len(stamps)]] for i, row in enumerate(_rows(m=8))]
    path = tmp_path / "responses.csv"
    path.write_text(_text(CANONICAL, rows))
    fast, slow, took_blocks = _ingest_and_loop(path, None, None, block_bytes)
    assert fast == slow and took_blocks


@pytest.mark.parametrize("block_bytes", BLOCK_SIZES)
@pytest.mark.parametrize("pids, conditions", [
    (("p1", "p1000", "p2"), ("day1", "intrinsic")),
    (("p1", "p" * 1000, "p2"), ("intrinsic", "rewarded1")),
], ids=["unequal_sizes", "one_long_id"])
def test_runs_of_fields_of_unequal_sizes(tmp_path, pids, conditions, block_bytes):
    """Runs in columns whose fields differ in size, and in a block whose
    widest id is too wide for a table of its ids' bytes."""
    path = tmp_path / "responses.csv"
    path.write_text(_text(CANONICAL, _rows(pids=pids, conditions=conditions, m=16)))
    fast, slow, took_blocks = _ingest_and_loop(path, None, None, block_bytes)
    assert fast == slow and took_blocks


def test_digit_columns_convert_by_position():
    """Fields of 1 to 9 ASCII digits, of any mix of sizes, convert without
    a text table; any other column fills one."""
    data, buf, bounds = ingest_module._block_fields(b"1,22\n333,+3\n000000009,7\n", 1000, 2)
    texts = {}
    values = ingest_module._column_values(data, buf, bounds, 0, texts, int, 1, 999)
    assert values.tolist() == [1, 333, 9] and texts == {}
    values = ingest_module._column_values(data, buf, bounds, 1, texts, int, 1, 99)
    assert values.tolist() == [22, 3, 7] and texts == {b"22": 22, b"+3": 3, b"7": 7}


def _reference_rows(table, m, z, provenance="dataset", condition="c"):
    """``snapshot`` one participant at a time, in sorted id order: the first
    participant with a scenario id above m, or with a selection outside 1..z
    in a complete set, raises ``SelectionVector``'s message; the rows and the
    incomplete ids otherwise."""
    ids, offsets = table.participant_ids, table.offsets.tolist()
    answers = {
        pid: dict(zip(table.scenario_ids[a:b].tolist(), table.selections[a:b].tolist()))
        for pid, a, b in zip(ids, offsets, offsets[1:])
    }
    rows, incomplete = [], []
    for pid in sorted(answers):
        chosen = answers[pid]
        if max(chosen) > m:
            raise InvalidInputError(
                f"{provenance}: participant '{pid}' answers scenario ids "
                f"{sorted(j for j in chosen if j > m)} outside 1..{m} in condition '{condition}'"
            )
        if len(chosen) == m:
            sv = SelectionVector([chosen[j] for j in range(1, m + 1)], z)
            rows.append((pid, sv.selections.tolist(), sv.z))
        else:
            incomplete.append(pid)
    return rows, incomplete


def _rows_outcome(read):
    try:
        return read()
    except DataCollectiveError as exc:
        return type(exc), str(exc)


def _snapshot_rows(snapshot):
    return [] if snapshot is None else [(pid, row, snapshot.z) for pid, row in rows_of(snapshot)]


def test_snapshot_matches_a_per_participant_reference(tmp_path):
    """A condition's snapshot against ``SelectionVector`` built one
    participant at a time, on generated files read by both readers: the
    sorted id order, the incomplete participants, a participant outside 1..m
    among the others, and a complete participant with a selection above z
    before it, which must raise the constructor's message first."""
    rng = np.random.default_rng(20261020)
    path = tmp_path / "responses.csv"
    outcomes = set()
    for case in range(120):
        m, z = int(rng.integers(1, 5)), int(rng.integers(2, 6))
        rows = []
        for pid in rng.permutation([f"p{i}" for i in range(int(rng.integers(1, 7)))]):
            scenarios = rng.permutation(m) + 1
            kind = rng.integers(6)
            if kind == 0:  # incomplete
                scenarios = scenarios[: rng.integers(1, m + 1) - (m > 1)] if m > 1 else []
            elif kind == 1:  # a scenario id above m
                scenarios = np.append(scenarios[: rng.integers(0, m + 1)], m + rng.integers(1, 3))
            for j in scenarios:
                # ingest reads z + 1 levels, so a selection may be above z
                level = z + 1 if kind == 2 and rng.random() < 0.5 else rng.integers(1, z + 1)
                rows.append([pid, "c", str(j), str(level), "0"])
        if not rows:
            continue
        path.write_text(_text(CANONICAL, rows))
        read = (path, ingest_module.DEFAULT_MAPPING, math.inf, z + 1)
        blocks, loop = ingest_module._ingest_blocks(*read), ingest_module._ingest_rows(*read)
        assert blocks is not None
        for tables in (blocks[0], loop[0]):
            bundle = ingest_module.DatasetBundle(tables, {})
            report = ingest_module.IngestReport()
            got = _rows_outcome(lambda: (
                _snapshot_rows(bundle.snapshot("c", m, z, report)),
                report.dropped.get("c", {}).get("incomplete", []),
            ))
            expected = _rows_outcome(lambda: _reference_rows(tables["c"], m, z))
            assert got == expected, (case, rows)
            outcomes.add("outside" if "outside" in str(got[1]) else
                         "selections" if "selections must" in str(got[1]) else "rows")
    # every kind of outcome is met
    assert outcomes == {"rows", "outside", "selections"}
