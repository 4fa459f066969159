"""Dataset ingestion into a canonical bundle.

External archives rarely match our column names, so ingestion is driven by a
mapping config: which source column holds the participant id, condition,
scenario id, selection and (optionally) timestamp, plus how condition values
translate to the canonical labels. The accepted rows become one answer
table per condition: participant ids, and their scenario ids and selections
as arrays. A file whose every row would be accepted as a new key is read as
bytes in blocks, straight into the tables; the row loop reads every other
file, groups its answers by participant and scenario id, and words every
rejection.
Rows that fail validation are reported with their line numbers and counted,
never silently dropped; duplicate (participant, condition, scenario) rows
resolve to the latest timestamp, so every row counts once as accepted (a new
key), duplicate or rejected.
Participants left out for an incomplete set of scenarios are recorded per
condition in the report as well.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import IngestError, InvalidInputError, open_text, read_json_object
from .metrics import ConditionSnapshot
from .sharing import ScenarioCatalog, WeightProfile, read_weight_profiles
from .textformat import csv_field, is_file_stem

REQUIRED_COLUMNS = ("participant_id", "condition", "scenario_id", "selection")

DEFAULT_MAPPING = {
    "participant_id": "participant_id",
    "condition": "condition",
    "scenario_id": "scenario_id",
    "selection": "selection",
    "timestamp": "timestamp",
    "condition_values": {},
}


@dataclass
class IngestReport:
    total_rows: int = 0
    accepted: int = 0
    duplicates: int = 0
    row_errors: list[tuple[int, str]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    # condition -> reason -> ids of the participants left out of it
    dropped: dict[str, dict[str, list[str]]] = field(default_factory=dict)

    @property
    def rejected(self) -> int:
        return len(self.row_errors)

    def drop(self, condition: str, reason: str, participant_ids: Sequence[str]) -> None:
        """Record participants whose selections in ``condition`` are not used."""
        if participant_ids:
            self.dropped.setdefault(condition, {}).setdefault(reason, []).extend(
                participant_ids
            )

    def write_json(self, path: str | Path) -> None:
        """Write the counts, the first 100 row errors, the warnings and the
        dropped participants per condition and reason (count and first ids)."""
        payload = {
            "total_rows": self.total_rows,
            "accepted": self.accepted,
            "duplicates": self.duplicates,
            "rejected": self.rejected,
            "row_errors": self.row_errors[:100],
            "warnings": self.warnings,
            "dropped": {
                condition: {
                    reason: {"count": len(ids), "first_ids": ids[:5]}
                    for reason, ids in reasons.items()
                }
                for condition, reasons in self.dropped.items()
            },
        }
        Path(path).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )


@dataclass(frozen=True)
class AnswerTable:
    """One condition's accepted answers. Participant ``participant_ids[i]``
    answers rows ``offsets[i]:offsets[i + 1]`` of ``scenario_ids`` and
    ``selections``; the ids are in first-seen order and each participant's
    rows in file order, a duplicate kept in the place of its first row."""

    participant_ids: list[str]
    offsets: np.ndarray
    scenario_ids: np.ndarray
    selections: np.ndarray

    @classmethod
    def from_dicts(cls, by_participant: Mapping[str, Mapping[int, int]]) -> "AnswerTable":
        """The table of participant id -> scenario id -> selection dicts, in
        their insertion orders. Scenario ids too large for int64 (read
        without a catalog) are kept as Python ints, so errors can name them."""
        answers = by_participant.values()
        offsets = np.zeros(len(answers) + 1, dtype=np.intp)
        np.cumsum(list(map(len, answers)), out=offsets[1:])
        scenario_ids = list(chain.from_iterable(answers))
        try:
            scenario_ids = np.array(scenario_ids, dtype=np.int64)
        except OverflowError:
            scenario_ids = np.array(scenario_ids, dtype=object)
        selections = np.fromiter(
            chain.from_iterable(a.values() for a in answers), np.int64, offsets[-1]
        )
        return cls(list(by_participant), offsets, scenario_ids, selections)


@dataclass(frozen=True)
class DatasetBundle:
    """Canonical view of an ingested archive: the accepted answers as one
    ``AnswerTable`` per condition."""

    tables: dict[str, AnswerTable]
    profiles: dict[str, WeightProfile]
    provenance: str = ""

    def conditions(self) -> set[str]:
        return set(self.tables)

    def snapshot(
        self, condition: str, m: int, z: int = 5, report: IngestReport | None = None
    ) -> ConditionSnapshot | None:
        """One condition's selections, one row per participant with a
        complete set of scenarios, in sorted id order; ``None`` when no
        participant completes it. The others are skipped, and recorded as
        ``incomplete`` in ``report`` if one is given. A scenario id above m
        raises, since the archive and the catalog then disagree."""
        table = self.tables.get(condition)
        if table is None:
            return None
        ids, offsets = table.participant_ids, table.offsets
        order = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp)
        # ids below 1 never get past ingest
        outside = np.maximum.reduceat(table.scenario_ids, offsets[:-1])[order] > m
        cut = int(outside.argmax()) if outside.any() else len(order)
        kept = order[:cut]
        full = np.diff(offsets)[kept] == m
        complete = kept[full]
        # m answers, none above m, none below 1 and no two alike: the ids are 1..m
        rows = offsets[complete][:, None] + np.arange(m)
        columns = table.scenario_ids[rows].astype(np.intp, copy=False) - 1
        block = np.empty((len(complete), m), dtype=np.intp)
        block[np.arange(len(complete))[:, None], columns] = table.selections[rows]
        # a row before the one outside 1..m that breaks a rule raises first
        snapshot = ConditionSnapshot(
            condition, tuple(ids[i] for i in complete), block, z
        ) if len(complete) else None
        if cut < len(order):
            i = order[cut]
            answered = table.scenario_ids[offsets[i]:offsets[i + 1]].tolist()
            raise InvalidInputError(
                f"{self.provenance or 'dataset'}: participant '{ids[i]}' answers "
                f"scenario ids {sorted(j for j in answered if j > m)} outside 1..{m} "
                f"in condition '{condition}'"
            )
        if report is not None:
            report.drop(condition, "incomplete", [ids[i] for i in kept[~full]])
        return snapshot

    def complete_snapshots(
        self, conditions: Sequence[str], m: int, z: int = 5,
        report: IngestReport | None = None,
    ) -> dict[str, ConditionSnapshot]:
        """The ``snapshot`` of each of ``conditions``, cut to the participants
        with a complete set of scenarios in every one, so all list the same
        participants in the same order. With a ``report``, a participant left
        out is recorded under each condition: ``incomplete`` where its set is
        incomplete, ``incomplete_elsewhere`` where it is complete but another
        condition's is not."""
        snapshots = {c: self.snapshot(c, m, z, report) for c in conditions}
        ids = {c: () if s is None else s.participant_ids for c, s in snapshots.items()}
        common = set.intersection(*map(set, ids.values()))
        if report is not None:
            # in the order participants first appear, condition by condition
            seen = dict.fromkeys(chain.from_iterable(ids.values()))
            for condition, have in ids.items():
                have = set(have)
                report.drop(condition, "incomplete_elsewhere", [
                    pid for pid in seen if pid in have and pid not in common
                ])
        if not common:
            raise InvalidInputError(
                f"{self.provenance or 'dataset'}: no participant answers every "
                f"scenario of {', '.join(conditions)}"
            )
        for condition, snapshot in snapshots.items():
            keep = np.fromiter(map(common.__contains__, snapshot.participant_ids), bool)
            if not keep.all():
                snapshots[condition] = ConditionSnapshot(
                    condition, tuple(compress(snapshot.participant_ids, keep)),
                    snapshot.selections[:, keep], z,
                )
        return snapshots


def load_mapping(path: str | Path | None) -> dict:
    mapping = dict(DEFAULT_MAPPING)
    if path is not None:
        mapping.update(read_json_object(path))
        for key, default in DEFAULT_MAPPING.items():  # a null timestamp means none
            value, kind = mapping[key], type(default)
            names = value.values() if isinstance(value, dict) else [value]
            if not (isinstance(value, kind) and all(isinstance(v, str) for v in names)
                    or (key, value) == ("timestamp", None)):
                expected = "an object of strings" if kind is dict else "a string"
                raise IngestError(f"{path}: '{key}' must be {expected}, found {json.dumps(value)}")
    return mapping


def ingest(
    responses_path: str | Path,
    profiles_path: str | Path | None = None,
    mapping: Mapping | None = None,
    catalog: ScenarioCatalog | None = None,
    z: int = 5,
    provenance: str = "",
) -> tuple[DatasetBundle, IngestReport]:
    """Read an archive into the canonical bundle, validating every row.

    The accepted rows fill one answer table per condition; the scenario ids
    a row may name run up to ``catalog.m`` when a catalog is given, and are
    checked against m later otherwise. A file that every row passes is read
    in blocks; any other file is read by the row loop, which words each
    rejection."""
    mapping = {**DEFAULT_MAPPING, **(mapping or {})}
    m_limit = catalog.m if catalog is not None else math.inf
    read = _ingest_blocks(responses_path, mapping, m_limit, z)
    tables, report = read or _ingest_rows(responses_path, mapping, m_limit, z)

    profiles: dict[str, WeightProfile] = {}
    if profiles_path is not None:
        if catalog is None:
            raise IngestError("profiles ingestion requires a catalog")
        profiles = {
            p.participant_id: p for p in read_weight_profiles(profiles_path, catalog)
        }

    return DatasetBundle(tables=tables, profiles=profiles, provenance=provenance), report


def _ingest_rows(
    responses_path: str | Path, mapping: Mapping, m_limit: float, z: int
) -> tuple[dict[str, AnswerTable], IngestReport]:
    """The answer tables and the report of one pass of ``csv.reader`` over
    the file; the only reader that words a rejected row or a malformed file.
    It groups the answers in dicts and converts them to tables once."""
    condition_values = mapping.get("condition_values") or {}
    report = IngestReport()
    row_errors = report.row_errors

    answers: dict[str, dict[str, dict[int, int]]] = {}
    # the timestamp of each kept answer, by (condition, participant id)
    stamps: dict[tuple[str, str], dict[int, float]] = {}
    total = accepted = duplicates = 0
    with open_text(responses_path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise IngestError(f"{responses_path}: empty file, header required")
            positions = []
            for key in REQUIRED_COLUMNS:
                column = mapping[key]
                if column not in header:
                    raise IngestError(
                        f"{responses_path}: required column '{column}' (for {key}) not found"
                    )
                positions.append(header.index(column))
            pid_pos, condition_pos, scenario_pos, selection_pos = positions
            ts_column = mapping.get("timestamp")
            # no timestamp column: every row reads as a blank timestamp
            ts_pos = header.index(ts_column) if ts_column in header else sys.maxsize

            # rows come grouped by participant and condition, so the answers
            # of the previous row's pair are usually the ones to update
            last_pid = last_condition = None
            chosen: dict[int, int] = {}
            times: dict[int, float] = {}
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                total += 1
                try:
                    pid = row[pid_pos].strip()
                    raw_condition = row[condition_pos].strip()
                    scenario_id = int(row[scenario_pos])
                    selection = int(row[selection_pos])
                except (IndexError, ValueError) as exc:
                    row_errors.append((lineno, f"unparseable row: {exc}"))
                    continue
                if not pid:
                    row_errors.append((lineno, "empty participant id"))
                    continue
                if not 1 <= scenario_id <= m_limit:
                    row_errors.append((lineno, f"scenario id {scenario_id} out of range"))
                    continue
                if not 1 <= selection <= z:
                    row_errors.append((lineno, f"selection {selection} outside 1..{z}"))
                    continue
                timestamp = 0.0
                if ts_pos < len(row):
                    raw = row[ts_pos]
                    try:
                        timestamp = float(raw)
                        if not math.isfinite(timestamp):
                            raise ValueError  # a NaN stamp would never be replaced
                    except ValueError:
                        if raw.strip():
                            row_errors.append((lineno, f"unparseable timestamp '{raw}'"))
                            continue
                if pid != last_pid or raw_condition != last_condition:
                    # the id names the participant's .plans file
                    if not is_file_stem(pid):
                        row_errors.append((lineno, f"participant id {pid!r} cannot name a file"))
                        continue
                    last_pid, last_condition = pid, raw_condition
                    condition = condition_values.get(raw_condition, raw_condition)
                    chosen = answers.setdefault(condition, {}).setdefault(pid, {})
                    times = stamps.setdefault((condition, pid), {})
                if scenario_id in chosen:
                    # latest timestamp wins; a tie goes to the later row
                    duplicates += 1
                    if timestamp >= times[scenario_id]:
                        chosen[scenario_id] = selection
                        times[scenario_id] = timestamp
                else:
                    chosen[scenario_id] = selection
                    times[scenario_id] = timestamp
                    accepted += 1
        except csv.Error as exc:
            raise IngestError(
                f"{responses_path}:{reader.line_num}: malformed CSV ({exc})"
            ) from None
    report.total_rows, report.accepted, report.duplicates = total, accepted, duplicates

    if total == 0:
        report.warnings.append(f"{responses_path}: no data rows")
    return {c: AnswerTable.from_dicts(a) for c, a in answers.items()}, report


# bytes the bulk reader reads at a time, before extending to a line end
BLOCK_BYTES = 1 << 16
# the tables hold int64 scenario ids; the row loop reads larger ones
_INT64_MAX = int(np.iinfo(np.int64).max)


def _ingest_blocks(
    responses_path: str | Path, mapping: Mapping, m_limit: float, z: int
) -> tuple[dict[str, AnswerTable], IngestReport] | None:
    """What ``_ingest_rows`` returns for a file whose every row it accepts as
    a new key, read as bytes in blocks of lines; ``None`` for any other
    file, or one ``csv.reader`` might split differently, so the row loop
    reads it.

    Each block's field bounds come from one search for commas and line
    ends (``_block_fields``), and its columns convert as ``_column_values``
    says. Runs of lines of one (participant, condition) pair are found by
    comparing each line's two fields with the line before's, and only a
    run's first line is decoded and checked; a run may continue into the
    next block. One sort of (run, scenario id) keys finds a repeated
    scenario, and each condition's table gathers its runs' rows at once."""
    condition_values = mapping.get("condition_values") or {}
    limit = csv.field_size_limit()
    try:
        fh = open(responses_path, "rb")
    except OSError:
        return None  # the row loop names the file
    with fh:
        try:
            header = fh.readline().decode("utf-8")
        except UnicodeDecodeError:
            return None
        header = header[:-1].removesuffix("\r") if header.endswith("\n") else header
        if not header or len(header) >= limit or any(c in header for c in '"\x00\r'):
            return None
        header = header.split(",")
        if any(mapping[key] not in header for key in REQUIRED_COLUMNS):
            return None
        pid_pos, condition_pos, scenario_pos, selection_pos = (
            header.index(mapping[key]) for key in REQUIRED_COLUMNS
        )
        ts_column = mapping.get("timestamp")
        ts_pos = header.index(ts_column) if ts_column in header else None
        # each column's converted texts, kept from block to block
        scenario_texts: dict[bytes, int] = {}
        level_texts: dict[bytes, int] = {}
        stamp_texts: dict[bytes, float] = {}
        # per run: its condition's index in ``labels``, its participant id and
        # the index of its first row in the file
        labels: dict[str, int] = {}
        run_labels, run_pids, run_starts, pairs = [], [], [], set()
        scenario_blocks, selection_blocks = [], []
        last, total = None, 0
        while block := fh.read(BLOCK_BYTES):
            fields = _block_fields(block + fh.readline(), limit, len(header))
            if fields is None:
                return None
            data, buf, bounds = fields
            if not len(bounds):
                continue
            scenarios = _column_values(
                data, buf, bounds, scenario_pos, scenario_texts, int, 1, min(m_limit, _INT64_MAX)
            )
            selections = _column_values(data, buf, bounds, selection_pos, level_texts, int, 1, z)
            if scenarios is None or selections is None or ts_pos is not None and _column_values(
                data, buf, bounds, ts_pos, stamp_texts, _timestamp,
                -sys.float_info.max, sys.float_info.max,
            ) is None:
                return None
            changed = _changed(buf, bounds, pid_pos) | _changed(buf, bounds, condition_pos)
            for a in np.flatnonzero(changed).tolist():
                line = bounds[a].tolist()
                pair = (data[line[pid_pos] + 1:line[pid_pos + 1]].decode("utf-8"),
                        data[line[condition_pos] + 1:line[condition_pos + 1]].decode("utf-8"))
                if pair == last:
                    continue  # the run goes on, from the line or the block before
                pid, raw_condition = last = pair
                if (pid != pid.strip() or raw_condition != raw_condition.strip()
                        or not is_file_stem(pid)):
                    return None
                condition = condition_values.get(raw_condition, raw_condition)
                if (condition, pid) in pairs:  # the pair seen before: the loop merges
                    return None
                pairs.add((condition, pid))
                run_labels.append(labels.setdefault(condition, len(labels)))
                run_pids.append(pid)
                run_starts.append(total + a)
            scenario_blocks.append(scenarios)
            selection_blocks.append(selections)
            total += len(bounds)
    if total == 0:
        return None
    scenarios = np.concatenate(scenario_blocks)
    selections = np.concatenate(selection_blocks)
    lengths = np.diff([*run_starts, total])
    span = int(scenarios.max())
    if len(run_starts) * span > _INT64_MAX:
        return None  # too large for one key; the row loop reads such ids
    # one key per (run, scenario id), unique unless a run repeats a scenario
    keys = np.sort(np.repeat(np.arange(len(run_starts)) * span, lengths) + (scenarios - 1))
    if (keys[1:] == keys[:-1]).any():
        return None
    run_labels = np.array(run_labels)
    row_labels = np.repeat(run_labels, lengths)
    tables = {}
    for condition, label in labels.items():
        runs = np.flatnonzero(run_labels == label)
        rows = row_labels == label
        offsets = np.zeros(len(runs) + 1, dtype=np.intp)
        np.cumsum(lengths[runs], out=offsets[1:])
        tables[condition] = AnswerTable(
            [run_pids[r] for r in runs.tolist()], offsets, scenarios[rows], selections[rows]
        )
    return tables, IngestReport(total_rows=total, accepted=total)


def _block_fields(
    data: bytes, limit: int, width: int
) -> tuple[bytes, np.ndarray, np.ndarray] | None:
    """A block of whole lines as ``(data, buf, bounds)``, where ``buf`` views
    ``data`` as bytes and line i's field j spans ``bounds[i, j] + 1`` up to
    ``bounds[i, j + 1]``: one search for commas and LFs, with a CR before an
    LF cut from its line's last field. Blank lines are dropped. ``None``
    when ``csv.reader`` might split a line otherwise, or the row loop may
    have more to say: a quote, NUL, CR outside CRLF or byte that is not
    UTF-8, a line of ``limit`` characters (a field might be too large), or a
    line of other than ``width`` fields."""
    if b'"' in data or b"\x00" in data:
        return None
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return None  # the row loop names the line, or meets an earlier error
    if data.endswith(b"\r"):
        return None  # the file ends in a CR, with no LF after it
    if not data.endswith(b"\n"):
        data += b"\n"  # the last line of a file without a final line end
    buf = np.frombuffer(data, dtype=np.uint8)
    seps = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))
    is_end = buf[seps] == ord("\n")
    ends = seps[is_end]
    stops = ends.copy()
    if b"\r" in data:
        crlf = buf[ends - 1] == ord("\r")
        if np.count_nonzero(buf == ord("\r")) != np.count_nonzero(crlf):
            return None
        stops -= crlf
    starts = np.concatenate(([0], ends[:-1] + 1))
    if (stops == starts).any():  # blank lines: the slower join drops them
        lines = data.replace(b"\r\n", b"\n").split(b"\n")
        data = b"".join(line + b"\n" for line in lines if line)
        if not data:
            return data, buf[:0], np.empty((0, width + 1), dtype=np.intp)
        return _block_fields(data, limit, width)
    n = len(ends)
    if len(seps) != n * width or not is_end[width - 1::width].all():
        return None
    bounds = np.empty((n, width + 1), dtype=np.intp)
    bounds[:, 0] = starts - 1
    bounds[:, 1:] = seps.reshape(n, width)
    bounds[:, width] = stops
    # a line's bytes; the limit counts characters
    for i in np.flatnonzero(stops - starts >= limit).tolist():
        if len(data[starts[i]:stops[i]].decode("utf-8")) >= limit:
            return None
    return data, buf, bounds


def _column_values(
    data: bytes, buf: np.ndarray, bounds: np.ndarray, j: int,
    texts: dict, convert, low: float, high: float,
) -> np.ndarray | None:
    """The values ``convert`` gives each line's field j (as ``_block_fields``
    bounds it), as the row loop converts them; ``None`` if one raises
    ``ValueError`` or falls outside low..high (as NaN does). Fields of 1 to 9
    ASCII digits are read by position, since ``int`` and ``float`` of such a
    text are its digit value; any other column converts each text new to
    ``texts`` once."""
    start, end = bounds[:, j] + 1, bounds[:, j + 1]
    size = end - start
    most = int(size.max())
    if size.min() >= 1 and most <= 9:
        # each field's digits right-aligned in ``most`` rows, zeros before
        digits = buf.take(end + np.arange(-most, 0)[:, None], mode="clip") - ord("0")
        digits *= np.arange(most)[:, None] >= most - size
        if (digits <= 9).all():
            values = 10 ** np.arange(most - 1, -1, -1) @ digits
            return values if low <= values.min() and values.max() <= high else None
    fields = [data[a:b] for a, b in zip(start.tolist(), end.tolist())]
    for text in set(fields).difference(texts):
        try:
            value = convert(text.decode("utf-8"))
        except ValueError:
            return None
        if not low <= value <= high:
            return None
        texts[text] = value
    return np.array(list(map(texts.__getitem__, fields)))


def _changed(buf: np.ndarray, bounds: np.ndarray, j: int) -> np.ndarray:
    """Whether each line's field j may differ from the line before's: the
    first line's always may; the others compare as one table of the fields'
    bytes, padded with NULs (which no field holds). When the widest field
    would make that table larger than the block, every line may."""
    start = bounds[:, j] + 1
    size = bounds[:, j + 1] - start
    most = max(int(size.max()), 1)
    changed = np.ones(len(size), dtype=bool)
    if len(size) * most <= len(buf):
        # one row per byte position, one column per line
        fields = buf.take(start + np.arange(most)[:, None], mode="clip")
        fields *= np.arange(most)[:, None] < size
        changed[1:] = (fields[:, 1:] != fields[:, :-1]).any(axis=0)
    return changed


def _timestamp(text: str) -> float:
    """A timestamp field as the row loop reads it: blank is 0."""
    return float(text) if text.strip() else 0.0


def export_responses(path: str | Path, snapshots: Iterable[ConditionSnapshot]) -> None:
    """Write selections (each snapshot's first repetition, labelled with the
    snapshot's label as the condition) in the canonical response schema as
    UTF-8 CSV, sorted by participant id and then condition: byte for byte
    what ``csv.writer`` writes, so a round trip through ingest reproduces
    them exactly. Each participant's rows in a condition are one join of its
    quoted id and condition with ``,scenario,selection,0`` tails, looked up
    from one table per vector size and level count."""
    tails: dict[tuple[int, int], np.ndarray] = {}
    groups = []
    for snapshot in snapshots:
        m, z = snapshot.m, snapshot.z
        if (m, z) not in tails:
            tails[m, z] = np.array([
                f",{j},{s},0\r\n" for j in range(1, m + 1) for s in range(1, z + 1)
            ], dtype=object)
        rows = tails[m, z][np.arange(0, m * z, z) + snapshot.selections[0] - 1]
        groups += zip(snapshot.participant_ids, repeat(snapshot.label), rows)
    groups.sort(key=lambda group: group[:2])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("participant_id,condition,scenario_id,selection,timestamp\r\n")
        for pid, condition, rows in groups:
            # every row starts with the same id and condition
            lead = csv_field(pid) + "," + csv_field(condition)
            fh.write(lead + lead.join(rows.tolist()))
