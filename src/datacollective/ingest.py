"""Dataset ingestion into a canonical bundle.

External archives rarely match our column names, so ingestion is driven by a
mapping config: which source column holds the participant id, condition,
scenario id, selection and (optionally) timestamp, plus how condition values
translate to the canonical labels. One pass over the rows files each
accepted row into answers grouped by condition, participant and scenario id.
A file whose every row would be accepted as a new key is read in blocks
instead; the row loop reads every other file, and words every rejection.
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
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import IngestError, InvalidInputError, open_text, read_json_object
from .sharing import ScenarioCatalog, SelectionVector, WeightProfile, read_weight_profiles
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
class DatasetBundle:
    """Canonical view of an ingested archive: the accepted answers grouped
    as condition -> participant id -> scenario id -> selection."""

    answers: dict[str, dict[str, dict[int, int]]]
    profiles: dict[str, WeightProfile]
    provenance: str = ""

    def conditions(self) -> set[str]:
        return set(self.answers)

    def selection_vectors(
        self, condition: str, m: int, z: int = 5, report: IngestReport | None = None
    ) -> dict[str, SelectionVector]:
        """Per-participant vectors for one condition, in sorted id order;
        participants with an incomplete set of scenarios are skipped, and
        recorded as ``incomplete`` in ``report`` if one is given. A scenario
        id above m raises, since the archive and the catalog then disagree."""
        by_participant = self.answers.get(condition, {})
        vectors, incomplete = {}, []
        for pid in sorted(by_participant):
            answers = by_participant[pid]
            # ids below 1 never get past ingest
            if max(answers) > m:
                outside = sorted(j for j in answers if j > m)
                raise InvalidInputError(
                    f"{self.provenance or 'dataset'}: participant '{pid}' answers "
                    f"scenario ids {outside} outside 1..{m} in condition '{condition}'"
                )
            if len(answers) != m:
                incomplete.append(pid)
                continue
            # m answers, none above m and none below 1: the keys are 1..m
            vectors[pid] = SelectionVector(
                np.fromiter(map(answers.__getitem__, range(1, m + 1)), np.intp, m), z
            )
        if report is not None:
            report.drop(condition, "incomplete", incomplete)
        return vectors

    def selections_by_participant(
        self, conditions: Sequence[str], m: int, z: int = 5,
        report: IngestReport | None = None,
    ) -> dict[str, dict[str, SelectionVector]]:
        """``selection_vectors`` of each of ``conditions``, by participant and
        condition; a participant appears under the conditions it completed."""
        by_participant: dict[str, dict[str, SelectionVector]] = {}
        for condition in conditions:
            for pid, sv in self.selection_vectors(condition, m, z, report).items():
                by_participant.setdefault(pid, {})[condition] = sv
        return by_participant

    def complete_selections(
        self, conditions: Sequence[str], m: int, z: int = 5,
        report: IngestReport | None = None,
    ) -> dict[str, dict[str, SelectionVector]]:
        """Vectors by participant and condition, for the participants with a
        complete set of scenarios in every one of ``conditions``. With a
        ``report``, a participant left out is recorded under each condition:
        ``incomplete`` where its set is incomplete, ``incomplete_elsewhere``
        where it is complete but another condition's is not."""
        by_participant = self.selections_by_participant(conditions, m, z, report)
        complete = {
            pid: conds for pid, conds in by_participant.items()
            if len(conds) == len(conditions)
        }
        if report is not None:
            for condition in conditions:
                report.drop(condition, "incomplete_elsewhere", [
                    pid for pid, conds in by_participant.items()
                    if condition in conds and pid not in complete
                ])
        if not complete:
            raise InvalidInputError(
                f"{self.provenance or 'dataset'}: no participant answers every "
                f"scenario of {', '.join(conditions)}"
            )
        return complete


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

    Each accepted row is filed straight into the bundle's grouped answers;
    the scenario ids a row may name run up to ``catalog.m`` when a catalog
    is given, and are checked against m later otherwise. A file that every
    row passes is read in blocks; any other file is read by the row loop,
    which words each rejection."""
    mapping = {**DEFAULT_MAPPING, **(mapping or {})}
    m_limit = catalog.m if catalog is not None else math.inf
    read = _ingest_blocks(responses_path, mapping, m_limit, z)
    answers, report = read or _ingest_rows(responses_path, mapping, m_limit, z)

    profiles: dict[str, WeightProfile] = {}
    if profiles_path is not None:
        if catalog is None:
            raise IngestError("profiles ingestion requires a catalog")
        profiles = {
            p.participant_id: p for p in read_weight_profiles(profiles_path, catalog)
        }

    return DatasetBundle(answers=answers, profiles=profiles, provenance=provenance), report


def _ingest_rows(
    responses_path: str | Path, mapping: Mapping, m_limit: float, z: int
) -> tuple[dict[str, dict[str, dict[int, int]]], IngestReport]:
    """The grouped answers and the report of one pass of ``csv.reader`` over
    the file; the only reader that words a rejected row or a malformed file."""
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
    return answers, report


# characters the bulk reader reads at a time, before extending to a line end
BLOCK_CHARS = 1 << 16


def _ingest_blocks(
    responses_path: str | Path, mapping: Mapping, m_limit: float, z: int
) -> tuple[dict[str, dict[str, dict[int, int]]], IngestReport] | None:
    """What ``_ingest_rows`` returns for a file whose every row it accepts as
    a new key, read in blocks of lines; ``None`` for any other file, or one
    ``csv.reader`` might split differently, so the row loop reads it.

    Each block is split at line ends and commas in one go. Each distinct
    field text is converted once, by the loop's own ``int`` and ``float``,
    and each run of rows of one (participant, condition) pair fills its
    answers with one ``dict.update``; a run may continue into the next block."""
    condition_values = mapping.get("condition_values") or {}
    limit = csv.field_size_limit()
    scenario_ids: dict[str, int] = {}
    levels: dict[str, int] = {}
    stamps: dict[str, float] = {}
    answers: dict[str, dict[str, dict[int, int]]] = {}
    last, chosen, total = None, {}, 0
    with open_text(responses_path) as fh:
        try:
            header = _plain_lines(fh.readline(), limit)
            if not header:
                return None
            header = header.split(",")
            if any(mapping[key] not in header for key in REQUIRED_COLUMNS):
                return None
            pid_pos, condition_pos, scenario_pos, selection_pos = (
                header.index(mapping[key]) for key in REQUIRED_COLUMNS
            )
            ts_column = mapping.get("timestamp")
            ts_pos = header.index(ts_column) if ts_column in header else None
            width = len(header) + 1  # a line's fields and its end
            while block := fh.read(BLOCK_CHARS):
                lines = _plain_lines(block + fh.readline(), limit)
                if lines is None:
                    return None
                if not lines:
                    continue
                n = lines.count("\n") + 1
                fields = lines.replace("\n", ",\n,").split(",")
                # a line end after every len(header) fields, and nowhere else
                if len(fields) != n * width - 1 or fields[width - 1::width].count("\n") != n - 1:
                    return None
                scenarios, selections = fields[scenario_pos::width], fields[selection_pos::width]
                if not (
                    _convert_new(scenarios, scenario_ids, int, 1, m_limit)
                    and _convert_new(selections, levels, int, 1, z)
                    and (ts_pos is None or _convert_new(
                        fields[ts_pos::width], stamps, _timestamp, -sys.float_info.max,
                        sys.float_info.max,
                    ))
                ):
                    return None
                scenarios = list(map(scenario_ids.__getitem__, scenarios))
                selections = list(map(levels.__getitem__, selections))
                pids, conditions = fields[pid_pos::width], fields[condition_pos::width]
                p, c = np.array(pids, dtype=object), np.array(conditions, dtype=object)
                starts = np.flatnonzero((p[1:] != p[:-1]) | (c[1:] != c[:-1])) + 1
                bounds = [0, *starts.tolist(), n]
                for a, b in zip(bounds, bounds[1:]):
                    if (pids[a], conditions[a]) != last:
                        pid, raw_condition = last = pids[a], conditions[a]
                        if (pid != pid.strip() or raw_condition != raw_condition.strip()
                                or not is_file_stem(pid)):
                            return None
                        by_pid = answers.setdefault(
                            condition_values.get(raw_condition, raw_condition), {}
                        )
                        if pid in by_pid:  # the pair seen before: the loop merges
                            return None
                        chosen = by_pid[pid] = {}
                    size = len(chosen)
                    chosen.update(zip(scenarios[a:b], selections[a:b]))
                    if len(chosen) != size + b - a:  # a duplicate scenario id
                        return None
                total += n
        except UnicodeDecodeError:
            return None  # the row loop names the line, or meets an earlier error
    if total == 0:
        return None
    return answers, IngestReport(total_rows=total, accepted=total)


def _plain_lines(text: str, limit: int) -> str | None:
    """The non-blank lines of ``text``, joined by LF, when ``csv.reader``
    would split each line at every comma and at nothing else: no quote, NUL,
    CR outside CRLF, or line of ``limit`` characters (a field might be too
    large); ``None`` otherwise."""
    if '"' in text or "\x00" in text:
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if "\r" in text:
            return None
    if len(text) >= limit and max(map(len, text.split("\n"))) >= limit:
        return None
    if "\n\n" in text or text.startswith("\n"):
        return "\n".join(filter(None, text.split("\n")))
    return text.removesuffix("\n")


def _convert_new(texts: list[str], table: dict, convert, low: float, high: float) -> bool:
    """Add to ``table`` the value ``convert`` gives each text new to it;
    false if one raises ``ValueError`` or falls outside low..high (as NaN does)."""
    for text in set(texts).difference(table):
        try:
            value = convert(text)
        except ValueError:
            return False
        if not low <= value <= high:
            return False
        table[text] = value
    return True


def _timestamp(text: str) -> float:
    """A timestamp field as the row loop reads it: blank is 0."""
    return float(text) if text.strip() else 0.0


def export_responses(
    path: str | Path,
    simulations: Mapping[str, Mapping[str, SelectionVector]],
) -> None:
    """Write simulated selections in the canonical response schema as UTF-8
    CSV, byte for byte what ``csv.writer`` writes, so a round trip through
    ingest reproduces them exactly. Each participant's rows in a condition
    are one join of its quoted id and condition with ``,scenario,selection,0``
    tails, formatted once per file for each vector size and level count."""
    tails: dict[tuple[int, int], np.ndarray] = {}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("participant_id,condition,scenario_id,selection,timestamp\r\n")
        for pid in sorted(simulations):
            field = csv_field(pid) + ","
            for condition in sorted(simulations[pid]):
                sv = simulations[pid][condition]
                m, z = sv.m, sv.z
                if (m, z) not in tails:
                    tails[m, z] = np.array([
                        f",{j},{s},0\r\n" for j in range(1, m + 1) for s in range(1, z + 1)
                    ], dtype=object)
                # every row starts with the same id and condition
                lead = field + csv_field(condition)
                rows = tails[m, z][np.arange(0, m * z, z) + sv.selections - 1]
                fh.write(lead + lead.join(rows.tolist()))
