"""Dataset ingestion into a canonical bundle.

External archives rarely match our column names, so ingestion is driven by a
mapping config: which source column holds the participant id, condition,
scenario id, selection and (optionally) timestamp, plus how condition values
translate to the canonical labels. Rows that fail validation are reported
with their line numbers and counted, never silently dropped; duplicate
(participant, condition, scenario) rows resolve to the latest timestamp, so
every row counts once as accepted (a new key), duplicate or rejected.
Participants left out for an incomplete set of scenarios are recorded per
condition in the report as well.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import IngestError, InvalidInputError, open_text, read_json_object
from .sharing import ScenarioCatalog, SelectionVector, WeightProfile, read_weight_profiles

REQUIRED_COLUMNS = ("participant_id", "condition", "scenario_id", "selection")

DEFAULT_MAPPING = {
    "participant_id": "participant_id",
    "condition": "condition",
    "scenario_id": "scenario_id",
    "selection": "selection",
    "timestamp": "timestamp",
    "condition_values": {},
}


@dataclass(frozen=True)
class ResponseRow:
    participant_id: str
    condition: str
    scenario_id: int
    selection: int
    timestamp: float = 0.0


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
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@dataclass(frozen=True)
class DatasetBundle:
    """Canonical view of an ingested archive."""

    responses: tuple[ResponseRow, ...]
    profiles: dict[str, WeightProfile]
    provenance: str = ""

    def conditions(self) -> set[str]:
        return {r.condition for r in self.responses}

    def participants(self) -> set[str]:
        return {r.participant_id for r in self.responses}

    def selection_vectors(
        self, condition: str, m: int, z: int = 5, report: IngestReport | None = None
    ) -> dict[str, SelectionVector]:
        """Per-participant vectors for one condition; participants with an
        incomplete set of scenarios are skipped, and recorded as
        ``incomplete`` in ``report`` if one is given. A scenario id outside
        1..m raises, since the archive and the catalog then disagree."""
        per_participant: dict[str, dict[int, int]] = {}
        for row in self.responses:
            if row.condition != condition:
                continue
            per_participant.setdefault(row.participant_id, {})[row.scenario_id] = row.selection
        vectors, incomplete = {}, []
        for pid in sorted(per_participant):
            answers = per_participant[pid]
            outside = sorted(j for j in answers if not 1 <= j <= m)
            if outside:
                raise InvalidInputError(
                    f"{self.provenance or 'dataset'}: participant '{pid}' answers "
                    f"scenario ids {outside} outside 1..{m} in condition '{condition}'"
                )
            if len(answers) != m:
                incomplete.append(pid)
                continue
            vectors[pid] = SelectionVector(
                np.array([answers[j] for j in range(1, m + 1)]), z
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
    return mapping


def ingest(
    responses_path: str | Path,
    profiles_path: str | Path | None = None,
    mapping: Mapping | None = None,
    catalog: ScenarioCatalog | None = None,
    z: int = 5,
    provenance: str = "",
) -> tuple[DatasetBundle, IngestReport]:
    """Read an archive into the canonical bundle, validating every row."""
    mapping = {**DEFAULT_MAPPING, **(mapping or {})}
    condition_values = mapping.get("condition_values") or {}
    report = IngestReport()
    m_limit = catalog.m if catalog is not None else None

    rows: dict[tuple[str, str, int], ResponseRow] = {}
    with open_text(responses_path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise IngestError(f"{responses_path}: empty file, header required")
        positions = {}
        for key in REQUIRED_COLUMNS:
            column = mapping[key]
            if column not in header:
                raise IngestError(
                    f"{responses_path}: required column '{column}' (for {key}) not found"
                )
            positions[key] = header.index(column)
        ts_column = mapping.get("timestamp")
        ts_pos = header.index(ts_column) if ts_column in header else None

        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            report.total_rows += 1
            try:
                parsed = _parse_row(row, positions, ts_pos, condition_values, z, m_limit)
            except ValueError as exc:
                report.row_errors.append((lineno, str(exc)))
                continue
            key = (parsed.participant_id, parsed.condition, parsed.scenario_id)
            if key in rows:
                report.duplicates += 1
                if parsed.timestamp >= rows[key].timestamp:
                    rows[key] = parsed
            else:
                rows[key] = parsed
                report.accepted += 1

    if report.total_rows == 0:
        report.warnings.append(f"{responses_path}: no data rows")

    profiles: dict[str, WeightProfile] = {}
    if profiles_path is not None:
        if catalog is None:
            raise IngestError("profiles ingestion requires a catalog")
        profiles = {
            p.participant_id: p for p in read_weight_profiles(profiles_path, catalog)
        }

    ordered = tuple(rows[key] for key in sorted(rows))
    return DatasetBundle(responses=ordered, profiles=profiles, provenance=provenance), report


def _parse_row(
    row: Sequence[str],
    positions: Mapping[str, int],
    ts_pos: int | None,
    condition_values: Mapping[str, str],
    z: int,
    m_limit: int | None,
) -> ResponseRow:
    try:
        pid = row[positions["participant_id"]].strip()
        raw_condition = row[positions["condition"]].strip()
        scenario_id = int(row[positions["scenario_id"]])
        selection = int(row[positions["selection"]])
    except (IndexError, ValueError) as exc:
        raise ValueError(f"unparseable row: {exc}")
    if not pid:
        raise ValueError("empty participant id")
    condition = condition_values.get(raw_condition, raw_condition)
    if scenario_id < 1 or (m_limit is not None and scenario_id > m_limit):
        raise ValueError(f"scenario id {scenario_id} out of range")
    if not 1 <= selection <= z:
        raise ValueError(f"selection {selection} outside 1..{z}")
    timestamp = 0.0
    if ts_pos is not None and ts_pos < len(row) and row[ts_pos].strip():
        try:
            timestamp = float(row[ts_pos])
        except ValueError:
            raise ValueError(f"unparseable timestamp '{row[ts_pos]}'")
    return ResponseRow(pid, condition, scenario_id, selection, timestamp)


def export_responses(
    path: str | Path,
    simulations: Mapping[str, Mapping[str, SelectionVector]],
) -> None:
    """Write simulated selections in the canonical response schema, so a
    round trip through ingest reproduces them exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["participant_id", "condition", "scenario_id", "selection", "timestamp"])
        for pid in sorted(simulations):
            for condition in sorted(simulations[pid]):
                sv = simulations[pid][condition]
                for j, s in enumerate(sv.selections, start=1):
                    writer.writerow([pid, condition, j, int(s), 0])
