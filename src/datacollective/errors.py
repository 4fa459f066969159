"""Exception types shared across the toolkit, and the readers that turn an
unreadable input file into one of them."""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, TextIO


class DataCollectiveError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(DataCollectiveError, ValueError):
    """Malformed or out-of-contract input (dimensions, ranges, empty sets)."""


class DegenerateProfileError(DataCollectiveError):
    """A weight profile whose total scenario weight is zero."""


class MissingParameterError(DataCollectiveError):
    """A valuation or operation was invoked without a required parameter."""


class InvalidWeightsError(DataCollectiveError, ValueError):
    """Cost weights outside the admissible region (alpha + beta must be <= 1)."""


class IncompletePortfolioError(DataCollectiveError):
    """A plan portfolio is missing one of the required conditions."""


class SingularDesignError(DataCollectiveError):
    """The regression design matrix is rank deficient or ill conditioned."""


class IngestError(DataCollectiveError):
    """Dataset ingestion failed structurally (unreadable file, unmapped column)."""


class PipelineError(DataCollectiveError):
    """A pipeline stage failed; carries the stage name for diagnostics."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage '{stage}' failed: {message}")
        self.stage = stage


@contextmanager
def open_text(path: str | Path) -> Iterator[TextIO]:
    """Open an input file as UTF-8 text with untranslated newlines (as the
    csv module reads them). A missing or unreadable file, or a byte that is
    not UTF-8, raises an ``InvalidInputError`` naming the file (and the line
    of that byte)."""
    try:
        fh = open(path, encoding="utf-8", newline="")
    except OSError as exc:
        raise InvalidInputError(f"{path}: cannot read ({exc.strerror or exc})") from None
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            line = _first_undecodable_line(path)
            raise InvalidInputError(f"{path}:{line}: not UTF-8 text ({exc.reason})") from None


def csv_rows(fh: TextIO, path: str | Path) -> Iterator[list[str]]:
    """The rows ``csv.reader`` reads from ``fh``; a malformed line (a field
    over ``csv.field_size_limit()``) raises an ``InvalidInputError`` naming
    the file and line."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:
        raise InvalidInputError(f"{path}:{reader.line_num}: malformed CSV ({exc})") from None


def _first_undecodable_line(path: str | Path) -> int:
    # the stream decodes in chunks, so its error holds no offset in the file
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return data.count(b"\n", 0, exc.start) + 1
    return 0


def read_text(path: str | Path) -> str:
    """The whole text of an input file, read through ``open_text``."""
    with open_text(path) as fh:
        return fh.read()


def read_json_object(path: str | Path) -> dict:
    """A JSON file whose top level is an object; anything else raises an
    ``InvalidInputError`` naming the file (and the line of a syntax error)."""
    try:
        data = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path}:{exc.lineno}: malformed JSON ({exc.msg})") from None
    if not isinstance(data, dict):
        raise InvalidInputError(
            f"{path}: expected a JSON object, found {type(data).__name__}"
        )
    return data
