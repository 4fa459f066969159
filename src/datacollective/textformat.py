"""The text format of the artifact files, shared by their writers: CSV fields
quoted as ``csv.writer`` quotes them, floats at 12 significant digits, and the
ids that may name a file."""

from __future__ import annotations

import re

import numpy as np


def csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes a field under ``QUOTE_MINIMAL``."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def float_table(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each distinct bit pattern of the float array ``values`` formatted once
    as ``%.12g``, and the index of each value's text in that table."""
    bits, inverse = np.unique(
        np.asarray(values, dtype=np.float64).view(np.uint64), return_inverse=True
    )
    texts = np.array(list(map("%.12g".__mod__, bits.view(np.float64).tolist())), dtype=object)
    return texts, inverse


# a path separator, or NUL, the one character no file name may hold
_NOT_IN_FILE_NAMES = re.compile(r"[/\\\x00]")


def is_file_stem(name: str) -> bool:
    """Whether ``name`` names a file in its directory when used as a file
    name: not empty, ``.`` or ``..``, and no path separator or NUL."""
    return name not in ("", ".", "..") and not _NOT_IN_FILE_NAMES.search(name)
