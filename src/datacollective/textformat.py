"""The text format of the artifact files, shared by their writers: CSV fields
quoted as ``csv.writer`` quotes them, and floats at 12 significant digits."""

from __future__ import annotations

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
