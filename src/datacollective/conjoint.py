"""Rating-based conjoint analysis over the factorial scenario space.

The scenario catalog is dummy-encoded with one reference element dropped per
criterion, an ordinary-least-squares fit explains a per-scenario response
(privacy or rewards), and partworth utilities turn the coefficients into
relative importance percentages for criteria and elements. Reference
elements carry a coefficient of zero in every utility formula.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, SingularDesignError, csv_rows, open_text
from .sharing import ScenarioCatalog

CONDITION_LIMIT = 1e12  # normal-equations guard against silent regularization


@dataclass(frozen=True)
class DesignMatrix:
    """Dummy-coded design: intercept column plus one indicator per retained
    element, criterion-major in catalog element order."""

    matrix: np.ndarray
    column_labels: tuple[str, ...]
    references: tuple[int, ...]  # 1-based reference element per criterion
    catalog: ScenarioCatalog


def encode(
    catalog: ScenarioCatalog, references: Sequence[str | int] | None = None
) -> DesignMatrix:
    """Dummy-encode the catalog, dropping one reference element per criterion.

    References may be element names or 1-based indices; by default the first
    element of each criterion is dropped.
    """
    if references is None:
        ref_idx = tuple(1 for _ in catalog.criteria)
    else:
        if len(references) != catalog.k:
            raise InvalidInputError("need one reference element per criterion")
        ref_idx = tuple(
            _resolve_element(criterion, ref)
            for criterion, ref in zip(catalog.criteria, references)
        )
    columns = [np.ones(catalog.m)]
    labels = ["intercept"]
    for u, criterion in enumerate(catalog.criteria, start=1):
        for o, element in enumerate(criterion.elements, start=1):
            if o == ref_idx[u - 1]:
                continue
            columns.append(catalog.element_mask(u, o).astype(float))
            labels.append(element)
    return DesignMatrix(
        matrix=np.column_stack(columns),
        column_labels=tuple(labels),
        references=ref_idx,
        catalog=catalog,
    )


def _resolve_element(criterion, ref: str | int) -> int:
    if isinstance(ref, str):
        if ref not in criterion.elements:
            raise InvalidInputError(
                f"'{ref}' is not an element of criterion '{criterion.name}'"
            )
        return criterion.elements.index(ref) + 1
    ref = int(ref)
    if not 1 <= ref <= criterion.size:
        raise InvalidInputError(
            f"reference index {ref} out of range for criterion '{criterion.name}'"
        )
    return ref


@dataclass(frozen=True)
class RegressionFit:
    """OLS result: intercept, per-dummy coefficients and fit diagnostics."""

    intercept: float
    coefficients: dict[str, float]
    fitted: np.ndarray
    residuals: np.ndarray
    r_squared: float
    adj_r_squared: float
    design: DesignMatrix


def fit(design: DesignMatrix, response: np.ndarray | Sequence[float]) -> RegressionFit:
    """Ordinary least squares via the normal equations with a rank guard."""
    y = np.asarray(response, dtype=float)
    x = design.matrix
    if y.ndim != 1 or y.shape[0] != x.shape[0]:
        raise InvalidInputError("response length does not match design rows")
    if x.shape[0] <= x.shape[1]:
        raise InvalidInputError("need more observations than columns")
    xtx = x.T @ x
    if np.linalg.cond(xtx) > CONDITION_LIMIT:
        raise SingularDesignError(
            "design is rank deficient or ill conditioned; check the reference elements"
        )
    beta = np.linalg.solve(xtx, x.T @ y)
    fitted = x @ beta
    residuals = y - fitted
    ss_res = float(residuals @ residuals)
    centered = y - y.mean()
    ss_tot = float(centered @ centered)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    n, p = x.shape
    adj = 1.0 - (1.0 - r2) * (n - 1) / (n - p)
    return RegressionFit(
        intercept=float(beta[0]),
        coefficients={
            label: float(b) for label, b in zip(design.column_labels[1:], beta[1:])
        },
        fitted=fitted,
        residuals=residuals,
        r_squared=r2,
        adj_r_squared=adj,
        design=design,
    )


@dataclass(frozen=True)
class PartworthReport:
    """Relative importance in percent.

    criterion_utilities sum to 100 across criteria. element_within measures
    an element against its criterion mean; element_across measures it against
    the grand mean over all elements. Both share the sum-of-ranges
    denominator, so reference elements of equally important criteria land on
    the same value. ``degenerate`` flags all-zero coefficient ranges, in
    which case the utilities are NaN.
    """

    criterion_names: tuple[str, ...]
    element_names: tuple[tuple[str, ...], ...]
    criterion_utilities: np.ndarray
    element_within: tuple[np.ndarray, ...]
    element_across: tuple[np.ndarray, ...]
    degenerate: bool


def coefficient_table(fit_result: RegressionFit) -> list[np.ndarray]:
    """Full per-criterion coefficient vectors with references at zero."""
    design = fit_result.design
    table = []
    for u, criterion in enumerate(design.catalog.criteria, start=1):
        coeffs = np.zeros(criterion.size)
        for o, element in enumerate(criterion.elements, start=1):
            if o != design.references[u - 1]:
                coeffs[o - 1] = fit_result.coefficients[element]
        table.append(coeffs)
    return table


def partworths(fit_result: RegressionFit) -> PartworthReport:
    """Partworth utilities from a fitted model."""
    return partworths_from_coefficients(
        coefficient_table(fit_result), fit_result.design.catalog
    )


def partworths_from_coefficients(
    coefficients: Sequence[np.ndarray | Sequence[float]],
    catalog: ScenarioCatalog,
) -> PartworthReport:
    """Partworth utilities from full per-criterion coefficient vectors.

    Criterion importance is its coefficient range over the summed ranges.
    Within-criterion element utilities center on the criterion mean,
    across-criteria utilities on the grand mean; both are normalized by the
    summed ranges and expressed in percent.
    """
    coeffs = [np.asarray(c, dtype=float) for c in coefficients]
    if len(coeffs) != catalog.k or any(
        c.shape[0] != q for c, q in zip(coeffs, catalog.sizes)
    ):
        raise InvalidInputError("coefficient table does not match catalog shape")
    ranges = np.array([c.max() - c.min() for c in coeffs])
    total_range = float(ranges.sum())
    degenerate = total_range <= 0.0
    if degenerate:
        nan = float("nan")
        return PartworthReport(
            criterion_names=tuple(c.name for c in catalog.criteria),
            element_names=tuple(c.elements for c in catalog.criteria),
            criterion_utilities=np.full(catalog.k, nan),
            element_within=tuple(np.full(q, nan) for q in catalog.sizes),
            element_across=tuple(np.full(q, nan) for q in catalog.sizes),
            degenerate=True,
        )
    grand_mean = float(np.concatenate(coeffs).mean())
    return PartworthReport(
        criterion_names=tuple(c.name for c in catalog.criteria),
        element_names=tuple(c.elements for c in catalog.criteria),
        criterion_utilities=ranges / total_range * 100.0,
        element_within=tuple(
            (c - c.mean()) / total_range * 100.0 for c in coeffs
        ),
        element_across=tuple(
            (c - grand_mean) / total_range * 100.0 for c in coeffs
        ),
        degenerate=False,
    )


# ---------------------------------------------------------------------------
# File formats.

def read_response_csv(path: str | Path, m: int | None = None) -> np.ndarray:
    """Load a per-scenario response: columns scenario_id, value."""
    values: dict[int, float] = {}
    with open_text(path) as fh:
        reader = csv_rows(fh, path)
        header = next(reader, None)
        if header != ["scenario_id", "value"]:
            raise InvalidInputError(f"{path}: expected header scenario_id,value")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise InvalidInputError(f"{path}:{lineno}: wrong column count")
            try:
                j, value = int(row[0]), float(row[1])
            except ValueError:
                raise InvalidInputError(f"{path}:{lineno}: not a number in {row}") from None
            if not math.isfinite(value):
                raise InvalidInputError(f"{path}:{lineno}: not a finite number in {row}")
            if j in values:
                raise InvalidInputError(f"{path}:{lineno}: duplicate scenario id {j}")
            values[j] = value
    if not values:
        raise InvalidInputError(f"{path}: empty response file")
    size = m if m is not None else max(values)
    if sorted(values) != list(range(1, size + 1)):
        raise InvalidInputError(f"{path}: scenario ids must cover 1..{size}")
    return np.array([values[j] for j in range(1, size + 1)])


def write_response_csv(path: str | Path, response: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario_id", "value"])
        for j, v in enumerate(np.asarray(response, dtype=float), start=1):
            writer.writerow([j, format(v, ".12g")])


def write_coefficients_csv(path: str | Path, fit_result: RegressionFit) -> None:
    """Coefficient per element label (references as 0) plus the intercept."""
    table = coefficient_table(fit_result)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["term", "coefficient"])
        for criterion, coeffs in zip(fit_result.design.catalog.criteria, table):
            for element, value in zip(criterion.elements, coeffs):
                writer.writerow([element, format(value, ".12g")])
        writer.writerow(["intercept", format(fit_result.intercept, ".12g")])
        writer.writerow(["r_squared", format(fit_result.r_squared, ".12g")])
        writer.writerow(["adj_r_squared", format(fit_result.adj_r_squared, ".12g")])


def write_partworths_json(path: str | Path, report: PartworthReport) -> None:
    payload = {
        "degenerate": report.degenerate,
        "criterion_utilities": {
            name: _nan_safe(value)
            for name, value in zip(report.criterion_names, report.criterion_utilities)
        },
        "element_within": _element_payload(report, report.element_within),
        "element_across": _element_payload(report, report.element_across),
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _element_payload(report: PartworthReport, utilities) -> dict[str, float | None]:
    payload = {}
    for names, values in zip(report.element_names, utilities):
        for name, value in zip(names, values):
            payload[name] = _nan_safe(value)
    return payload


def _nan_safe(value: float) -> float | None:
    return None if np.isnan(value) else float(value)
