"""Validation: schema conformance and physical-constraint checks.

Section 2.2: scientific surrogates "must adhere to domain-specific
constraints such as conservation laws and boundary conditions," and
Section 2.2's precision discussion means dtype checks are substantive, not
cosmetic.  Validators return structured :class:`ValidationIssue` lists so
pipelines can distinguish hard failures from advisories.
"""

from __future__ import annotations

import dataclasses
from typing import List

import numpy as np

from repro.core.dataset import Dataset, SchemaError

__all__ = [
    "ValidationIssue",
    "ValidationResult",
    "validate_schema",
    "check_finite",
    "check_bounds",
    "check_precision",
    "check_monotonic",
]


@dataclasses.dataclass(frozen=True)
class ValidationIssue:
    """One validation failure or advisory."""

    check: str
    column: str
    severity: str  # "error" | "warning"
    message: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.check}({self.column}): {self.message}"


@dataclasses.dataclass
class ValidationResult:
    issues: List[ValidationIssue]

    @property
    def ok(self) -> bool:
        return not any(issue.severity == "error" for issue in self.issues)

    @property
    def errors(self) -> List[ValidationIssue]:
        return [i for i in self.issues if i.severity == "error"]

    @property
    def warnings(self) -> List[ValidationIssue]:
        return [i for i in self.issues if i.severity == "warning"]


def validate_schema(dataset: Dataset) -> ValidationResult:
    """Schema conformance as a structured result (never raises)."""
    try:
        dataset.validate()
        return ValidationResult(issues=[])
    except SchemaError as exc:
        return ValidationResult(
            issues=[
                ValidationIssue(
                    check="schema", column="-", severity="error", message=str(exc)
                )
            ]
        )


def check_finite(values: np.ndarray, column: str = "-") -> List[ValidationIssue]:
    """NaN/Inf entries are errors in post-cleaning data."""
    values = np.asarray(values)
    if not np.issubdtype(values.dtype, np.floating):
        return []
    bad = int((~np.isfinite(values)).sum())
    if bad:
        return [
            ValidationIssue(
                check="finite",
                column=column,
                severity="error",
                message=f"{bad} non-finite entries",
            )
        ]
    return []


def check_bounds(
    values: np.ndarray, lo: float, hi: float, column: str = "-",
    severity: str = "error",
) -> List[ValidationIssue]:
    """Physical range check (e.g. temperature within [150, 350] K)."""
    values = np.asarray(values)
    try:
        values = values.astype(np.float64)
    except (TypeError, ValueError):
        return [
            ValidationIssue(
                check="bounds",
                column=column,
                severity="error",
                message=f"non-numeric dtype {values.dtype} cannot be range-checked",
            )
        ]
    finite = values[np.isfinite(values)]
    below = int((finite < lo).sum())
    above = int((finite > hi).sum())
    if below or above:
        return [
            ValidationIssue(
                check="bounds",
                column=column,
                severity=severity,
                message=f"{below} below {lo}, {above} above {hi}",
            )
        ]
    return []


def check_precision(
    values: np.ndarray, minimum_bits: int = 32, column: str = "-"
) -> List[ValidationIssue]:
    """Floating-point width check: scientific data often needs >= 32 bits.

    Section 2.2: "engineering and physics-based models often demand 32-bit
    or 64-bit floating-point precision."
    """
    values = np.asarray(values)
    if not np.issubdtype(values.dtype, np.floating):
        return []
    bits = values.dtype.itemsize * 8
    if bits < minimum_bits:
        return [
            ValidationIssue(
                check="precision",
                column=column,
                severity="warning",
                message=f"dtype {values.dtype} has {bits} bits < required {minimum_bits}",
            )
        ]
    return []


def check_monotonic(
    values: np.ndarray, column: str = "-", strictly: bool = True
) -> List[ValidationIssue]:
    """Coordinate axes (time, lat, lon) must be monotonic."""
    values = np.asarray(values)
    try:
        values = values.astype(np.float64)
    except (TypeError, ValueError):
        return [
            ValidationIssue(
                check="monotonic",
                column=column,
                severity="error",
                message=f"non-numeric dtype {values.dtype} cannot be ordered",
            )
        ]
    diffs = np.diff(values)
    bad = (diffs <= 0) if strictly else (diffs < 0)
    n = int(bad.sum())
    if n:
        return [
            ValidationIssue(
                check="monotonic",
                column=column,
                severity="error",
                message=f"{n} non-increasing steps",
            )
        ]
    return []
