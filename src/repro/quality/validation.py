"""Validation: schema conformance and physical-constraint checks.

Section 2.2: scientific surrogates "must adhere to domain-specific
constraints such as conservation laws and boundary conditions," and
Section 2.2's precision discussion means dtype checks are substantive, not
cosmetic.  Validators return structured :class:`ValidationIssue` lists so
pipelines can distinguish hard failures from advisories.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional

import numpy as np

from repro.core.dataset import Dataset, SchemaError

__all__ = [
    "ValidationIssue",
    "ValidationResult",
    "validate_schema",
    "check_finite",
    "check_bounds",
    "finite_flags",
    "bounds_flags",
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
    if not np.issubdtype(values.dtype, np.floating) or not values.size:
        return []
    if np.isfinite(values.min()) and np.isfinite(values.max()):
        return []  # min and max carry any NaN, and are any infinity
    bad = values.size - int(np.count_nonzero(np.isfinite(values)))
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
    values: np.ndarray, lo: float, hi: float, column: str = "-"
) -> List[ValidationIssue]:
    """Physical range check (e.g. temperature within [150, 350] K)."""
    values = np.asarray(values)
    if values.size and values.dtype.kind in "biuf":
        # the exact fast path: the cast to float64 keeps order, so if the
        # smallest and largest cast values are in range, every one is (a
        # NaN or an infinity fails a test and takes the counting path)
        if float(values.min()) >= lo and float(values.max()) <= hi:
            return []
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
                severity="error",
                message=f"{below} below {lo}, {above} above {hi}",
            )
        ]
    return []


#: the comparisons :func:`check_bounds` makes, on values cast to float64
_AS_FLOAT64 = (np.float64, np.float64, np.bool_)
#: elements one step of a column pass looks at: its temporaries stay small
_PASS_ELEMENTS = 1 << 16


def _row_flags(column: np.ndarray, flag: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Per row of *column* (its first axis): does *flag* flag any element?"""
    per_row = int(np.prod(column.shape[1:], dtype=np.int64))
    step = max(1, _PASS_ELEMENTS // max(per_row, 1))
    flags = np.zeros(len(column), dtype=bool)
    for start in range(0, len(column), step):
        block = column[start : start + step]
        flags[start : start + len(block)] = flag(block).reshape(len(block), -1).any(axis=1)
    return flags


def finite_flags(column: np.ndarray) -> Optional[np.ndarray]:
    """The rows of *column* in which :func:`check_finite` finds an issue,
    as flags, from one pass over the column; None for an object column,
    whose rows' dtypes only the rows themselves can tell."""
    if column.dtype.kind == "O":
        return None
    if column.dtype.kind != "f":
        return np.zeros(len(column), dtype=bool)
    return _row_flags(column, lambda block: ~np.isfinite(block))


def bounds_flags(column: np.ndarray, lo: float, hi: float) -> Optional[np.ndarray]:
    """The rows of *column* in which :func:`check_bounds` finds values out
    of ``[lo, hi]``, as flags, from one pass over the column; None unless
    it is bool, integer or floating (a string row may or may not cast)."""
    if column.dtype.kind not in "biuf":
        return None

    def outside(block: np.ndarray) -> np.ndarray:
        out = np.less(block, lo, signature=_AS_FLOAT64)
        out |= np.greater(block, hi, signature=_AS_FLOAT64)
        if block.dtype.kind == "f":
            out &= np.isfinite(block)
        return out

    return _row_flags(column, outside)


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


def check_monotonic(values: np.ndarray, column: str = "-") -> List[ValidationIssue]:
    """Coordinate axes (time, lat, lon) must be strictly increasing."""
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
    n = int((diffs <= 0).sum())
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
