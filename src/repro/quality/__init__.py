"""Data quality metrics, physical validation, and datasheet generation."""

from repro.quality.metrics import (
    QualityReport,
    class_balance,
    completeness,
    imbalance_ratio,
    noise_estimate,
    outlier_rate,
    quality_report,
)
from repro.quality.validation import (
    ValidationIssue,
    ValidationResult,
    check_bounds,
    check_finite,
    check_monotonic,
    check_precision,
    validate_schema,
)
from repro.quality.datasheet import Datasheet, build_datasheet
from repro.quality.drift import population_stability_index

__all__ = [
    "QualityReport", "class_balance", "completeness",
    "imbalance_ratio", "noise_estimate", "outlier_rate",
    "quality_report",
    "ValidationIssue", "ValidationResult",
    "check_bounds", "check_finite", "check_monotonic",
    "check_precision", "validate_schema",
    "Datasheet", "build_datasheet",
    "population_stability_index",
]
