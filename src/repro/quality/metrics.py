"""Data quality metrics: completeness, balance, noise, coverage, outliers.

Section 5 ("Data Quality, Bias, and Fairness") calls for "addressing
coverage, representativeness, imbalance, and noise."  These metrics are
the quantitative inputs to datasheets, readiness evidence payloads, and
the assessment gates.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

import numpy as np

from repro.core.dataset import Dataset
from repro.transforms.cleaning import missing_mask, outlier_mask

__all__ = [
    "completeness",
    "class_balance",
    "imbalance_ratio",
    "noise_estimate",
    "outlier_rate",
    "QualityReport",
    "quality_report",
]


def completeness(values: np.ndarray) -> float:
    """Fraction of non-missing (non-NaN) entries, in [0, 1]."""
    values = np.asarray(values)
    if values.size == 0:
        return 1.0
    return 1.0 - float(missing_mask(values).mean())


def class_balance(labels: np.ndarray) -> Dict[object, float]:
    """Per-class sample fractions."""
    labels = np.asarray(labels)
    if labels.size == 0:
        return {}
    values, counts = np.unique(labels, return_counts=True)
    total = labels.size
    return {v: float(c) / total for v, c in zip(values.tolist(), counts.tolist())}


def imbalance_ratio(labels: np.ndarray) -> float:
    """Majority/minority class count ratio; 1.0 is perfectly balanced."""
    labels = np.asarray(labels)
    if labels.size == 0:
        return 1.0
    _, counts = np.unique(labels, return_counts=True)
    return float(counts.max() / counts.min())


def noise_estimate(series: np.ndarray) -> float:
    """Noise-to-signal estimate via first differences.

    For a smooth signal sampled adequately, ``std(diff)/sqrt(2)``
    estimates the additive noise sigma; dividing by the signal's own std
    yields a unitless noise fraction.  Values near or above 1 indicate a
    channel that is mostly noise (the fusion archetype's "sparse/noisy
    data" challenge, made measurable).
    """
    series = np.asarray(series, dtype=np.float64).ravel()
    series = series[np.isfinite(series)]
    if series.size < 3:
        return 0.0
    signal_std = series.std()
    if signal_std == 0:
        return 0.0
    noise_sigma = np.diff(series).std() / np.sqrt(2.0)
    return float(noise_sigma / signal_std)


def outlier_rate(values: np.ndarray) -> float:
    """Fraction of values more than 5 robust sigmas out."""
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        return 0.0
    return float(outlier_mask(values).mean())


@dataclasses.dataclass
class QualityReport:
    """Per-dataset quality summary used by datasheets and assessment."""

    n_samples: int
    completeness_by_column: Dict[str, float]
    outlier_rate_by_column: Dict[str, float]
    noise_by_column: Dict[str, float]
    label_balance: Dict[object, float]
    imbalance: float

    @property
    def overall_completeness(self) -> float:
        if not self.completeness_by_column:
            return 1.0
        return float(np.mean(list(self.completeness_by_column.values())))

    @property
    def worst_noise(self) -> float:
        if not self.noise_by_column:
            return 0.0
        return max(self.noise_by_column.values())

    def summary(self) -> str:
        return (
            f"n={self.n_samples}, completeness={self.overall_completeness:.3f}, "
            f"imbalance={self.imbalance:.2f}, worst_noise={self.worst_noise:.2f}"
        )


def quality_report(dataset: Dataset) -> QualityReport:
    """Compute the standard quality metrics over a dataset's numeric columns;
    class balance is of the first label column, if any."""
    completeness_by: Dict[str, float] = {}
    outliers_by: Dict[str, float] = {}
    noise_by: Dict[str, float] = {}
    for spec in dataset.schema:
        if not np.issubdtype(spec.dtype, np.number):
            continue
        column = dataset[spec.name]
        completeness_by[spec.name] = completeness(column)
        if np.issubdtype(spec.dtype, np.floating) and spec.shape == ():
            outliers_by[spec.name] = outlier_rate(column)
            noise_by[spec.name] = noise_estimate(column)
    label_names = dataset.schema.label_names
    label_column = label_names[0] if label_names else None
    balance: Dict[object, float] = {}
    imbalance = 1.0
    if label_column is not None and label_column in dataset.schema:
        labels = dataset[label_column]
        balance = class_balance(labels)
        if balance:
            imbalance = imbalance_ratio(labels)
    return QualityReport(
        n_samples=dataset.n_samples,
        completeness_by_column=completeness_by,
        outlier_rate_by_column=outliers_by,
        noise_by_column=noise_by,
        label_balance=balance,
        imbalance=imbalance,
    )
