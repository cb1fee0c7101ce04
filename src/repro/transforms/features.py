"""Feature engineering: selection.

Figure 1's "feature engineering" step: "select the most informative set of
features or combination of features on which to train" (Section 2.1).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

import numpy as np

__all__ = [
    "mutual_information",
    "select_k_best",
    "SelectionReport",
    "FeatureError",
]


class FeatureError(ValueError):
    """Invalid selection parameters or shapes."""


@dataclasses.dataclass(frozen=True)
class SelectionReport:
    """Which features survived selection and why."""

    kept: Tuple[int, ...]
    dropped: Tuple[int, ...]
    scores: Dict[int, float]
    method: str


def mutual_information(feature: np.ndarray, labels: np.ndarray) -> float:
    """Histogram-estimated mutual information between a feature and labels.

    MI in nats via the plug-in estimator on a 16-bins x classes
    contingency table.  Good enough for *ranking* features, which is all
    selection needs.
    """
    feature = np.asarray(feature, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel()
    if feature.size != labels.size:
        raise FeatureError("feature/labels length mismatch")
    if feature.size == 0:
        return 0.0
    lo, hi = feature.min(), feature.max()
    if hi == lo:
        return 0.0
    bins = np.clip(((feature - lo) / (hi - lo) * 16).astype(int), 0, 15)
    classes, class_codes = np.unique(labels, return_inverse=True)
    joint = np.zeros((16, classes.size), dtype=np.float64)
    np.add.at(joint, (bins, class_codes), 1.0)
    joint /= joint.sum()
    px = joint.sum(axis=1, keepdims=True)
    py = joint.sum(axis=0, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = joint * np.log(joint / (px * py))
    return float(np.nansum(terms))


def select_k_best(features: np.ndarray, labels: np.ndarray, k: int) -> SelectionReport:
    """Keep the *k* features with highest mutual information with labels."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise FeatureError("expected a (n, k) feature matrix")
    if k < 0:
        raise FeatureError("k must be non-negative")
    scores = {
        int(j): mutual_information(features[:, j], labels)
        for j in range(features.shape[1])
    }
    order = sorted(scores, key=lambda j: (-scores[j], j))
    kept = tuple(sorted(order[:k]))
    dropped = tuple(sorted(order[k:]))
    return SelectionReport(kept, dropped, scores, method="mutual_information")
