"""Labeling: pseudo-labeling loops and graph label propagation.

Section 2.1: "when only a portion of the data is labeled, semi-supervised
learning methods can leverage both labeled and unlabeled samples.  A common
strategy ... is pseudo-labeling, where model predictions on unlabeled data
are iteratively treated as labels."  This module provides:

* :class:`NearestCentroidModel` — a deliberately simple, dependency-free
  proxy classifier (the framework prepares data; it does not train
  foundation models).
* :func:`pseudo_label` — the iterative confidence-thresholded loop of
  Figure 1's feedback cycle, returning per-round coverage so the FEEDBACK
  bench can plot label growth.
* :func:`propagate_labels` — graph-based label propagation over a kNN
  graph, the standard alternative when geometry matters more than a model.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

import numpy as np

__all__ = [
    "NearestCentroidModel",
    "PseudoLabelRound",
    "PseudoLabelResult",
    "pseudo_label",
    "propagate_labels",
    "labeled_fraction",
    "UNLABELED",
]

#: sentinel for "no label" in integer label arrays
UNLABELED = -1


def labeled_fraction(labels: np.ndarray) -> float:
    """Fraction of entries carrying a real label."""
    labels = np.asarray(labels)
    if labels.size == 0:
        return 0.0
    return float((labels != UNLABELED).mean())


class NearestCentroidModel:
    """Minimal prototype classifier with confidence scores.

    Confidence is a softmax over negative distances to class centroids —
    monotone in margin, bounded in (0, 1), and cheap enough to run inside
    property tests.
    """

    def __init__(self) -> None:
        self.classes_: Optional[np.ndarray] = None
        self.centroids_: Optional[np.ndarray] = None
        self.scale_: float = 1.0

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "NearestCentroidModel":
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels)
        mask = labels != UNLABELED
        features, labels = features[mask], labels[mask]
        if features.shape[0] == 0:
            raise ValueError("cannot fit with zero labeled samples")
        self.classes_ = np.unique(labels)
        self.centroids_ = np.stack(
            [features[labels == c].mean(axis=0) for c in self.classes_]
        )
        spread = features.std()
        self.scale_ = float(spread) if spread > 0 else 1.0
        return self

    def _distances(self, features: np.ndarray) -> np.ndarray:
        if self.centroids_ is None:
            raise ValueError("model used before fit()")
        features = np.asarray(features, dtype=np.float64)
        diff = features[:, None, :] - self.centroids_[None, :, :]
        return np.sqrt((diff**2).sum(axis=-1))

    def predict(self, features: np.ndarray) -> np.ndarray:
        distances = self._distances(features)  # raises when unfitted
        assert self.classes_ is not None
        return self.classes_[distances.argmin(axis=1)]

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        dist = self._distances(features) / self.scale_
        logits = -dist
        logits -= logits.max(axis=1, keepdims=True)
        exp = np.exp(logits)
        return exp / exp.sum(axis=1, keepdims=True)


@dataclasses.dataclass(frozen=True)
class PseudoLabelRound:
    """Accounting for one pseudo-labeling iteration."""

    round: int
    newly_labeled: int
    labeled_fraction: float
    mean_confidence: float


@dataclasses.dataclass
class PseudoLabelResult:
    """Final labels plus per-round history."""

    labels: np.ndarray
    rounds: List[PseudoLabelRound]

    @property
    def final_fraction(self) -> float:
        return labeled_fraction(self.labels)


def pseudo_label(
    features: np.ndarray,
    labels: np.ndarray,
    *,
    confidence_threshold: float = 0.8,
    max_rounds: int = 10,
) -> PseudoLabelResult:
    """Iterative pseudo-labeling until convergence or *max_rounds*.

    Each round fits a :class:`NearestCentroidModel` on currently-labeled
    samples, predicts the unlabeled pool, and promotes predictions whose
    confidence clears the threshold.  Ground-truth labels are never
    overwritten.
    """
    if not 0.0 < confidence_threshold <= 1.0:
        raise ValueError("confidence_threshold must be in (0, 1]")
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64).copy()
    if features.shape[0] != labels.shape[0]:
        raise ValueError("features/labels length mismatch")
    rounds: List[PseudoLabelRound] = []
    for rnd in range(max_rounds):
        unlabeled = np.flatnonzero(labels == UNLABELED)
        if unlabeled.size == 0:
            break
        mdl = NearestCentroidModel()
        mdl.fit(features, labels)
        proba = mdl.predict_proba(features[unlabeled])
        confident = proba.max(axis=1) >= confidence_threshold
        n_new = int(confident.sum())
        if n_new == 0:
            break
        assert mdl.classes_ is not None
        labels[unlabeled[confident]] = mdl.classes_[
            proba[confident].argmax(axis=1)
        ]
        rounds.append(
            PseudoLabelRound(
                round=rnd,
                newly_labeled=n_new,
                labeled_fraction=labeled_fraction(labels),
                mean_confidence=float(proba[confident].max(axis=1).mean()),
            )
        )
    return PseudoLabelResult(labels=labels, rounds=rounds)


def propagate_labels(
    features: np.ndarray,
    labels: np.ndarray,
    *,
    k_neighbors: int = 5,
) -> np.ndarray:
    """Label propagation over a mutual-kNN graph (majority vote, iterated).

    Unlabeled nodes adopt the majority label among their labeled
    neighbours; iterate until fixed point (at most 50 sweeps).  Isolated
    components with no labeled seed stay ``UNLABELED`` — readiness
    assessment should see that honestly rather than receive an arbitrary
    guess.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64).copy()
    n = features.shape[0]
    if n == 0:
        return labels
    k = min(k_neighbors, n - 1)
    if k < 1:
        return labels
    diff = features[:, None, :] - features[None, :, :]
    dist = (diff**2).sum(axis=-1)
    np.fill_diagonal(dist, np.inf)
    neighbours = np.argsort(dist, axis=1)[:, :k]
    for _ in range(50):
        changed = False
        unlabeled = np.flatnonzero(labels == UNLABELED)
        for i in unlabeled:
            neighbour_labels = labels[neighbours[i]]
            valid = neighbour_labels[neighbour_labels != UNLABELED]
            if valid.size == 0:
                continue
            values, counts = np.unique(valid, return_counts=True)
            labels[i] = values[counts.argmax()]
            changed = True
        if not changed:
            break
    return labels
