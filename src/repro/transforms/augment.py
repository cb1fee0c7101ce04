"""Data augmentation: SMOTE-like synthesis.

Section 2.1: "where scientific datasets contain an insufficient number of
samples, certain data augmentation techniques may be employed ... such as
rotating images, adding noise, and generating synthetic samples."  All
augmenters take an explicit :class:`numpy.random.Generator` so pipelines
remain reproducible end-to-end.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "smote_like",
    "AugmentError",
]


class AugmentError(ValueError):
    """Invalid augmentation parameters."""


def smote_like(
    features: np.ndarray,
    labels: np.ndarray,
    minority_class: object,
    rng: np.random.Generator,
    *,
    n_synthetic: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Synthesize minority-class samples by interpolating toward one of the
    5 nearest neighbours.

    The classic class-imbalance remedy (the materials archetype's
    "class imbalance" challenge).  Returns ``(synthetic_X, synthetic_y)``;
    callers concatenate with the originals.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    minority = features[labels == minority_class]
    if minority.shape[0] < 2:
        raise AugmentError("need at least 2 minority samples to interpolate")
    k = min(5, minority.shape[0] - 1)
    # pairwise distances within the minority class (vectorized)
    diff = minority[:, None, :] - minority[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=-1))
    np.fill_diagonal(dist, np.inf)
    neighbours = np.argsort(dist, axis=1)[:, :k]
    base_idx = rng.integers(0, minority.shape[0], size=n_synthetic)
    pick = rng.integers(0, k, size=n_synthetic)
    neighbour_idx = neighbours[base_idx, pick]
    gaps = rng.uniform(0.0, 1.0, size=(n_synthetic, 1))
    synthetic = minority[base_idx] + gaps * (
        minority[neighbour_idx] - minority[base_idx]
    )
    synthetic_labels = np.full(n_synthetic, minority_class, dtype=labels.dtype)
    return synthetic, synthetic_labels
