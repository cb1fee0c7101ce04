"""Normalization: fitted transforms whose parameters are recorded.

"Normalizing by mean and standard deviation" is the transform every domain
archetype shares (Sections 2.1, 3.1-3.4).  Normalizers here follow the
fit/transform contract and serialize to plain dicts for provenance
capture.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.dataset import Dataset, FieldRole

__all__ = [
    "Normalizer",
    "ZScoreNormalizer",
    "normalize_dataset",
    "NormalizationError",
]


class NormalizationError(ValueError):
    """Fit/transform misuse (unfitted transform, degenerate statistics)."""


class Normalizer:
    """Base fit/transform contract."""

    name = "base"

    def __init__(self) -> None:
        self.fitted = False

    def fit(self, values: np.ndarray) -> "Normalizer":
        raise NotImplementedError

    def transform(self, values: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def fit_transform(self, values: np.ndarray) -> np.ndarray:
        return self.fit(values).transform(values)

    def _require_fitted(self) -> None:
        if not self.fitted:
            raise NormalizationError(f"{type(self).__name__} used before fit()")

    # -- provenance ---------------------------------------------------------
    def params(self) -> Dict[str, object]:
        raise NotImplementedError


#: a spread (std or IQR) below this marks a constant feature, which is left unscaled
EPSILON = 1e-12


class ZScoreNormalizer(Normalizer):
    """``(x - mean) / std`` with :data:`EPSILON`-guarded constant features."""

    name = "zscore"

    def __init__(self):
        super().__init__()
        self.mean: Optional[np.ndarray] = None
        self.std: Optional[np.ndarray] = None

    def fit(self, values: np.ndarray) -> "ZScoreNormalizer":
        values = np.asarray(values, dtype=np.float64)
        self.mean = values.mean(axis=0)
        self.std = values.std(axis=0)
        self.fitted = True
        return self

    def transform(self, values: np.ndarray) -> np.ndarray:
        self._require_fitted()
        std = np.where(np.asarray(self.std) < EPSILON, 1.0, self.std)
        return (np.asarray(values, dtype=np.float64) - self.mean) / std

    def params(self) -> Dict[str, object]:
        self._require_fitted()
        return {
            "name": self.name,
            "mean": np.asarray(self.mean).tolist(),
            "std": np.asarray(self.std).tolist(),
        }


def normalize_dataset(dataset: Dataset) -> Tuple[Dataset, Dict[str, Normalizer]]:
    """Fit-and-apply a z-score normalizer per numeric feature column.

    Returns the normalized dataset and the fitted normalizers keyed by
    column, which pipelines persist for provenance.
    """
    columns = [
        f.name
        for f in dataset.schema.by_role(FieldRole.FEATURE)
        if np.issubdtype(f.dtype, np.number)
    ]
    out = dataset
    fitted: Dict[str, Normalizer] = {}
    for name in columns:
        spec = out.schema[name]
        normalizer = ZScoreNormalizer()
        values = normalizer.fit_transform(out[name])
        fitted[name] = normalizer
        out = out.with_column(
            spec.with_(dtype=np.dtype(np.float64), units=None), values, replace=True
        )
    return out, fitted
