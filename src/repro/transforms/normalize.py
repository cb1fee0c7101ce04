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
    "MinMaxNormalizer",
    "RobustNormalizer",
    "LogNormalizer",
    "make_normalizer",
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


class MinMaxNormalizer(Normalizer):
    """Scale to ``[lo, hi]`` = [0, 1]; constant features map to lo."""

    name = "minmax"
    lo, hi = 0.0, 1.0

    def __init__(self) -> None:
        super().__init__()
        self.data_min: Optional[np.ndarray] = None
        self.data_max: Optional[np.ndarray] = None

    def fit(self, values: np.ndarray) -> "MinMaxNormalizer":
        values = np.asarray(values, dtype=np.float64)
        self.data_min = values.min(axis=0)
        self.data_max = values.max(axis=0)
        self.fitted = True
        return self

    def _span(self) -> np.ndarray:
        span = np.asarray(self.data_max) - np.asarray(self.data_min)
        return np.where(span == 0, 1.0, span)

    def transform(self, values: np.ndarray) -> np.ndarray:
        self._require_fitted()
        unit = (np.asarray(values, dtype=np.float64) - self.data_min) / self._span()
        return unit * (self.hi - self.lo) + self.lo

    def params(self) -> Dict[str, object]:
        self._require_fitted()
        return {
            "name": self.name,
            "range": [self.lo, self.hi],
            "data_min": np.asarray(self.data_min).tolist(),
            "data_max": np.asarray(self.data_max).tolist(),
        }


class RobustNormalizer(Normalizer):
    """``(x - median) / IQR``: insensitive to the heavy tails of diagnostics."""

    name = "robust"

    def __init__(self):
        super().__init__()
        self.median: Optional[np.ndarray] = None
        self.iqr: Optional[np.ndarray] = None

    def fit(self, values: np.ndarray) -> "RobustNormalizer":
        values = np.asarray(values, dtype=np.float64)
        self.median = np.median(values, axis=0)
        q75, q25 = np.percentile(values, [75, 25], axis=0)
        self.iqr = q75 - q25
        self.fitted = True
        return self

    def transform(self, values: np.ndarray) -> np.ndarray:
        self._require_fitted()
        iqr = np.where(np.asarray(self.iqr) < EPSILON, 1.0, self.iqr)
        return (np.asarray(values, dtype=np.float64) - self.median) / iqr

    def params(self) -> Dict[str, object]:
        self._require_fitted()
        return {
            "name": self.name,
            "median": np.asarray(self.median).tolist(),
            "iqr": np.asarray(self.iqr).tolist(),
        }


class LogNormalizer(Normalizer):
    """``log1p`` for strictly non-negative, heavy-tailed quantities.

    Composes a z-score in log space so the output is both compressed and
    centred.
    """

    name = "log"

    def __init__(self) -> None:
        super().__init__()
        self._inner = ZScoreNormalizer()

    def fit(self, values: np.ndarray) -> "LogNormalizer":
        values = np.asarray(values, dtype=np.float64)
        if np.any(values < 0):
            raise NormalizationError("log normalizer requires non-negative values")
        self._inner.fit(np.log1p(values))
        self.fitted = True
        return self

    def transform(self, values: np.ndarray) -> np.ndarray:
        self._require_fitted()
        values = np.asarray(values, dtype=np.float64)
        if np.any(values < 0):
            raise NormalizationError("log normalizer requires non-negative values")
        return self._inner.transform(np.log1p(values))

    def params(self) -> Dict[str, object]:
        self._require_fitted()
        inner = self._inner.params()
        return {"name": self.name, "inner": inner}


def make_normalizer(name: str) -> Normalizer:
    """Factory by registry name (``zscore``/``minmax``/``robust``/``log``)."""
    registry = {
        "zscore": ZScoreNormalizer,
        "minmax": MinMaxNormalizer,
        "robust": RobustNormalizer,
        "log": LogNormalizer,
    }
    try:
        return registry[name]()
    except KeyError:
        raise NormalizationError(
            f"unknown normalizer {name!r}; available: {sorted(registry)}"
        ) from None


def normalize_dataset(
    dataset: Dataset, method: str = "zscore"
) -> Tuple[Dataset, Dict[str, Normalizer]]:
    """Fit-and-apply a normalizer per numeric feature column.

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
        normalizer = make_normalizer(method)
        values = normalizer.fit_transform(out[name])
        fitted[name] = normalizer
        out = out.with_column(
            spec.with_(dtype=np.dtype(np.float64), units=None), values, replace=True
        )
    return out, fitted
