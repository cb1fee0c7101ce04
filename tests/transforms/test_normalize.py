"""Normalizers: fit/transform contracts."""

import numpy as np
import pytest

from repro.core.dataset import Dataset
from repro.transforms.normalize import (
    NormalizationError,
    ZScoreNormalizer,
    normalize_dataset,
)


class TestZScore:
    def test_unfitted_raises(self, rng):
        with pytest.raises(NormalizationError, match="before fit"):
            ZScoreNormalizer().transform(rng.normal(size=5))

    def test_output_standardized(self, rng):
        data = rng.normal(100, 50, size=(1000, 2))
        z = ZScoreNormalizer().fit_transform(data)
        assert np.allclose(z.mean(axis=0), 0, atol=1e-10)
        assert np.allclose(z.std(axis=0), 1, atol=1e-10)

    def test_constant_feature_guarded(self):
        data = np.column_stack([np.ones(10), np.arange(10.0)])
        z = ZScoreNormalizer().fit_transform(data)
        assert np.all(np.isfinite(z))
        assert np.allclose(z[:, 0], 0)


class TestNormalizeDataset:
    def test_numeric_features_normalized_labels_untouched(self, small_dataset):
        out, fitted = normalize_dataset(small_dataset)
        assert set(fitted) == {"x1", "x2", "grid"}
        assert np.allclose(out["x1"].mean(), 0, atol=1e-10)
        assert np.array_equal(out["label"], small_dataset["label"])

    def test_default_selects_numeric_scalar_features(self, small_dataset):
        out, fitted = normalize_dataset(small_dataset)
        assert "x1" in fitted and "label" not in fitted

    def test_units_cleared_after_normalization(self, rng):
        from repro.core.dataset import FieldSpec, Schema

        ds = Dataset(
            {"t": rng.normal(280, 10, 50)},
            Schema([FieldSpec("t", np.dtype(np.float64), units="K")]),
        )
        out, _ = normalize_dataset(ds)
        assert out.schema["t"].units is None
