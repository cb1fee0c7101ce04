"""Normalizers: fit/transform contracts."""

import numpy as np
import pytest

from repro.core.dataset import Dataset
from repro.transforms.normalize import (
    LogNormalizer,
    MinMaxNormalizer,
    NormalizationError,
    RobustNormalizer,
    ZScoreNormalizer,
    make_normalizer,
    normalize_dataset,
)

ALL = ["zscore", "minmax", "robust", "log"]


def data_for(name, rng, shape=(200, 3)):
    data = rng.normal(5, 2, size=shape)
    return np.abs(data) if name == "log" else data


class TestContracts:

    @pytest.mark.parametrize("name", ALL)
    def test_unfitted_raises(self, name, rng):
        with pytest.raises(NormalizationError, match="before fit"):
            make_normalizer(name).transform(rng.normal(size=5))

    def test_unknown_name(self):
        with pytest.raises(NormalizationError, match="unknown"):
            make_normalizer("quantile")


class TestZScore:
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


class TestMinMax:
    def test_range_respected(self, rng):
        data = rng.normal(size=(100, 3))
        out = MinMaxNormalizer().fit_transform(data)
        assert out.min() == 0.0 and out.max() == pytest.approx(1.0)

    def test_constant_feature_maps_to_lo(self):
        out = MinMaxNormalizer().fit_transform(np.full((5, 1), 3.0))
        assert np.allclose(out, 0.0)


class TestRobust:
    def test_outlier_insensitive_scale(self, rng):
        clean = rng.normal(0, 1, 1000)
        dirty = np.concatenate([clean, [1e6]])
        scale_clean = RobustNormalizer().fit(clean[:, None]).iqr
        scale_dirty = RobustNormalizer().fit(dirty[:, None]).iqr
        assert np.allclose(scale_clean, scale_dirty, rtol=0.1)

    def test_median_centered(self, rng):
        data = rng.normal(10, 2, size=(501, 1))
        out = RobustNormalizer().fit_transform(data)
        assert np.median(out) == pytest.approx(0.0, abs=1e-10)


class TestLog:
    def test_rejects_negative(self, rng):
        with pytest.raises(NormalizationError, match="non-negative"):
            LogNormalizer().fit(rng.normal(size=10))

    def test_compresses_heavy_tail(self, rng):
        data = rng.lognormal(0, 2, size=(1000, 1))
        out = LogNormalizer().fit_transform(data)
        # normalized log-space data is roughly symmetric
        from scipy import stats as sps
        assert abs(sps.skew(out.ravel())) < abs(sps.skew(data.ravel()))


class TestNormalizeDataset:
    def test_numeric_features_normalized_labels_untouched(self, small_dataset):
        out, fitted = normalize_dataset(small_dataset, "zscore")
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
