"""Cleaning: imputation, outliers, dedup, unit harmonization."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.dataset import Dataset, FieldSpec, Schema
from repro.transforms.cleaning import (
    UnitConverter,
    clean_dataset,
    clip_outliers,
    harmonize_units,
    impute,
    missing_fraction,
    missing_mask,
    outlier_mask,
)


class TestMissing:
    def test_mask_nan(self):
        values = np.asarray([1.0, np.nan, 3.0])
        assert missing_mask(values).tolist() == [False, True, False]

    def test_fraction(self):
        values = np.asarray([np.nan, 1.0, np.nan, 2.0])
        assert missing_fraction(values) == 0.5
        assert missing_fraction(np.asarray([])) == 0.0

    def test_impute_mean(self):
        filled, n = impute(np.asarray([1.0, np.nan, 3.0]))
        assert n == 1 and filled[1] == 2.0

    def test_impute_2d_per_feature(self):
        values = np.asarray([[1.0, 10.0], [np.nan, 20.0], [3.0, np.nan]])
        filled, n = impute(values)
        assert n == 2
        assert filled[1, 0] == 2.0 and filled[2, 1] == 15.0

    def test_fully_missing_rejected(self):
        with pytest.raises(ValueError, match="fully-missing"):
            impute(np.asarray([np.nan, np.nan]))

    def test_impute_no_missing_is_identity(self, rng):
        values = rng.normal(size=20)
        filled, n = impute(values)
        assert n == 0 and np.array_equal(filled, values)


class TestOutliers:
    def test_detects_planted_outlier(self, rng):
        values = np.concatenate([rng.normal(0, 1, 500), [40.0]])
        mask = outlier_mask(values)
        assert mask[-1]
        assert mask[:-1].sum() <= 5  # few false positives

    def test_clip_bounds_values(self, rng):
        values = np.concatenate([rng.normal(0, 1, 500), [100.0, -100.0]])
        clipped, n = clip_outliers(values)
        assert n >= 2
        assert np.abs(clipped).max() < 20

    def test_robust_to_outlier_contamination(self, rng):
        """MAD threshold isn't inflated by the outliers themselves."""
        values = np.concatenate([rng.normal(0, 1, 200), np.full(20, 1000.0)])
        assert outlier_mask(values)[-20:].all()

    def test_constant_column_no_outliers(self):
        assert not outlier_mask(np.ones(50)).any()


class TestUnits:
    def test_temperature_conversions(self):
        converter = UnitConverter()
        assert converter.convert(np.asarray([0.0]), "degC", "K")[0] == pytest.approx(273.15)
        assert converter.convert(np.asarray([32.0]), "degF", "K")[0] == pytest.approx(273.15, abs=0.01)

    @given(st.floats(-1e3, 1e3, allow_nan=False))
    def test_inverse_conversions_exact(self, value):
        converter = UnitConverter()
        for src, dst in [("degC", "K"), ("hPa", "Pa"), ("km", "m"), ("MA", "A")]:
            there = converter.convert(np.asarray([value]), src, dst)
            back = converter.convert(there, dst, src)
            assert back[0] == pytest.approx(value, abs=1e-6)

    def test_unknown_conversion_raises(self):
        with pytest.raises(ValueError, match="no conversion"):
            UnitConverter().convert(np.asarray([1.0]), "K", "miles")

    def test_identity_conversion(self):
        out = UnitConverter().convert(np.asarray([5.0]), "K", "K")
        assert out[0] == 5.0

    def test_harmonize_updates_schema(self):
        ds = Dataset(
            {"t": np.asarray([0.0, 100.0])},
            Schema([FieldSpec("t", np.dtype(np.float64), units="degC")]),
        )
        out, converted = harmonize_units(ds, {"t": "K"})
        assert converted == {"t": ("degC", "K")}
        assert out.schema["t"].units == "K"
        assert out["t"][0] == pytest.approx(273.15)

    def test_harmonize_requires_declared_units(self):
        ds = Dataset.from_arrays({"t": np.asarray([1.0])})
        with pytest.raises(ValueError, match="no declared units"):
            harmonize_units(ds, {"t": "K"})


class TestCleanDataset:
    def test_full_pass(self, rng):
        values = rng.normal(5, 1, 100)
        values[::10] = np.nan
        values[3] = 500.0
        ds = Dataset(
            {"x": values, "t": rng.normal(20, 5, 100)},
            Schema([
                FieldSpec("x", np.dtype(np.float64)),
                FieldSpec("t", np.dtype(np.float64), units="degC"),
            ]),
        )
        cleaned, report = clean_dataset(ds, target_units={"t": "K"})
        assert report.total_imputed == 10
        assert report.total_clipped >= 1
        assert report.converted_units == {"t": ("degC", "K")}
        assert report.residual_missing_fraction == 0.0
        assert not np.isnan(cleaned["x"]).any()
        assert "residual_missing" in report.summary()
