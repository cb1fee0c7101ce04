"""Quality metrics: completeness, balance, noise, outliers."""

import numpy as np
import pytest

from repro.quality.metrics import (
    class_balance,
    completeness,
    imbalance_ratio,
    noise_estimate,
    outlier_rate,
    quality_report,
)


class TestCompleteness:
    def test_values(self):
        assert completeness(np.asarray([1.0, np.nan, 3.0, 4.0])) == 0.75
        assert completeness(np.asarray([])) == 1.0
        assert completeness(np.asarray([1, 2, 3])) == 1.0


class TestBalance:
    def test_class_balance_fractions(self):
        labels = np.asarray([0, 0, 0, 1])
        balance = class_balance(labels)
        assert balance[0] == 0.75 and balance[1] == 0.25

    def test_imbalance_ratio(self):
        assert imbalance_ratio(np.asarray([0, 0, 0, 1])) == 3.0
        assert imbalance_ratio(np.asarray([0, 1, 0, 1])) == 1.0
        assert imbalance_ratio(np.asarray([])) == 1.0


class TestNoise:
    def test_smooth_signal_low_noise(self):
        t = np.linspace(0, 10, 2000)
        assert noise_estimate(np.sin(t)) < 0.05

    def test_white_noise_near_one(self, rng):
        assert noise_estimate(rng.normal(size=5000)) == pytest.approx(1.0, abs=0.1)

    def test_noisy_signal_intermediate(self, rng):
        t = np.linspace(0, 10, 2000)
        signal = np.sin(t) + rng.normal(0, 0.2, t.size)
        estimate = noise_estimate(signal)
        assert 0.1 < estimate < 0.6

    def test_recovers_noise_fraction(self, rng):
        t = np.linspace(0, 50, 10000)
        clean = 3 * np.sin(t)
        sigma = 0.3
        noisy = clean + rng.normal(0, sigma, t.size)
        estimate = noise_estimate(noisy)
        expected = sigma / noisy.std()
        assert estimate == pytest.approx(expected, rel=0.15)

    def test_degenerate_inputs(self):
        assert noise_estimate(np.ones(100)) == 0.0
        assert noise_estimate(np.asarray([1.0])) == 0.0


class TestOutlierRate:
    def test_clean_data_near_zero(self, rng):
        assert outlier_rate(rng.normal(size=2000)) < 0.01

    def test_contaminated_data(self, rng):
        values = np.concatenate([rng.normal(size=900), np.full(100, 50.0)])
        assert outlier_rate(values) == pytest.approx(0.1, abs=0.02)


class TestQualityReport:
    def test_aggregates(self, small_dataset):
        report = quality_report(small_dataset)
        assert report.n_samples == 50
        assert report.overall_completeness == 1.0
        assert set(report.label_balance) == {0, 1, 2}
        assert report.imbalance >= 1.0
        assert "completeness" in report.summary()

    def test_missing_values_reflected(self, rng):
        from repro.core.dataset import Dataset

        values = rng.normal(size=100)
        values[:25] = np.nan
        ds = Dataset.from_arrays({"x": values})
        report = quality_report(ds)
        assert report.completeness_by_column["x"] == 0.75
