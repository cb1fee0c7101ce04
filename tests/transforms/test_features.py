"""Feature selection and derived time-series features."""

import numpy as np
import pytest

from repro.transforms.features import (
    FeatureError,
    mutual_information,
    select_k_best,
)


class TestMutualInformation:
    def test_informative_feature_beats_noise(self, rng):
        labels = rng.integers(0, 2, 1000)
        informative = labels * 2.0 + rng.normal(0, 0.1, 1000)
        noise = rng.normal(size=1000)
        assert mutual_information(informative, labels) > mutual_information(noise, labels) + 0.1

    def test_constant_feature_zero(self, rng):
        labels = rng.integers(0, 2, 100)
        assert mutual_information(np.ones(100), labels) == 0.0

    def test_mi_nonnegative(self, rng):
        for _ in range(5):
            mi = mutual_information(rng.normal(size=200), rng.integers(0, 3, 200))
            assert mi >= -1e-12

    def test_length_mismatch(self, rng):
        with pytest.raises(FeatureError):
            mutual_information(rng.normal(size=5), np.zeros(4))


class TestSelectKBest:
    def test_selects_informative_columns(self, rng):
        labels = rng.integers(0, 2, 500)
        features = np.column_stack([
            rng.normal(size=500),
            labels + rng.normal(0, 0.2, 500),
            rng.normal(size=500),
            labels * -3 + rng.normal(0, 0.2, 500),
        ])
        report = select_k_best(features, labels, k=2)
        assert set(report.kept) == {1, 3}
        assert report.method == "mutual_information"

    def test_k_zero_and_k_all(self, rng):
        features = rng.normal(size=(50, 3))
        labels = rng.integers(0, 2, 50)
        assert select_k_best(features, labels, k=0).kept == ()
        assert len(select_k_best(features, labels, k=3).kept) == 3
        assert len(select_k_best(features, labels, k=99).kept) == 3

    def test_negative_k(self, rng):
        with pytest.raises(FeatureError):
            select_k_best(rng.normal(size=(5, 2)), np.zeros(5), k=-1)
