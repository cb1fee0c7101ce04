"""Augmentation: SMOTE properties."""

import numpy as np
import pytest

from repro.transforms.augment import AugmentError, smote_like


class TestSmote:
    def test_synthetic_on_segments_between_minority_points(self, rng):
        minority = rng.normal(10, 0.1, size=(20, 2))
        majority = rng.normal(-10, 0.1, size=(100, 2))
        features = np.concatenate([majority, minority])
        labels = np.asarray([0] * 100 + [1] * 20)
        synthetic, synth_labels = smote_like(
            features, labels, 1, rng, n_synthetic=50
        )
        assert synthetic.shape == (50, 2)
        assert (synth_labels == 1).all()
        # interpolation stays inside the minority cluster's hull region
        assert np.abs(synthetic - 10).max() < 1.0

    def test_requires_two_minority_samples(self, rng):
        features = rng.normal(size=(5, 2))
        labels = np.asarray([0, 0, 0, 0, 1])
        with pytest.raises(AugmentError, match="at least 2"):
            smote_like(features, labels, 1, rng, n_synthetic=3)

    def test_improves_imbalance(self, rng):
        from repro.quality.metrics import imbalance_ratio

        features = rng.normal(size=(110, 3))
        labels = np.asarray([0] * 100 + [1] * 10)
        synthetic, synth_labels = smote_like(features, labels, 1, rng, n_synthetic=90)
        combined = np.concatenate([labels, synth_labels])
        assert imbalance_ratio(combined) == 1.0
