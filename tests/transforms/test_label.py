"""Pseudo-labeling and label propagation."""

import numpy as np
import pytest

from repro.transforms.label import (
    UNLABELED,
    NearestCentroidModel,
    labeled_fraction,
    propagate_labels,
    pseudo_label,
)


@pytest.fixture
def two_clusters(rng):
    features = np.concatenate([
        rng.normal(-3, 0.4, size=(60, 2)),
        rng.normal(3, 0.4, size=(60, 2)),
    ])
    truth = np.asarray([0] * 60 + [1] * 60)
    return features, truth


class TestModel:
    def test_fit_predict_separable(self, two_clusters):
        features, truth = two_clusters
        model = NearestCentroidModel().fit(features, truth)
        assert (model.predict(features) == truth).mean() > 0.98

    def test_confidence_higher_near_centroid(self, two_clusters):
        features, truth = two_clusters
        model = NearestCentroidModel().fit(features, truth)
        near = np.asarray([[-3.0, -3.0]])
        boundary = np.asarray([[0.0, 0.0]])
        assert model.predict_proba(near).max() > model.predict_proba(boundary).max()

    def test_proba_rows_sum_to_one(self, two_clusters):
        features, truth = two_clusters
        model = NearestCentroidModel().fit(features, truth)
        proba = model.predict_proba(features)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_ignores_unlabeled_in_fit(self, two_clusters):
        features, truth = two_clusters
        partial = truth.copy()
        partial[10:] = np.where(partial[10:] == 0, UNLABELED, partial[10:])
        model = NearestCentroidModel().fit(features, partial)
        assert model.classes_ is not None

    def test_zero_labels_rejected(self, rng):
        with pytest.raises(ValueError, match="zero labeled"):
            NearestCentroidModel().fit(
                rng.normal(size=(5, 2)), np.full(5, UNLABELED)
            )

    def test_unfitted_predict(self, rng):
        with pytest.raises(ValueError, match="before fit"):
            NearestCentroidModel().predict(rng.normal(size=(2, 2)))


class TestPseudoLabel:
    def test_expands_coverage_on_separable_data(self, two_clusters):
        features, truth = two_clusters
        labels = np.full(truth.size, UNLABELED)
        labels[:5] = 0
        labels[60:65] = 1
        result = pseudo_label(features, labels, confidence_threshold=0.7)
        assert result.final_fraction > 0.95
        # pseudo-labels agree with ground truth on this easy problem
        resolved = result.labels != UNLABELED
        assert (result.labels[resolved] == truth[resolved]).mean() > 0.95

    def test_ground_truth_never_overwritten(self, two_clusters):
        features, truth = two_clusters
        labels = np.full(truth.size, UNLABELED)
        labels[0] = 1  # deliberately wrong seed label
        labels[1] = 0
        labels[60] = 1
        result = pseudo_label(features, labels, confidence_threshold=0.5)
        assert result.labels[0] == 1  # preserved verbatim

    def test_rounds_history(self, two_clusters):
        features, truth = two_clusters
        labels = np.full(truth.size, UNLABELED)
        labels[:3] = 0
        labels[60:63] = 1
        result = pseudo_label(features, labels, confidence_threshold=0.7)
        assert result.rounds
        fractions = [r.labeled_fraction for r in result.rounds]
        assert all(b >= a for a, b in zip(fractions, fractions[1:]))

    def test_high_threshold_stalls(self, two_clusters):
        features, truth = two_clusters
        labels = np.full(truth.size, UNLABELED)
        labels[:3] = 0
        labels[60:63] = 1
        result = pseudo_label(features, labels, confidence_threshold=1.0)
        assert result.final_fraction <= 0.5

    def test_fully_labeled_is_noop(self, two_clusters):
        features, truth = two_clusters
        result = pseudo_label(features, truth)
        assert result.rounds == []
        assert np.array_equal(result.labels, truth)

    def test_invalid_threshold(self, two_clusters):
        features, truth = two_clusters
        with pytest.raises(ValueError):
            pseudo_label(features, truth, confidence_threshold=0.0)

    def test_length_mismatch(self, rng):
        with pytest.raises(ValueError, match="mismatch"):
            pseudo_label(rng.normal(size=(5, 2)), np.zeros(4, dtype=np.int64))


class TestPropagation:
    def test_propagates_in_connected_clusters(self, two_clusters):
        features, truth = two_clusters
        labels = np.full(truth.size, UNLABELED)
        labels[0] = 0
        labels[60] = 1
        propagated = propagate_labels(features, labels, k_neighbors=8)
        assert labeled_fraction(propagated) > 0.95
        resolved = propagated != UNLABELED
        assert (propagated[resolved] == truth[resolved]).mean() > 0.9

    def test_isolated_component_stays_unlabeled(self, rng):
        cluster = rng.normal(0, 0.1, size=(10, 2))
        island = rng.normal(100, 0.1, size=(5, 2))
        features = np.concatenate([cluster, island])
        labels = np.full(15, UNLABELED)
        labels[0] = 1
        propagated = propagate_labels(features, labels, k_neighbors=3)
        # kNN with k=3 connects island internally but not to the cluster's
        # label... the island members' neighbours are each other (unlabeled)
        assert (propagated[:10] == 1).all()

    def test_empty_input(self):
        out = propagate_labels(np.empty((0, 2)), np.empty(0, dtype=np.int64))
        assert out.size == 0


class TestLabeledFraction:
    def test_values(self):
        assert labeled_fraction(np.asarray([0, 1, UNLABELED, 2])) == 0.75
        assert labeled_fraction(np.asarray([])) == 0.0
        assert labeled_fraction(np.full(4, UNLABELED)) == 0.0
