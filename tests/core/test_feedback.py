"""Feedback loop: rule triggering, convergence, and the label-scarcity cycle."""

import numpy as np
import pytest

from repro.core.dataset import Dataset, FieldRole
from repro.core.feedback import (
    FeedbackController,
    FeedbackRule,
    holdout_accuracy_evaluator,
)
from repro.transforms.label import UNLABELED, propagate_labels


@pytest.fixture
def separable_dataset(rng):
    """Two well-separated classes, only 20% labeled."""
    n_per = 40
    x1 = np.concatenate([rng.normal(-3, 0.5, n_per), rng.normal(3, 0.5, n_per)])
    x2 = np.concatenate([rng.normal(-3, 0.5, n_per), rng.normal(3, 0.5, n_per)])
    labels = np.full(2 * n_per, UNLABELED, dtype=np.int64)
    labels[:8] = 0
    labels[n_per : n_per + 8] = 1
    dataset = Dataset.from_arrays({"x1": x1, "x2": x2, "label": labels})
    label = dataset.schema["label"].with_(role=FieldRole.LABEL)
    return dataset.with_column(label, labels, replace=True)


def label_refiner(dataset: Dataset) -> Dataset:
    features = np.stack([dataset["x1"], dataset["x2"]], axis=1)
    new_labels = propagate_labels(features, dataset["label"], k_neighbors=5)
    return dataset.with_column(dataset.schema["label"], new_labels, replace=True)


class TestController:
    def test_converges_when_no_rule_triggers(self, separable_dataset):
        controller = FeedbackController(
            evaluator=holdout_accuracy_evaluator(["x1", "x2"], "label"),
            rules=[],  # nothing to trigger
            max_iterations=3,
        )
        history = controller.run(separable_dataset)
        assert len(history.iterations) == 1
        assert not history.iterations[-1].triggered_rules

    def test_label_scarcity_cycle_improves_coverage(self, separable_dataset):
        rule = FeedbackRule(
            name="label-more",
            condition=lambda m: m["labeled_fraction"] < 0.95,
            refiner=label_refiner,
            description="propagate labels when coverage is low",
        )
        controller = FeedbackController(
            evaluator=holdout_accuracy_evaluator(["x1", "x2"], "label"),
            rules=[rule],
            max_iterations=5,
        )
        history = controller.run(separable_dataset)
        fractions = [it.metrics["labeled_fraction"] for it in history.iterations]
        assert fractions[0] < 0.3
        assert fractions[-1] > 0.9
        assert not history.iterations[-1].triggered_rules
        # final dataset actually carries the propagated labels
        final_frac = float(
            (history.final_dataset["label"] != UNLABELED).mean()
        )
        assert final_frac > 0.9

    def test_triggered_rules_recorded(self, separable_dataset):
        rule = FeedbackRule(
            name="always",
            condition=lambda m: True,
            refiner=lambda ds: ds,
        )
        controller = FeedbackController(
            evaluator=holdout_accuracy_evaluator(["x1", "x2"], "label"),
            rules=[rule],
            max_iterations=3,
        )
        history = controller.run(separable_dataset)
        assert len(history.iterations) == 3  # never converges within budget
        assert all(it.triggered_rules == ("always",) for it in history.iterations)

    def test_max_iterations_validated(self, separable_dataset):
        with pytest.raises(ValueError):
            FeedbackController(lambda ds: {}, [], max_iterations=0)

    def test_multiple_rules_apply_in_order(self, separable_dataset):
        order = []
        rules = [
            FeedbackRule("first", lambda m: m["labeled_fraction"] < 1.0,
                         lambda ds: (order.append("first"), ds)[1]),
            FeedbackRule("second", lambda m: m["labeled_fraction"] < 1.0,
                         lambda ds: (order.append("second"), ds)[1]),
        ]
        controller = FeedbackController(
            evaluator=holdout_accuracy_evaluator(["x1", "x2"], "label"),
            rules=rules,
            max_iterations=1,
        )
        controller.run(separable_dataset)
        assert order == ["first", "second"]


class TestEvaluator:
    def test_reports_accuracy_and_coverage(self, separable_dataset):
        evaluate = holdout_accuracy_evaluator(["x1", "x2"], "label", seed=3)
        metrics = evaluate(separable_dataset)
        assert 0.0 <= metrics["accuracy"] <= 1.0
        assert metrics["labeled_fraction"] == pytest.approx(16 / 80)

    def test_separable_data_scores_high_once_labeled(self, separable_dataset):
        labeled = label_refiner(separable_dataset)
        metrics = holdout_accuracy_evaluator(["x1", "x2"], "label")(labeled)
        assert metrics["accuracy"] > 0.9

    def test_degenerate_labels_score_zero(self, separable_dataset):
        only_one_class = separable_dataset.with_column(
            separable_dataset.schema["label"],
            np.where(separable_dataset["label"] == 1, UNLABELED,
                     separable_dataset["label"]),
            replace=True,
        )
        metrics = holdout_accuracy_evaluator(["x1", "x2"], "label")(only_one_class)
        assert metrics["accuracy"] == 0.0
