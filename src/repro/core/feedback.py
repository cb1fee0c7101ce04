"""The iterative feedback loop of Figure 1.

"This pipeline is inherently iterative: data preparation outcomes inform
subsequent model training, and model performance provides feedback that
triggers further data refinement and augmentation" (Section 2.1).

The controller evaluates a proxy model on the current dataset, matches the
resulting metrics against declarative :class:`FeedbackRule` objects, and
applies the triggered refinement actions — producing a new dataset state
and a full iteration history.  Refiners are ordinary functions, so the
standard remedies (pseudo-label more data, synthesize minority samples,
re-clean noisy channels) plug in directly from :mod:`repro.transforms`.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.dataset import Dataset

__all__ = [
    "FeedbackRule",
    "FeedbackIteration",
    "FeedbackHistory",
    "FeedbackController",
    "holdout_accuracy_evaluator",
]

#: an evaluator maps a dataset to named metrics
Evaluator = Callable[[Dataset], Dict[str, float]]
#: a refiner maps a dataset to an improved dataset
Refiner = Callable[[Dataset], Dataset]


@dataclasses.dataclass(frozen=True)
class FeedbackRule:
    """When *condition* holds on the metrics, apply *refiner*."""

    name: str
    condition: Callable[[Dict[str, float]], bool]
    refiner: Refiner
    description: str = ""


@dataclasses.dataclass(frozen=True)
class FeedbackIteration:
    """One trip around the loop."""

    iteration: int
    metrics: Dict[str, float]
    triggered_rules: Tuple[str, ...]
    n_samples: int


@dataclasses.dataclass
class FeedbackHistory:
    iterations: List[FeedbackIteration]
    final_dataset: Dataset


class FeedbackController:
    """Run evaluate -> refine rounds until quiescence or *max_iterations*."""

    def __init__(
        self,
        evaluator: Evaluator,
        rules: Sequence[FeedbackRule],
        *,
        max_iterations: int = 5,
    ):
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        self.evaluator = evaluator
        self.rules = list(rules)
        self.max_iterations = max_iterations

    def run(self, dataset: Dataset) -> FeedbackHistory:
        iterations: List[FeedbackIteration] = []
        current = dataset
        for i in range(self.max_iterations):
            metrics = self.evaluator(current)
            triggered = [r for r in self.rules if r.condition(metrics)]
            iterations.append(
                FeedbackIteration(
                    iteration=i,
                    metrics=dict(metrics),
                    triggered_rules=tuple(r.name for r in triggered),
                    n_samples=current.n_samples,
                )
            )
            if not triggered:
                break
            for rule in triggered:
                current = rule.refiner(current)
        return FeedbackHistory(iterations=iterations, final_dataset=current)


def holdout_accuracy_evaluator(
    feature_columns: Sequence[str],
    label_column: str,
    *,
    seed: int = 0,
) -> Evaluator:
    """A standard proxy evaluator: nearest-centroid accuracy on a holdout of
    a quarter of the labeled rows.

    Also reports ``labeled_fraction`` and ``n_train`` so rules can trigger
    on label scarcity, the paper's most common feedback cause.
    """
    from repro.transforms.label import UNLABELED, NearestCentroidModel, labeled_fraction

    def evaluate(dataset: Dataset) -> Dict[str, float]:
        features = np.stack(
            [np.asarray(dataset[c], dtype=np.float64) for c in feature_columns],
            axis=1,
        )
        labels = np.asarray(dataset[label_column], dtype=np.int64)
        frac = labeled_fraction(labels)
        labeled_idx = np.flatnonzero(labels != UNLABELED)
        if labeled_idx.size < 4 or np.unique(labels[labeled_idx]).size < 2:
            return {"accuracy": 0.0, "labeled_fraction": frac, "n_train": 0.0}
        rng = np.random.default_rng(seed)
        order = rng.permutation(labeled_idx)
        n_holdout = max(1, int(order.size * 0.25))
        test_idx, train_idx = order[:n_holdout], order[n_holdout:]
        if np.unique(labels[train_idx]).size < 2:
            return {"accuracy": 0.0, "labeled_fraction": frac, "n_train": 0.0}
        model = NearestCentroidModel().fit(features[train_idx], labels[train_idx])
        predictions = model.predict(features[test_idx])
        accuracy = float((predictions == labels[test_idx]).mean())
        return {
            "accuracy": accuracy,
            "labeled_fraction": frac,
            "n_train": float(train_idx.size),
        }

    return evaluate
