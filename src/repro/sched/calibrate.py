"""The calibration store: predicted vs actual, persisted, self-correcting.

After every scheduled run the runner compares the decision's predicted
per-stage seconds against the measured ``stage_seconds`` and records one
observation per stage here.  The store turns those observations into
per-(pipeline, stage) correction factors — the geometric mean of
``actual / predicted`` ratios, clamped to a sane range — which the
chooser multiplies into its next predictions.  Over runs, predictions
converge on the machine actually underneath the pipeline.

Persistence follows the determinism discipline of
:mod:`repro.gates.quarantine`: one JSONL file (``calibration.jsonl``)
of schema-versioned envelopes, each entry **content-addressed** by the
hash of its observation and carrying **no wall-clock timestamps or
backend identity**, so identical observation histories produce
byte-identical stores regardless of when or where they were written.
Re-observing identical numbers is idempotent.  With ``directory=None``
the store is in-memory only.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from repro.durability.atomic import append_jsonl_durable, read_jsonl
from repro.obs.sinks import envelope

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sched.decision import ScheduleDecision

__all__ = ["CALIBRATION_NAME", "CalibrationStore", "record_outcome"]

CALIBRATION_NAME = "calibration.jsonl"

#: correction factors are clamped here: a wildly off single observation
#: (a cold cache, a loaded box) must not swing predictions by 1000x
_FACTOR_FLOOR = 1e-2
_FACTOR_CEIL = 1e2

#: observations below this predicted/actual time carry no signal
_MIN_SECONDS = 1e-9


def _entry_hash(entry: Dict[str, object]) -> str:
    encoded = json.dumps(entry, sort_keys=True).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


class CalibrationStore:
    """Append-only observations, queryable as correction factors."""

    def __init__(self, directory: Union[str, Path, None] = None):
        self.directory = Path(directory) if directory is not None else None
        #: (pipeline, stage) -> ordered list of actual/predicted ratios
        self._ratios: Dict[Tuple[str, str], List[float]] = {}
        self._seen: set = set()
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._load()

    @property
    def path(self) -> Optional[Path]:
        return self.directory / CALIBRATION_NAME if self.directory else None

    def _load(self) -> None:
        for row in read_jsonl(self.path):
            if row.get("type") != "calibration":
                continue
            entry = {
                k: v
                for k, v in row.items()
                if k in ("pipeline", "stage", "predicted_seconds", "actual_seconds")
            }
            self._ingest(entry, persist=False)

    def _ingest(self, entry: Dict[str, object], *, persist: bool) -> bool:
        key = _entry_hash(entry)
        if key in self._seen:
            return False
        self._seen.add(key)
        predicted = float(entry["predicted_seconds"])  # type: ignore[arg-type]
        actual = float(entry["actual_seconds"])  # type: ignore[arg-type]
        if predicted > _MIN_SECONDS and actual > _MIN_SECONDS:
            pair = (str(entry["pipeline"]), str(entry["stage"]))
            self._ratios.setdefault(pair, []).append(actual / predicted)
        if persist and self.path is not None:
            row = dict(entry)
            row["entry"] = key
            append_jsonl_durable(
                self.path, [envelope("calibration", row)], site="calibration"
            )
        return True

    def observe(
        self, pipeline: str, stage: str, predicted_seconds: float, actual_seconds: float
    ) -> bool:
        """Record one predicted-vs-actual pair; returns False if duplicate."""
        entry: Dict[str, object] = {
            "pipeline": str(pipeline),
            "stage": str(stage),
            "predicted_seconds": float(predicted_seconds),
            "actual_seconds": float(actual_seconds),
        }
        return self._ingest(entry, persist=True)

    def factor(self, pipeline: str, stage: str) -> float:
        """Correction factor for one stage: clamped geometric mean ratio.

        The mean itself is :func:`repro.obs.analyze.geometric_mean` — the
        same robust-statistics codepath the cross-run diff and the CI
        bench gate price their comparisons through.
        """
        from repro.obs.analyze import geometric_mean

        ratios = self._ratios.get((pipeline, stage))
        if not ratios:
            return 1.0
        return min(max(geometric_mean(ratios), _FACTOR_FLOOR), _FACTOR_CEIL)

    def factors(self, pipeline: str) -> Dict[str, float]:
        """All known correction factors for one pipeline, by stage."""
        return {
            stage: self.factor(pipe, stage)
            for (pipe, stage) in sorted(self._ratios)
            if pipe == pipeline
        }

    def observations(self, pipeline: Optional[str] = None) -> int:
        """Observation count (optionally for one pipeline)."""
        return sum(
            len(rs)
            for (pipe, _), rs in self._ratios.items()
            if pipeline is None or pipe == pipeline
        )

    def __len__(self) -> int:
        return self.observations()


def record_outcome(
    decision: "ScheduleDecision",
    results,
    store: Optional[CalibrationStore],
) -> Dict[str, float]:
    """Feed one run's measured stage seconds back into the store.

    *results* is the run's :class:`~repro.core.runner.StageResult` list;
    restored and degraded stages carry no execution signal and are
    skipped.  Returns per-stage relative prediction error
    ``|actual - predicted| / predicted`` for the stages that observed.
    """
    predictions = decision.stage_predictions()
    errors: Dict[str, float] = {}
    for result in results:
        predicted = predictions.get(result.stage_name)
        if predicted is None or result.restored or result.degraded:
            continue
        actual = result.seconds
        if predicted > _MIN_SECONDS:
            errors[result.stage_name] = abs(actual - predicted) / predicted
        if store is not None:
            store.observe(decision.pipeline, result.stage_name, predicted, actual)
    return errors
