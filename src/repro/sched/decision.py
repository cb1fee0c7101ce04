"""The schedule decision record: what was measured, what was chosen.

A :class:`ScheduleDecision` is the audit artifact of one planning pass —
the :class:`StoreKey` it was made under, every measured configuration
with its summed per-stage median seconds, and the chosen one.  It is
embedded in run events, span attributes, and the shard manifest
(alongside the readiness certificate), and follows the same determinism
discipline as the gates subsystem: **no timestamps**, so two planning
passes over the same ledger state serialize byte-identically.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.report import render_table

__all__ = [
    "SCHEDULE_SCHEMA",
    "StoreKey",
    "CandidateConfig",
    "CandidateEvaluation",
    "ScheduleDecision",
]

#: bump when the decision record's serialized shape changes
SCHEDULE_SCHEMA = 2


@dataclasses.dataclass(frozen=True)
class StoreKey:
    """Where a run's measurements are filed and looked up.

    ``cpus`` is the host's usable CPU count and ``size_bucket`` the bit
    length of the source's byte count, so sources within a factor of two
    of each other share measurements.
    """

    pipeline: str
    cpus: int
    size_bucket: int

    def label(self) -> str:
        return (
            f"pipeline {self.pipeline!r} on {self.cpus} CPU(s), "
            f"source size bucket {self.size_bucket}"
        )


@dataclasses.dataclass(frozen=True)
class CandidateConfig:
    """One executable configuration: backend, its width, and the records
    per batch fed to ``batch=True`` stages (0 = per-record)."""

    backend: str
    workers: int
    batch_records: int

    def label(self) -> str:
        return f"{self.backend}x{self.workers}/batch{self.batch_records}"

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, row: Mapping[str, Any]) -> "CandidateConfig":
        return cls(
            backend=str(row["backend"]),
            workers=int(row["workers"]),
            batch_records=int(row["batch_records"]),
        )


@dataclasses.dataclass(frozen=True)
class CandidateEvaluation:
    """One measured configuration and what it is predicted to cost."""

    config: CandidateConfig
    #: sum of the per-stage medians
    predicted_seconds: float
    #: stage name -> median measured seconds, in plan order
    stage_seconds: Tuple[Tuple[str, float], ...]
    #: observations behind the least-measured stage
    runs: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "config": self.config.to_dict(),
            "predicted_seconds": self.predicted_seconds,
            "stage_seconds": dict(self.stage_seconds),
            "runs": self.runs,
        }

    @classmethod
    def from_dict(cls, row: Mapping[str, Any]) -> "CandidateEvaluation":
        return cls(
            config=CandidateConfig.from_dict(row["config"]),
            predicted_seconds=float(row["predicted_seconds"]),
            stage_seconds=tuple(
                (str(name), float(sec)) for name, sec in row["stage_seconds"].items()
            ),
            runs=int(row["runs"]),
        )


@dataclasses.dataclass(frozen=True)
class ScheduleDecision:
    """The outcome of one planning pass, ready to embed anywhere.

    ``mode`` is ``"auto"`` when the chosen config is the measured fastest
    and ``"fallback"`` when nothing under the key was measured and the
    ``fixed`` default was chosen (``reason`` says why).  ``candidates``
    are ranked fastest first.
    """

    key: StoreKey
    mode: str
    chosen: CandidateConfig
    predicted_seconds: float
    #: stage name -> median measured seconds of the chosen config
    predicted_stage_seconds: Tuple[Tuple[str, float], ...]
    candidates: Tuple[CandidateEvaluation, ...]
    reason: str = ""

    @property
    def pipeline(self) -> str:
        return self.key.pipeline

    def stage_predictions(self) -> Dict[str, float]:
        return dict(self.predicted_stage_seconds)

    def prediction_error(
        self, results: Sequence[Any]
    ) -> Tuple[float, float, float, Dict[str, float]]:
        """Predicted against measured seconds over the stages of *results*
        that executed (neither restored nor degraded).

        Returns ``(predicted, actual, error, stage errors)``; an error is
        ``|actual - predicted| / predicted``, 0.0 for the run when nothing
        executed was predicted, and absent for a stage predicted to take
        no time.
        """
        predictions = self.stage_predictions()
        executed = [
            r for r in results
            if not r.restored and not r.degraded and r.stage_name in predictions
        ]
        predicted = sum(predictions[r.stage_name] for r in executed)
        actual = sum(r.seconds for r in executed)
        error = abs(actual - predicted) / predicted if predicted > 0 else 0.0
        stage_errors = {
            r.stage_name: abs(r.seconds - predictions[r.stage_name]) / predictions[r.stage_name]
            for r in executed if predictions[r.stage_name] > 0
        }
        return predicted, actual, error, stage_errors

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe, deterministic serialization (manifest embedding)."""
        return {
            "schema": SCHEDULE_SCHEMA,
            "pipeline": self.key.pipeline,
            "cpus": self.key.cpus,
            "size_bucket": self.key.size_bucket,
            "mode": self.mode,
            "chosen": self.chosen.to_dict(),
            "predicted_seconds": self.predicted_seconds,
            "predicted_stage_seconds": dict(self.predicted_stage_seconds),
            "candidates": [c.to_dict() for c in self.candidates],
            "reason": self.reason,
        }

    @classmethod
    def from_dict(cls, row: Mapping[str, Any]) -> "ScheduleDecision":
        return cls(
            key=StoreKey(str(row["pipeline"]), int(row["cpus"]), int(row["size_bucket"])),
            mode=str(row["mode"]),
            chosen=CandidateConfig.from_dict(row["chosen"]),
            predicted_seconds=float(row["predicted_seconds"]),
            predicted_stage_seconds=tuple(
                (str(name), float(sec))
                for name, sec in row["predicted_stage_seconds"].items()
            ),
            candidates=tuple(CandidateEvaluation.from_dict(c) for c in row["candidates"]),
            reason=str(row.get("reason", "")),
        )

    def content_hash(self) -> str:
        """Deterministic identity of the whole decision."""
        encoded = json.dumps(self.to_dict(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(encoded).hexdigest()

    def summary(self) -> str:
        measured = (
            f" predicted {self.predicted_seconds:.4f}s, fastest of "
            f"{len(self.candidates)} measured config(s)"
            if self.mode == "auto"
            else ""
        )
        return (
            f"{self.mode}: {self.chosen.label()}{measured}"
            + (f" — {self.reason}" if self.reason else "")
        )

    def render_table(self, top: Optional[int] = None) -> str:
        """The measured table `plan explain` prints, fastest first."""
        rows: List[Tuple[Any, ...]] = [
            (
                "->" if c.config == self.chosen else "",
                c.config.backend,
                c.config.workers,
                c.config.batch_records,
                c.runs,
                f"{c.predicted_seconds:.4f}",
            )
            for c in self.candidates[:top]
        ]
        return render_table(
            ["", "backend", "workers", "batch", "runs", "sum of stage medians (s)"],
            rows,
            align_right=[False, False, True, True, True, True],
        )
