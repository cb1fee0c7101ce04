"""Dead letters: the durable record of work the run could not complete.

When a stage exhausts its retry budget (or fails permanently), the
runner appends a :class:`DeadLetterRecord` — stage identity, attempt
count, error, fault kind, and the input payload fingerprint — before
either aborting or continuing degraded.  The fingerprint is the crucial
field: it names the exact payload that failed, so a later campaign can
re-drive precisely the dead-lettered work against the provenance chain
instead of re-running everything.

:meth:`DeadLetterLog.save` / :meth:`DeadLetterLog.load` persist the log
as JSONL (the :mod:`repro.obs.sinks` envelope format), so dead letters
survive the process that produced them — the other half of the re-drive
story alongside the gate quarantine store (:mod:`repro.gates`).
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Dict, Iterator, List, Union

from repro.durability.atomic import append_jsonl_durable, read_jsonl
from repro.faults.errors import FaultKind
from repro.obs.sinks import envelope

__all__ = ["DEAD_LETTER_NAME", "DeadLetterRecord", "DeadLetterLog"]

#: default file name for a persisted dead-letter log
DEAD_LETTER_NAME = "dead-letters.jsonl"


@dataclasses.dataclass(frozen=True)
class DeadLetterRecord:
    """One failed unit of work, with enough identity to re-drive it."""

    pipeline: str
    stage_name: str
    stage_index: int
    attempts: int
    error_type: str
    error: str
    fault_kind: FaultKind
    #: fingerprint of the payload the stage was given (the re-drive key)
    input_fingerprint: str
    #: what the runner did next: "failed" aborted the run (older logs may
    #: also hold "degraded": the stage was skipped and the run went on)
    action: str = "failed"
    timestamp: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "pipeline": self.pipeline,
            "stage_name": self.stage_name,
            "stage_index": self.stage_index,
            "attempts": self.attempts,
            "error_type": self.error_type,
            "error": self.error,
            "fault_kind": self.fault_kind.value,
            "input_fingerprint": self.input_fingerprint,
            "action": self.action,
            "timestamp": self.timestamp,
        }

    @classmethod
    def from_dict(cls, blob: Dict[str, object]) -> "DeadLetterRecord":
        """Rebuild a record from its :meth:`to_dict` form."""
        return cls(
            pipeline=str(blob["pipeline"]),
            stage_name=str(blob["stage_name"]),
            stage_index=int(blob["stage_index"]),
            attempts=int(blob["attempts"]),
            error_type=str(blob["error_type"]),
            error=str(blob["error"]),
            fault_kind=FaultKind(str(blob["fault_kind"])),
            input_fingerprint=str(blob["input_fingerprint"]),
            action=str(blob.get("action", "failed")),
            timestamp=float(blob.get("timestamp", 0.0)),
        )


class DeadLetterLog:
    """Ordered collection of a run's dead letters."""

    def __init__(self) -> None:
        self._records: List[DeadLetterRecord] = []

    def append(self, record: DeadLetterRecord) -> None:
        self._records.append(record)

    @property
    def records(self) -> List[DeadLetterRecord]:
        return list(self._records)

    def render(self) -> str:
        """One aligned line per dead letter (the CLI fault report body)."""
        if not self._records:
            return "(no dead letters)"
        lines = [
            f"{'stage':<20} {'attempts':>8} {'kind':<10} {'action':<9} "
            f"{'input':<12} error"
        ]
        for r in self._records:
            lines.append(
                f"{r.stage_name:<20} {r.attempts:>8} {r.fault_kind.value:<10} "
                f"{r.action:<9} {r.input_fingerprint[:12]:<12} "
                f"{r.error_type}: {r.error}"
            )
        return "\n".join(lines)

    def save(self, path: Union[str, Path]) -> Path:
        """Append the log to *path* as envelope JSONL; returns the path.

        Successive runs pointed at one ``--store-dir`` accumulate a
        campaign-wide ledger of undone work.  The append is the durable
        one of the ledger, audit and quarantine stores
        (:func:`~repro.durability.atomic.append_jsonl_durable`): a torn
        tail left by an earlier crash is cut off first, exactly as
        :meth:`load` would skip it, and the new lines are fsynced.
        """
        rows = [envelope("dead-letter", r.to_dict()) for r in self._records]
        return append_jsonl_durable(path, rows, site="dead-letter")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "DeadLetterLog":
        """Rebuild a log from a :meth:`save` file (torn lines tolerated)."""
        log = cls()
        for row in read_jsonl(path):
            if row.get("type") != "dead-letter":
                continue
            blob = {k: v for k, v in row.items() if k not in ("schema", "type")}
            log.append(DeadLetterRecord.from_dict(blob))
        return log

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[DeadLetterRecord]:
        return iter(self._records)
