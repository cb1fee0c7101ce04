"""Append-only audit log with hash chaining.

Level 5 of Table 2 requires transforms to be "fully automated *and
audited*"; secure workflows (Section 2.2) must be "secure and auditable."
The audit log is an append-only sequence of events where each entry's hash
covers the previous entry's hash — any retroactive edit, deletion, or
reordering breaks verification, which is the property compliance reviews
actually need.

A file-backed log appends durably (:mod:`repro.durability.atomic`, site
``audit``) and loads tolerantly: a crash mid-append costs only the entry
being written — the surviving chain still verifies — while a damaged
*middle* line is a sequence gap and raises :class:`AuditError`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Union

from repro.durability.atomic import append_jsonl_durable, read_jsonl

__all__ = ["AuditEvent", "AuditLog", "AuditError"]

_GENESIS = "0" * 64


class AuditError(RuntimeError):
    """Tamper detected or malformed log."""


@dataclasses.dataclass(frozen=True)
class AuditEvent:
    """One audited action."""

    sequence: int
    actor: str
    action: str
    subject: str
    detail: Mapping[str, object]
    timestamp: float
    prev_hash: str
    entry_hash: str

    @staticmethod
    def _compute_hash(
        sequence: int,
        actor: str,
        action: str,
        subject: str,
        detail: Mapping[str, object],
        timestamp: float,
        prev_hash: str,
    ) -> str:
        payload = json.dumps(
            {
                "sequence": sequence,
                "actor": actor,
                "action": action,
                "subject": subject,
                "detail": dict(detail),
                "timestamp": timestamp,
                "prev_hash": prev_hash,
            },
            sort_keys=True,
        ).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()

    def verify_against(self, prev_hash: str) -> bool:
        expected = self._compute_hash(
            self.sequence,
            self.actor,
            self.action,
            self.subject,
            self.detail,
            self.timestamp,
            prev_hash,
        )
        return self.prev_hash == prev_hash and expected == self.entry_hash

    def to_dict(self) -> Dict[str, object]:
        return {
            "sequence": self.sequence,
            "actor": self.actor,
            "action": self.action,
            "subject": self.subject,
            "detail": dict(self.detail),
            "timestamp": self.timestamp,
            "prev_hash": self.prev_hash,
            "entry_hash": self.entry_hash,
        }

    @classmethod
    def from_dict(cls, row: Mapping[str, object]) -> "AuditEvent":
        return cls(
            sequence=int(row["sequence"]),  # type: ignore[arg-type]
            actor=str(row["actor"]),
            action=str(row["action"]),
            subject=str(row["subject"]),
            detail=dict(row.get("detail", {})),  # type: ignore[arg-type]
            timestamp=float(row["timestamp"]),  # type: ignore[arg-type]
            prev_hash=str(row["prev_hash"]),
            entry_hash=str(row["entry_hash"]),
        )


class AuditLog:
    """In-memory audit log, optionally mirrored to a JSONL file."""

    def __init__(self, path: Optional[Union[str, Path]] = None):
        self._events: List[AuditEvent] = []
        self.path = Path(path) if path is not None else None
        if self.path is not None:
            self._events.extend(map(AuditEvent.from_dict, read_jsonl(self.path)))
            self.verify()

    # -- writing ----------------------------------------------------------------
    def record(
        self,
        actor: str,
        action: str,
        subject: str,
        **detail: object,
    ) -> AuditEvent:
        """Append an event, chaining its hash to the previous entry."""
        prev_hash = self._events[-1].entry_hash if self._events else _GENESIS
        sequence = len(self._events)
        timestamp = time.time()
        entry_hash = AuditEvent._compute_hash(
            sequence, actor, action, subject, detail, timestamp, prev_hash
        )
        event = AuditEvent(
            sequence=sequence,
            actor=actor,
            action=action,
            subject=subject,
            detail=detail,
            timestamp=timestamp,
            prev_hash=prev_hash,
            entry_hash=entry_hash,
        )
        if self.path is not None:
            # file first: a failed append must not leave memory a link ahead
            append_jsonl_durable(self.path, [event.to_dict()], site="audit")
        self._events.append(event)
        return event

    # -- reading / verification -----------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[AuditEvent]:
        return iter(self._events)

    def events_for(self, subject: str) -> List[AuditEvent]:
        return [e for e in self._events if e.subject == subject]

    def verify(self) -> bool:
        """Walk the chain; raise :class:`AuditError` on any break."""
        prev = _GENESIS
        for i, event in enumerate(self._events):
            if event.sequence != i:
                raise AuditError(f"sequence gap at entry {i}")
            if not event.verify_against(prev):
                raise AuditError(f"hash chain broken at entry {i}")
            prev = event.entry_hash
        return True
