"""The quarantine store: durable home for records a gate split out.

Layout under ``directory``::

    quarantine.jsonl          one envelope per quarantined record
    records/<fingerprint>.pkl the record payload, keyed by content hash

The JSONL entry carries everything needed to re-drive the record — the
pipeline, stage, boundary, contract name + hash, policy, and the record
fingerprint (the same content-hash key :mod:`repro.faults.deadletter`
uses) — and deliberately **no** wall-clock timestamps or backend
identity, so two runs of the same data produce byte-identical
quarantine files regardless of scheduling.  Lines are written and read
with the one JSONL codec of :mod:`repro.durability.atomic` (torn
trailing lines skipped).

With ``directory=None`` the store is in-memory only (the runner's
default when gating is enabled without a quarantine dir).
"""

from __future__ import annotations

import pickle
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Union

from repro.durability.atomic import (
    append_jsonl_durable,
    atomic_write_bytes,
    jsonl_line,
    read_jsonl,
)
from repro.obs.sinks import envelope

__all__ = ["QUARANTINE_NAME", "QuarantineStore"]

QUARANTINE_NAME = "quarantine.jsonl"


class QuarantineStore:
    """Append-only store of quarantined records and their identities.

    The log holds each entry once, across runs as well as within one: an
    entry whose line the log already holds is not appended again.  A stage
    re-executed after a crash, a failed commit or a recovery — or a second
    run of the same data into the same directory — re-quarantines the same
    records, and the log reads as if they had been quarantined once.
    """

    def __init__(self, directory: Union[str, Path, None] = None):
        self.directory = Path(directory) if directory is not None else None
        self._entries: List[Dict[str, object]] = []
        #: the log's lines, read on the first add after opening (or a discard)
        self._logged: Optional[Set[bytes]] = None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)

    @property
    def path(self) -> Optional[Path]:
        return self.directory / QUARANTINE_NAME if self.directory else None

    @property
    def records_dir(self) -> Optional[Path]:
        return self.directory / "records" if self.directory else None

    def add(self, entry: Dict[str, object], record: Any) -> None:
        """Quarantine one record: append its entry (unless the log already
        holds it), persist its payload."""
        line = jsonl_line(envelope("quarantine", entry))
        if self._logged is None:
            on_disk = self.path is not None and self.path.exists()
            self._logged = set(self.path.read_bytes().splitlines(True)) if on_disk else set()
        if line in self._logged:
            return
        self._logged.add(line)
        self._entries.append(dict(entry))
        if self.directory is None:
            return
        append_jsonl_durable(
            self.path, [envelope("quarantine", entry)], site="quarantine"
        )
        self.records_dir.mkdir(parents=True, exist_ok=True)
        path = self.records_dir / f"{entry['record_fingerprint']}.pkl"
        if not path.exists():  # content-addressed: write once
            atomic_write_bytes(
                path, pickle.dumps(record), site="quarantine-record"
            )

    def discard(self, fingerprints) -> int:
        """Remove entries (and their payloads) by record fingerprint.

        Used by consume-mode re-drive after promotion.  The entry file
        is rewritten atomically *before* payloads are deleted, and a
        missing payload is not an error — so the operation is safe to
        re-run after a crash at any point.  Returns the number of
        entries removed.
        """
        fps = {str(f) for f in fingerprints}
        if not fps:
            return 0
        before = self.entries()
        kept = [e for e in before if str(e.get("record_fingerprint")) not in fps]
        removed = len(before) - len(kept)
        self._logged = None
        self._entries = [
            e
            for e in self._entries
            if str(e.get("record_fingerprint")) not in fps
        ]
        if self.directory is not None:
            payload = b"".join(jsonl_line(envelope("quarantine", e)) for e in kept)
            if payload or self.path.exists():
                atomic_write_bytes(self.path, payload, site="quarantine")
            if self.records_dir.is_dir():
                for fp in sorted(fps):
                    for path in sorted(self.records_dir.glob(f"{fp}*.pkl")):
                        try:
                            path.unlink()
                        except FileNotFoundError:
                            pass
        return removed

    def entries(self) -> List[Dict[str, object]]:
        """All quarantine entries, durable ones first if on disk."""
        if self.directory is not None and self.path.exists():
            return [
                {k: v for k, v in row.items() if k not in ("schema", "type")}
                for row in read_jsonl(self.path)
                if row.get("type") == "quarantine"
            ]
        return [dict(e) for e in self._entries]

    def load_record(self, fingerprint: str) -> Any:
        """Load one quarantined record payload by its content hash."""
        if self.directory is None:
            raise FileNotFoundError(
                "in-memory quarantine store has no persisted record payloads"
            )
        matches = sorted(self.records_dir.glob(f"{fingerprint}*.pkl"))
        if not matches:
            raise FileNotFoundError(
                f"no quarantined record matches fingerprint {fingerprint!r}"
            )
        if len(matches) > 1:
            names = ", ".join(p.stem[:16] for p in matches)
            raise ValueError(f"ambiguous fingerprint prefix ({names})")
        with open(matches[0], "rb") as fh:
            return pickle.load(fh)

    def render(self) -> str:
        """One aligned line per quarantined record (the CLI list body)."""
        entries = self.entries()
        if not entries:
            return "(quarantine is empty)"
        lines = [
            f"{'stage':<16} {'boundary':<8} {'contract':<20} "
            f"{'record':<12} {'kind':<14} issues"
        ]
        for e in entries:
            issues = e.get("issues") or []
            first = issues[0] if issues else {}
            summary = (
                f"{first.get('check', '?')}({first.get('column', '?')}): "
                f"{first.get('message', '')}"
            )
            if len(issues) > 1:
                summary += f" (+{len(issues) - 1} more)"
            lines.append(
                f"{str(e.get('stage', '')):<16} {str(e.get('boundary', '')):<8} "
                f"{str(e.get('contract', '')):<20} "
                f"{str(e.get('record_fingerprint', ''))[:12]:<12} "
                f"{str(e.get('record_kind', '')):<14} {summary}"
            )
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.entries())
