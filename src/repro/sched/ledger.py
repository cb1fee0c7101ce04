"""The ledger: one append-only row per finished run, read by every reader.

A run given a store directory appends one :class:`LedgerRow` to
``<store-dir>/ledger.jsonl`` when it finishes: its
:class:`~repro.sched.decision.StoreKey` (pipeline, usable CPU count,
source size bucket; see :func:`store_key`), the
:class:`~repro.sched.decision.CandidateConfig` that executed, and the
seconds and items of every *executed* stage (restored and degraded
stages carry no execution signal), plus its status, output fingerprint,
schedule-decision hash, certificate verdict and peak RSS.  The chooser,
``plan explain``, ``runs list/show`` and ``telemetry diff`` all read
these rows.  A row's id is the sha256 of its body and rows carry **no
timestamps**, so identical run histories give byte-identical ledgers;
readers skip an id already seen.  Reading never creates the directory.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.core.helper_pool import _usable_cpus
from repro.core.payload import payload_nbytes
from repro.durability.atomic import append_jsonl_durable, read_jsonl
from repro.obs.sinks import envelope
from repro.sched.decision import CandidateConfig, StoreKey

__all__ = [
    "LEDGER_NAME",
    "Ledger",
    "LedgerRow",
    "source_nbytes",
    "store_key",
]

LEDGER_NAME = "ledger.jsonl"

_MAX_WALK_DEPTH = 6


@dataclasses.dataclass(frozen=True)
class LedgerRow:
    """One finished run: where it ran, what it measured, what it made."""

    key: StoreKey
    config: CandidateConfig
    #: "ok", or "degraded" when a stage was skipped or shed records
    status: str
    #: (stage, seconds, items) of every executed stage, in plan order
    stages: Tuple[Tuple[str, float, int], ...]
    output_fingerprint: str = ""
    #: content hash of the run's schedule decision ("" for fixed runs)
    schedule_hash: str = ""
    #: the readiness certificate's status ("" for ungated runs)
    certificate: str = ""
    #: the filing process's lifetime ``ru_maxrss`` when the run finished: a
    #: process that ran several runs carries the largest peak so far
    peak_rss_bytes: int = 0

    def body(self) -> Dict[str, Any]:
        """What the row's id hashes: every field, no timestamps."""
        return {
            **dataclasses.asdict(self.key),
            **self.config.to_dict(),
            "status": self.status,
            "stages": [
                {"stage": name, "seconds": seconds, "items": items}
                for name, seconds, items in self.stages
            ],
            "output_fingerprint": self.output_fingerprint,
            "schedule_hash": self.schedule_hash,
            "certificate": self.certificate,
            "peak_rss_bytes": self.peak_rss_bytes,
        }

    @property
    def run_id(self) -> str:
        encoded = json.dumps(self.body(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(encoded).hexdigest()

    def stage_seconds(self) -> Dict[str, float]:
        return {name: seconds for name, seconds, _ in self.stages}

    def to_dict(self) -> Dict[str, Any]:
        return {"id": self.run_id, **self.body()}

    @classmethod
    def from_dict(cls, row: Mapping[str, Any]) -> "LedgerRow":
        return cls(
            key=StoreKey(str(row["pipeline"]), int(row["cpus"]), int(row["size_bucket"])),
            config=CandidateConfig.from_dict(row),
            status=str(row["status"]),
            stages=tuple(
                (str(s["stage"]), float(s["seconds"]), int(s["items"])) for s in row["stages"]
            ),
            output_fingerprint=str(row["output_fingerprint"]),
            schedule_hash=str(row["schedule_hash"]),
            certificate=str(row["certificate"]),
            peak_rss_bytes=int(row["peak_rss_bytes"]),
        )


class Ledger:
    """The append-only ``ledger.jsonl`` under one store directory."""

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)

    @property
    def path(self) -> Path:
        return self.directory / LEDGER_NAME

    def append(self, row: LedgerRow) -> str:
        """File one finished run; returns its id."""
        append_jsonl_durable(self.path, [envelope("run", row.to_dict())], site="ledger")
        return row.run_id

    def rows(self, pipeline: Optional[str] = None) -> List[LedgerRow]:
        """Every run filed here, oldest first, each id once."""
        out: List[LedgerRow] = []
        seen = set()
        for line in read_jsonl(self.path):
            if line.get("type") != "run" or line.get("id") in seen:
                continue
            seen.add(line.get("id"))
            row = LedgerRow.from_dict(line)
            if pipeline is None or row.key.pipeline == pipeline:
                out.append(row)
        return out

    def get(self, prefix: str) -> LedgerRow:
        """One row by id prefix; raises KeyError when absent or ambiguous."""
        matches = [row for row in self.rows() if row.run_id.startswith(prefix)]
        if not matches:
            raise KeyError(f"no run in {self.path} matches {prefix!r}")
        if len(matches) > 1:
            ids = ", ".join(row.run_id[:16] for row in matches)
            raise KeyError(f"ambiguous run id prefix {prefix!r} ({ids})")
        return matches[0]


def store_key(pipeline: str, payload: Any) -> StoreKey:
    """The key a run of *pipeline* starting from *payload* files under here."""
    return StoreKey(pipeline, len(_usable_cpus()), source_nbytes(payload).bit_length())


def source_nbytes(payload: Any) -> int:
    """Byte size of a run's input payload.

    Path-bearing manifests (the archetype source manifests: dicts and
    lists of file-path strings) are sized by summing the referenced
    files on disk; anything else falls back to the in-memory content
    estimate of :func:`~repro.core.payload.payload_nbytes`.
    """
    on_disk = _walk_paths(payload, 0)
    if on_disk > 0:
        return on_disk
    return int(payload_nbytes(payload))


def _walk_paths(payload: Any, depth: int) -> int:
    if depth > _MAX_WALK_DEPTH or payload is None:
        return 0
    if isinstance(payload, (str, Path)):
        try:
            path = Path(payload)
            if path.is_file():
                return path.stat().st_size
        except (OSError, ValueError):
            return 0
        return 0
    if isinstance(payload, Mapping):
        return sum(_walk_paths(v, depth + 1) for v in payload.values())
    if isinstance(payload, (list, tuple, set, frozenset)):
        return sum(_walk_paths(item, depth + 1) for item in payload)
    return 0
