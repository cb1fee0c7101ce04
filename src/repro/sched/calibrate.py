"""The calibration store: measured stage seconds, filed by what ran where.

Every run that carries a store records one observation per executed
stage — restored and degraded stages carry no execution signal — filed
under the run's :class:`~repro.sched.decision.StoreKey` (pipeline, the
host's usable CPU count, the source's size bucket; see :func:`store_key`)
and the :class:`~repro.sched.decision.CandidateConfig` that actually
executed (backend, width, records per batch; batch 0 when no stage
batched).  Fixed runs feed the store exactly like auto runs, so every
configuration anyone has run here becomes a candidate for the chooser,
which reads back per-stage medians (:meth:`CalibrationStore.measured`).

Persistence follows the determinism discipline of
:mod:`repro.gates.quarantine`: one JSONL file (``calibration.jsonl``)
of schema-versioned envelopes, each entry **content-addressed** by the
hash of its observation and carrying **no wall-clock timestamps**, so
identical observation histories produce byte-identical stores.
Re-observing identical numbers is idempotent.  With ``directory=None``
the store is in-memory only; opening a store never creates its
directory — the first recorded observation does.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Union

from repro.core.helper_pool import _usable_cpus
from repro.core.payload import payload_nbytes
from repro.durability.atomic import append_jsonl_durable, read_jsonl
from repro.obs.sinks import envelope
from repro.sched.decision import CandidateConfig, StoreKey

__all__ = [
    "CALIBRATION_NAME",
    "CalibrationStore",
    "record_outcome",
    "source_nbytes",
    "store_key",
]

CALIBRATION_NAME = "calibration.jsonl"

#: the fields of one observation, in the order they are hashed
_FIELDS = (
    "pipeline", "cpus", "size_bucket", "backend", "workers", "batch_records",
    "stage", "seconds",
)

_MAX_WALK_DEPTH = 6


def _entry_hash(entry: Dict[str, object]) -> str:
    encoded = json.dumps(entry, sort_keys=True).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


class CalibrationStore:
    """Append-only stage-seconds observations, keyed by host and config."""

    def __init__(self, directory: Union[str, Path, None] = None):
        self.directory = Path(directory) if directory is not None else None
        #: key -> config -> stage -> measured seconds, in observation order
        self._seconds: Dict[StoreKey, Dict[CandidateConfig, Dict[str, List[float]]]] = {}
        self._seen: set = set()
        if self.path is not None:
            for row in read_jsonl(self.path):
                # lines of an older store shape carry no config: skip them
                if row.get("type") == "calibration" and all(f in row for f in _FIELDS):
                    self._ingest({f: row[f] for f in _FIELDS}, persist=False)

    @property
    def path(self) -> Optional[Path]:
        return self.directory / CALIBRATION_NAME if self.directory else None

    def _ingest(self, entry: Dict[str, Any], *, persist: bool) -> bool:
        digest = _entry_hash(entry)
        if digest in self._seen:
            return False
        self._seen.add(digest)
        key = StoreKey(str(entry["pipeline"]), int(entry["cpus"]), int(entry["size_bucket"]))
        config = CandidateConfig.from_dict(entry)
        by_stage = self._seconds.setdefault(key, {}).setdefault(config, {})
        by_stage.setdefault(str(entry["stage"]), []).append(float(entry["seconds"]))
        if persist and self.path is not None:
            append_jsonl_durable(
                self.path, [envelope("calibration", {**entry, "entry": digest})],
                site="calibration",
            )
        return True

    def observe(
        self, key: StoreKey, config: CandidateConfig, stage: str, seconds: float
    ) -> bool:
        """Record one stage's measured seconds; returns False if duplicate."""
        entry: Dict[str, Any] = {
            **dataclasses.asdict(key), **config.to_dict(),
            "stage": str(stage), "seconds": float(seconds),
        }
        return self._ingest(entry, persist=True)

    def measured(self, key: StoreKey) -> Mapping[CandidateConfig, Mapping[str, List[float]]]:
        """Every configuration observed under *key*: stage -> seconds."""
        return self._seconds.get(key, {})

    def __len__(self) -> int:
        return sum(
            len(seconds)
            for configs in self._seconds.values()
            for stages in configs.values()
            for seconds in stages.values()
        )


def record_outcome(
    store: CalibrationStore, key: StoreKey, config: CandidateConfig, results: Iterable[Any]
) -> int:
    """File one run's executed stage seconds under *key* and *config*.

    *results* is the run's :class:`~repro.core.runner.StageResult` list;
    restored and degraded stages are skipped.  Returns how many new
    observations were recorded.
    """
    return sum(
        store.observe(key, config, r.stage_name, r.seconds)
        for r in results
        if not r.restored and not r.degraded
    )


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
