"""Provenance records: content-addressed snapshots of dataset states.

Section 5 ("Provenance and Reproducibility"): "establishing traceable
links between raw data, preprocessing steps, and trained models is
essential for validation."  The unit of provenance here is a
:class:`ProvenanceRecord` — an immutable assertion that *activity* (a
pipeline stage, with its parameters) consumed the entity with input
fingerprint(s) and produced the entity with the output fingerprint.
A run's root entity is the content hash of its input; every later entity
is a derivation id (:meth:`repro.core.plan.StagePlan.derive`), a hash of
the stage's plan entry and its input's id, so the chain names each
payload by how it was made.  Ids match across runs only for the same
input (for an archetype, the same source manifest, paths included) and
the same plan; the source files behind a manifest are not hashed.  Content hashes (SHA-256 over schema + column
bytes, :meth:`repro.core.dataset.Dataset.fingerprint`) stay where bytes
are stored: checkpoints, quarantine records, shard manifests.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
import uuid
from typing import Dict, Mapping, Optional, Sequence, Union

import numpy as np

__all__ = [
    "ProvenanceRecord",
    "contiguous_bytes",
    "array_header",
    "fingerprint_array",
    "fingerprint_params",
]


def contiguous_bytes(array: np.ndarray) -> Union[bytes, np.ndarray]:
    """The bytes of a C-contiguous array as a buffer ``hashlib`` can read.

    A zero-copy ``uint8`` view where NumPy allows one (``tobytes()`` would
    allocate a transient copy the size of the column on every hash);
    dtypes holding object pointers cannot be viewed and keep the copy.
    """
    if array.dtype.hasobject:
        return array.tobytes()
    return array.reshape(-1).view(np.uint8)


def array_header(array: np.ndarray) -> bytes:
    """The dtype + shape token :func:`fingerprint_array` hashes ahead of a
    C-contiguous array's bytes."""
    return array.dtype.str.encode() + repr(array.shape).encode()


def fingerprint_array(array: np.ndarray) -> str:
    """Content hash of one array (dtype + shape + bytes)."""
    array = np.ascontiguousarray(array)
    digest = hashlib.sha256(array_header(array))
    digest.update(contiguous_bytes(array))
    return digest.hexdigest()


def fingerprint_params(params: Mapping[str, object]) -> str:
    """Stable hash of an activity's parameters (sorted JSON)."""
    encoded = json.dumps(params, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


@dataclasses.dataclass(frozen=True)
class ProvenanceRecord:
    """One transformation event in a dataset's lineage.

    Attributes
    ----------
    record_id:
        Unique id of this event.
    activity:
        What ran (stage name, tool).
    params_fingerprint:
        Hash of the activity's parameters, so "same stage, different
        threshold" is distinguishable.
    inputs:
        Fingerprints of consumed entities (datasets, files, stats).
    output:
        Fingerprint of the produced entity.
    agent:
        Who/what executed the activity (pipeline name, user).
    timestamp:
        Wall-clock completion time.
    annotations:
        Free-form metadata (evidence recorded, sample counts, ...).
    """

    record_id: str
    activity: str
    params_fingerprint: str
    inputs: tuple
    output: str
    agent: str = ""
    timestamp: float = 0.0
    annotations: Mapping[str, object] = dataclasses.field(default_factory=dict)

    @classmethod
    def create(
        cls,
        activity: str,
        inputs: Sequence[str],
        output: str,
        *,
        params: Optional[Mapping[str, object]] = None,
        agent: str = "",
        annotations: Optional[Mapping[str, object]] = None,
    ) -> "ProvenanceRecord":
        return cls(
            record_id=uuid.uuid4().hex,
            activity=activity,
            params_fingerprint=fingerprint_params(params or {}),
            inputs=tuple(inputs),
            output=output,
            agent=agent,
            timestamp=time.time(),
            annotations=dict(annotations or {}),
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "record_id": self.record_id,
            "activity": self.activity,
            "params_fingerprint": self.params_fingerprint,
            "inputs": list(self.inputs),
            "output": self.output,
            "agent": self.agent,
            "timestamp": self.timestamp,
            "annotations": dict(self.annotations),
        }

    @classmethod
    def from_dict(cls, row: Mapping[str, object]) -> "ProvenanceRecord":
        return cls(
            record_id=str(row["record_id"]),
            activity=str(row["activity"]),
            params_fingerprint=str(row["params_fingerprint"]),
            inputs=tuple(row.get("inputs", ())),  # type: ignore[arg-type]
            output=str(row["output"]),
            agent=str(row.get("agent", "")),
            timestamp=float(row.get("timestamp", 0.0)),  # type: ignore[arg-type]
            annotations=dict(row.get("annotations", {})),  # type: ignore[arg-type]
        )
