"""Record views: how gates see "records" inside heterogeneous payloads.

Pipelines move payloads of very different shapes — a
:class:`~repro.core.dataset.Dataset` of rows (one per structure, say), a
list of gridded model sources, shot records with per-channel signals.
Quarantine works at *record* granularity (a row, a source, a shot), so
gate evaluation needs a uniform way to count records, resolve a named
field per record, split survivors from violators, and extract a
picklable per-record payload for the quarantine store.

All resolution is a pure function of record content: views never look at
scheduling, ordering beyond the payload's own, or wall-clock state —
the precondition for bitwise-identical gate decisions across backends.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.dataset import Dataset

__all__ = [
    "MISSING",
    "RecordView",
    "DatasetView",
    "SequenceView",
    "view_for",
    "resolve_field",
    "resolve_payload_field",
]

#: sentinel for "this record has no such field"
MISSING = object()


def _unwrap(value: Any) -> Any:
    """Unwrap signal-like carriers: an object holding a ``values`` array."""
    if value is MISSING or isinstance(value, np.ndarray):
        return value
    inner = getattr(value, "values", None)
    if isinstance(inner, np.ndarray):
        return inner
    return value


def resolve_field(item: Any, column: str) -> Any:
    """Resolve *column* on one record, or :data:`MISSING`.

    Resolution order: mapping key, direct attribute, then a scan of the
    record's mapping-valued attributes (``GriddedSource.variables``,
    ``ShotRecord.signals``, ...).  Signal-like hits are unwrapped to
    their ``values`` array.
    """
    if isinstance(item, Mapping):
        return _unwrap(item[column]) if column in item else MISSING
    direct = getattr(item, column, MISSING)
    if direct is not MISSING and not callable(direct):
        return _unwrap(direct)
    if dataclasses.is_dataclass(item) and not isinstance(item, type):
        attrs = [getattr(item, f.name) for f in dataclasses.fields(item)]
    else:
        attrs = list(vars(item).values()) if hasattr(item, "__dict__") else []
    for value in attrs:
        if isinstance(value, Mapping) and column in value:
            return _unwrap(value[column])
    return MISSING


def resolve_payload_field(payload: Any, column: str) -> Any:
    """Resolve *column* on a whole payload, descending one nesting level.

    Handles composite payloads like ``{"bases": ..., "clinical":
    Dataset}`` — the column is searched directly, then inside nested
    Datasets and mappings (in deterministic key order).
    """
    if isinstance(payload, Dataset):
        return payload[column] if column in payload else MISSING
    if isinstance(payload, Mapping):
        if column in payload:
            return _unwrap(payload[column])
        for key in sorted(payload, key=str):
            value = payload[key]
            if isinstance(value, Dataset) and column in value:
                return value[column]
            if isinstance(value, Mapping) and column in value:
                return _unwrap(value[column])
        return MISSING
    return resolve_field(payload, column)


class RecordView:
    """Uniform record-level access to one payload (abstract)."""

    #: number of records
    n: int

    def field(self, index: int, column: str) -> Any:
        raise NotImplementedError

    def record_payload(self, index: int) -> Any:
        """A picklable standalone representation of one record."""
        raise NotImplementedError

    def keep(self, indices: Sequence[int]) -> Any:
        """A payload of the same type containing only *indices* (in order)."""
        raise NotImplementedError


class DatasetView(RecordView):
    """Rows of a :class:`Dataset` are the records."""

    def __init__(self, dataset: Dataset):
        self.dataset = dataset
        self.n = dataset.n_samples

    def field(self, index: int, column: str) -> Any:
        if column not in self.dataset:
            return MISSING
        return self.dataset[column][index]

    def record_payload(self, index: int) -> Dict[str, Any]:
        return {
            name: self.dataset[name][index] for name in self.dataset.schema.names
        }

    def keep(self, indices: Sequence[int]) -> Dataset:
        return self.dataset.take(np.asarray(list(indices), dtype=np.int64))


class SequenceView(RecordView):
    """Items of a list/tuple are the records (sources, shots)."""

    def __init__(self, items: Sequence[Any]):
        self.items = items
        self.n = len(items)

    def field(self, index: int, column: str) -> Any:
        return resolve_field(self.items[index], column)

    def record_payload(self, index: int) -> Any:
        return self.items[index]

    def keep(self, indices: Sequence[int]) -> Sequence[Any]:
        kept = [self.items[i] for i in indices]
        return tuple(kept) if isinstance(self.items, tuple) else kept


def view_for(payload: Any) -> Optional[RecordView]:
    """The record view for a payload, or None when it has no record axis.

    Payloads without a view (dicts, scalars) can still be gated with
    payload-scope checks; they just cannot be split for quarantine.
    """
    if isinstance(payload, Dataset):
        return DatasetView(payload)
    if isinstance(payload, (list, tuple)) and len(payload) > 0:
        return SequenceView(payload)
    return None
