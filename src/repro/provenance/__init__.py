"""Provenance capture: content-addressed records, lineage graph, JSONL store."""

from repro.provenance.record import (
    ProvenanceRecord,
    fingerprint_array,
    fingerprint_params,
)
from repro.provenance.graph import LineageError, LineageGraph
from repro.provenance.store import ProvenanceStore

__all__ = [
    "ProvenanceRecord",
    "fingerprint_array",
    "fingerprint_params",
    "LineageError",
    "LineageGraph",
    "ProvenanceStore",
]
