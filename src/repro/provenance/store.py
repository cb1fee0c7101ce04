"""Durable provenance store: append-only JSONL with replay and verification.

The facility-side half of provenance capture: records stream to disk as
they happen (one JSON object per line, append-only, crash-tolerant),
and a stored lineage can be rebuilt into a
:class:`~repro.provenance.graph.LineageGraph` in any later session.

Crash discipline: appends go through the fsync-disciplined primitive in
:mod:`repro.durability.atomic`, which *physically heals* any torn
trailing line a previous crash left behind before writing — so one bad
tail never accumulates, and readers see only whole records.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, List, Union

from repro.durability.atomic import append_jsonl_durable, heal_torn_tail, read_jsonl
from repro.provenance.graph import LineageGraph
from repro.provenance.record import ProvenanceRecord

__all__ = ["ProvenanceStore"]


class ProvenanceStore:
    """Append-only JSONL-backed store of provenance records."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def append(self, record: ProvenanceRecord) -> None:
        """Durably append one record (healing any torn tail first)."""
        append_jsonl_durable(self.path, [record.to_dict()], site="provenance")

    def heal(self) -> int:
        """Physically truncate a torn trailing line; returns bytes removed."""
        return heal_torn_tail(self.path)

    def __iter__(self) -> Iterator[ProvenanceRecord]:
        # a torn final write after a crash is skipped: stay consistent
        return map(ProvenanceRecord.from_dict, read_jsonl(self.path))

    def load(self) -> List[ProvenanceRecord]:
        self.heal()
        return list(self)

    def build_graph(self) -> LineageGraph:
        """Rebuild the lineage DAG from everything stored."""
        graph = LineageGraph()
        graph.extend(self.load())
        return graph

    def verify_chain(self, output_fingerprint: str) -> bool:
        """Check a stored artifact traces to a root acquisition."""
        graph = self.build_graph()
        return graph.verify_connected(output_fingerprint)

    def __len__(self) -> int:
        return sum(1 for _ in self)
