"""Lineage graph: queries over accumulated provenance records.

Records form a bipartite-ish DAG: entity fingerprints are nodes, and each
record adds edges ``input -> output`` labelled with the activity.  Built on
:mod:`networkx` for traversal, the graph answers the questions Section 5
says current tooling can't:

* *derivation chain* — how was this AI-ready artifact produced from raw?
* *impact* — if this raw file is found corrupt, which downstream
  artifacts are tainted?
* *reproducibility diff* — do two artifacts share identical lineage up to
  activity parameters?
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

import networkx as nx

from repro.provenance.record import ProvenanceRecord

__all__ = ["LineageGraph", "LineageError"]


class LineageError(ValueError):
    """Unknown entities or cyclic lineage (which indicates fingerprint reuse)."""


class LineageGraph:
    """A DAG over entity fingerprints with activity-labelled edges."""

    def __init__(self) -> None:
        self._graph = nx.MultiDiGraph()
        self._records: Dict[str, ProvenanceRecord] = {}

    # -- construction -----------------------------------------------------------
    def add(self, record: ProvenanceRecord) -> None:
        """Insert a record; rejects edges that would create a cycle."""
        self._records[record.record_id] = record
        self._graph.add_node(record.output)
        for src in record.inputs:
            self._graph.add_node(src)
            self._graph.add_edge(src, record.output, record_id=record.record_id,
                                 activity=record.activity)
        if not nx.is_directed_acyclic_graph(self._graph):
            # roll back the poisonous record
            for src in record.inputs:
                self._graph.remove_edge(src, record.output)
            del self._records[record.record_id]
            raise LineageError(
                f"record {record.activity!r} would create a lineage cycle"
            )

    def extend(self, records: Sequence[ProvenanceRecord]) -> None:
        for record in records:
            self.add(record)

    # -- queries ----------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    @property
    def entities(self) -> List[str]:
        return sorted(self._graph.nodes)

    def records(self) -> List[ProvenanceRecord]:
        return sorted(self._records.values(), key=lambda r: r.timestamp)

    def record_for(self, output: str) -> Optional[ProvenanceRecord]:
        """The (latest) record that produced *output*, if any."""
        candidates = [r for r in self._records.values() if r.output == output]
        if not candidates:
            return None
        return max(candidates, key=lambda r: r.timestamp)

    def _require(self, entity: str) -> None:
        if entity not in self._graph:
            raise LineageError(f"unknown entity {entity[:12]}...")

    def ancestors(self, entity: str) -> Set[str]:
        """Every entity this one was (transitively) derived from."""
        self._require(entity)
        return set(nx.ancestors(self._graph, entity))

    def roots(self) -> List[str]:
        """Entities with no recorded producer — the raw acquisitions."""
        return sorted(
            node for node in self._graph.nodes if self._graph.in_degree(node) == 0
        )

    def verify_connected(self, entity: str) -> bool:
        """True when *entity* traces back to at least one root acquisition."""
        self._require(entity)
        if self._graph.in_degree(entity) == 0:
            return True  # it is itself a root
        return bool(self.ancestors(entity) & set(self.roots()))
