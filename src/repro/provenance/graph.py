"""Lineage graph: queries over accumulated provenance records.

Records form a bipartite-ish DAG: entity fingerprints are nodes, and each
record adds edges ``input -> output`` labelled with the activity.  The
graph is a map from every entity to the set of entities it was derived
from, and answers the questions Section 5 says current tooling can't:

* *derivation chain* — how was this AI-ready artifact produced from raw?
* *impact* — if this raw file is found corrupt, which downstream
  artifacts are tainted?
* *reproducibility diff* — do two artifacts share identical lineage up to
  activity parameters?
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.provenance.record import ProvenanceRecord

__all__ = ["LineageGraph", "LineageError"]


class LineageError(ValueError):
    """Unknown entities or cyclic lineage (which indicates fingerprint reuse)."""


class LineageGraph:
    """A DAG over entity fingerprints: each entity's set of direct parents."""

    def __init__(self) -> None:
        self._parents: Dict[str, Set[str]] = {}
        self._records: Dict[str, ProvenanceRecord] = {}

    # -- construction -----------------------------------------------------------
    def add(self, record: ProvenanceRecord) -> None:
        """Insert a record; rejects one whose output is among its inputs'
        ancestry (the only way its edges can close a cycle)."""
        if record.output in self._closure(record.inputs):
            raise LineageError(
                f"record {record.activity!r} would create a lineage cycle"
            )
        self._records[record.record_id] = record
        self._parents.setdefault(record.output, set()).update(record.inputs)
        for src in record.inputs:
            self._parents.setdefault(src, set())

    def extend(self, records: Sequence[ProvenanceRecord]) -> None:
        for record in records:
            self.add(record)

    def _closure(self, entities: Iterable[str]) -> Set[str]:
        """*entities* and everything they were (transitively) derived from."""
        seen = set(entities)
        todo = list(seen)
        while todo:
            new = self._parents.get(todo.pop(), set()) - seen
            seen |= new
            todo += new
        return seen

    # -- queries ----------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    @property
    def entities(self) -> List[str]:
        return sorted(self._parents)

    def records(self) -> List[ProvenanceRecord]:
        return sorted(self._records.values(), key=lambda r: r.timestamp)

    def record_for(self, output: str) -> Optional[ProvenanceRecord]:
        """The (latest) record that produced *output*, if any."""
        candidates = [r for r in self._records.values() if r.output == output]
        if not candidates:
            return None
        return max(candidates, key=lambda r: r.timestamp)

    def _require(self, entity: str) -> None:
        if entity not in self._parents:
            raise LineageError(f"unknown entity {entity[:12]}...")

    def ancestors(self, entity: str) -> Set[str]:
        """Every entity this one was (transitively) derived from."""
        self._require(entity)
        return self._closure(self._parents[entity])

    def roots(self) -> List[str]:
        """Entities with no recorded producer — the raw acquisitions."""
        return sorted(node for node, parents in self._parents.items() if not parents)

    def verify_connected(self, entity: str) -> bool:
        """True when *entity* traces back to at least one root acquisition."""
        self._require(entity)
        return bool(({entity} | self.ancestors(entity)) & set(self.roots()))
