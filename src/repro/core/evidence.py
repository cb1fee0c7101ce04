"""Readiness evidence: the facts that readiness assessment is based on.

A central idea of the reproduction is that readiness levels are not
self-declared — they are *assessed* from evidence that pipeline stages record
as they run.  Each :class:`EvidenceKind` is a fact tied to one
:class:`~repro.core.levels.DataProcessingStage` and the
:class:`~repro.core.levels.DataReadinessLevel` it certifies (the cell of
Table 2 it corresponds to).  :class:`ReadinessEvidence` is an append-only
ledger of such facts with optional quantitative payloads, which
:mod:`repro.core.assessment` turns into per-stage and overall levels.
"""

from __future__ import annotations

import dataclasses
import enum
import time
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.core.levels import DataProcessingStage, DataReadinessLevel

__all__ = ["EvidenceKind", "EvidenceItem", "ReadinessEvidence", "REQUIREMENTS"]


class EvidenceKind(enum.Enum):
    """Facts a pipeline can record, one per Table 2 cell requirement.

    The value tuple is ``(stage, level certified, uniquifier)`` — the
    trailing integer keeps members with the same (stage, level) cell from
    collapsing into enum aliases.
    """

    # -- Ingest column ------------------------------------------------------
    ACQUIRED = (DataProcessingStage.INGEST, DataReadinessLevel.RAW, 0)
    VALIDATED_INGEST = (DataProcessingStage.INGEST, DataReadinessLevel.CLEANED, 1)
    METADATA_ENRICHED = (DataProcessingStage.INGEST, DataReadinessLevel.LABELED, 2)
    HIGH_THROUGHPUT_INGEST = (
        DataProcessingStage.INGEST,
        DataReadinessLevel.FEATURE_ENGINEERED,
        3,
    )
    INGEST_AUTOMATED = (DataProcessingStage.INGEST, DataReadinessLevel.AI_READY, 4)

    # -- Preprocess column ----------------------------------------------------
    INITIAL_ALIGNMENT = (
        DataProcessingStage.PREPROCESS,
        DataReadinessLevel.CLEANED,
        5,
    )
    GRIDS_STANDARDIZED = (
        DataProcessingStage.PREPROCESS,
        DataReadinessLevel.LABELED,
        6,
    )
    ALIGNMENT_STANDARDIZED = (
        DataProcessingStage.PREPROCESS,
        DataReadinessLevel.FEATURE_ENGINEERED,
        7,
    )
    ALIGNMENT_AUTOMATED = (
        DataProcessingStage.PREPROCESS,
        DataReadinessLevel.AI_READY,
        8,
    )

    # -- Transform column -------------------------------------------------------
    INITIAL_NORMALIZATION = (
        DataProcessingStage.TRANSFORM,
        DataReadinessLevel.LABELED,
        9,
    )
    BASIC_LABELS = (DataProcessingStage.TRANSFORM, DataReadinessLevel.LABELED, 10)
    NORMALIZATION_FINALIZED = (
        DataProcessingStage.TRANSFORM,
        DataReadinessLevel.FEATURE_ENGINEERED,
        11,
    )
    COMPREHENSIVE_LABELS = (
        DataProcessingStage.TRANSFORM,
        DataReadinessLevel.FEATURE_ENGINEERED,
        12,
    )
    TRANSFORM_AUDITED = (
        DataProcessingStage.TRANSFORM,
        DataReadinessLevel.AI_READY,
        13,
    )

    # -- Structure column --------------------------------------------------------
    FEATURES_EXTRACTED = (
        DataProcessingStage.STRUCTURE,
        DataReadinessLevel.FEATURE_ENGINEERED,
        14,
    )
    FEATURES_VALIDATED = (
        DataProcessingStage.STRUCTURE,
        DataReadinessLevel.AI_READY,
        15,
    )

    # -- Shard column ----------------------------------------------------------------
    SPLIT_PARTITIONED = (DataProcessingStage.SHARD, DataReadinessLevel.AI_READY, 16)
    SHARDED_BINARY = (DataProcessingStage.SHARD, DataReadinessLevel.AI_READY, 17)

    @property
    def stage(self) -> DataProcessingStage:
        return self.value[0]

    @property
    def certifies(self) -> DataReadinessLevel:
        return self.value[1]


#: Requirements per (stage, level): every listed kind must be present for the
#: stage to be assessed *at* that level.  Derived mechanically from the enum.
REQUIREMENTS: Dict[
    Tuple[DataProcessingStage, DataReadinessLevel], List[EvidenceKind]
] = {}
for _kind in EvidenceKind:
    REQUIREMENTS.setdefault((_kind.stage, _kind.certifies), []).append(_kind)


@dataclasses.dataclass(frozen=True)
class EvidenceItem:
    """One recorded fact.

    Attributes
    ----------
    kind:
        Which fact.
    detail:
        Free-text note ("normalized 12 variables with z-score").
    metrics:
        Quantitative payload; the assessor applies thresholds to some keys
        (e.g. ``labeled_fraction`` for :attr:`EvidenceKind.COMPREHENSIVE_LABELS`).
    recorded_by:
        Stage or tool that recorded the fact.
    timestamp:
        Wall-clock time of recording (for audit ordering only).
    """

    kind: EvidenceKind
    detail: str = ""
    metrics: Mapping[str, float] = dataclasses.field(default_factory=dict)
    recorded_by: str = ""
    timestamp: float = dataclasses.field(default_factory=time.time)


class ReadinessEvidence:
    """Append-only ledger of :class:`EvidenceItem` facts for one dataset."""

    def __init__(self, items: Optional[List[EvidenceItem]] = None):
        self._items: List[EvidenceItem] = list(items or [])

    def record(
        self,
        kind: EvidenceKind,
        detail: str = "",
        *,
        recorded_by: str = "",
        **metrics: float,
    ) -> EvidenceItem:
        """Append a fact and return it."""
        item = EvidenceItem(
            kind=kind, detail=detail, metrics=dict(metrics), recorded_by=recorded_by
        )
        self._items.append(item)
        return item

    def merge(self, other: "ReadinessEvidence") -> "ReadinessEvidence":
        """Return a new ledger combining both (self first)."""
        return ReadinessEvidence(self._items + list(other))

    # -- queries --------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[EvidenceItem]:
        return iter(self._items)

    def has(self, kind: EvidenceKind) -> bool:
        return any(item.kind is kind for item in self._items)

    def latest(self, kind: EvidenceKind) -> Optional[EvidenceItem]:
        """Most recently recorded item of *kind*, or ``None``."""
        for item in reversed(self._items):
            if item.kind is kind:
                return item
        return None

    def metric(self, kind: EvidenceKind, key: str) -> Optional[float]:
        """Latest value of ``metrics[key]`` recorded for *kind*."""
        item = self.latest(kind)
        if item is None:
            return None
        value = item.metrics.get(key)
        return None if value is None else float(value)

    def kinds(self) -> List[EvidenceKind]:
        """Distinct kinds present, in first-recorded order."""
        seen: Dict[EvidenceKind, None] = {}
        for item in self._items:
            seen.setdefault(item.kind)
        return list(seen)

    def copy(self) -> "ReadinessEvidence":
        return ReadinessEvidence(list(self._items))
