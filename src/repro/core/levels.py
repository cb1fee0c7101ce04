"""Data Readiness Levels and Data Processing Stages.

This module encodes the two axes of the paper's conceptual maturity matrix
(Table 2):

* :class:`DataReadinessLevel` — how prepared a dataset is for large-scale AI
  workflows, from ``RAW`` (level 1) to ``AI_READY`` (level 5).
* :class:`DataProcessingStage` — the abstracted cross-domain workflow
  ``ingest -> preprocess -> transform -> structure -> shard`` (Section 3.5).

The matrix is a *staircase*: each readiness level unlocks one additional
processing stage, and cells below the staircase are not applicable (the grey
cells of Table 2). :func:`stage_applicable` encodes that rule, and
:data:`MATRIX_CELL_DESCRIPTIONS` carries the per-cell prose of Table 2 so the
table can be regenerated verbatim by :mod:`repro.core.matrix`.
"""

from __future__ import annotations

import enum
from typing import Dict, Tuple


class DataReadinessLevel(enum.IntEnum):
    """The five Data Readiness Levels (DRLs) of the paper's framework.

    Levels are ordered: a dataset at level *n* has satisfied the
    requirements of every level below *n*.  ``int`` semantics are
    intentional so levels compare and sort naturally.
    """

    RAW = 1
    CLEANED = 2
    LABELED = 3
    FEATURE_ENGINEERED = 4
    AI_READY = 5

    @property
    def label(self) -> str:
        """Human-readable label used in Table 2's row headers."""
        return _LEVEL_LABELS[self]

    @property
    def description(self) -> str:
        """One-line summary of what the level certifies."""
        return _LEVEL_DESCRIPTIONS[self]


class DataProcessingStage(enum.IntEnum):
    """The five canonical Data Processing Stages (Section 3.5).

    The integer value is the stage's position in the abstracted pipeline
    ``ingest -> preprocess -> transform -> structure -> shard``.
    """

    INGEST = 1
    PREPROCESS = 2
    TRANSFORM = 3
    STRUCTURE = 4
    SHARD = 5

    @property
    def label(self) -> str:
        """Column header used in Table 2."""
        return self.name.capitalize()

    @property
    def description(self) -> str:
        """What work belongs to this stage, per Section 3.5."""
        return _STAGE_DESCRIPTIONS[self]


_LEVEL_LABELS: Dict[DataReadinessLevel, str] = {
    DataReadinessLevel.RAW: "1 - Raw",
    DataReadinessLevel.CLEANED: "2 - Cleaned",
    DataReadinessLevel.LABELED: "3 - Labeled",
    DataReadinessLevel.FEATURE_ENGINEERED: "4 - Feature-engineered",
    DataReadinessLevel.AI_READY: "5 - Fully AI-ready",
}

_LEVEL_DESCRIPTIONS: Dict[DataReadinessLevel, str] = {
    DataReadinessLevel.RAW: (
        "Initial raw acquisition from simulation, experiment, or repository; "
        "no validation or transformation applied."
    ),
    DataReadinessLevel.CLEANED: (
        "Validated ingestion into standard formats with initial "
        "spatial/temporal alignment or regridding."
    ),
    DataReadinessLevel.LABELED: (
        "Metadata enriched, grids standardized, initial normalization or "
        "anonymization applied, and basic labels added."
    ),
    DataReadinessLevel.FEATURE_ENGINEERED: (
        "High-throughput ingestion, fully standardized alignment, finalized "
        "normalization/anonymization, comprehensive labeling, and "
        "domain-specific feature extraction completed."
    ),
    DataReadinessLevel.AI_READY: (
        "Fully automated, performance-optimized, audited pipelines; data "
        "partitioned into train/test/val and sharded into binary formats "
        "for scalable ingestion."
    ),
}

_STAGE_DESCRIPTIONS: Dict[DataProcessingStage, str] = {
    DataProcessingStage.INGEST: (
        "Acquire source data and validate it into standard self-describing "
        "formats; at higher levels, ingestion is automated and "
        "performance-optimized."
    ),
    DataProcessingStage.PREPROCESS: (
        "Spatial/temporal alignment, regridding, resampling, and cleaning "
        "shared across domains."
    ),
    DataProcessingStage.TRANSFORM: (
        "Domain-specific conversions: normalization, anonymization, "
        "physics-informed derivations, and labeling."
    ),
    DataProcessingStage.STRUCTURE: (
        "Organize data into standardized layouts: fixed tensor shapes, "
        "hierarchical time series, or graphs; feature extraction lives here."
    ),
    DataProcessingStage.SHARD: (
        "Split into train/test/val and export compressed binary shards "
        "sized for high-throughput parallel ingestion."
    ),
}

#: Table 2 cell text, keyed by (level, stage).  Only applicable cells are
#: present; the staircase rule (:func:`stage_applicable`) defines the rest.
MATRIX_CELL_DESCRIPTIONS: Dict[
    Tuple[DataReadinessLevel, DataProcessingStage], str
] = {
    (DataReadinessLevel.RAW, DataProcessingStage.INGEST): "Initial raw acquisition",
    (DataReadinessLevel.CLEANED, DataProcessingStage.INGEST): (
        "Validated ingestion into standard formats"
    ),
    (DataReadinessLevel.CLEANED, DataProcessingStage.PREPROCESS): (
        "Initial spatial/temporal alignment or regridding"
    ),
    (DataReadinessLevel.LABELED, DataProcessingStage.INGEST): (
        "Enhanced metadata enrichment"
    ),
    (DataReadinessLevel.LABELED, DataProcessingStage.PREPROCESS): (
        "Refined alignment; grids standardized"
    ),
    (DataReadinessLevel.LABELED, DataProcessingStage.TRANSFORM): (
        "Initial normalization or anonymization; basic labels added"
    ),
    (DataReadinessLevel.FEATURE_ENGINEERED, DataProcessingStage.INGEST): (
        "Optimized high-throughput ingestion"
    ),
    (DataReadinessLevel.FEATURE_ENGINEERED, DataProcessingStage.PREPROCESS): (
        "Alignment fully standardized"
    ),
    (DataReadinessLevel.FEATURE_ENGINEERED, DataProcessingStage.TRANSFORM): (
        "Normalization or anonymization finalized; comprehensive labeling"
    ),
    (DataReadinessLevel.FEATURE_ENGINEERED, DataProcessingStage.STRUCTURE): (
        "Domain-specific feature extraction completed"
    ),
    (DataReadinessLevel.AI_READY, DataProcessingStage.INGEST): (
        "Ingestion pipelines fully automated and performance-optimized"
    ),
    (DataReadinessLevel.AI_READY, DataProcessingStage.PREPROCESS): (
        "Alignment integrated and automated"
    ),
    (DataReadinessLevel.AI_READY, DataProcessingStage.TRANSFORM): (
        "Normalization / anonymization fully automated and audited"
    ),
    (DataReadinessLevel.AI_READY, DataProcessingStage.STRUCTURE): (
        "Feature extraction automated and validated"
    ),
    (DataReadinessLevel.AI_READY, DataProcessingStage.SHARD): (
        "Data partitioned into train/test/val & sharded into binary formats "
        "for scalable ingestion"
    ),
}


def stage_applicable(
    level: DataReadinessLevel, stage: DataProcessingStage
) -> bool:
    """Return ``True`` if *stage* is applicable at *level* (non-grey cell).

    Table 2 is lower-triangular: level *n* spans the first *n* stages.
    For example, at level 2 (Cleaned) only Ingest and Preprocess apply; the
    Shard column only becomes meaningful at level 5 (Fully AI-ready).
    """
    return int(stage) <= int(level)


#: Domain-specific pipeline verb names mapped onto the canonical stages
#: (Section 3.5 and the per-domain patterns of Section 3).  Used by the
#: pattern-mapping bench and by :class:`repro.domains.base.DomainArchetype`.
DOMAIN_STAGE_VERBS: Dict[str, Dict[DataProcessingStage, str]] = {
    "climate": {
        DataProcessingStage.INGEST: "download",
        DataProcessingStage.PREPROCESS: "regrid",
        DataProcessingStage.TRANSFORM: "normalize",
        DataProcessingStage.STRUCTURE: "stack",
        DataProcessingStage.SHARD: "shard",
    },
    "fusion": {
        DataProcessingStage.INGEST: "extract",
        DataProcessingStage.PREPROCESS: "align",
        DataProcessingStage.TRANSFORM: "normalize",
        DataProcessingStage.STRUCTURE: "window",
        DataProcessingStage.SHARD: "shard",
    },
    "bio": {
        DataProcessingStage.INGEST: "acquire",
        DataProcessingStage.PREPROCESS: "encode",
        DataProcessingStage.TRANSFORM: "anonymize",
        DataProcessingStage.STRUCTURE: "fuse",
        DataProcessingStage.SHARD: "shard",
    },
    "materials": {
        DataProcessingStage.INGEST: "parse",
        DataProcessingStage.PREPROCESS: "normalize",
        DataProcessingStage.TRANSFORM: "encode",
        DataProcessingStage.STRUCTURE: "graph",
        DataProcessingStage.SHARD: "shard",
    },
}
