"""Readiness assessment: staircase semantics, gates, and gap reports."""

import pytest

from repro.core.assessment import ReadinessAssessor
from repro.core.evidence import EvidenceKind, ReadinessEvidence
from repro.core.levels import DataProcessingStage, DataReadinessLevel

K = EvidenceKind

#: evidence kinds per level, following Table 2 cell by cell
LEVEL_EVIDENCE = {
    DataReadinessLevel.RAW: [K.ACQUIRED],
    DataReadinessLevel.CLEANED: [K.VALIDATED_INGEST, K.INITIAL_ALIGNMENT],
    DataReadinessLevel.LABELED: [
        K.METADATA_ENRICHED, K.GRIDS_STANDARDIZED,
        K.INITIAL_NORMALIZATION, K.BASIC_LABELS,
    ],
    DataReadinessLevel.FEATURE_ENGINEERED: [
        K.HIGH_THROUGHPUT_INGEST, K.ALIGNMENT_STANDARDIZED,
        K.NORMALIZATION_FINALIZED, K.COMPREHENSIVE_LABELS, K.FEATURES_EXTRACTED,
    ],
    DataReadinessLevel.AI_READY: [
        K.INGEST_AUTOMATED, K.ALIGNMENT_AUTOMATED, K.TRANSFORM_AUDITED,
        K.FEATURES_VALIDATED, K.SPLIT_PARTITIONED, K.SHARDED_BINARY,
    ],
}


def evidence_up_to(level: DataReadinessLevel) -> ReadinessEvidence:
    evidence = ReadinessEvidence()
    for lv in DataReadinessLevel:
        if lv > level:
            break
        for kind in LEVEL_EVIDENCE[lv]:
            evidence.record(kind, f"for level {int(lv)}")
    return evidence


class TestStaircaseProgression:
    @pytest.mark.parametrize("level", list(DataReadinessLevel))
    def test_cumulative_evidence_reaches_exactly_that_level(self, level):
        assessment = ReadinessAssessor().assess(evidence_up_to(level))
        assert assessment.overall is level

    def test_empty_evidence_is_raw(self):
        assessment = ReadinessAssessor().assess(ReadinessEvidence())
        assert assessment.overall is DataReadinessLevel.RAW

    def test_gap_in_lower_level_blocks_higher(self):
        """Skipping level 2 preprocess evidence caps overall at 1 even with
        level-3 facts present (cumulative semantics)."""
        evidence = evidence_up_to(DataReadinessLevel.LABELED)
        items = [i for i in evidence if i.kind is not K.INITIAL_ALIGNMENT]
        gapped = ReadinessEvidence(items)
        assessment = ReadinessAssessor().assess(gapped)
        assert assessment.overall is DataReadinessLevel.RAW
        assert (
            assessment.stages[DataProcessingStage.PREPROCESS].level
            is DataReadinessLevel.RAW
        )

    def test_per_stage_levels_independent(self):
        evidence = ReadinessEvidence()
        for kind in (K.ACQUIRED, K.VALIDATED_INGEST, K.METADATA_ENRICHED,
                     K.HIGH_THROUGHPUT_INGEST, K.INGEST_AUTOMATED):
            evidence.record(kind)
        assessment = ReadinessAssessor().assess(evidence)
        assert assessment.stages[DataProcessingStage.INGEST].level is DataReadinessLevel.AI_READY
        # TRANSFORM's first requirement cell is at level 3, so with no
        # evidence it sits vacuously at level 2 (its grey cells pass)
        assert assessment.stages[DataProcessingStage.TRANSFORM].level is DataReadinessLevel.CLEANED
        # overall gated by the weakest applicable stage (PREPROCESS at 1)
        assert assessment.overall is DataReadinessLevel.RAW


class TestQuantitativeGates:
    def test_comprehensive_labels_gate(self):
        evidence = evidence_up_to(DataReadinessLevel.AI_READY)
        evidence.record(K.COMPREHENSIVE_LABELS, "weak", labeled_fraction=0.5)
        assessment = ReadinessAssessor().assess(evidence)
        assert assessment.overall is DataReadinessLevel.LABELED

    def test_basic_labels_gate(self):
        evidence = evidence_up_to(DataReadinessLevel.LABELED)
        evidence.record(K.BASIC_LABELS, "almost none", labeled_fraction=0.01)
        assessment = ReadinessAssessor().assess(evidence)
        assert assessment.overall is DataReadinessLevel.CLEANED

    def test_missing_fraction_gate(self):
        evidence = evidence_up_to(DataReadinessLevel.CLEANED)
        evidence.record(K.VALIDATED_INGEST, "dirty", missing_fraction=0.5)
        assessment = ReadinessAssessor().assess(evidence)
        assert assessment.overall is DataReadinessLevel.RAW

    def test_sensitive_remaining_gate(self):
        evidence = evidence_up_to(DataReadinessLevel.AI_READY)
        evidence.record(K.TRANSFORM_AUDITED, "leaky", sensitive_remaining=2)
        assessment = ReadinessAssessor().assess(evidence)
        assert assessment.overall is DataReadinessLevel.FEATURE_ENGINEERED

    def test_gate_passes_without_metric(self):
        """Presence alone satisfies when no metric is recorded."""
        evidence = evidence_up_to(DataReadinessLevel.AI_READY)
        assessment = ReadinessAssessor().assess(evidence)
        assert assessment.overall is DataReadinessLevel.AI_READY


class TestGapReport:
    def test_names_missing_kinds(self):
        evidence = evidence_up_to(DataReadinessLevel.CLEANED)
        assessment = ReadinessAssessor().assess(evidence)
        report = "\n".join(assessment.gap_report())
        assert "METADATA_ENRICHED" in report
        assert "BASIC_LABELS" in report or "INITIAL_NORMALIZATION" in report

    def test_fully_ready_reports_no_gaps(self):
        evidence = evidence_up_to(DataReadinessLevel.AI_READY)
        assessment = ReadinessAssessor().assess(evidence)
        assert assessment.gap_report() == ["dataset is fully AI-ready (level 5); no gaps"]

    def test_gap_report_targets_next_level_only(self):
        evidence = evidence_up_to(DataReadinessLevel.RAW)
        assessment = ReadinessAssessor().assess(evidence)
        report = "\n".join(assessment.gap_report())
        assert "level 2" in report
        assert "SHARDED_BINARY" not in report
