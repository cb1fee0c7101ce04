"""Evidence ledger semantics and the requirements table."""

from repro.core.evidence import REQUIREMENTS, EvidenceKind, ReadinessEvidence
from repro.core.levels import DataProcessingStage, DataReadinessLevel


class TestEvidenceKind:
    def test_all_18_kinds_distinct(self):
        kinds = list(EvidenceKind)
        assert len(kinds) == 18
        assert len({k.name for k in kinds}) == 18

    def test_no_enum_aliasing(self):
        """Members sharing a Table 2 cell must not collapse into aliases."""
        assert EvidenceKind.COMPREHENSIVE_LABELS is not EvidenceKind.NORMALIZATION_FINALIZED
        assert EvidenceKind.BASIC_LABELS is not EvidenceKind.INITIAL_NORMALIZATION
        assert EvidenceKind.SHARDED_BINARY is not EvidenceKind.SPLIT_PARTITIONED

    def test_stage_and_level_attributes(self):
        assert EvidenceKind.ACQUIRED.stage is DataProcessingStage.INGEST
        assert EvidenceKind.ACQUIRED.certifies is DataReadinessLevel.RAW
        assert EvidenceKind.SHARDED_BINARY.stage is DataProcessingStage.SHARD
        assert EvidenceKind.SHARDED_BINARY.certifies is DataReadinessLevel.AI_READY

    def test_requirements_cover_every_applicable_cell(self):
        from repro.core.levels import stage_applicable

        for (stage, level), kinds in REQUIREMENTS.items():
            assert stage_applicable(level, stage)
            assert kinds
        # every kind appears in exactly one cell's requirements
        all_kinds = [k for kinds in REQUIREMENTS.values() for k in kinds]
        assert len(all_kinds) == len(set(all_kinds)) == 18


class TestLedger:
    def test_record_and_query(self):
        evidence = ReadinessEvidence()
        evidence.record(EvidenceKind.ACQUIRED, "downloaded", recorded_by="ingest")
        assert evidence.has(EvidenceKind.ACQUIRED)
        assert not evidence.has(EvidenceKind.SHARDED_BINARY)
        assert len(evidence) == 1

    def test_latest_wins(self):
        evidence = ReadinessEvidence()
        evidence.record(EvidenceKind.BASIC_LABELS, "first", labeled_fraction=0.2)
        evidence.record(EvidenceKind.BASIC_LABELS, "second", labeled_fraction=0.8)
        item = evidence.latest(EvidenceKind.BASIC_LABELS)
        assert item is not None and item.detail == "second"
        assert evidence.metric(EvidenceKind.BASIC_LABELS, "labeled_fraction") == 0.8

    def test_metric_missing_returns_none(self):
        evidence = ReadinessEvidence()
        assert evidence.metric(EvidenceKind.BASIC_LABELS, "labeled_fraction") is None
        evidence.record(EvidenceKind.BASIC_LABELS, "no metric")
        assert evidence.metric(EvidenceKind.BASIC_LABELS, "labeled_fraction") is None

    def test_kinds_first_recorded_order(self):
        evidence = ReadinessEvidence()
        evidence.record(EvidenceKind.VALIDATED_INGEST)
        evidence.record(EvidenceKind.ACQUIRED)
        evidence.record(EvidenceKind.VALIDATED_INGEST)
        assert evidence.kinds() == [
            EvidenceKind.VALIDATED_INGEST,
            EvidenceKind.ACQUIRED,
        ]

    def test_merge_preserves_both(self):
        a = ReadinessEvidence()
        a.record(EvidenceKind.ACQUIRED)
        b = ReadinessEvidence()
        b.record(EvidenceKind.INITIAL_ALIGNMENT)
        merged = a.merge(b)
        assert merged.has(EvidenceKind.ACQUIRED)
        assert merged.has(EvidenceKind.INITIAL_ALIGNMENT)
        assert len(a) == 1  # merge is non-destructive

    def test_copy_is_independent(self):
        a = ReadinessEvidence()
        a.record(EvidenceKind.ACQUIRED)
        b = a.copy()
        b.record(EvidenceKind.VALIDATED_INGEST)
        assert len(a) == 1 and len(b) == 2
