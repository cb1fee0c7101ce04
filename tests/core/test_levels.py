"""Readiness levels, processing stages, and the staircase rule."""

from repro.core.levels import (
    DOMAIN_STAGE_VERBS,
    MATRIX_CELL_DESCRIPTIONS,
    DataProcessingStage,
    DataReadinessLevel,
    stage_applicable,
)


class TestLevels:
    def test_five_levels_ordered(self):
        levels = list(DataReadinessLevel)
        assert len(levels) == 5
        assert levels[0] is DataReadinessLevel.RAW
        assert levels[-1] is DataReadinessLevel.AI_READY
        assert DataReadinessLevel.RAW < DataReadinessLevel.AI_READY

    def test_labels_match_table2_row_headers(self):
        assert DataReadinessLevel.RAW.label == "1 - Raw"
        assert DataReadinessLevel.AI_READY.label == "5 - Fully AI-ready"
        assert DataReadinessLevel.FEATURE_ENGINEERED.label == "4 - Feature-engineered"

    def test_every_level_has_description(self):
        for level in DataReadinessLevel:
            assert len(level.description) > 20


class TestStages:
    def test_canonical_pipeline_order(self):
        assert [s.name for s in DataProcessingStage] == [
            "INGEST", "PREPROCESS", "TRANSFORM", "STRUCTURE", "SHARD",
        ]

    def test_stage_labels(self):
        assert DataProcessingStage.INGEST.label == "Ingest"
        assert DataProcessingStage.SHARD.label == "Shard"

    def test_every_stage_has_description(self):
        for stage in DataProcessingStage:
            assert len(stage.description) > 20


class TestStaircase:
    def test_staircase_rule(self):
        """Table 2 is lower-triangular: level n spans the first n stages."""
        for level in DataReadinessLevel:
            for stage in DataProcessingStage:
                assert stage_applicable(level, stage) == (int(stage) <= int(level))

    def test_cell_descriptions_cover_exactly_the_applicable_cells(self):
        applicable = {
            (level, stage)
            for level in DataReadinessLevel
            for stage in DataProcessingStage
            if stage_applicable(level, stage)
        }
        assert set(MATRIX_CELL_DESCRIPTIONS) == applicable
        # 1 + 2 + 3 + 4 + 5 cells in the staircase
        assert len(MATRIX_CELL_DESCRIPTIONS) == 15


class TestDomainVerbs:
    def test_all_four_domains_present(self):
        assert set(DOMAIN_STAGE_VERBS) == {"climate", "fusion", "bio", "materials"}

    def test_every_domain_names_every_stage(self):
        for verbs in DOMAIN_STAGE_VERBS.values():
            assert set(verbs) == set(DataProcessingStage)

    def test_paper_patterns(self):
        """The per-domain verbs of Section 3."""
        climate = DOMAIN_STAGE_VERBS["climate"]
        assert climate[DataProcessingStage.INGEST] == "download"
        assert climate[DataProcessingStage.PREPROCESS] == "regrid"
        fusion = DOMAIN_STAGE_VERBS["fusion"]
        assert fusion[DataProcessingStage.INGEST] == "extract"
        assert fusion[DataProcessingStage.PREPROCESS] == "align"
        materials = DOMAIN_STAGE_VERBS["materials"]
        assert materials[DataProcessingStage.INGEST] == "parse"
        bio = DOMAIN_STAGE_VERBS["bio"]
        assert bio[DataProcessingStage.TRANSFORM] == "anonymize"
