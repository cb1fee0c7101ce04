"""Maturity matrix rendering: conceptual Table 2 and assessed positions."""

from repro.core.assessment import ReadinessAssessor
from repro.core.levels import DataProcessingStage, DataReadinessLevel
from repro.core.matrix import CellStatus, MaturityMatrix

from tests.core.test_assessment import evidence_up_to


class TestConceptual:
    def test_grey_cells_match_staircase(self):
        matrix = MaturityMatrix.conceptual()
        for cell in matrix.cells():
            expected_na = int(cell.stage) > int(cell.level)
            assert (cell.status is CellStatus.NOT_APPLICABLE) == expected_na

    def test_cell_text_reproduces_table2(self):
        matrix = MaturityMatrix.conceptual()
        cell = matrix[(DataReadinessLevel.AI_READY, DataProcessingStage.SHARD)]
        assert "train/test/val" in cell.text
        assert "sharded into binary formats" in cell.text
        raw_cell = matrix[(DataReadinessLevel.RAW, DataProcessingStage.INGEST)]
        assert raw_cell.text == "Initial raw acquisition"

    def test_render_text_has_all_headers_and_na(self):
        text = MaturityMatrix.conceptual().render_text()
        for stage in DataProcessingStage:
            assert stage.label in text
        assert "(n/a)" in text
        assert "1 - Raw" in text

    def test_render_markdown_structure(self):
        md = MaturityMatrix.conceptual().render_markdown()
        lines = md.splitlines()
        assert lines[0].startswith("| Level |")
        assert len(lines) == 2 + 5  # header + separator + 5 level rows
        assert "—" in md  # grey cells

    def test_render_compact_staircase_shape(self):
        compact = MaturityMatrix.conceptual().render_compact()
        rows = compact.splitlines()[1:]
        for i, row in enumerate(rows, start=1):
            assert row.count("#") == i


class TestFromAssessment:
    def test_full_evidence_all_achieved(self):
        assessment = ReadinessAssessor().assess(evidence_up_to(DataReadinessLevel.AI_READY))
        matrix = MaturityMatrix.from_assessment(assessment)
        for cell in matrix.cells():
            if cell.applicable:
                assert cell.status is CellStatus.ACHIEVED

    def test_partial_evidence_mixes_achieved_and_pending(self):
        assessment = ReadinessAssessor().assess(evidence_up_to(DataReadinessLevel.CLEANED))
        matrix = MaturityMatrix.from_assessment(assessment)
        for stage in (DataProcessingStage.INGEST, DataProcessingStage.PREPROCESS):
            assert matrix[(DataReadinessLevel.CLEANED, stage)].status is CellStatus.ACHIEVED
        cell = matrix[(DataReadinessLevel.LABELED, DataProcessingStage.INGEST)]
        assert cell.status is CellStatus.PENDING
