"""The 2-D conceptual maturity matrix (Table 2), as code.

Two renderings are provided:

* :func:`MaturityMatrix.conceptual` — the static matrix of Table 2 itself:
  readiness levels as rows, processing stages as columns, per-cell prose,
  and grey (N/A) cells below the staircase.
* :func:`MaturityMatrix.from_assessment` — a dataset's *position* in the
  matrix: which cells its recorded evidence has unlocked.

Both render to aligned plain text (for benches and terminals) and to
markdown (for reports).
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, List, Tuple

from repro.core.assessment import ReadinessAssessment
from repro.core.levels import (
    MATRIX_CELL_DESCRIPTIONS,
    DataProcessingStage,
    DataReadinessLevel,
    stage_applicable,
)

__all__ = ["CellStatus", "MatrixCell", "MaturityMatrix"]


class CellStatus(enum.Enum):
    """State of one maturity-matrix cell."""

    NOT_APPLICABLE = "n/a"  # grey cell (below the staircase)
    PENDING = "pending"  # applicable but not yet achieved
    ACHIEVED = "achieved"  # evidence satisfies this cell
    CONCEPTUAL = "conceptual"  # static rendering (no dataset attached)


@dataclasses.dataclass(frozen=True)
class MatrixCell:
    level: DataReadinessLevel
    stage: DataProcessingStage
    status: CellStatus
    text: str

    @property
    def applicable(self) -> bool:
        return self.status is not CellStatus.NOT_APPLICABLE


class MaturityMatrix:
    """A concrete 5x5 grid of :class:`MatrixCell`."""

    def __init__(self, cells: Dict[Tuple[DataReadinessLevel, DataProcessingStage], MatrixCell]):
        self._cells = cells

    def __getitem__(
        self, key: Tuple[DataReadinessLevel, DataProcessingStage]
    ) -> MatrixCell:
        return self._cells[key]

    def cells(self) -> List[MatrixCell]:
        return [self._cells[(lv, st)] for lv in DataReadinessLevel for st in DataProcessingStage]

    # -- constructors -----------------------------------------------------------
    @classmethod
    def conceptual(cls) -> "MaturityMatrix":
        """The static Table 2 matrix."""
        cells = {}
        for level in DataReadinessLevel:
            for stage in DataProcessingStage:
                if stage_applicable(level, stage):
                    text = MATRIX_CELL_DESCRIPTIONS[(level, stage)]
                    status = CellStatus.CONCEPTUAL
                else:
                    text, status = "", CellStatus.NOT_APPLICABLE
                cells[(level, stage)] = MatrixCell(level, stage, status, text)
        return cls(cells)

    @classmethod
    def from_assessment(cls, assessment: ReadinessAssessment) -> "MaturityMatrix":
        """A dataset's achieved/pending position in the matrix.

        A cell (level, stage) is ACHIEVED when the stage has been assessed
        at or above that level; applicable-but-unreached cells are PENDING.
        """
        cells = {}
        for level in DataReadinessLevel:
            for stage in DataProcessingStage:
                if not stage_applicable(level, stage):
                    cells[(level, stage)] = MatrixCell(
                        level, stage, CellStatus.NOT_APPLICABLE, ""
                    )
                    continue
                achieved = assessment.stages[stage].level >= level
                status = CellStatus.ACHIEVED if achieved else CellStatus.PENDING
                text = MATRIX_CELL_DESCRIPTIONS[(level, stage)]
                cells[(level, stage)] = MatrixCell(level, stage, status, text)
        return cls(cells)

    # -- rendering ----------------------------------------------------------------
    @staticmethod
    def _wrap(text: str, width: int) -> List[str]:
        words, lines, current = text.split(), [], ""
        for word in words:
            candidate = f"{current} {word}".strip()
            if len(candidate) <= width:
                current = candidate
            else:
                if current:
                    lines.append(current)
                current = word
        if current:
            lines.append(current)
        return lines or [""]

    def render_text(self, *, cell_width: int = 22) -> str:
        """Aligned plain-text table, one block row per readiness level."""
        headers = ["Level"] + [s.label for s in DataProcessingStage]
        widths = [cell_width] * len(headers)
        sep = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
        out: List[str] = [sep]
        out.append(
            "|" + "|".join(f" {h:<{w}} " for h, w in zip(headers, widths)) + "|"
        )
        out.append(sep)
        for level in DataReadinessLevel:
            row_cells: List[List[str]] = [self._wrap(level.label, cell_width)]
            for stage in DataProcessingStage:
                cell = self._cells[(level, stage)]
                if cell.status is CellStatus.NOT_APPLICABLE:
                    row_cells.append(["(n/a)"])
                    continue
                row_cells.append(self._wrap(cell.text, cell_width))
            height = max(len(c) for c in row_cells)
            for line_idx in range(height):
                parts = []
                for col in row_cells:
                    content = col[line_idx] if line_idx < len(col) else ""
                    parts.append(f" {content:<{cell_width}} ")
                out.append("|" + "|".join(parts) + "|")
            out.append(sep)
        return "\n".join(out)

    def render_markdown(self) -> str:
        """GitHub-flavoured markdown table."""
        headers = ["Level"] + [s.label for s in DataProcessingStage]
        rows = ["| " + " | ".join(headers) + " |"]
        rows.append("|" + "---|" * len(headers))
        for level in DataReadinessLevel:
            cols = [level.label]
            for stage in DataProcessingStage:
                cell = self._cells[(level, stage)]
                if cell.status is CellStatus.NOT_APPLICABLE:
                    cols.append("—")
                    continue
                cols.append(cell.text)
            rows.append("| " + " | ".join(cols) + " |")
        return "\n".join(rows)

    def render_compact(self) -> str:
        """A 5x5 glyph grid: ``#`` achieved, ``.`` pending, `` `` N/A.

        Useful in benches to show the staircase shape at a glance::

            Ingest Preproc Transform Structure Shard
            L1  #
            L2  #  #
            ...
        """
        glyph = {
            CellStatus.ACHIEVED: "#",
            CellStatus.PENDING: ".",
            CellStatus.CONCEPTUAL: "#",
            CellStatus.NOT_APPLICABLE: " ",
        }
        lines = ["     " + " ".join(f"S{int(s)}" for s in DataProcessingStage)]
        for level in DataReadinessLevel:
            row = " ".join(
                f" {glyph[self._cells[(level, s)].status]}" for s in DataProcessingStage
            )
            lines.append(f"L{int(level)}  {row}")
        return "\n".join(lines)
