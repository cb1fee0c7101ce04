"""Readiness assessment: evidence -> per-stage levels -> overall DRL.

The assessor implements the semantics of Table 2.  For each processing
stage it finds the highest readiness level whose cumulative cell
requirements are all met by recorded evidence (including quantitative
thresholds such as labeled fraction).  The dataset's overall readiness level
is the highest level *L* such that every stage applicable at *L* (the
staircase rule) has been assessed at *L* or above.

The assessor also produces a *gap report*: for each stage, the evidence kinds
missing for the next level — this is the "pragmatic tool for evaluating
technical readiness" the paper calls for in Section 4.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.core.evidence import (
    REQUIREMENTS,
    EvidenceKind,
    ReadinessEvidence,
)
from repro.core.levels import (
    DataProcessingStage,
    DataReadinessLevel,
    stage_applicable,
)

__all__ = [
    "AssessmentCriteria",
    "StageAssessment",
    "ReadinessAssessment",
    "ReadinessAssessor",
]


@dataclasses.dataclass(frozen=True)
class AssessmentCriteria:
    """Quantitative gates applied on top of evidence presence.

    Attributes
    ----------
    min_basic_label_fraction:
        ``BASIC_LABELS`` only counts when at least this fraction of samples
        carries a label (Section 3.2's "limited labels" challenge).
    min_comprehensive_label_fraction:
        ``COMPREHENSIVE_LABELS`` needs near-complete coverage.
    max_missing_fraction_cleaned:
        ``VALIDATED_INGEST`` fails when the recorded residual missing-value
        fraction exceeds this (cleanliness gate for level 2).
    max_sensitive_fields_audited:
        ``TRANSFORM_AUDITED`` fails if any sensitive fields remain
        un-anonymized (metric ``sensitive_remaining``), enforcing the
        privacy requirement of Section 3.3.
    """

    min_basic_label_fraction: float = 0.05
    min_comprehensive_label_fraction: float = 0.95
    max_missing_fraction_cleaned: float = 0.05
    max_sensitive_fields_audited: int = 0


@dataclasses.dataclass(frozen=True)
class StageAssessment:
    """Result for one processing stage."""

    stage: DataProcessingStage
    level: DataReadinessLevel
    satisfied: List[EvidenceKind]
    missing_for_next: List[EvidenceKind]
    notes: List[str]


@dataclasses.dataclass(frozen=True)
class ReadinessAssessment:
    """Full assessment of one dataset state."""

    stages: Dict[DataProcessingStage, StageAssessment]
    overall: DataReadinessLevel

    def gap_report(self) -> List[str]:
        """Human-readable list of what blocks the next overall level."""
        lines: List[str] = []
        target = DataReadinessLevel(min(int(self.overall) + 1, 5))
        if target == self.overall:
            return ["dataset is fully AI-ready (level 5); no gaps"]
        for stage, result in self.stages.items():
            if not stage_applicable(target, stage):
                continue
            if result.level >= target:
                continue
            missing = [k.name for k in result.missing_for_next]
            notes = "; ".join(result.notes) if result.notes else ""
            suffix = f" ({notes})" if notes else ""
            lines.append(
                f"{stage.label}: at level {int(result.level)}, needs "
                f"{', '.join(missing) or 'quantitative gates'} for level "
                f"{int(target)}{suffix}"
            )
        return lines


class ReadinessAssessor:
    """Assess :class:`~repro.core.evidence.ReadinessEvidence` against Table 2,
    under the default :class:`AssessmentCriteria`."""

    criteria = AssessmentCriteria()

    # -- quantitative gates ---------------------------------------------------
    def _gate(self, evidence: ReadinessEvidence, kind: EvidenceKind) -> Optional[str]:
        """Return a failure note when *kind*'s quantitative gate fails, else None.

        A kind whose gate metric was never recorded passes on presence alone:
        the gates tighten assessment when pipelines report metrics, they do
        not punish pipelines that don't.
        """
        crit = self.criteria
        if kind is EvidenceKind.BASIC_LABELS:
            frac = evidence.metric(kind, "labeled_fraction")
            if frac is not None and frac < crit.min_basic_label_fraction:
                return (
                    f"labeled_fraction {frac:.3f} < {crit.min_basic_label_fraction}"
                )
        elif kind is EvidenceKind.COMPREHENSIVE_LABELS:
            frac = evidence.metric(kind, "labeled_fraction")
            if frac is not None and frac < crit.min_comprehensive_label_fraction:
                return (
                    f"labeled_fraction {frac:.3f} < "
                    f"{crit.min_comprehensive_label_fraction}"
                )
        elif kind is EvidenceKind.VALIDATED_INGEST:
            frac = evidence.metric(kind, "missing_fraction")
            if frac is not None and frac > crit.max_missing_fraction_cleaned:
                return (
                    f"missing_fraction {frac:.3f} > {crit.max_missing_fraction_cleaned}"
                )
        elif kind is EvidenceKind.TRANSFORM_AUDITED:
            remaining = evidence.metric(kind, "sensitive_remaining")
            if remaining is not None and remaining > crit.max_sensitive_fields_audited:
                return f"{int(remaining)} sensitive field(s) not anonymized"
        return None

    def _kind_satisfied(
        self, evidence: ReadinessEvidence, kind: EvidenceKind
    ) -> Optional[str]:
        """None when satisfied; otherwise a note explaining the failure."""
        if not evidence.has(kind):
            return f"{kind.name} not recorded"
        return self._gate(evidence, kind)

    # -- per-stage assessment ----------------------------------------------------
    def assess_stage(
        self, evidence: ReadinessEvidence, stage: DataProcessingStage
    ) -> StageAssessment:
        satisfied: List[EvidenceKind] = []
        notes: List[str] = []
        achieved = DataReadinessLevel.RAW
        blocked = False
        missing_for_next: List[EvidenceKind] = []
        for level in DataReadinessLevel:
            required = REQUIREMENTS.get((stage, level), [])
            if not required:
                # No cell at this (stage, level): level passes vacuously as
                # long as nothing below blocked (grey cells of Table 2).
                if not blocked:
                    achieved = level
                continue
            failures = []
            for kind in required:
                note = self._kind_satisfied(evidence, kind)
                if note is None:
                    satisfied.append(kind)
                else:
                    failures.append((kind, note))
            if failures and not blocked:
                blocked = True
                missing_for_next = [k for k, _ in failures]
                notes.extend(n for _, n in failures)
            elif not failures and not blocked:
                achieved = level
        return StageAssessment(
            stage=stage,
            level=achieved,
            satisfied=satisfied,
            missing_for_next=missing_for_next,
            notes=notes,
        )

    # -- whole-dataset assessment ----------------------------------------------------
    def assess(self, evidence: ReadinessEvidence) -> ReadinessAssessment:
        stages = {
            stage: self.assess_stage(evidence, stage)
            for stage in DataProcessingStage
        }
        overall = DataReadinessLevel.RAW
        for level in DataReadinessLevel:
            applicable = [s for s in DataProcessingStage if stage_applicable(level, s)]
            if all(stages[s].level >= level for s in applicable):
                overall = level
            else:
                break
        # Level 1 itself requires the ACQUIRED fact.
        if not evidence.has(EvidenceKind.ACQUIRED):
            overall = DataReadinessLevel.RAW
        return ReadinessAssessment(stages=stages, overall=overall)
