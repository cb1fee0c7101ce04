"""Section 4's guiding principles as a checkable scorecard.

The paper's contribution (4) is "actionable recommendations", condensed in
Section 4 into five guiding principles for leadership-scale AI-readiness:

1. scalable preprocessing for large datasets;
2. standardized formats and metadata for reproducibility;
3. iterative pipelines with feedback loops;
4. attention to governance and privacy;
5. alignment with HPC infrastructure for parallel training.

:func:`evaluate_principles` turns a completed pipeline run into a
scorecard: each principle is checked against concrete signals (recorded
evidence, captured artifacts, provenance/audit state), and unmet
principles come with the specific recommendation that would satisfy them
— the "actionable" part.
"""

from __future__ import annotations

import dataclasses
from typing import List

from repro.core.evidence import EvidenceKind
from repro.core.runner import PipelineRun
from repro.core.report import render_table

__all__ = ["PrincipleResult", "PrincipleScorecard", "evaluate_principles"]


@dataclasses.dataclass(frozen=True)
class PrincipleResult:
    """One principle's verdict."""

    principle: str
    satisfied: bool
    signals: List[str]
    recommendation: str = ""


@dataclasses.dataclass
class PrincipleScorecard:
    results: List[PrincipleResult]

    @property
    def satisfied_count(self) -> int:
        return sum(1 for r in self.results if r.satisfied)

    @property
    def all_satisfied(self) -> bool:
        return self.satisfied_count == len(self.results)

    def recommendations(self) -> List[str]:
        return [r.recommendation for r in self.results if not r.satisfied]

    def render(self) -> str:
        rows = [
            (
                "PASS" if r.satisfied else "MISS",
                r.principle,
                "; ".join(r.signals) if r.signals else "-",
            )
            for r in self.results
        ]
        out = render_table(["", "principle", "signals"], rows)
        recommendations = self.recommendations()
        if recommendations:
            out += "\n\nrecommendations:\n" + "\n".join(
                f"  - {r}" for r in recommendations
            )
        return out


def evaluate_principles(run: PipelineRun) -> PrincipleScorecard:
    """Score a completed run against the five Section 4 principles."""
    context = run.context
    evidence = context.evidence
    results: List[PrincipleResult] = []

    # 1. scalable preprocessing -------------------------------------------------
    signals: List[str] = []
    if evidence.has(EvidenceKind.HIGH_THROUGHPUT_INGEST):
        signals.append("streaming/high-throughput ingest recorded")
    if evidence.has(EvidenceKind.NORMALIZATION_FINALIZED):
        item = evidence.latest(EvidenceKind.NORMALIZATION_FINALIZED)
        if item is not None and (
            "merge" in item.detail.lower() or "rank" in item.detail.lower()
        ):
            signals.append("statistics computed by mergeable partials")
    results.append(
        PrincipleResult(
            principle="scalable preprocessing",
            satisfied=bool(signals),
            signals=signals,
            recommendation=(
                "use streaming ingest and mergeable (Welford) statistics so "
                "preprocessing parallelizes across ranks"
            ),
        )
    )

    # 2. standardized formats & metadata ------------------------------------------
    signals = []
    manifest = context.artifacts.get("manifest")
    if manifest is not None:
        signals.append(
            f"self-describing shard manifest ({manifest.n_shards} shards, "
            f"codec={manifest.codec})"
        )
    if evidence.has(EvidenceKind.METADATA_ENRICHED):
        signals.append("metadata enrichment recorded at ingest")
    results.append(
        PrincipleResult(
            principle="standardized formats & metadata",
            satisfied=manifest is not None
            and evidence.has(EvidenceKind.METADATA_ENRICHED),
            signals=signals,
            recommendation=(
                "write a shard set whose manifest carries the schema "
                "(ctx.backend.shard_write) and record metadata evidence"
            ),
        )
    )

    # 3. iterative pipelines with feedback loops ------------------------------------
    signals = []
    if context.artifacts.get("pseudo_label_rounds"):
        rounds = context.artifacts["pseudo_label_rounds"]
        signals.append(f"pseudo-labeling ran {len(rounds)} feedback round(s)")
    labels = evidence.latest(EvidenceKind.COMPREHENSIVE_LABELS)
    basic = evidence.latest(EvidenceKind.BASIC_LABELS)
    if labels is not None and basic is not None:
        before = basic.metrics.get("labeled_fraction")
        after = labels.metrics.get("labeled_fraction")
        if before is not None and after is not None and after > before:
            signals.append(
                f"label coverage improved {before:.0%} -> {after:.0%} by iteration"
            )
    if labels is not None and not signals:
        # labels complete from the source: iteration wasn't needed
        if labels.metrics.get("labeled_fraction", 0.0) >= 0.99:
            signals.append("labels complete at source; no iteration required")
    results.append(
        PrincipleResult(
            principle="iterative pipelines / feedback",
            satisfied=bool(signals),
            signals=signals,
            recommendation=(
                "wire a FeedbackController (or pseudo-labeling loop) so model "
                "evaluation can trigger data refinement"
            ),
        )
    )

    # 4. governance & privacy ----------------------------------------------------------
    signals = []
    audited = evidence.latest(EvidenceKind.TRANSFORM_AUDITED)
    if audited is not None:
        remaining = audited.metrics.get("sensitive_remaining")
        if remaining is not None and remaining == 0:
            signals.append("transform audited with zero sensitive fields remaining")
        elif remaining is None:
            signals.append("transform audit recorded")
    try:
        context.audit.verify()
        if len(context.audit):
            signals.append(f"audit chain verifies ({len(context.audit)} events)")
    except Exception:  # noqa: BLE001 - a broken chain is a miss, not a crash
        pass
    results.append(
        PrincipleResult(
            principle="governance & privacy",
            satisfied=audited is not None and len(context.audit) > 0,
            signals=signals,
            recommendation=(
                "record TRANSFORM_AUDITED with a sensitive_remaining count and "
                "keep the hash-chained audit log enabled"
            ),
        )
    )

    # 5. HPC alignment ----------------------------------------------------------------------
    signals = []
    if evidence.has(EvidenceKind.SHARDED_BINARY):
        signals.append("binary shards for parallel ingestion written")
    if evidence.has(EvidenceKind.SPLIT_PARTITIONED):
        signals.append("train/val/test partitions recorded")
    if manifest is not None and manifest.n_shards >= 2:
        signals.append(f"{manifest.n_shards} shards enable multi-rank reads")
    results.append(
        PrincipleResult(
            principle="HPC alignment (parallel training)",
            satisfied=evidence.has(EvidenceKind.SHARDED_BINARY)
            and manifest is not None
            and manifest.n_shards >= 2,
            signals=signals,
            recommendation=(
                "shard output into multiple binary files so distributed "
                "trainers can stride them (ShardStreamer rank/world)"
            ),
        )
    )

    return PrincipleScorecard(results=results)
