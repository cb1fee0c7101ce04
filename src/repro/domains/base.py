"""Shared machinery for the four domain archetypes of Table 1.

Every archetype (climate, fusion, bio, materials) provides the same
surface:

* :meth:`DomainArchetype.synthesize_source` — generate a raw, on-disk
  source in the domain's community format (the paper's data we cannot
  ship; see DESIGN.md substitutions);
* :meth:`DomainArchetype.build_pipeline` — the executable
  ``ingest -> preprocess -> transform -> structure -> shard`` pipeline,
  with the domain's verbs (Section 3.5);
* :meth:`DomainArchetype.detect_challenges` — code that *measures* the
  readiness challenges Table 1 claims for the domain, so the TAB1 bench
  reports detected rather than asserted challenges;
* :meth:`DomainArchetype.run` — end-to-end execution returning an
  :class:`ArchetypeResult` with the final dataset, shard manifest,
  readiness assessment, and detected challenges.
"""

from __future__ import annotations

import abc
import dataclasses
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Union

from repro.core.assessment import ReadinessAssessment, ReadinessAssessor
from repro.core.dataset import Dataset
from repro.core.levels import DataProcessingStage, DOMAIN_STAGE_VERBS
from repro.core.runner import Pipeline, PipelineContext, PipelineRun
from repro.io.shards import ShardManifest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sched import ScheduleDecision

__all__ = ["ArchetypeResult", "DomainArchetype", "SOURCE_DIR", "SHARDS_DIR", "CHECKPOINT_DIR"]

#: The run directory :meth:`DomainArchetype.run` lays out under *work_dir*
#: (``repro run --workdir``; ``ckpt/`` holds a checkpointed run's journal).
SOURCE_DIR, SHARDS_DIR, CHECKPOINT_DIR = "source", "shards", "ckpt"


@dataclasses.dataclass
class ArchetypeResult:
    """Everything an end-to-end archetype run produced."""

    domain: str
    run: PipelineRun
    dataset: Dataset
    manifest: Optional[ShardManifest]
    assessment: ReadinessAssessment
    detected_challenges: List[str]
    schedule: Optional["ScheduleDecision"] = None

    @property
    def readiness_level(self) -> int:
        return int(self.assessment.overall)

    def curation_seconds(self) -> float:
        """Time in data-curation stages (ingest/preprocess/transform).

        The fusion-ML workshop's "70% of time on data curation" claim,
        made measurable: curation = everything before the model-facing
        structure/shard stages.
        """
        by_stage = self.run.seconds_by_processing_stage()
        curation = sum(
            by_stage.get(s, 0.0)
            for s in (
                DataProcessingStage.INGEST,
                DataProcessingStage.PREPROCESS,
                DataProcessingStage.TRANSFORM,
            )
        )
        return curation

    def curation_fraction(self) -> float:
        total = self.run.total_seconds
        return self.curation_seconds() / total if total > 0 else 0.0


class DomainArchetype(abc.ABC):
    """Base class; subclasses set :attr:`domain` and implement the hooks."""

    domain: str = "generic"

    def __init__(self, seed: int = 0):
        self.seed = seed

    # -- hooks ---------------------------------------------------------------
    @abc.abstractmethod
    def synthesize_source(self, directory: Union[str, Path], **params: Any) -> Dict[str, Any]:
        """Write raw source files under *directory*; returns a source manifest."""

    @abc.abstractmethod
    def build_pipeline(self, output_dir: Union[str, Path]) -> Pipeline:
        """The full five-stage pipeline writing shards under *output_dir*."""

    @abc.abstractmethod
    def detect_challenges(self, dataset: Dataset, context: PipelineContext) -> List[str]:
        """Measure which Table 1 challenges manifest in this run's data."""

    # -- common surface ----------------------------------------------------------
    def stage_verbs(self) -> Dict[DataProcessingStage, str]:
        """This domain's verb for each canonical stage (Section 3.5)."""
        return dict(DOMAIN_STAGE_VERBS[self.domain])

    def pattern_string(self) -> str:
        verbs = self.stage_verbs()
        return " -> ".join(verbs[s] for s in DataProcessingStage)

    def run(
        self,
        work_dir: Union[str, Path],
        *,
        source_params: Optional[Dict[str, Any]] = None,
        resume: bool = False,
        plan_mode: str = "fixed",
        **runner_options: Any,
    ) -> ArchetypeResult:
        """Synthesize a source, run the pipeline, assess, detect challenges.

        ``runner_options`` are the keyword options of
        :class:`~repro.core.runner.PipelineRunner` (``backend=``,
        ``batch_size=``, ``checkpoint_dir=``, ``telemetry=``, ``gates=``,
        ``ledger=``, ...), declared and documented there; ``resume=True``
        restarts a checkpointed run.

        ``ledger=`` (a store directory) files the run's executed stage
        seconds under the configuration that ran (see :mod:`repro.sched`).
        ``plan_mode="auto"`` then runs the configuration with the lowest
        summed per-stage medians measured for this pipeline, host and
        source size — or the ``fixed`` default when nothing is measured —
        and the resulting :class:`~repro.sched.ScheduleDecision` rides in
        the run events, spans and shard manifest.  Auto picks the backend,
        width and batch size itself, so ``backend=`` or ``batch_size=``
        with it is a ``ValueError``.
        """
        if plan_mode not in ("fixed", "auto"):
            raise ValueError(f"unknown plan_mode {plan_mode!r} (use 'fixed' or 'auto')")
        overridden = [k for k in ("backend", "batch_size") if runner_options.get(k) is not None]
        if plan_mode == "auto" and overridden:
            # the manifest must name the config that ran, so auto takes no override
            raise ValueError(
                "plan_mode='auto' picks the backend, width and batch size itself; "
                f"drop {', '.join(overridden)} or use plan_mode='fixed'"
            )
        work_dir = Path(work_dir)
        source_dir = work_dir / SOURCE_DIR
        output_dir = work_dir / SHARDS_DIR
        source_dir.mkdir(parents=True, exist_ok=True)
        source_manifest = self.synthesize_source(source_dir, **(source_params or {}))
        pipeline = self.build_pipeline(output_dir)
        decision: Optional["ScheduleDecision"] = None
        if plan_mode == "auto":
            from repro.sched import Ledger, build_backend, choose_config, store_key

            ledger = runner_options.get("ledger")
            decision = choose_config(
                store_key(pipeline.plan.name, source_manifest),
                pipeline.plan.stage_names,
                Ledger(ledger) if ledger is not None else None,
            )
            pipeline.plan = pipeline.plan.with_schedule(decision)
            runner_options.update(
                backend=build_backend(decision.chosen),
                batch_size=decision.chosen.batch_records,
            )
        context = PipelineContext(agent=f"{self.domain}-pipeline")
        run = pipeline.run(source_manifest, context, resume=resume, **runner_options)
        dataset = context.artifacts.get("dataset")
        if not isinstance(dataset, Dataset):
            raise RuntimeError(
                f"{self.domain} pipeline did not publish a 'dataset' artifact"
            )
        manifest = context.artifacts.get("manifest")
        assessment = ReadinessAssessor().assess(context.evidence)
        challenges = self.detect_challenges(dataset, context)
        return ArchetypeResult(
            domain=self.domain,
            run=run,
            dataset=dataset,
            manifest=manifest if isinstance(manifest, ShardManifest) else None,
            assessment=assessment,
            detected_challenges=challenges,
            schedule=decision,
        )
