"""Domain preprocessing templates: the Section 6 future-work feature.

"Future work should ... develop standardized domain-specific preprocessing
templates for wider adoption."  A :class:`DomainTemplate` is a declarative
description of a domain's pipeline — one :class:`StageTemplate` per
canonical processing stage, naming the domain verb, the operations that
belong to the stage, and the readiness evidence completing the stage
certifies.  Templates serve three purposes:

1. **documentation** — :meth:`DomainTemplate.render_markdown` emits the
   per-domain recipe a facility would publish;
2. **validation** — a template is checked for total, ordered coverage of
   the canonical pipeline and for evidence sufficiency (do the declared
   kinds reach the target readiness level?);
3. **execution** — :class:`TemplatedPipelineBuilder` binds operation
   implementations to a template and produces a runnable
   :class:`~repro.core.runner.Pipeline` that records the declared
   evidence automatically.  Bringing a *new* scientific domain into the
   framework means writing a template plus the domain-specific operation
   functions — nothing else.

The four Table 1 domains ship as built-in templates
(:data:`BUILTIN_TEMPLATES`), generated from the same
``DOMAIN_STAGE_VERBS`` the archetypes use.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Mapping, Tuple

from repro.core.evidence import REQUIREMENTS, EvidenceKind
from repro.core.levels import (
    DOMAIN_STAGE_VERBS,
    DataProcessingStage,
    DataReadinessLevel,
)
from repro.core.plan import PipelineStage
from repro.core.runner import Pipeline, PipelineContext

__all__ = [
    "StageTemplate",
    "DomainTemplate",
    "TemplateError",
    "TemplatedPipelineBuilder",
    "BUILTIN_TEMPLATES",
    "builtin_template",
    "registered_templates",
]


class TemplateError(ValueError):
    """Malformed template or incomplete operation binding."""


@dataclasses.dataclass(frozen=True)
class StageTemplate:
    """One canonical stage of a domain template."""

    verb: str
    processing_stage: DataProcessingStage
    operations: Tuple[str, ...]
    evidence: Tuple[EvidenceKind, ...]
    description: str = ""

    def __post_init__(self) -> None:
        for kind in self.evidence:
            if kind.stage is not self.processing_stage:
                raise TemplateError(
                    f"stage {self.verb!r} ({self.processing_stage.label}) declares "
                    f"evidence {kind.name} belonging to {kind.stage.label}"
                )
        if not self.operations:
            raise TemplateError(f"stage {self.verb!r} declares no operations")


@dataclasses.dataclass(frozen=True)
class DomainTemplate:
    """A complete five-stage domain recipe."""

    domain: str
    modality: str
    stages: Tuple[StageTemplate, ...]
    description: str = ""

    def __post_init__(self) -> None:
        covered = [s.processing_stage for s in self.stages]
        if covered != list(DataProcessingStage):
            raise TemplateError(
                f"template {self.domain!r} must cover the canonical stages in "
                f"order; got {[s.label for s in covered]}"
            )

    # -- queries --------------------------------------------------------------
    def stage(self, processing_stage: DataProcessingStage) -> StageTemplate:
        for stage in self.stages:
            if stage.processing_stage is processing_stage:
                return stage
        raise TemplateError(f"no stage for {processing_stage.label}")  # pragma: no cover

    def pattern_string(self) -> str:
        return " -> ".join(s.verb for s in self.stages)

    def declared_evidence(self) -> List[EvidenceKind]:
        return [kind for stage in self.stages for kind in stage.evidence]

    def max_attainable_level(self) -> DataReadinessLevel:
        """Highest readiness level the declared evidence can certify.

        Checks, per level, that every requirement of every applicable
        stage appears somewhere in the template — a template whose
        transform stage never audits can't reach level 5, and the check
        says so before anyone runs a pipeline.
        """
        declared = set(self.declared_evidence())
        best = DataReadinessLevel.RAW
        for level in DataReadinessLevel:
            needed = [
                kind
                for (stage, lvl), kinds in REQUIREMENTS.items()
                for kind in kinds
                if lvl <= level
            ]
            if all(kind in declared for kind in needed):
                best = level
            else:
                break
        return best

    def operation_names(self) -> List[str]:
        return [op for stage in self.stages for op in stage.operations]

    # -- rendering ---------------------------------------------------------------
    def render_markdown(self) -> str:
        lines = [
            f"# Preprocessing template: {self.domain}",
            "",
            f"- **Modality:** {self.modality}",
            f"- **Pattern:** `{self.pattern_string()}`",
            f"- **Max attainable readiness:** level {int(self.max_attainable_level())}",
        ]
        if self.description:
            lines += ["", self.description]
        lines += ["", "| stage | verb | operations | evidence certified |", "|---|---|---|---|"]
        for stage in self.stages:
            lines.append(
                f"| {stage.processing_stage.label} | {stage.verb} | "
                f"{', '.join(stage.operations)} | "
                f"{', '.join(k.name for k in stage.evidence)} |"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# execution: template + operation implementations -> Pipeline
# ---------------------------------------------------------------------------

#: an operation takes (payload, context) and returns the new payload, or a
#: (payload, metrics) pair whose metrics attach to the stage's evidence
Operation = Callable[[Any, PipelineContext], Any]


class TemplatedPipelineBuilder:
    """Bind operation implementations to a template and build pipelines."""

    def __init__(self, template: DomainTemplate):
        self.template = template
        self._operations: Dict[str, Operation] = {}

    def bind(self, name: str, fn: Operation) -> "TemplatedPipelineBuilder":
        if name not in self.template.operation_names():
            raise TemplateError(
                f"operation {name!r} is not declared by template "
                f"{self.template.domain!r}"
            )
        self._operations[name] = fn
        return self

    def bind_all(self, operations: Mapping[str, Operation]) -> "TemplatedPipelineBuilder":
        for name, fn in operations.items():
            self.bind(name, fn)
        return self

    def missing_operations(self) -> List[str]:
        return [
            name
            for name in self.template.operation_names()
            if name not in self._operations
        ]

    def build(self) -> Pipeline:
        """Produce the runnable pipeline; every operation must be bound."""
        missing = self.missing_operations()
        if missing:
            raise TemplateError(
                f"unbound operations for template {self.template.domain!r}: {missing}"
            )
        stages = [
            PipelineStage(
                name=stage_template.verb,
                processing_stage=stage_template.processing_stage,
                fn=self._make_stage_fn(stage_template),
                params={"operations": list(stage_template.operations)},
                description=stage_template.description,
            )
            for stage_template in self.template.stages
        ]
        return Pipeline(self.template.domain, stages)

    def _make_stage_fn(self, stage_template: StageTemplate):
        operations = [self._operations[name] for name in stage_template.operations]
        names = stage_template.operations

        def run_stage(payload: Any, ctx: PipelineContext) -> Any:
            metrics: Dict[str, float] = {}
            for name, op in zip(names, operations):
                result = op(payload, ctx)
                if isinstance(result, tuple) and len(result) == 2 and isinstance(
                    result[1], dict
                ):
                    payload, op_metrics = result
                    metrics.update(op_metrics)
                else:
                    payload = result
            for kind in stage_template.evidence:
                ctx.record(
                    kind,
                    f"{stage_template.verb}: {', '.join(names)}",
                    **metrics,
                )
            return payload

        return run_stage


# ---------------------------------------------------------------------------
# built-in templates (the Table 1 domains)
# ---------------------------------------------------------------------------

_INGEST_EVIDENCE = (
    EvidenceKind.ACQUIRED,
    EvidenceKind.VALIDATED_INGEST,
    EvidenceKind.METADATA_ENRICHED,
    EvidenceKind.HIGH_THROUGHPUT_INGEST,
    EvidenceKind.INGEST_AUTOMATED,
)
_PREPROCESS_EVIDENCE = (
    EvidenceKind.INITIAL_ALIGNMENT,
    EvidenceKind.GRIDS_STANDARDIZED,
    EvidenceKind.ALIGNMENT_STANDARDIZED,
    EvidenceKind.ALIGNMENT_AUTOMATED,
)
_TRANSFORM_EVIDENCE = (
    EvidenceKind.INITIAL_NORMALIZATION,
    EvidenceKind.BASIC_LABELS,
    EvidenceKind.NORMALIZATION_FINALIZED,
    EvidenceKind.COMPREHENSIVE_LABELS,
    EvidenceKind.TRANSFORM_AUDITED,
)
_STRUCTURE_EVIDENCE = (
    EvidenceKind.FEATURES_EXTRACTED,
    EvidenceKind.FEATURES_VALIDATED,
)
_SHARD_EVIDENCE = (
    EvidenceKind.SPLIT_PARTITIONED,
    EvidenceKind.SHARDED_BINARY,
)

_DOMAIN_OPERATIONS: Dict[str, Dict[DataProcessingStage, Tuple[str, ...]]] = {
    "climate": {
        DataProcessingStage.INGEST: ("decode_sources", "harmonize_units"),
        DataProcessingStage.PREPROCESS: ("regrid_to_target",),
        DataProcessingStage.TRANSFORM: ("normalize_variables", "attach_targets"),
        DataProcessingStage.STRUCTURE: ("drop_redundant", "stack_tensors"),
        DataProcessingStage.SHARD: ("temporal_split", "write_shards"),
    },
    "fusion": {
        DataProcessingStage.INGEST: ("extract_shots",),
        DataProcessingStage.PREPROCESS: ("align_channels",),
        DataProcessingStage.TRANSFORM: ("normalize_campaign", "label_shots"),
        DataProcessingStage.STRUCTURE: ("window_signals", "physics_features"),
        DataProcessingStage.SHARD: ("group_split", "write_shards"),
    },
    "bio": {
        DataProcessingStage.INGEST: ("parse_modalities",),
        DataProcessingStage.PREPROCESS: ("encode_sequences",),
        DataProcessingStage.TRANSFORM: ("anonymize_records", "complete_labels"),
        DataProcessingStage.STRUCTURE: ("fuse_modalities",),
        DataProcessingStage.SHARD: ("policy_gate", "write_shards"),
    },
    "materials": {
        DataProcessingStage.INGEST: ("parse_calculations",),
        DataProcessingStage.PREPROCESS: ("reference_energies",),
        DataProcessingStage.TRANSFORM: ("encode_graphs", "label_families"),
        DataProcessingStage.STRUCTURE: ("graph_descriptors", "balance_classes"),
        DataProcessingStage.SHARD: ("stratified_split", "write_shards"),
    },
}

_STAGE_EVIDENCE: Dict[DataProcessingStage, Tuple[EvidenceKind, ...]] = {
    DataProcessingStage.INGEST: _INGEST_EVIDENCE,
    DataProcessingStage.PREPROCESS: _PREPROCESS_EVIDENCE,
    DataProcessingStage.TRANSFORM: _TRANSFORM_EVIDENCE,
    DataProcessingStage.STRUCTURE: _STRUCTURE_EVIDENCE,
    DataProcessingStage.SHARD: _SHARD_EVIDENCE,
}

_MODALITIES = {
    "climate": "spatial-temporal grids",
    "fusion": "multi-channel time series",
    "bio": "sequences + tabular",
    "materials": "graphs",
}


def _build_builtin(domain: str) -> DomainTemplate:
    verbs = DOMAIN_STAGE_VERBS[domain]
    stages = tuple(
        StageTemplate(
            verb=verbs[stage],
            processing_stage=stage,
            operations=_DOMAIN_OPERATIONS[domain][stage],
            evidence=_STAGE_EVIDENCE[stage],
        )
        for stage in DataProcessingStage
    )
    return DomainTemplate(
        domain=domain,
        modality=_MODALITIES[domain],
        stages=stages,
        description=f"Built-in Table 1 template for the {domain} archetype.",
    )


BUILTIN_TEMPLATES: Dict[str, DomainTemplate] = {
    domain: _build_builtin(domain) for domain in _DOMAIN_OPERATIONS
}


def builtin_template(domain: str) -> DomainTemplate:
    """One of the four Table 1 templates."""
    try:
        return BUILTIN_TEMPLATES[domain]
    except KeyError:
        raise TemplateError(
            f"no built-in template for {domain!r}; have {sorted(BUILTIN_TEMPLATES)}"
        ) from None


def registered_templates() -> List[str]:
    return sorted(BUILTIN_TEMPLATES)
