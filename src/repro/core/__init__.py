"""The DRAI framework core: readiness taxonomy, assessment, maturity matrix,
pipeline engine, feedback loops, archetype registry, and report rendering.
"""

from repro.core.levels import (
    DOMAIN_STAGE_VERBS,
    DataProcessingStage,
    DataReadinessLevel,
    stage_applicable,
)
from repro.core.dataset import (
    Dataset,
    DatasetMetadata,
    FieldRole,
    FieldSpec,
    Modality,
    Schema,
    SchemaError,
)
from repro.core.evidence import EvidenceKind, EvidenceItem, ReadinessEvidence
from repro.core.assessment import (
    AssessmentCriteria,
    ReadinessAssessment,
    ReadinessAssessor,
    StageAssessment,
)
from repro.core.matrix import CellStatus, MatrixCell, MaturityMatrix
from repro.core.backends import (
    BACKENDS,
    ExecutionBackend,
    SerialBackend,
    SimSPMDBackend,
    ThreadedBackend,
    get_backend,
)
from repro.core.plan import (
    Parallelism,
    PipelineError,
    PipelineStage,
    StagePlan,
    fingerprint_payload,
)
from repro.core.runner import (
    Pipeline,
    PipelineContext,
    PipelineRun,
    PipelineRunner,
    RunEvent,
    RunEventKind,
    StageResult,
)
from repro.core.feedback import (
    FeedbackController,
    FeedbackHistory,
    FeedbackIteration,
    FeedbackRule,
    holdout_accuracy_evaluator,
)
from repro.core.registry import ArchetypeEntry, ArchetypeRegistry, default_registry
from repro.core.templates import (
    BUILTIN_TEMPLATES,
    DomainTemplate,
    StageTemplate,
    TemplatedPipelineBuilder,
    builtin_template,
)
from repro.core.crosswalk import crosswalk_report, to_metric_clusters, to_noaa_maturity
from repro.core.principles import PrincipleScorecard, evaluate_principles

__all__ = [
    "DOMAIN_STAGE_VERBS", "DataProcessingStage",
    "DataReadinessLevel", "stage_applicable",
    "Dataset", "DatasetMetadata", "FieldRole", "FieldSpec", "Modality",
    "Schema", "SchemaError",
    "EvidenceKind", "EvidenceItem", "ReadinessEvidence",
    "AssessmentCriteria", "ReadinessAssessment", "ReadinessAssessor",
    "StageAssessment",
    "CellStatus", "MatrixCell", "MaturityMatrix",
    "Pipeline", "PipelineContext", "PipelineError", "PipelineRun",
    "PipelineStage", "StageResult", "fingerprint_payload",
    "StagePlan", "Parallelism",
    "ExecutionBackend", "SerialBackend", "ThreadedBackend", "SimSPMDBackend",
    "BACKENDS", "get_backend",
    "PipelineRunner", "RunEvent", "RunEventKind",
    "FeedbackController", "FeedbackHistory", "FeedbackIteration",
    "FeedbackRule", "holdout_accuracy_evaluator",
    "ArchetypeEntry", "ArchetypeRegistry", "default_registry",
    "BUILTIN_TEMPLATES", "DomainTemplate", "StageTemplate",
    "TemplatedPipelineBuilder", "builtin_template",
    "crosswalk_report", "to_metric_clusters", "to_noaa_maturity",
    "PrincipleScorecard", "evaluate_principles",
]
