"""TMPL — the Section 6 future-work vision, demonstrated.

Paper artifact: "we envision the development of a reusable scientific
AI-readiness framework composed of domain-specific templates, scalable
preprocessing pipelines, provenance capture systems, and secure data
enclaves" and "developing standardized domain-specific preprocessing
templates for wider adoption."

The bench quantifies template reuse: it renders the four built-in
Table 1 templates, then onboards a *fifth* domain (astronomy light
curves) through the template API alone and verifies the new domain gets
the full framework — level-5 assessment, provenance chain, audit trail —
without any engine code.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.assessment import ReadinessAssessor
from repro.core.evidence import EvidenceKind as K
from repro.core.levels import DataProcessingStage as S
from repro.core.levels import DataReadinessLevel
from repro.core.runner import PipelineContext
from repro.core.report import render_table
from repro.core.templates import (
    BUILTIN_TEMPLATES,
    DomainTemplate,
    StageTemplate,
    TemplatedPipelineBuilder,
)


def new_domain_template() -> DomainTemplate:
    return DomainTemplate(
        domain="astro-bench",
        modality="light curves",
        stages=(
            StageTemplate("query", S.INGEST, ("load",),
                          (K.ACQUIRED, K.VALIDATED_INGEST, K.METADATA_ENRICHED,
                           K.HIGH_THROUGHPUT_INGEST, K.INGEST_AUTOMATED)),
            StageTemplate("detrend", S.PREPROCESS, ("detrend",),
                          (K.INITIAL_ALIGNMENT, K.GRIDS_STANDARDIZED,
                           K.ALIGNMENT_STANDARDIZED, K.ALIGNMENT_AUTOMATED)),
            StageTemplate("normalize", S.TRANSFORM, ("scale", "label"),
                          (K.INITIAL_NORMALIZATION, K.BASIC_LABELS,
                           K.NORMALIZATION_FINALIZED, K.COMPREHENSIVE_LABELS,
                           K.TRANSFORM_AUDITED)),
            StageTemplate("fold", S.STRUCTURE, ("featurize",),
                          (K.FEATURES_EXTRACTED, K.FEATURES_VALIDATED)),
            StageTemplate("shard", S.SHARD, ("export",),
                          (K.SPLIT_PARTITIONED, K.SHARDED_BINARY)),
        ),
    )


def onboard_new_domain():
    """The whole cost of a new domain: one template + six small functions."""
    template = new_domain_template()
    rng = np.random.default_rng(0)

    operations = {
        "load": lambda p, c: rng.normal(size=(64, 100)),
        "detrend": lambda p, c: p - p.mean(axis=1, keepdims=True),
        "scale": lambda p, c: p / (p.std() or 1.0),
        "label": lambda p, c: (p, {"labeled_fraction": 1.0}),
        "featurize": lambda p, c: np.column_stack([p.min(axis=1), p.std(axis=1)]),
        "export": lambda p, c: p,
    }
    pipeline = TemplatedPipelineBuilder(template).bind_all(operations).build()
    context = PipelineContext(agent="astro-bench")
    run = pipeline.run(None, context)
    assessment = ReadinessAssessor().assess(context.evidence)
    return template, run, assessment, context


def test_template_reuse(benchmark, write_report):
    template, run, assessment, context = benchmark.pedantic(
        onboard_new_domain, rounds=1, iterations=1
    )
    rows = [
        (name, t.pattern_string(), int(t.max_attainable_level()))
        for name, t in BUILTIN_TEMPLATES.items()
    ]
    rows.append((template.domain + " (NEW)", template.pattern_string(),
                 int(template.max_attainable_level())))
    report = (
        "Template registry (4 built-in Table 1 domains + 1 onboarded live):\n\n"
        + render_table(["domain", "pattern", "max level"], rows)
        + "\n\nThe new domain, with zero engine code, produced:\n"
        + f"  - readiness assessment : DRL {int(assessment.overall)}/5\n"
        + f"  - provenance records   : {len(context.lineage.records())}\n"
        + f"  - audit events         : {len(context.audit)} (chain verifies: "
        + f"{context.audit.verify()})\n"
        + f"  - stage timings        : {len(run.results)} stages, "
        + f"{run.total_seconds * 1e3:.1f} ms total"
    )
    write_report("TMPL_templates", report)
    assert assessment.overall is DataReadinessLevel.AI_READY
    assert len(run.results) == 5
    assert context.lineage.verify_connected(run.results[-1].output_fingerprint)
