"""Domain templates: validation, rendering, and templated execution."""

import pytest

from repro.core.assessment import ReadinessAssessor
from repro.core.evidence import EvidenceKind
from repro.core.levels import DataProcessingStage, DataReadinessLevel
from repro.core.runner import PipelineContext
from repro.core.templates import (
    BUILTIN_TEMPLATES,
    DomainTemplate,
    StageTemplate,
    TemplateError,
    TemplatedPipelineBuilder,
    builtin_template,
    registered_templates,
)

S = DataProcessingStage
K = EvidenceKind


class TestBuiltins:
    def test_all_four_domains_present(self):
        assert set(BUILTIN_TEMPLATES) == {"climate", "fusion", "bio", "materials"}

    def test_all_reach_level_5(self):
        for template in BUILTIN_TEMPLATES.values():
            assert template.max_attainable_level() is DataReadinessLevel.AI_READY

    def test_patterns_match_paper_verbs(self):
        assert builtin_template("climate").pattern_string().startswith("download")
        assert builtin_template("fusion").pattern_string().startswith("extract")

    def test_unknown_domain(self):
        with pytest.raises(TemplateError, match="no built-in"):
            builtin_template("astro")

    def test_render_markdown(self):
        md = builtin_template("materials").render_markdown()
        assert "# Preprocessing template: materials" in md
        assert "parse -> normalize -> encode -> graph -> shard" in md
        assert "SHARDED_BINARY" in md

    def test_registry(self):
        assert set(registered_templates()) >= set(BUILTIN_TEMPLATES)


class TestValidation:
    def test_stage_evidence_must_match_stage(self):
        with pytest.raises(TemplateError, match="belonging to"):
            StageTemplate(
                verb="x", processing_stage=S.INGEST,
                operations=("op",), evidence=(K.SHARDED_BINARY,),
            )

    def test_stage_needs_operations(self):
        with pytest.raises(TemplateError, match="no operations"):
            StageTemplate(verb="x", processing_stage=S.INGEST,
                          operations=(), evidence=())

    def test_template_must_cover_all_stages_in_order(self):
        stage = StageTemplate("a", S.INGEST, ("op",), (K.ACQUIRED,))
        with pytest.raises(TemplateError, match="canonical stages"):
            DomainTemplate(domain="partial", modality="x", stages=(stage,))

    def test_incomplete_evidence_caps_level(self):
        """A template whose transform never audits can't reach level 5."""
        stages = []
        for builtin_stage in builtin_template("climate").stages:
            evidence = tuple(
                k for k in builtin_stage.evidence if k is not K.TRANSFORM_AUDITED
            )
            stages.append(
                StageTemplate(
                    verb=builtin_stage.verb,
                    processing_stage=builtin_stage.processing_stage,
                    operations=builtin_stage.operations,
                    evidence=evidence,
                )
            )
        capped = DomainTemplate(domain="no-audit", modality="x", stages=tuple(stages))
        assert capped.max_attainable_level() is DataReadinessLevel.FEATURE_ENGINEERED


def toy_template() -> DomainTemplate:
    """A tiny 'astronomy' light-curve domain defined from scratch."""
    return DomainTemplate(
        domain="astro-test",
        modality="light curves",
        stages=(
            StageTemplate("query", S.INGEST, ("load",),
                          (K.ACQUIRED, K.VALIDATED_INGEST, K.METADATA_ENRICHED,
                           K.HIGH_THROUGHPUT_INGEST, K.INGEST_AUTOMATED)),
            StageTemplate("fold", S.PREPROCESS, ("detrend",),
                          (K.INITIAL_ALIGNMENT, K.GRIDS_STANDARDIZED,
                           K.ALIGNMENT_STANDARDIZED, K.ALIGNMENT_AUTOMATED)),
            StageTemplate("normalize", S.TRANSFORM, ("scale", "tag"),
                          (K.INITIAL_NORMALIZATION, K.BASIC_LABELS,
                           K.NORMALIZATION_FINALIZED, K.COMPREHENSIVE_LABELS,
                           K.TRANSFORM_AUDITED)),
            StageTemplate("vectorize", S.STRUCTURE, ("featurize",),
                          (K.FEATURES_EXTRACTED, K.FEATURES_VALIDATED)),
            StageTemplate("shard", S.SHARD, ("export",),
                          (K.SPLIT_PARTITIONED, K.SHARDED_BINARY)),
        ),
    )


class TestTemplatedExecution:
    def test_unbound_operations_rejected(self):
        builder = TemplatedPipelineBuilder(toy_template())
        with pytest.raises(TemplateError, match="unbound"):
            builder.build()
        assert "load" in builder.missing_operations()

    def test_binding_undeclared_operation_rejected(self):
        builder = TemplatedPipelineBuilder(toy_template())
        with pytest.raises(TemplateError, match="not declared"):
            builder.bind("mystery", lambda p, c: p)

    def test_full_run_reaches_level_5(self):
        calls = []

        def op(name):
            def fn(payload, ctx):
                calls.append(name)
                return payload + [name]
            return fn

        def tag(payload, ctx):
            calls.append("tag")
            return payload + ["tag"], {"labeled_fraction": 1.0}

        builder = TemplatedPipelineBuilder(toy_template()).bind_all({
            "load": op("load"),
            "detrend": op("detrend"),
            "scale": op("scale"),
            "tag": tag,
            "featurize": op("featurize"),
            "export": op("export"),
        })
        pipeline = builder.build()
        context = PipelineContext(agent="astro-test")
        run = pipeline.run([], context)
        assert calls == ["load", "detrend", "scale", "tag", "featurize", "export"]
        assert run.payload == calls
        assessment = ReadinessAssessor().assess(context.evidence)
        assert assessment.overall is DataReadinessLevel.AI_READY

    def test_operation_metrics_gate_assessment(self):
        """A templated pipeline reporting poor label coverage is capped."""

        def passthrough(payload, ctx):
            return payload

        def weak_tag(payload, ctx):
            return payload, {"labeled_fraction": 0.3}

        builder = TemplatedPipelineBuilder(toy_template()).bind_all({
            name: passthrough
            for name in ("load", "detrend", "scale", "featurize", "export")
        }).bind("tag", weak_tag)
        context = PipelineContext()
        builder.build().run([1], context)
        assessment = ReadinessAssessor().assess(context.evidence)
        # COMPREHENSIVE_LABELS gate fails at 0.3 => capped at level 3
        assert assessment.overall is DataReadinessLevel.LABELED

    def test_pipeline_stage_names_are_verbs(self):
        builder = TemplatedPipelineBuilder(toy_template()).bind_all({
            name: (lambda p, c: p)
            for name in toy_template().operation_names()
        })
        pipeline = builder.build()
        assert pipeline.stage_names == ["query", "fold", "normalize", "vectorize", "shard"]
