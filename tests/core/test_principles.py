"""Section 4 guiding-principle scorecard."""

import numpy as np
import pytest

from repro.core.evidence import EvidenceKind
from repro.core.levels import DataProcessingStage
from repro.core.plan import PipelineStage
from repro.core.runner import Pipeline
from repro.core.principles import evaluate_principles


@pytest.fixture(scope="module")
def archetype_results(tmp_path_factory):
    from repro.domains import MaterialsArchetype, FusionArchetype
    from repro.domains.fusion.synthetic import FusionCampaignConfig
    from repro.domains.materials.synthetic import MaterialsSourceConfig

    materials = MaterialsArchetype(
        seed=41, config=MaterialsSourceConfig(n_structures=60, seed=41)
    ).run(tmp_path_factory.mktemp("mat"))
    fusion = FusionArchetype(
        seed=41, config=FusionCampaignConfig(n_shots=10, seed=41)
    ).run(tmp_path_factory.mktemp("fus"))
    return {"materials": materials, "fusion": fusion}


class TestArchetypesSatisfyPrinciples:
    def test_all_five_principles_pass(self, archetype_results):
        for domain, result in archetype_results.items():
            scorecard = evaluate_principles(result.run)
            assert scorecard.all_satisfied, (
                domain, [r.principle for r in scorecard.results if not r.satisfied],
                scorecard.render(),
            )

    def test_fusion_feedback_signal_is_the_pseudo_label_loop(self, archetype_results):
        scorecard = evaluate_principles(archetype_results["fusion"].run)
        feedback = next(
            r for r in scorecard.results if "feedback" in r.principle
        )
        assert any("pseudo-labeling" in s for s in feedback.signals)

    def test_render_contains_all_rows(self, archetype_results):
        text = evaluate_principles(archetype_results["materials"].run).render()
        assert text.count("PASS") == 5
        assert "recommendations" not in text


class TestBarePipelinesGetRecommendations:
    def test_minimal_pipeline_misses_and_recommends(self):
        def minimal(payload, ctx):
            ctx.record(EvidenceKind.ACQUIRED)
            return payload

        pipeline = Pipeline("minimal", [
            PipelineStage("ingest", DataProcessingStage.INGEST, minimal),
        ])
        run = pipeline.run(np.zeros(3))
        scorecard = evaluate_principles(run)
        assert not scorecard.all_satisfied
        assert scorecard.satisfied_count <= 2
        recommendations = scorecard.recommendations()
        assert any("shard" in r.lower() for r in recommendations)
        assert any("audit" in r.lower() or "sensitive" in r.lower()
                   for r in recommendations)
        assert "MISS" in scorecard.render()

    def test_complete_labels_at_source_counts_as_feedback_handled(self):
        def stage(payload, ctx):
            ctx.record(EvidenceKind.COMPREHENSIVE_LABELS, "archive labels",
                       labeled_fraction=1.0)
            return payload

        pipeline = Pipeline("labeled", [
            PipelineStage("t", DataProcessingStage.TRANSFORM, stage),
        ])
        scorecard = evaluate_principles(pipeline.run(np.zeros(2)))
        feedback = next(r for r in scorecard.results if "feedback" in r.principle)
        assert feedback.satisfied
