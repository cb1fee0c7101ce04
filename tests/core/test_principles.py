"""Section 4 guiding-principle scorecard."""

import re

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


#: ``__all__`` of repro.io / repro.transforms / repro.quality at 22331cb (PR 20):
#: a recommendation may name one of these only while it is still exported
EXPORTED_AT_PR20 = frozenset("""
ChunkPlan CleaningReport ConstraintValidator DNA_ALPHABET Datasheet
DriftReport FeatureDrift LogNormalizer MinMaxNormalizer NearestCentroidModel
Normalizer OneHotEncoder OrdinalEncoder PseudoLabelResult QualityReport
RegularGrid RobustNormalizer SelectionReport ShardManifest ShardSet
ShardStreamer Signal SplitSpec UNLABELED UnitConverter ValidationIssue
ValidationResult Vocabulary ZScoreNormalizer add_gaussian_noise
align_signals amplitude_scale area_weighted_mean augment_batch
available_codecs build_datasheet check_bounds check_conservation
check_finite check_monotonic check_precision class_balance clean_dataset
clip_outliers common_time_base completeness correlation_filter coverage
derivative_features detect_drift dna_decode dna_one_hot drop_duplicate_rows
effective_classes export_dataset feature_drift flip get_codec group_split
harmonize_units imbalance_ratio import_dataset impute labeled_fraction
make_normalizer missing_fraction missing_mask mutual_information
noise_estimate normalize_dataset one_hot_dataset_column outlier_rate
pack_array plan_balanced_shards plan_shards_by_bytes plan_shards_by_count
population_stability_index propagate_labels pseudo_label quality_report
random_split read_balance read_shard regrid resample rolling_features
rotate90 select_k_best sliding_windows smote_like stratified_split
temporal_split time_jitter unpack_array validate_schema variance_threshold
window_series write_shard write_shard_set
""".split())


def _minimal_run():
    def minimal(payload, ctx):
        ctx.record(EvidenceKind.ACQUIRED)
        return payload

    pipeline = Pipeline("minimal", [
        PipelineStage("ingest", DataProcessingStage.INGEST, minimal),
    ])
    return pipeline.run(np.zeros(3))


class TestBarePipelinesGetRecommendations:
    @pytest.mark.parametrize("index", range(5))
    def test_recommendation_names_only_code_that_exists(self, index):
        import repro.io
        import repro.quality
        import repro.transforms

        exported = {*repro.io.__all__, *repro.transforms.__all__, *repro.quality.__all__}
        result = evaluate_principles(_minimal_run()).results[index]
        words = set(re.findall(r"[A-Za-z_]\w*", result.recommendation))
        assert words & EXPORTED_AT_PR20 <= exported, (result.principle, result.recommendation)

    def test_minimal_pipeline_misses_and_recommends(self):
        scorecard = evaluate_principles(_minimal_run())
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
