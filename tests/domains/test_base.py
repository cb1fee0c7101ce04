"""Cross-archetype contract: every domain satisfies the same surface."""

import pytest

from repro.core.levels import DataProcessingStage, DOMAIN_STAGE_VERBS
from repro.core.registry import default_registry
from repro.domains import all_archetypes
from repro.domains.bio.synthetic import BioSourceConfig
from repro.domains.climate.synthetic import ClimateSourceConfig
from repro.domains.fusion.synthetic import FusionCampaignConfig
from repro.domains.materials.synthetic import MaterialsSourceConfig


SMALL_CONFIGS = {
    "climate": {"config": ClimateSourceConfig(n_models=2, n_timesteps=12, seed=21)},
    "fusion": {"config": FusionCampaignConfig(n_shots=10, seed=21)},
    "bio": {"config": BioSourceConfig(n_subjects=40, sequence_length=128, seed=21)},
    "materials": {"config": MaterialsSourceConfig(n_structures=60, seed=21)},
}


@pytest.fixture(scope="module")
def all_results(tmp_path_factory):
    from repro.domains import (
        BioArchetype, ClimateArchetype, FusionArchetype, MaterialsArchetype,
    )

    classes = {
        "climate": ClimateArchetype,
        "fusion": FusionArchetype,
        "bio": BioArchetype,
        "materials": MaterialsArchetype,
    }
    results = {}
    for domain, cls in classes.items():
        arch = cls(seed=21, **SMALL_CONFIGS[domain])
        results[domain] = arch.run(tmp_path_factory.mktemp(domain))
    return results


class TestContract:
    def test_all_four_reach_level_5(self, all_results):
        for domain, result in all_results.items():
            assert result.readiness_level == 5, (
                domain, result.assessment.gap_report()
            )

    def test_all_cover_five_canonical_stages(self, all_results):
        for domain, result in all_results.items():
            stages = {r.processing_stage for r in result.run.results}
            assert stages == set(DataProcessingStage), domain

    def test_pattern_strings_match_section_3_5(self):
        for arch in all_archetypes():
            verbs = DOMAIN_STAGE_VERBS[arch.domain]
            assert arch.pattern_string() == " -> ".join(
                verbs[s] for s in DataProcessingStage
            )

    def test_every_archetype_produces_manifest(self, all_results):
        for domain, result in all_results.items():
            assert result.manifest is not None, domain
            assert result.manifest.n_shards > 0

    def test_every_archetype_detects_table1_challenges(self, all_results):
        registry = default_registry()
        for domain, result in all_results.items():
            assert result.detected_challenges, domain
            # at least one detected challenge maps to a Table 1 claim
            claimed = registry.get(domain).challenges
            detected_text = " ".join(result.detected_challenges).lower()
            assert any(
                claim.split()[0].lower() in detected_text for claim in claimed
            ), (domain, result.detected_challenges)

    def test_curation_dominates_runtime_for_fusion(self, all_results):
        """The fusion-ML workshop claim: most time goes to curation."""
        fraction = all_results["fusion"].curation_fraction()
        assert fraction > 0.0
        # ingest+align+normalize vs window+shard: curation is a real share
        assert fraction < 1.0

    def test_provenance_complete_everywhere(self, all_results):
        for domain, result in all_results.items():
            final = result.run.results[-1].output_fingerprint
            assert result.run.context.lineage.verify_connected(final), domain

    def test_audit_chains_verify_everywhere(self, all_results):
        for domain, result in all_results.items():
            assert result.run.context.audit.verify(), domain

    def test_datasheets_build_for_every_archetype(self, all_results):
        from repro.quality.datasheet import build_datasheet

        for domain, result in all_results.items():
            sheet = build_datasheet(result.dataset, assessment=result.assessment)
            md = sheet.render_markdown()
            assert f"Datasheet: {result.dataset.metadata.name}" in md
            assert sheet.readiness_level == 5


def test_run_forwards_every_runner_option(tmp_path):
    """``run(**runner_options)`` reaches ``PipelineRunner.__init__`` whole:
    the quarantine directory is written, and a pinned ``clock`` stamps events."""
    from repro.domains import ClimateArchetype
    from repro.gates import QuarantineStore

    config = ClimateSourceConfig(n_models=2, n_timesteps=12, seed=21, n_corrupt_models=1)
    result = ClimateArchetype(seed=21, config=config).run(
        tmp_path, gates="quarantine", quarantine_dir=tmp_path / "q", clock=lambda: 7.0
    )
    assert len(QuarantineStore(tmp_path / "q")) == result.run.records_quarantined == 1
    assert {e.timestamp for e in result.run.events} == {7.0}
    with pytest.raises(TypeError, match="no_such_option"):
        ClimateArchetype(seed=21, config=config).run(tmp_path, no_such_option=1)


@pytest.mark.parametrize("domain", sorted(SMALL_CONFIGS))
def test_equal_stage_ids_mean_equal_content_across_archetype_seeds(domain, tmp_path):
    """A stage id is derived from the plan, never read from the output, so
    every value a stage function reads besides its payload must sit in its
    params: two archetype seeds over one source in one workdir may give a
    stage output one id only where they give it one content."""
    from tests.parity import watch

    cls = {a.domain: type(a) for a in all_archetypes()}[domain]
    runs = []
    for seed in (1, 2):
        outputs = {}
        run = watch(cls(seed=seed, **SMALL_CONFIGS[domain]), outputs).run(tmp_path).run
        ids = {f"stage {i} ({r.stage_name})": r.output_fingerprint
               for i, r in enumerate(run.results)}
        assert ids.keys() == outputs.keys()
        runs.append((ids, outputs))
    (ids_a, content_a), (ids_b, content_b) = runs
    for stage in ids_a:
        if ids_a[stage] == ids_b[stage]:
            assert content_a[stage] == content_b[stage], stage
