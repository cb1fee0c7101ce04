"""Backend parity and resume on the domain archetypes.

The acceptance contract of the layered engine: Serial, Threaded, SimSPMD,
and Process backends run every domain pipeline end-to-end with
byte-identical output fingerprints, and a run interrupted at the structure
stage resumes from its checkpoint without re-executing ingest/preprocess.
"""

import json

import pytest

from repro.core.plan import PipelineError
from repro.core.runner import PipelineContext
from repro.domains import (
    BioArchetype,
    ClimateArchetype,
    FusionArchetype,
    MaterialsArchetype,
)
from repro.domains.bio.synthetic import BioSourceConfig
from repro.domains.climate.synthetic import ClimateSourceConfig
from repro.domains.fusion.synthetic import FusionCampaignConfig
from repro.domains.materials.synthetic import MaterialsSourceConfig
from repro.io.shards import MANIFEST_NAME
from repro.provenance.store import ProvenanceStore

BACKEND_NAMES = ["serial", "threaded", "simspmd", "process"]

ARCHETYPES = {
    "climate": (
        ClimateArchetype,
        {"config": ClimateSourceConfig(n_models=2, n_timesteps=12, seed=21)},
    ),
    "fusion": (
        FusionArchetype,
        {"config": FusionCampaignConfig(n_shots=10, seed=21)},
    ),
    "bio": (
        BioArchetype,
        {"config": BioSourceConfig(n_subjects=40, sequence_length=128, seed=21)},
    ),
    "materials": (
        MaterialsArchetype,
        {"config": MaterialsSourceConfig(n_structures=60, seed=21)},
    ),
}

CLIMATE_CONFIG = ClimateSourceConfig(n_models=2, n_timesteps=18, seed=11)


@pytest.mark.parametrize("domain", sorted(ARCHETYPES))
def test_backends_produce_identical_fingerprints(domain, tmp_path):
    """Every stage of every domain pipeline is bitwise backend-independent."""
    cls, kwargs = ARCHETYPES[domain]
    per_backend = {}
    for name in BACKEND_NAMES:
        result = cls(seed=21, **kwargs).run(tmp_path / name, backend=name)
        per_backend[name] = result
    reference = per_backend["serial"]
    ref_fps = [r.output_fingerprint for r in reference.run.results]
    for name, result in per_backend.items():
        fps = [r.output_fingerprint for r in result.run.results]
        assert fps == ref_fps, f"{domain}/{name} diverged from serial"
        assert result.dataset.fingerprint() == reference.dataset.fingerprint()
        assert result.run.backend_name == name


def test_climate_shard_outputs_byte_identical(tmp_path):
    """Shard files match byte-for-byte; manifests differ only in writer width."""
    shard_dirs = {}
    for name in BACKEND_NAMES:
        ClimateArchetype(seed=11, config=CLIMATE_CONFIG).run(
            tmp_path / name, backend=name
        )
        shard_dirs[name] = tmp_path / name / "shards"
    reference = shard_dirs["serial"]
    shard_names = sorted(p.name for p in reference.glob("*.rps"))
    assert shard_names
    manifests = {}
    for name, directory in shard_dirs.items():
        assert sorted(p.name for p in directory.glob("*.rps")) == shard_names
        for shard in shard_names:
            assert (directory / shard).read_bytes() == (
                reference / shard
            ).read_bytes(), f"{name}:{shard} diverged"
        manifests[name] = json.loads((directory / MANIFEST_NAME).read_text())
    for manifest in manifests.values():
        manifest["metadata"].pop("written_by_ranks")
    for name in BACKEND_NAMES[1:]:
        assert manifests[name] == manifests["serial"], f"{name} manifest diverged"


class TestClimateResume:
    def _instrumented_pipeline(self, archetype, output_dir, calls):
        pipeline = archetype.build_pipeline(output_dir)
        for stage in pipeline.plan.stages:
            stage.fn = self._counting(stage.name, stage.fn, calls)
        return pipeline

    @staticmethod
    def _counting(name, fn, calls):
        def wrapped(payload, ctx):
            calls.append(name)
            return fn(payload, ctx)

        return wrapped

    def test_resume_after_structure_failure(self, tmp_path):
        """Interrupt at the structure stage; resume must not re-ingest."""
        archetype = ClimateArchetype(seed=11, config=CLIMATE_CONFIG)
        source = archetype.synthesize_source(tmp_path / "source")
        store = ProvenanceStore(tmp_path / "prov.jsonl")
        checkpoint_dir = tmp_path / "ckpt"
        calls = []

        pipeline = self._instrumented_pipeline(archetype, tmp_path / "shards", calls)
        stack_index = pipeline.plan.index_of("stack")

        def injected_failure(payload, ctx):
            calls.append("stack")
            raise RuntimeError("node evicted mid-structure")

        pipeline.plan.stages[stack_index].fn = injected_failure
        with pytest.raises(PipelineError) as info:
            pipeline.run(
                source,
                PipelineContext(provenance_store=store),
                checkpoint_dir=checkpoint_dir,
            )
        assert info.value.stage_name == "stack"
        assert info.value.stage_index == stack_index
        assert calls == ["download", "regrid", "normalize", "stack"]

        # a fresh pipeline object (fresh closures) resumes the same checkpoint
        calls.clear()
        pipeline = self._instrumented_pipeline(archetype, tmp_path / "shards", calls)
        run = pipeline.run(
            source,
            PipelineContext(provenance_store=store),
            checkpoint_dir=checkpoint_dir,
            resume=True,
        )
        # ingest and preprocess did NOT re-execute
        assert calls == ["stack", "shard"]
        assert run.resumed_from == stack_index - 1
        restored = [r.stage_name for r in run.results if r.restored]
        assert restored == ["download", "regrid", "normalize"]

        # the resumed run's output matches an uninterrupted run
        reference = ClimateArchetype(seed=11, config=CLIMATE_CONFIG)
        ref_source = reference.synthesize_source(tmp_path / "ref_source")
        ref_run = reference.build_pipeline(tmp_path / "ref_shards").run(ref_source)
        assert (
            run.results[-1].output_fingerprint
            == ref_run.results[-1].output_fingerprint
        )
        # lineage continuity holds across the restart
        assert run.context.lineage.verify_connected(
            run.results[-1].output_fingerprint
        )
