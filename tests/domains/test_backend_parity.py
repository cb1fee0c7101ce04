"""Backend parity and resume on the domain archetypes.

The acceptance contract of the layered engine: Serial, Threaded, SimSPMD,
and Process backends run every domain pipeline end-to-end to byte-identical
artifacts (the parity oracle, ``tests/parity.py``), and a run interrupted at
the structure stage resumes from its checkpoint without re-executing
ingest/preprocess.
"""

import pytest

from repro.core.plan import PipelineError, fingerprint_payload
from repro.core.runner import PipelineContext
from repro.domains import ClimateArchetype
from repro.domains.climate.synthetic import ClimateSourceConfig
from repro.provenance.store import ProvenanceStore
from tests.parity import ARCHETYPES, Config, assert_parity

CLIMATE_CONFIG = ClimateSourceConfig(n_models=2, n_timesteps=18, seed=11)


@pytest.mark.parametrize("domain", sorted(ARCHETYPES))
def test_backends_produce_identical_fingerprints(domain):
    """Every stage, shard and manifest of every domain is backend-independent."""
    for name in ("threaded", "simspmd", "process"):
        assert_parity(domain, Config(), Config(backend=name, workers=4))


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
        assert fingerprint_payload(run.payload) == fingerprint_payload(ref_run.payload)
        # lineage continuity holds across the restart
        assert run.context.lineage.verify_connected(
            run.results[-1].output_fingerprint
        )
