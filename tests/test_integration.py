"""Cross-module integration and failure-injection tests.

These tie subsystems together the way a facility deployment would:
pipelines feeding shard sets feeding streamers; provenance stores replayed
across sessions; drift monitoring between data drops; and deliberate
corruption/violation scenarios that must fail loudly, not silently.
"""

import numpy as np
import pytest

from repro.core.backends import SimSPMDBackend
from repro.core.dataset import Dataset
from repro.core.plan import PipelineError, fingerprint_payload
from repro.io.shards import ShardError, ShardSet
from repro.io.stream import ShardStreamer
from repro.quality.drift import PSI_ACT, population_stability_index


@pytest.fixture(scope="module")
def climate_result(tmp_path_factory):
    from repro.domains.climate import ClimateArchetype, ClimateSourceConfig

    archetype = ClimateArchetype(
        seed=31, config=ClimateSourceConfig(n_models=2, n_timesteps=16, seed=31)
    )
    return archetype.run(tmp_path_factory.mktemp("climate-int"))


class TestPipelineToTrainer:
    """Archetype output -> streamer -> training batches, with verification."""

    def test_streamer_over_archetype_shards(self, climate_result, tmp_path):
        # re-export the archetype's dataset rank-parallel into tmp_path
        ds = climate_result.dataset
        SimSPMDBackend(n_ranks=2).shard_write(
            ds, tmp_path / "restream", {"train": np.arange(ds.n_samples)}, shards_per_split=4,
        )
        shard_set = ShardSet(tmp_path / "restream")
        shard_set.verify()
        streamer = ShardStreamer(shard_set, "train", batch_size=8, shuffle=True,
                                 shuffle_buffer=16, seed=0)
        n_rows = sum(batch["tas"].shape[0] for batch in streamer)
        assert n_rows == ds.n_samples
        batch = next(iter(streamer))
        assert batch["tas"].shape[1:] == (16, 32)

    def test_two_rank_training_sees_disjoint_shards(self, climate_result, tmp_path):
        ds = climate_result.dataset
        SimSPMDBackend(n_ranks=2).shard_write(
            ds, tmp_path / "ranks", {"train": np.arange(ds.n_samples)}, shards_per_split=6,
        )
        shard_set = ShardSet(tmp_path / "ranks")
        seen = []
        for rank in range(2):
            streamer = ShardStreamer(shard_set, "train", batch_size=16,
                                     rank=rank, world=2)
            for batch in streamer:
                seen.extend(batch["time_index"].tolist())
        assert sorted(seen) == sorted(ds["time_index"].tolist())


class TestProvenanceSessions:
    def test_store_replay_across_sessions(self, tmp_path):
        from repro.core.evidence import EvidenceKind
        from repro.core.levels import DataProcessingStage
        from repro.core.plan import PipelineStage
        from repro.core.runner import Pipeline, PipelineContext
        from repro.provenance.store import ProvenanceStore

        store_path = tmp_path / "prov.jsonl"

        def run_once():
            def stage(payload, ctx):
                ctx.record(EvidenceKind.ACQUIRED)
                return payload * 2

            pipeline = Pipeline("session", [
                PipelineStage("double", DataProcessingStage.INGEST, stage,
                              params={"factor": 2}),
            ])
            context = PipelineContext(provenance_store=ProvenanceStore(store_path))
            return pipeline.run(np.arange(4.0), context)

        first = run_once()
        second = run_once()
        # a later session rebuilds lineage from disk and sees both runs
        graph = ProvenanceStore(store_path).build_graph()
        final = first.results[-1].output_fingerprint
        assert graph.verify_connected(final)
        # identical input + identical recipe => identical output content
        assert fingerprint_payload(first.payload) == fingerprint_payload(second.payload)


class TestFailureInjection:
    def test_corrupt_shard_blocks_training(self, climate_result, tmp_path):
        ds = climate_result.dataset
        SimSPMDBackend(n_ranks=1).shard_write(
            ds, tmp_path / "corrupt", {"train": np.arange(ds.n_samples)}, shards_per_split=3,
        )
        shard_set = ShardSet(tmp_path / "corrupt")
        victim = next((tmp_path / "corrupt").glob("train-*.rps"))
        raw = bytearray(victim.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        victim.write_bytes(bytes(raw))
        with pytest.raises(ShardError):
            shard_set.verify()
        # and the streamer hits the CRC on read rather than yielding garbage
        with pytest.raises(Exception):
            for _ in ShardStreamer(shard_set, "train", batch_size=8):
                pass

    def test_pipeline_failure_is_audited_and_wrapped(self):
        from repro.core.levels import DataProcessingStage
        from repro.core.plan import PipelineStage
        from repro.core.runner import Pipeline, PipelineContext

        def bad_stage(payload, ctx):
            raise KeyError("missing diagnostic channel")

        pipeline = Pipeline("failing", [
            PipelineStage("extract", DataProcessingStage.INGEST, bad_stage),
        ])
        context = PipelineContext()
        with pytest.raises(PipelineError, match="missing diagnostic channel"):
            pipeline.run({}, context)
        assert any(e.action == "stage-failed" for e in context.audit)
        context.audit.verify()

    def test_bio_pipeline_blocks_on_unachievable_k(self, tmp_path):
        """If policy cannot be satisfied, the pipeline refuses to shard."""
        from repro.domains.bio import BioArchetype, BioSourceConfig

        archetype = BioArchetype(
            seed=1,
            config=BioSourceConfig(n_subjects=2, sequence_length=64, seed=1),
        )  # k = 3 is impossible with 2 subjects
        with pytest.raises(PipelineError, match="k-anonymity"):
            archetype.run(tmp_path / "blocked")

    def test_fusion_handles_campaign_with_all_channels_missing(self, tmp_path):
        from repro.domains.fusion.pipeline import FusionArchetype
        from repro.domains.fusion.shottree import ShotTreeStore
        from repro.transforms.align import Signal

        store = ShotTreeStore(tmp_path / "mds")
        # shots lacking ip/mirnov are unusable; a campaign of only those
        # must fail with a clear message, not produce an empty dataset
        times = np.linspace(0, 1, 50)
        store.write_shot(1, {"density": Signal("density", times, np.ones(50))}, {})
        archetype = FusionArchetype(seed=0)
        pipeline = archetype.build_pipeline(tmp_path / "out")
        from repro.core.runner import PipelineContext

        with pytest.raises(PipelineError, match="no usable shots"):
            pipeline.run({"store": str(store.directory)}, PipelineContext())

    def test_streamer_on_empty_split(self, tmp_path):
        from repro.io.shards import write_shard_set

        ds = Dataset.from_arrays({"x": np.arange(10.0)})
        write_shard_set(ds, tmp_path / "e",
                        splits={"train": np.arange(10), "val": np.array([], dtype=int)})
        shard_set = ShardSet(tmp_path / "e")
        batches = list(ShardStreamer(shard_set, "val", batch_size=4))
        assert batches == []


class TestDriftAcrossDataDrops:
    def test_new_seed_same_generator_is_stable(self, tmp_path):
        """Two drops from the same physical process shouldn't drift."""
        from repro.domains.materials.synthetic import (
            MaterialsSourceConfig,
            generate_structure,
        )

        def energies(seed):
            rng = np.random.default_rng(seed)
            config = MaterialsSourceConfig(n_structures=150, seed=seed)
            return np.asarray([
                generate_structure(i, config, rng)["energy_ev"] for i in range(150)
            ])

        assert population_stability_index(energies(1), energies(2)) < PSI_ACT

    def test_changed_process_drifts(self):
        from repro.domains.materials.synthetic import (
            MaterialsSourceConfig,
            generate_structure,
        )

        def energies(config, seed):
            rng = np.random.default_rng(seed)
            return np.asarray([
                generate_structure(i, config, rng)["energy_ev"] for i in range(150)
            ])

        reference = energies(MaterialsSourceConfig(n_structures=150), 1)
        # a calibration change: all experimental, bigger offset
        shifted_config = MaterialsSourceConfig(
            n_structures=150, experimental_fraction=1.0, experimental_offset=10.0
        )
        current = energies(shifted_config, 1)
        assert population_stability_index(reference, current) >= PSI_ACT
