"""Pipeline engine: ordering, capture, failure handling, fingerprints."""

import numpy as np
import pytest

from repro.core.evidence import EvidenceKind
from repro.core.levels import DataProcessingStage
from repro.core.plan import PipelineError, PipelineStage, fingerprint_payload
from repro.core.runner import Pipeline, PipelineContext

S = DataProcessingStage


def passthrough(payload, ctx):
    return payload


def doubler(payload, ctx):
    return payload * 2


class TestConstruction:
    def test_empty_pipeline_rejected(self):
        with pytest.raises(PipelineError, match="at least one"):
            Pipeline("p", [])

    def test_out_of_order_stages_rejected(self):
        stages = [
            PipelineStage("shard", S.SHARD, passthrough),
            PipelineStage("ingest", S.INGEST, passthrough),
        ]
        with pytest.raises(PipelineError, match="canonical order"):
            Pipeline("p", stages)

    def test_repeated_canonical_stage_allowed(self):
        """Two transform sub-steps are fine; going backwards is not."""
        Pipeline("p", [
            PipelineStage("normalize", S.TRANSFORM, passthrough),
            PipelineStage("anonymize", S.TRANSFORM, passthrough),
        ])


class TestExecution:
    def test_payload_threads_through_stages(self):
        pipeline = Pipeline("p", [
            PipelineStage("double1", S.INGEST, doubler),
            PipelineStage("double2", S.TRANSFORM, doubler),
        ])
        run = pipeline.run(np.asarray([1.0, 2.0]))
        assert np.array_equal(run.payload, [4.0, 8.0])
        assert run.total_seconds >= 0

    def test_stage_results_accounting(self):
        pipeline = Pipeline("p", [
            PipelineStage("a", S.INGEST, doubler),
            PipelineStage("b", S.SHARD, doubler),
        ])
        run = pipeline.run(np.ones(4))
        assert [r.stage_name for r in run.results] == ["a", "b"]
        assert run.results[0].output_fingerprint == run.results[1].input_fingerprint
        by_stage = run.seconds_by_processing_stage()
        assert set(by_stage) == {S.INGEST, S.SHARD}

    def test_evidence_recorded_counted_per_stage(self):
        def recorder(payload, ctx):
            ctx.record(EvidenceKind.ACQUIRED, "got it")
            ctx.record(EvidenceKind.VALIDATED_INGEST, "checked")
            return payload

        run = Pipeline("p", [PipelineStage("r", S.INGEST, recorder)]).run(np.ones(2))
        assert run.results[0].evidence_recorded == 2
        assert run.context.evidence.has(EvidenceKind.ACQUIRED)

    def test_failure_wraps_and_audits(self):
        def boom(payload, ctx):
            raise ValueError("bad data")

        pipeline = Pipeline("p", [PipelineStage("boom", S.INGEST, boom)])
        context = PipelineContext()
        with pytest.raises(PipelineError, match="stage 'boom' failed: bad data"):
            pipeline.run(np.ones(2), context)
        failures = [e for e in context.audit if e.action == "stage-failed"]
        assert len(failures) == 1 and failures[0].subject == "boom"

    def test_stage_table_renders(self):
        run = Pipeline("p", [PipelineStage("a", S.INGEST, doubler)]).run(np.ones(2))
        table = run.stage_table()
        assert "a" in table and "Ingest" in table


class TestProvenanceCapture:
    def test_lineage_chain_built(self):
        pipeline = Pipeline("p", [
            PipelineStage("a", S.INGEST, doubler),
            PipelineStage("b", S.TRANSFORM, doubler),
        ])
        context = PipelineContext()
        run = pipeline.run(np.ones(3), context)
        final = run.results[-1].output_fingerprint
        assert [r.activity for r in context.lineage.records()] == ["p:source", "a", "b"]
        assert context.lineage.verify_connected(final)

    def test_observer_stage_does_not_break_lineage(self):
        """A stage returning the payload unchanged creates no self-edge."""
        pipeline = Pipeline("p", [
            PipelineStage("a", S.INGEST, doubler),
            PipelineStage("observe", S.TRANSFORM, passthrough),
            PipelineStage("b", S.STRUCTURE, doubler),
        ])
        context = PipelineContext()
        run = pipeline.run(np.ones(3), context)
        final = run.results[-1].output_fingerprint
        assert context.lineage.verify_connected(final)

    def test_provenance_store_receives_records(self, tmp_path):
        from repro.provenance.store import ProvenanceStore

        store = ProvenanceStore(tmp_path / "prov.jsonl")
        context = PipelineContext(provenance_store=store)
        Pipeline("p", [PipelineStage("a", S.INGEST, doubler)]).run(np.ones(2), context)
        assert len(store) == 2  # source registration + stage a

    def test_audit_has_completion_events(self):
        context = PipelineContext(agent="tester")
        Pipeline("p", [PipelineStage("a", S.INGEST, doubler)]).run(np.ones(2), context)
        completed = [e for e in context.audit if e.action == "stage-completed"]
        assert len(completed) == 1
        assert completed[0].actor == "tester"
        context.audit.verify()

    def test_artifacts_visible_to_later_stages(self):
        def producer(payload, ctx):
            ctx.add_artifact("stats", {"mean": 1.5})
            return payload * 2

        def consumer(payload, ctx):
            assert ctx.artifacts["stats"]["mean"] == 1.5
            return payload

        Pipeline("p", [
            PipelineStage("produce", S.INGEST, producer),
            PipelineStage("consume", S.TRANSFORM, consumer),
        ]).run(np.ones(2))


class TestFingerprintPayload:
    def test_dataset_uses_dataset_fingerprint(self, small_dataset):
        assert fingerprint_payload(small_dataset) == small_dataset.fingerprint()

    def test_ndarray_deterministic(self, rng):
        array = rng.normal(size=8)
        assert fingerprint_payload(array) == fingerprint_payload(array.copy())

    def test_containers_recursive(self, rng):
        array = rng.normal(size=4)
        a = fingerprint_payload({"x": array, "y": [1, 2]})
        b = fingerprint_payload({"y": [1, 2], "x": array.copy()})
        assert a == b  # dict order-insensitive

    def test_distinct_payloads_distinct_hashes(self, rng):
        assert fingerprint_payload(rng.normal(size=4)) != fingerprint_payload(
            rng.normal(size=4)
        )
