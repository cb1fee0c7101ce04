"""Run layer: structured events, failure attribution, checkpointed resume."""

import numpy as np
import pytest

from repro.core.levels import DataProcessingStage
from repro.core.plan import PipelineError, PipelineStage, StagePlan, fingerprint_payload
from repro.core.runner import PipelineContext, PipelineRunner, RunEventKind
from repro.durability.checkpoint import CheckpointError
from repro.durability.recover import recover_run
from repro.obs import Telemetry
from repro.provenance.store import ProvenanceStore
from repro.workers import DrainController, DrainInterrupt, ProcessBackend

S = DataProcessingStage


def doubler(payload, ctx):
    return payload * 2


def passthrough(payload, ctx):
    return payload


def two_stage_plan():
    return StagePlan.build("p", [
        PipelineStage("a", S.INGEST, doubler),
        PipelineStage("b", S.TRANSFORM, doubler),
    ])


class TestRunEvents:
    def test_event_sequence_for_clean_run(self):
        run = PipelineRunner(two_stage_plan()).run(np.ones(3))
        kinds = [e.kind for e in run.events]
        assert kinds == [
            RunEventKind.RUN_STARTED,
            RunEventKind.STAGE_STARTED,
            RunEventKind.STAGE_COMPLETED,
            RunEventKind.STAGE_STARTED,
            RunEventKind.STAGE_COMPLETED,
            RunEventKind.RUN_COMPLETED,
        ]

    def test_completed_events_carry_timings_and_fingerprints(self):
        run = PipelineRunner(two_stage_plan()).run(np.ones(3))
        completed = [e for e in run.events if e.kind is RunEventKind.STAGE_COMPLETED]
        assert [e.stage_name for e in completed] == ["a", "b"]
        assert all(e.seconds >= 0 for e in completed)
        assert completed[0].fingerprint == run.results[0].output_fingerprint
        assert run.events[-1].fingerprint == run.results[-1].output_fingerprint

    def test_on_event_callback_streams_live(self):
        seen = []
        runner = PipelineRunner(two_stage_plan(), on_event=seen.append)
        run = runner.run(np.ones(2))
        assert [e.kind for e in seen] == [e.kind for e in run.events]

    def test_failure_emits_stage_and_run_failed(self):
        def boom(payload, ctx):
            raise ValueError("bad data")

        plan = StagePlan.build("p", [
            PipelineStage("ok", S.INGEST, doubler),
            PipelineStage("boom", S.TRANSFORM, boom),
        ])
        with pytest.raises(PipelineError) as info:
            PipelineRunner(plan).run(np.ones(2))
        kinds = [e.kind for e in info.value.events]
        assert kinds[-2:] == [RunEventKind.STAGE_FAILED, RunEventKind.RUN_FAILED]

    def test_event_log_renders(self):
        run = PipelineRunner(two_stage_plan()).run(np.ones(2))
        log = run.event_log()
        assert "stage-completed" in log and "run-completed" in log


class TestFailureAttribution:
    def test_pipeline_error_carries_stage_name_and_index(self):
        def boom(payload, ctx):
            raise ValueError("bad data")

        plan = StagePlan.build("p", [
            PipelineStage("ok", S.INGEST, doubler),
            PipelineStage("boom", S.TRANSFORM, boom),
        ])
        with pytest.raises(PipelineError) as info:
            PipelineRunner(plan).run(np.ones(2))
        assert info.value.stage_name == "boom"
        assert info.value.stage_index == 1
        assert "stage 'boom' failed: bad data" in str(info.value)


class TestObserverStages:
    def test_observer_records_no_new_lineage_entity(self):
        plan = StagePlan.build("p", [
            PipelineStage("a", S.INGEST, doubler),
            PipelineStage("observe", S.TRANSFORM, passthrough),
            PipelineStage("b", S.STRUCTURE, doubler),
        ])
        context = PipelineContext()
        run = PipelineRunner(plan).run(np.ones(3), context)
        activities = {
            r.activity for fp in context.lineage.entities
            if (r := context.lineage.record_for(fp)) is not None
        }
        assert "observe" not in activities
        # the observer's in/out fingerprints match, so the chain stays connected
        assert run.results[1].input_fingerprint == run.results[1].output_fingerprint
        assert context.lineage.verify_connected(run.results[-1].output_fingerprint)

    def test_observer_still_appears_in_events_and_audit(self):
        plan = StagePlan.build("p", [
            PipelineStage("observe", S.INGEST, passthrough),
        ])
        context = PipelineContext()
        run = PipelineRunner(plan).run(np.ones(3), context)
        assert any(
            e.kind is RunEventKind.STAGE_COMPLETED and e.stage_name == "observe"
            for e in run.events
        )
        assert any(e.action == "stage-completed" for e in context.audit)


class TestCommittedPayloadsFrozen:
    """A committed payload's arrays are read-only: a stage that writes into
    its input fails at once, named, and is never retried."""

    @pytest.mark.parametrize("backend", ["serial", "threaded", "process", "simspmd"])
    def test_a_write_into_the_committed_input_fails_the_stage(self, backend):
        from repro.faults import RetryPolicy, VirtualClock

        attempts = []

        def scribble(payload, ctx):
            attempts.append(1)
            total = sum(ctx.backend.map(float, list(payload["x"])))
            # through the base of the committed view: the chain is frozen too
            payload["x"].base[0] = total
            return payload

        plan = StagePlan.build("p", [
            PipelineStage("make", S.INGEST, lambda p, c: {"x": np.arange(8.0)[2:]}),
            PipelineStage("scribble", S.TRANSFORM, scribble),
        ])
        runner = PipelineRunner(
            plan, backend=backend, retry_policy=RetryPolicy(max_attempts=3),
            fault_clock=VirtualClock(),
        )
        with pytest.raises(PipelineError, match="stage 'scribble' failed: .*read-only") as info:
            runner.run(None)
        assert (info.value.stage_name, info.value.stage_index) == ("scribble", 1)
        assert attempts == [1]

    def test_a_restored_payload_is_frozen_too(self, tmp_path):
        plan = StagePlan.build("p", [
            PipelineStage("make", S.INGEST, lambda p, c: np.arange(4.0)),
            PipelineStage("scale", S.TRANSFORM, lambda p, c: p.__imul__(2)),
        ])
        with pytest.raises(PipelineError, match="read-only"):
            PipelineRunner(plan, checkpoint_dir=tmp_path).run(None)
        with pytest.raises(PipelineError, match="stage 'scale' failed: .*read-only"):
            PipelineRunner(plan, checkpoint_dir=tmp_path).run(None, resume=True)


class TestCheckpointResume:
    def _tracked_plan(self, calls):
        def a(payload, ctx):
            calls.append("a")
            return payload * 2

        def b(payload, ctx):
            calls.append("b")
            return payload + 1

        def c(payload, ctx):
            calls.append("c")
            return payload * 3

        return StagePlan.build("p", [
            PipelineStage("a", S.INGEST, a),
            PipelineStage("b", S.TRANSFORM, b),
            PipelineStage("c", S.SHARD, c),
        ])

    def test_resume_skips_completed_stages(self, tmp_path):
        calls = []
        plan = self._tracked_plan(calls)
        failing = StagePlan.build("p", [
            plan.stages[0],
            plan.stages[1],
            PipelineStage("c", S.SHARD, lambda p, c: (_ for _ in ()).throw(
                RuntimeError("disk full"))),
        ])
        runner = PipelineRunner(failing, checkpoint_dir=tmp_path)
        with pytest.raises(PipelineError) as info:
            runner.run(np.ones(4))
        assert info.value.stage_name == "c"
        assert calls == ["a", "b"]

        resumed = PipelineRunner(plan, checkpoint_dir=tmp_path).run(
            np.ones(4), resume=True
        )
        assert calls == ["a", "b", "c"]  # a and b were NOT re-executed
        assert resumed.resumed_from == 1
        assert [r.stage_name for r in resumed.results if r.restored] == ["a", "b"]
        skipped = [e for e in resumed.events if e.kind is RunEventKind.STAGE_SKIPPED]
        assert [e.stage_name for e in skipped] == ["a", "b"]
        np.testing.assert_array_equal(resumed.payload, (np.ones(4) * 2 + 1) * 3)

    def test_resumed_run_matches_uninterrupted_run(self, tmp_path):
        calls = []
        plan = self._tracked_plan(calls)
        reference = PipelineRunner(plan).run(np.ones(4))

        runner = PipelineRunner(plan, checkpoint_dir=tmp_path)
        first = runner.run(np.ones(4))
        resumed = runner.run(np.ones(4), resume=True)
        assert fingerprint_payload(resumed.payload) == fingerprint_payload(reference.payload)
        assert fingerprint_payload(first.payload) == fingerprint_payload(resumed.payload)

    def test_resume_restores_artifacts_and_evidence(self, tmp_path):
        from repro.core.evidence import EvidenceKind

        def produce(payload, ctx):
            ctx.add_artifact("stats", {"mean": 1.5})
            ctx.record(EvidenceKind.ACQUIRED, "got it")
            return payload * 2

        def boom(payload, ctx):
            raise RuntimeError("injected")

        failing = StagePlan.build("p", [
            PipelineStage("produce", S.INGEST, produce),
            PipelineStage("boom", S.SHARD, boom),
        ])
        with pytest.raises(PipelineError):
            PipelineRunner(failing, checkpoint_dir=tmp_path).run(np.ones(2))

        fixed = StagePlan.build("p", [
            PipelineStage("produce", S.INGEST, produce),
            PipelineStage("boom", S.SHARD, passthrough),
        ])
        run = PipelineRunner(fixed, checkpoint_dir=tmp_path).run(
            np.ones(2), resume=True
        )
        assert run.context.artifacts["stats"] == {"mean": 1.5}
        assert run.context.evidence.has(EvidenceKind.ACQUIRED)

    def test_resume_without_checkpointer_rejected(self):
        with pytest.raises(PipelineError, match="no checkpointer"):
            PipelineRunner(two_stage_plan()).run(np.ones(2), resume=True)

    def test_resume_with_empty_checkpoint_dir_runs_fresh(self, tmp_path):
        run = PipelineRunner(two_stage_plan(), checkpoint_dir=tmp_path).run(
            np.ones(2), resume=True
        )
        assert run.resumed_from is None
        assert len(run.results) == 2

    def test_checkpoint_from_different_plan_rejected(self, tmp_path):
        PipelineRunner(two_stage_plan(), checkpoint_dir=tmp_path).run(np.ones(2))
        other = StagePlan.build("q", [PipelineStage("z", S.INGEST, doubler)])
        with pytest.raises(CheckpointError, match="different"):
            PipelineRunner(other, checkpoint_dir=tmp_path).run(
                np.ones(2), resume=True
            )

    def test_corrupted_checkpoint_quarantined_on_resume(self, tmp_path):
        runner = PipelineRunner(two_stage_plan(), checkpoint_dir=tmp_path)
        clean = runner.run(np.ones(2))
        blob_path = sorted(tmp_path.glob("stage-*.snap"))[-1]
        # the payload array's bytes are the snapshot's last blob: flip one
        damaged = bytearray(blob_path.read_bytes())
        damaged[-1] ^= 0x01
        blob_path.write_bytes(bytes(damaged))
        # a resuming run quarantines it and falls back to stage 0
        run = runner.run(np.ones(2), resume=True)
        assert run.resumed_from == 0
        assert [q.stage_index for q in run.quarantined] == [1]
        # the file no longer holds the bytes the journal committed
        assert "digest mismatch" in run.quarantined[0].reason
        assert list(tmp_path.glob("*.quarantined"))
        kinds = [e.kind for e in run.events]
        assert RunEventKind.CHECKPOINT_QUARANTINED in kinds
        # stage 1 re-executed and reproduced the clean output bitwise
        assert not run.results[-1].restored
        assert fingerprint_payload(run.payload) == fingerprint_payload(clean.payload)

    def test_resume_verifies_against_provenance_store(self, tmp_path):
        calls = []
        plan = self._tracked_plan(calls)
        store = ProvenanceStore(tmp_path / "prov.jsonl")
        runner = PipelineRunner(plan, checkpoint_dir=tmp_path / "ckpt")
        runner.run(np.ones(4), PipelineContext(provenance_store=store))

        resumed = runner.run(
            np.ones(4), PipelineContext(provenance_store=store), resume=True
        )
        assert resumed.resumed_from == 2  # everything restored
        # lineage continuity was rebuilt from the store for the skipped prefix
        final = resumed.results[-1].output_fingerprint
        assert resumed.context.lineage.verify_connected(final)

    def test_resume_rejects_payload_unknown_to_store(self, tmp_path):
        plan = two_stage_plan()
        runner = PipelineRunner(plan, checkpoint_dir=tmp_path / "ckpt")
        runner.run(np.ones(2))
        # a store that never saw this run
        empty_store = ProvenanceStore(tmp_path / "other.jsonl")
        telemetry = Telemetry()
        runner.telemetry = telemetry
        with pytest.raises(CheckpointError, match="not an\\s+entity") as info:
            runner.run(
                np.ones(2),
                PipelineContext(provenance_store=empty_store),
                resume=True,
            )
        # the refusal is a failed run like any other: terminal event,
        # error status, and the run's records ride on the exception
        assert info.value.events[-1].kind is RunEventKind.RUN_FAILED
        assert len(info.value.dead_letters) == 0
        assert telemetry.metrics.value("runs_total", pipeline="p", status="error") == 1
        assert telemetry.tracer.find("run:p")[0].status.value == "error"

    def test_restored_payload_must_hash_to_committed_fingerprint(self, tmp_path):
        # the second half of the shared check: the bytes on disk are the
        # committed bytes, but the payload they unpickle to does not hash
        # to the content fingerprint the journal recorded for the stage
        runner = PipelineRunner(two_stage_plan(), checkpoint_dir=tmp_path)
        clean = runner.run(np.ones(2))
        journal = runner.checkpointer.journal
        record = journal.last_run().stage_commits[1]
        journal.commit_stage(
            index=1, stage="b", input_fingerprint=record["input_fingerprint"],
            output_fingerprint=record["output_fingerprint"],
            content_fingerprint="not-the-payload-fingerprint", artifacts=record["artifacts"],
        )
        run = runner.run(np.ones(2), resume=True)
        assert run.resumed_from == 0
        assert "fingerprint mismatch" in run.quarantined[0].reason
        assert fingerprint_payload(run.payload) == fingerprint_payload(clean.payload)

    def test_parent_format_directory_refused(self, tmp_path):
        # a checkpoint directory as an earlier release wrote it — schema 1:
        # the completed-stage table in run-state.json, stage commits without
        # input_fingerprint; schema 2: one ledger already, but plain-pickle
        # snapshots whose whole-file sha256 the journal recorded; schema 3:
        # snapshots named stage-NNN.pkl, outputs named by their content
        import hashlib
        import json
        import pickle

        plan = two_stage_plan()
        old_snapshot = pickle.dumps({"payload": np.ones(2) * 2, "artifacts": {}, "evidence": None})
        for schema in (1, 2, 3):
            directory = tmp_path / f"schema-{schema}"
            directory.mkdir()
            (directory / "stage-000.pkl").write_bytes(old_snapshot)
            commit = {"kind": "stage-commit", "index": 0, "stage": "a", "output_fingerprint": "o",
                      "artifacts": {"checkpoint": hashlib.sha256(old_snapshot).hexdigest()}}
            if schema == 1:
                (directory / "run-state.json").write_text(json.dumps({
                    "pipeline": "p", "plan_fingerprint": plan.fingerprint(),
                    "completed": [{"index": 0, "stage": "a", "input_fingerprint": "i",
                                   "fingerprint": "o"}],
                }))
            else:
                commit["input_fingerprint"] = "i"
            with open(directory / "journal.jsonl", "w") as fh:
                for body in (
                    {"kind": "run-begin", "pipeline": "p", "backend": "serial",
                     "plan_fingerprint": plan.fingerprint(),
                     "payload_fingerprint": "i", "resume_index": 0},
                    commit,
                ):
                    fh.write(json.dumps({"schema": schema, "type": "journal", **body}) + "\n")
            runner = PipelineRunner(plan, checkpoint_dir=directory)
            with pytest.raises(CheckpointError, match=f"older release.*journal schema {schema};"
                                                      ".*start the run again without resume"):
                runner.run(np.ones(2), resume=True)
            # refused, not repaired: nothing was renamed, deleted or appended
            assert (directory / "stage-000.pkl").read_bytes() == old_snapshot
            assert len((directory / "journal.jsonl").read_text().splitlines()) == 2
            # a fresh run over the same directory supersedes the old commits
            run = runner.run(np.ones(2))
            assert runner.checkpointer.journal.last_run().committed == [0, 1]
            assert sorted(p.name for p in directory.glob("stage-*.snap")) == [
                "stage-000.snap", "stage-001.snap"
            ]
            assert runner.run(np.ones(2), resume=True).resumed_from == 1
            assert run.results[-1].output_fingerprint
            # recovery deletes the old snapshot no commit of this release names
            (directory / "stage-001.pkl.quarantined").write_bytes(old_snapshot)
            recover_run(directory)
            assert not list(directory.glob("*.pkl*"))
            assert runner.run(np.ones(2), resume=True).resumed_from == 1

    def test_rerun_invalidates_stale_later_checkpoints(self, tmp_path):
        calls = []
        plan = self._tracked_plan(calls)
        runner = PipelineRunner(plan, checkpoint_dir=tmp_path)
        runner.run(np.ones(4))
        # run again from scratch: checkpoints rewrite from stage 0 upward
        runner.run(np.ones(4))
        checkpoint, _ = runner.checkpointer.load_verified(plan)
        assert checkpoint.stage_index == 2
        assert sorted(checkpoint.completed) == [0, 1, 2]


def fan_plan():
    def fan(payload, ctx):
        return np.asarray(ctx.backend.map(lambda x: x * 2.0, list(payload)))

    return StagePlan.build("p", [PipelineStage("fan", S.TRANSFORM, fan)])


class TestRunScopedBackendState:
    """What a run installs on its backend is gone when the run ends."""

    def test_traced_run_leaves_no_telemetry_on_a_reused_backend(self):
        backend = ProcessBackend(workers=2)
        telemetry = Telemetry()
        PipelineRunner(fan_plan(), backend=backend, telemetry=telemetry).run(np.arange(4.0))
        assert len(telemetry.tracer.find("worker.task")) == 4
        PipelineRunner(fan_plan(), backend=backend).run(np.arange(4.0))
        assert len(telemetry.tracer.find("worker.task")) == 4
        assert backend.hooks == ()

    def test_tripped_drain_does_not_outlive_its_run(self):
        backend = ProcessBackend(workers=2)
        drain = DrainController()
        with pytest.raises(DrainInterrupt):
            PipelineRunner(
                two_stage_plan(), backend=backend, drain=drain,
                on_event=lambda e: e.kind is RunEventKind.STAGE_COMPLETED
                and drain.request("test drain"),
            ).run(np.ones(2))
        run = PipelineRunner(fan_plan(), backend=backend).run(np.arange(4.0))
        np.testing.assert_array_equal(run.payload, np.arange(4.0) * 2.0)
        assert backend.drain is None and backend.task_retry is None
