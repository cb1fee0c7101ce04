"""The recovery scanner: discard the uncommitted, keep the proven."""

import errno

import numpy as np
import pytest

from repro.core.dataset import Schema
from repro.core.payload import fingerprint_payload
from repro.core.plan import PipelineError
from repro.core.runner import PipelineContext
from repro.durability.checkpoint import RunCheckpointer
from repro.durability.journal import JOURNAL_NAME, RunJournal
from repro.durability.recover import MANIFEST_NAME, recover_run
from repro.io.shards import ShardManifest
from repro.obs import Telemetry


def _snapshot(ckpt, index, data=None):
    """Bytes under a snapshot's name that no commit wrote."""
    path = ckpt / f"stage-{index:03d}.snap"
    path.write_bytes(data if data is not None else f"snapshot-{index}".encode())
    return path


def _commit(checkpointer, index, **artifacts):
    """Commit stage *index* honestly: a real snapshot, then its record."""
    payload = np.arange(4.0) + index
    context = PipelineContext(agent="p")
    context.artifacts.update(artifacts)
    checkpointer.commit(
        index, f"s{index}", f"fp{index - 1}", fingerprint_payload(payload), payload, context
    )()


def _committed_run(ckpt, n_stages):
    """A checkpoint dir where every stage committed honestly."""
    checkpointer = RunCheckpointer(ckpt)
    checkpointer.journal.begin(
        pipeline="p",
        plan_fingerprint="plan-abc",
        backend="serial",
        payload_fingerprint="fp-in",
        resume_index=0,
    )
    for i in range(n_stages):
        _commit(checkpointer, i)
    return checkpointer.journal


class TestPartialSweep:
    def test_orphan_tmp_and_spool_removed(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        shards = tmp_path / "shards"
        ckpt.mkdir()
        shards.mkdir()
        (ckpt / "stage-001.snap.tmp").write_bytes(b"partial")
        (shards / "train-00000.rps.spool").write_bytes(b"partial")
        (shards / "train-00000.rps.tmp").write_bytes(b"partial")
        (shards / "keep.rps").write_bytes(b"committed")
        report = recover_run(ckpt, shards_dir=shards)
        assert len(report.partials_removed) == 3
        assert not (ckpt / "stage-001.snap.tmp").exists()
        assert (shards / "keep.rps").read_bytes() == b"committed"

    def test_missing_dirs_tolerated(self, tmp_path):
        report = recover_run(tmp_path / "absent", shards_dir=tmp_path / "gone")
        assert report.partials_removed == []
        assert not report.journal_found


class TestJournalReplay:
    def test_no_journal_leaves_state_untouched(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        _snapshot(ckpt, 0)
        report = recover_run(ckpt)
        assert not report.journal_found
        assert (ckpt / "stage-000.snap").exists()
        assert not (ckpt / JOURNAL_NAME).exists()
        assert any("no journal" in note for note in report.notes)

    def test_uncommitted_snapshot_discarded(self, tmp_path):
        # stage 2's pickle landed but the driver died before its journal
        # commit: the snapshot is uncommitted by definition
        ckpt = tmp_path / "ckpt"
        _committed_run(ckpt, 2)
        _snapshot(ckpt, 2)
        report = recover_run(ckpt)
        assert report.stages_committed == [0, 1]
        assert report.stages_discarded == [2]
        assert report.resume_index == 2
        assert not (ckpt / "stage-002.snap").exists()
        assert RunJournal(ckpt / JOURNAL_NAME).last_run().committed == [0, 1]

    def test_digest_mismatch_discards_stage_and_later(self, tmp_path):
        # a lost unfsynced write mangled stage 1's committed snapshot:
        # stage 1 *and* the (honest) stage 2 after it are discarded
        ckpt = tmp_path / "ckpt"
        _committed_run(ckpt, 3)
        (ckpt / "stage-001.snap").write_bytes(b"mangled by power loss")
        report = recover_run(ckpt)
        assert report.stages_committed == [0]
        assert sorted(report.stages_discarded) == [1, 2]
        assert report.resume_index == 1
        assert any("digest mismatch" in note for note in report.notes)
        # the verdict is a journal record: it supersedes the discarded
        # commits exactly as a run-begin with resume_index=1 would
        journal = RunJournal(ckpt / JOURNAL_NAME)
        verdict = journal.records()[-1]
        assert verdict["kind"] == "recovery"
        assert verdict["resume_index"] == 1
        assert verdict["stages_committed"] == [0]
        assert sorted(verdict["stages_discarded"]) == [1, 2]
        assert journal.last_run().committed == [0]

    def test_plain_pickle_snapshot_discarded_even_if_its_sha256_matches(self, tmp_path):
        # the previous release's snapshots were plain pickles under the same
        # name, recorded by whole-file sha256: recovery must not trust one
        import hashlib
        import pickle

        ckpt = tmp_path / "ckpt"
        journal = _committed_run(ckpt, 1)
        old = pickle.dumps({"payload": np.ones(2), "artifacts": {}, "evidence": None})
        _snapshot(ckpt, 1, old)
        journal.commit_stage(
            index=1, stage="s1", input_fingerprint="i", output_fingerprint="o",
            artifacts={"checkpoint": hashlib.sha256(old).hexdigest()},
        )
        report = recover_run(ckpt)
        assert report.stages_committed == [0] and report.stages_discarded == [1]
        assert any("digest mismatch" in note for note in report.notes)

    def test_fully_committed_run_passes_verification(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        journal = _committed_run(ckpt, 3)
        journal.commit_run(output_fingerprint="fp-final")
        report = recover_run(ckpt)
        assert report.run_committed
        assert report.stages_committed == [0, 1, 2]
        assert report.stages_discarded == []
        assert "run committed" in report.summary()

    def test_manifest_digest_verified_when_recorded(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        shards = tmp_path / "shards"
        shards.mkdir()
        manifest = ShardManifest("d", Schema([]), {})
        (shards / MANIFEST_NAME).write_text(manifest.to_json())
        checkpointer = RunCheckpointer(ckpt)
        checkpointer.journal.begin(
            pipeline="p",
            plan_fingerprint="plan-abc",
            backend="serial",
            payload_fingerprint="fp-in",
        )
        _commit(checkpointer, 0, manifest=manifest)
        assert "manifest" in checkpointer.journal.last_run().stage_commits[0]["artifacts"]
        assert recover_run(ckpt, shards_dir=shards).stages_committed == [0]
        # now the manifest is torn: the recorded digest no longer matches
        (shards / MANIFEST_NAME).write_text('{"shards"')
        report = recover_run(ckpt, shards_dir=shards)
        assert report.stages_committed == []
        assert report.resume_index == 0

    def test_torn_journal_tail_healed_and_counted(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        _committed_run(ckpt, 2)
        with open(ckpt / JOURNAL_NAME, "a") as fh:
            fh.write('{"schema": 1, "type": "journal", "kind": "stage-')
        report = recover_run(ckpt)
        assert str(ckpt / JOURNAL_NAME) in report.tails_healed
        assert report.stages_committed == [0, 1]


class TestTelemetry:
    def test_counters_and_span_emitted(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        _committed_run(ckpt, 2)
        _snapshot(ckpt, 2)  # uncommitted
        (ckpt / "junk.tmp").write_bytes(b"x")
        telemetry = Telemetry()
        report = recover_run(ckpt, telemetry=telemetry)
        metrics = telemetry.metrics
        assert metrics.value("recovery_runs_total") == 1
        assert metrics.value("recovery_partials_removed_total") == 1
        assert metrics.value("recovery_stages_verified_total") == 2
        assert metrics.value("recovery_stages_discarded_total") == 1
        spans = [s for s in telemetry.tracer.spans() if s.name == "recovery"]
        assert len(spans) == 1
        assert spans[0].attributes["resume_index"] == report.resume_index


class TestResumeAfterEnospc:
    def test_enospc_mid_run_then_recover_resume_is_bitwise_clean(self, tmp_path):
        """Satellite: a checkpoint append that dies on ENOSPC falls back.

        The injected disk fills while stage 2's checkpoint commits; the
        run dies (no retries), recovery trusts only the journal-committed
        prefix, and the resumed run converges on bytes identical to an
        uninterrupted one.
        """
        from repro.domains import ClimateArchetype
        from repro.domains.climate.synthetic import ClimateSourceConfig
        from repro.faults import FaultInjector, FaultSpec

        kwargs = {"config": ClimateSourceConfig(n_models=2, n_timesteps=6, seed=21)}
        clean = ClimateArchetype(seed=21, **kwargs).run(
            tmp_path / "clean", backend="serial"
        )

        ckpt = tmp_path / "ckpt"
        injector = FaultInjector(FaultSpec.parse("enospc=checkpoint:2"))
        with pytest.raises(PipelineError) as info:
            ClimateArchetype(seed=21, **kwargs).run(
                tmp_path / "chaos",
                backend="serial",
                checkpoint_dir=ckpt,
                fault_injector=injector,
            )
        assert info.value.__cause__.errno == errno.ENOSPC
        assert injector.counts() == {"disk-enospc": 1}

        report = recover_run(ckpt, shards_dir=tmp_path / "chaos" / "shards")
        assert report.journal_found
        assert report.resume_index <= 2

        resumed = ClimateArchetype(seed=21, **kwargs).run(
            tmp_path / "chaos",
            backend="serial",
            checkpoint_dir=ckpt,
            resume=True,
            recovery_report=report,
        )
        assert resumed.dataset.fingerprint() == clean.dataset.fingerprint()
        clean_shards = {
            p.name: p.read_bytes() for p in (tmp_path / "clean" / "shards").glob("*.rps")
        }
        chaos_shards = {
            p.name: p.read_bytes() for p in (tmp_path / "chaos" / "shards").glob("*.rps")
        }
        assert chaos_shards == clean_shards
