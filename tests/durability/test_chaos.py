"""The durability acceptance contract (ISSUE 10).

A run killed at any journal record — before or after any stage, on any
backend, with or without disk faults underneath — must recover to
artifacts **byte-identical** to an uninterrupted clean serial run (the
parity oracle, ``tests/parity.py``, which also checks that the resume
restored exactly the journal-committed prefix and that recovery shows in
telemetry and the event log).
"""

import errno

import pytest

from repro.core.plan import PipelineError
from repro.domains import ClimateArchetype
from repro.domains.climate.synthetic import ClimateSourceConfig
from repro.durability.checkpoint import RunCheckpointer
from repro.durability.recover import recover_run
from repro.faults import FaultInjector, FaultSpec, RetryPolicy
from repro.obs import Telemetry
from tests.parity import (
    ARCHETYPES, CRASH_POINTS, N_STAGES, Config, assert_parity, assert_reference, watch,
)

SOURCE = ARCHETYPES["climate"][1]


def _run(work_dir, *, ckpt=None, spec=None, resume=False, recovery_report=None,
         telemetry=None, outputs=None):
    """One run segment; *outputs* collects what its stages returned (see
    ``tests.parity.watch``)."""
    injector = FaultInjector(FaultSpec.parse(spec)) if spec else None
    archetype = watch(ClimateArchetype(seed=21, config=SOURCE), {} if outputs is None else outputs)
    result = archetype.run(
        work_dir,
        checkpoint_dir=ckpt,
        resume=resume,
        fault_injector=injector,
        retry_policy=RetryPolicy(max_attempts=3, seed=7) if spec else None,
        recovery_report=recovery_report,
        telemetry=telemetry,
    )
    return result, injector


class TestKilledAtEveryJournalRecord:
    @pytest.mark.parametrize("crash_at", CRASH_POINTS)
    def test_serial_recovers_bitwise(self, crash_at):
        assert_parity("climate", Config(), Config(crash_at=crash_at))

    @pytest.mark.parametrize("crash_at", CRASH_POINTS)
    def test_serial_plain_resume_bitwise(self, crash_at):
        # no recover_run: resume reads the same journal
        assert_parity("climate", Config(), Config(crash_at=crash_at, recover=False))

    @pytest.mark.parametrize("backend", ["threaded", "simspmd", "process"])
    def test_other_backends_recover_bitwise(self, backend):
        assert_parity("climate", Config(), Config(backend, 4, crash_at="stage:2:post"))


class TestKilledWithDiskFaultsUnderneath:
    """The compound worst case: the disk was already failing when the
    driver died.  The pre-crash run absorbs a disk fault (retries heal
    transient ENOSPC/EIO; torn renames and lost writes leave garbage the
    scanner must detect), then the kill lands."""

    @pytest.mark.parametrize("kind", ["enospc", "eio", "torn-rename", "lost-write"])
    def test_shard_site_fault_plus_kill(self, kind):
        # a shard file's commit, and the manifest's
        for site in ("shard:1", "manifest:0"):
            faulted = Config(faults=f"{kind}={site}", crash_at=f"stage:{N_STAGES - 1}:post")
            assert_parity("climate", Config(), faulted)

    def test_journal_site_fault_then_kill(self, tmp_path):
        # the journal itself tears while committing stage 2, then the
        # driver dies later: recovery must trust only the healed prefix
        work_dir, ckpt, outputs = tmp_path / "chaos", tmp_path / "ckpt", {}
        # a failed commit is a failed run (the OSError is its cause), and
        # it ends the run before the scheduled kill is ever reached
        with pytest.raises(PipelineError, match="checkpoint commit failed") as info:
            _run(work_dir, ckpt=ckpt, spec="eio=journal:3,crash-at=stage:3:post",
                 outputs=outputs)
        assert info.value.__cause__.errno == errno.EIO
        report = recover_run(ckpt, shards_dir=work_dir / "shards")
        resumed, _ = _run(work_dir, ckpt=ckpt, resume=True, recovery_report=report,
                          outputs=outputs)
        assert_reference("climate", resumed, work_dir, outputs)


class TestOneLedger:
    """The journal is the completed-stage table: resume never restores a
    stage it did not commit, and it records what was committed — not
    what a later read of the disk happens to return."""

    def test_plain_resume_restores_only_journal_committed_stages(self, tmp_path):
        # stage 2's snapshot lands, then its journal append dies (EIO):
        # the journal says [0, 1], a snapshot for 2 sits on disk
        work_dir, ckpt, outputs = tmp_path / "chaos", tmp_path / "ckpt", {}
        with pytest.raises(PipelineError) as info:
            _run(work_dir, ckpt=ckpt, spec="eio=journal:3,crash-at=stage:3:post",
                 outputs=outputs)
        assert info.value.__cause__.errno == errno.EIO
        checkpointer = RunCheckpointer(ckpt)
        assert checkpointer.journal.last_run().committed == [0, 1]
        assert sorted(checkpointer.snapshots()) == [0, 1, 2]

        resumed, _ = _run(work_dir, ckpt=ckpt, resume=True, outputs=outputs)  # no recover_run
        assert resumed.run.resumed_from == 1
        assert checkpointer.journal.last_run().committed == list(range(N_STAGES))
        assert_reference("climate", resumed, work_dir, outputs)

    def test_recovery_discards_a_snapshot_corrupted_after_commit(self, tmp_path):
        # the digest in the journal is of the bytes that were committed,
        # so damage done to the file afterwards cannot pass for truth
        work_dir, ckpt, outputs = tmp_path / "chaos", tmp_path / "ckpt", {}
        _, injector = _run(work_dir, ckpt=ckpt, spec="corrupt-checkpoint=2", outputs=outputs)
        assert injector.counts() == {"corrupt-checkpoint": 1}

        report = recover_run(ckpt, shards_dir=work_dir / "shards")
        assert report.resume_index == 2
        assert report.stages_committed == [0, 1]
        assert sorted(report.stages_discarded) == [2, 3, 4]
        resumed, _ = _run(work_dir, ckpt=ckpt, resume=True, recovery_report=report,
                          outputs=outputs)
        assert resumed.run.resumed_from == 1
        assert_reference("climate", resumed, work_dir, outputs)

    def test_no_second_ledger_on_disk(self, tmp_path):
        _run(tmp_path / "wd", ckpt=tmp_path / "ckpt")
        names = sorted(p.name for p in (tmp_path / "ckpt").iterdir())
        assert names == ["journal.jsonl"] + [f"stage-{i:03d}.snap" for i in range(N_STAGES)]

    def test_run_state_is_no_longer_a_fault_site(self):
        with pytest.raises(ValueError, match="unknown disk fault site"):
            FaultSpec.parse("eio=run-state:0")

    @pytest.mark.parametrize("site", ["calibration", "run-index", "run-record"])
    def test_the_ledger_replaced_these_fault_sites(self, site):
        with pytest.raises(ValueError, match="unknown disk fault site"):
            FaultSpec.parse(f"eio={site}:0")


class TestJournalTelemetry:
    def test_journal_records_counted_per_kind(self, tmp_path):
        telemetry = Telemetry()
        _run(tmp_path / "wd", ckpt=tmp_path / "ckpt", telemetry=telemetry)
        value = telemetry.metrics.value
        label = {"pipeline": "climate"}
        assert value("journal_records_total", kind="run-begin", **label) == 1
        assert value("journal_records_total", kind="stage-commit", **label) == N_STAGES
        assert value("journal_records_total", kind="run-commit", **label) == 1

    def test_no_checkpoint_dir_means_no_journal(self, tmp_path):
        result, _ = _run(tmp_path / "wd")
        assert not list(tmp_path.glob("**/journal.jsonl"))


class TestSiteRegistry:
    """``KNOWN_SITES`` is closed at both ends: every guarded commit a store
    makes is at a registered site (or a spec could not name it), and every
    registered site is one some store commits at (or a spec naming it
    would silently test nothing)."""

    def test_stores_commit_only_at_known_sites_and_at_every_one(self, tmp_path):
        import numpy as np

        from repro.core.runner import PipelineContext, PipelineRunner
        from repro.durability.fsfaults import KNOWN_SITES, activate
        from repro.faults import DeadLetterLog
        from repro.gates import ColumnCheck, QuarantineStore, StageContract, redrive
        from repro.governance.audit import AuditLog
        from repro.provenance.store import ProvenanceStore
        from repro.sched import Ledger

        class RecordingTap:
            def __init__(self):
                self.sites = set()

            def fault_for(self, site):
                self.sites.add(site)

        corrupt = ClimateSourceConfig(n_models=2, n_timesteps=6, seed=21, n_corrupt_models=1)
        archetype = ClimateArchetype(seed=21, config=corrupt)
        (tmp_path / "source").mkdir()
        source = archetype.synthesize_source(tmp_path / "source")
        plan = archetype.build_pipeline(tmp_path / "shards").plan
        context = PipelineContext(provenance_store=ProvenanceStore(tmp_path / "prov.jsonl"))
        tap = RecordingTap()
        with activate(tap):
            # one checkpointed, gated, provenance-stored run filed in the ledger ...
            run = PipelineRunner(
                plan, checkpoint_dir=tmp_path / "ckpt", gates="quarantine",
                quarantine_dir=tmp_path / "q", ledger=tmp_path / "store",
            ).run(source, context)
            assert run.records_quarantined and Ledger(tmp_path / "store").rows()
            # ... plus the dead-letter, audit and consume-mode re-drive paths
            DeadLetterLog().save(tmp_path / "dead-letters.jsonl")
            AuditLog(tmp_path / "audit.jsonl").record("alice", "read", "climate")
            store = QuarantineStore(tmp_path / "q2")
            gate = StageContract("g", checks=(ColumnCheck("bounds", "t", lo=0.0, hi=9.0),))
            for record in ({"t": np.ones(2)}, {"t": np.ones(2), "meta": {"not": "a row"}}):
                store.add({"contract": "g", "record_fingerprint": str(len(record))}, record)
            report = redrive(store, {"g": gate}, tmp_path / "redrive", consume=True)
            assert len(report.promoted) == 2
        assert tap.sites == set(KNOWN_SITES)
