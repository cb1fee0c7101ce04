"""The durability acceptance contract (ISSUE 10).

A run killed at any journal record — before or after any stage, on any
backend, with or without disk faults underneath — must recover to
shards and a manifest **bitwise identical** to an uninterrupted run.
The reference is always the strictest one: a clean serial run.
"""

import errno

import pytest

from repro.core.plan import PipelineError
from repro.core.runner import RunEventKind
from repro.domains import ClimateArchetype
from repro.domains.climate.synthetic import ClimateSourceConfig
from repro.durability.checkpoint import RunCheckpointer
from repro.durability.fsfaults import SimulatedCrash
from repro.durability.recover import recover_run
from repro.faults import FaultInjector, FaultSpec
from repro.io.shards import MANIFEST_NAME
from repro.obs import Telemetry

KWARGS = {"config": ClimateSourceConfig(n_models=2, n_timesteps=6, seed=21)}
N_STAGES = 5  # download -> regrid -> normalize -> stack -> shard

#: every journal-record boundary a drivers can die at: before each stage
#: body runs, and after each stage's checkpoint + journal commit
ALL_CRASH_POINTS = [
    f"stage:{index}:{phase}" for index in range(N_STAGES) for phase in ("pre", "post")
]

#: representative mid-run kill for the cross-backend leg of the matrix
BACKEND_CRASH_POINT = "stage:2:post"


def _run(work_dir, *, backend="serial", ckpt=None, spec=None, resume=False,
         recovery_report=None, telemetry=None):
    injector = FaultInjector(FaultSpec.parse(spec)) if spec else None
    result = ClimateArchetype(seed=21, **KWARGS).run(
        work_dir,
        backend=backend,
        checkpoint_dir=ckpt,
        resume=resume,
        fault_injector=injector,
        recovery_report=recovery_report,
        telemetry=telemetry,
    )
    return result, injector


def _shard_bytes(directory):
    files = {p.name: p.read_bytes() for p in directory.glob("*.rps")}
    assert files, f"no shards under {directory}"
    files[MANIFEST_NAME] = (directory / MANIFEST_NAME).read_bytes()
    return files


@pytest.fixture(scope="module")
def clean_reference(tmp_path_factory):
    """Per-backend uninterrupted reference runs (shard bytes are backend-
    invariant; the manifest's ``written_by_ranks`` metadata is not)."""
    cache = {}

    def reference(backend="serial"):
        if backend not in cache:
            work_dir = tmp_path_factory.mktemp(f"clean-{backend}")
            result, _ = _run(work_dir, backend=backend)
            cache[backend] = (result, _shard_bytes(work_dir / "shards"))
        return cache[backend]

    return reference


def _kill_recover_resume(tmp_path, clean_reference, *, backend, crash_at,
                         extra_spec=""):
    clean_result, clean_shards = clean_reference(backend)
    work_dir = tmp_path / "chaos"
    ckpt = tmp_path / "ckpt"
    spec = f"crash-at={crash_at}" + (f",{extra_spec}" if extra_spec else "")

    with pytest.raises(SimulatedCrash):
        _run(work_dir, backend=backend, ckpt=ckpt, spec=spec)

    telemetry = Telemetry()
    report = recover_run(ckpt, shards_dir=work_dir / "shards", telemetry=telemetry)
    resumed, _ = _run(
        work_dir,
        backend=backend,
        ckpt=ckpt,
        resume=True,
        recovery_report=report,
        telemetry=telemetry,
    )

    # recovery is visible in telemetry and the event log...
    assert telemetry.metrics.value("recovery_runs_total") == 1
    assert telemetry.metrics.value("runs_recovered_total", pipeline="climate") == 1
    kinds = [e.kind for e in resumed.run.events]
    assert RunEventKind.RUN_RECOVERED in kinds
    # ...and invisible in the output: bitwise parity with the clean run
    assert resumed.dataset.fingerprint() == clean_result.dataset.fingerprint()
    assert _shard_bytes(work_dir / "shards") == clean_shards
    return report, resumed


class TestKilledAtEveryJournalRecord:
    @pytest.mark.parametrize("crash_at", ALL_CRASH_POINTS)
    def test_serial_recovers_bitwise(self, crash_at, tmp_path, clean_reference):
        report, resumed = _kill_recover_resume(
            tmp_path, clean_reference, backend="serial", crash_at=crash_at
        )
        index = int(crash_at.split(":")[1])
        phase = crash_at.split(":")[2]
        committed = index + 1 if phase == "post" else index
        assert report.resume_index == committed
        # the resumed run restored exactly the journal-committed prefix
        restored = [r for r in resumed.run.results if r.restored]
        assert len(restored) == committed

    @pytest.mark.parametrize("crash_at", ALL_CRASH_POINTS)
    def test_serial_plain_resume_bitwise(self, crash_at, tmp_path, clean_reference):
        # no recover_run: resume reads the same journal and must restore
        # exactly the prefix it committed
        clean_result, clean_shards = clean_reference()
        work_dir, ckpt = tmp_path / "chaos", tmp_path / "ckpt"
        with pytest.raises(SimulatedCrash):
            _run(work_dir, ckpt=ckpt, spec=f"crash-at={crash_at}")
        resumed, _ = _run(work_dir, ckpt=ckpt, resume=True)
        _, index, phase = crash_at.split(":")
        committed = int(index) + (phase == "post")
        assert len([r for r in resumed.run.results if r.restored]) == committed
        assert RunCheckpointer(ckpt).journal.last_run().committed == list(range(N_STAGES))
        assert resumed.dataset.fingerprint() == clean_result.dataset.fingerprint()
        assert _shard_bytes(work_dir / "shards") == clean_shards

    @pytest.mark.parametrize("backend", ["threaded", "simspmd", "process"])
    def test_other_backends_recover_bitwise(self, backend, tmp_path, clean_reference):
        _kill_recover_resume(
            tmp_path, clean_reference, backend=backend, crash_at=BACKEND_CRASH_POINT
        )


class TestKilledWithDiskFaultsUnderneath:
    """The compound worst case: the disk was already failing when the
    driver died.  The pre-crash run absorbs a disk fault (retries heal
    transient ENOSPC/EIO; torn renames and lost writes leave garbage the
    scanner must detect), then the kill lands."""

    @pytest.mark.parametrize("kind", ["enospc", "eio", "torn-rename", "lost-write"])
    def test_shard_site_fault_plus_kill(self, kind, tmp_path, clean_reference):
        clean_result, clean_shards = clean_reference()
        from repro.faults import RetryPolicy

        # a shard file's commit, and the manifest's (guarded since the
        # pipelines' shard_write commits it through the atomic primitive)
        for site in ("shard:1", "manifest:0"):
            work_dir = tmp_path / site / "chaos"
            ckpt = tmp_path / site / "ckpt"
            injector = FaultInjector(
                FaultSpec.parse(f"{kind}={site},crash-at=stage:4:post")
            )
            with pytest.raises(SimulatedCrash):
                ClimateArchetype(seed=21, **KWARGS).run(
                    work_dir,
                    backend="serial",
                    checkpoint_dir=ckpt,
                    fault_injector=injector,
                    retry_policy=RetryPolicy(max_attempts=3, seed=7),
                )
            assert injector.counts() == {f"disk-{kind}": 1, "crash": 1}, site

            report = recover_run(ckpt, shards_dir=work_dir / "shards")
            resumed, _ = _run(
                work_dir, ckpt=ckpt, resume=True, recovery_report=report
            )
            assert resumed.dataset.fingerprint() == clean_result.dataset.fingerprint()
            assert _shard_bytes(work_dir / "shards") == clean_shards, site

    def test_journal_site_fault_then_kill(self, tmp_path, clean_reference):
        # the journal itself tears while committing stage 2, then the
        # driver dies later: recovery must trust only the healed prefix
        clean_result, clean_shards = clean_reference()
        work_dir = tmp_path / "chaos"
        ckpt = tmp_path / "ckpt"
        from repro.faults import RetryPolicy

        injector = FaultInjector(
            FaultSpec.parse("eio=journal:3,crash-at=stage:3:post")
        )
        # a failed commit is a failed run (the OSError is its cause), and
        # it ends the run before the scheduled kill is ever reached
        with pytest.raises(PipelineError, match="checkpoint commit failed") as info:
            ClimateArchetype(seed=21, **KWARGS).run(
                work_dir,
                backend="serial",
                checkpoint_dir=ckpt,
                fault_injector=injector,
                retry_policy=RetryPolicy(max_attempts=3, seed=7),
            )
        assert info.value.__cause__.errno == errno.EIO
        report = recover_run(ckpt, shards_dir=work_dir / "shards")
        resumed, _ = _run(
            work_dir, ckpt=ckpt, resume=True, recovery_report=report
        )
        assert resumed.dataset.fingerprint() == clean_result.dataset.fingerprint()
        assert _shard_bytes(work_dir / "shards") == clean_shards


class TestOneLedger:
    """The journal is the completed-stage table: resume never restores a
    stage it did not commit, and it records what was committed — not
    what a later read of the disk happens to return."""

    def test_plain_resume_restores_only_journal_committed_stages(
        self, tmp_path, clean_reference
    ):
        # stage 2's snapshot lands, then its journal append dies (EIO):
        # the journal says [0, 1], a snapshot for 2 sits on disk
        clean_result, clean_shards = clean_reference()
        work_dir, ckpt = tmp_path / "chaos", tmp_path / "ckpt"
        with pytest.raises(PipelineError) as info:
            _run(work_dir, ckpt=ckpt, spec="eio=journal:3,crash-at=stage:3:post")
        assert info.value.__cause__.errno == errno.EIO
        checkpointer = RunCheckpointer(ckpt)
        assert checkpointer.journal.last_run().committed == [0, 1]
        assert sorted(checkpointer.snapshots()) == [0, 1, 2]

        resumed, _ = _run(work_dir, ckpt=ckpt, resume=True)  # no recover_run
        assert resumed.run.resumed_from == 1
        assert checkpointer.journal.last_run().committed == list(range(N_STAGES))
        assert resumed.dataset.fingerprint() == clean_result.dataset.fingerprint()
        assert _shard_bytes(work_dir / "shards") == clean_shards

    def test_recovery_discards_a_snapshot_corrupted_after_commit(
        self, tmp_path, clean_reference
    ):
        # the digest in the journal is of the bytes that were committed,
        # so damage done to the file afterwards cannot pass for truth
        clean_result, clean_shards = clean_reference()
        work_dir, ckpt = tmp_path / "chaos", tmp_path / "ckpt"
        _, injector = _run(work_dir, ckpt=ckpt, spec="corrupt-checkpoint=2")
        assert injector.counts() == {"corrupt-checkpoint": 1}

        report = recover_run(ckpt, shards_dir=work_dir / "shards")
        assert report.resume_index == 2
        assert report.stages_committed == [0, 1]
        assert sorted(report.stages_discarded) == [2, 3, 4]
        resumed, _ = _run(work_dir, ckpt=ckpt, resume=True, recovery_report=report)
        assert resumed.run.resumed_from == 1
        assert resumed.dataset.fingerprint() == clean_result.dataset.fingerprint()
        assert _shard_bytes(work_dir / "shards") == clean_shards

    def test_no_second_ledger_on_disk(self, tmp_path):
        _run(tmp_path / "wd", ckpt=tmp_path / "ckpt")
        names = sorted(p.name for p in (tmp_path / "ckpt").iterdir())
        assert names == ["journal.jsonl"] + [f"stage-{i:03d}.pkl" for i in range(N_STAGES)]

    def test_run_state_is_no_longer_a_fault_site(self):
        with pytest.raises(ValueError, match="unknown disk fault site"):
            FaultSpec.parse("eio=run-state:0")


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
        from repro.obs.history import RunArchive
        from repro.obs.sinks import envelope
        from repro.provenance.store import ProvenanceStore
        from repro.sched import CalibrationStore, choose_config, estimate_workload

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
        calibration = CalibrationStore(tmp_path / "cal")
        plan = plan.with_schedule(
            choose_config(estimate_workload(plan, source), calibration=calibration)
        )
        telemetry = Telemetry()
        context = PipelineContext(provenance_store=ProvenanceStore(tmp_path / "prov.jsonl"))
        tap = RecordingTap()
        with activate(tap):
            # one checkpointed, gated, provenance-stored, calibrated run ...
            run = PipelineRunner(
                plan, checkpoint_dir=tmp_path / "ckpt", gates="quarantine",
                quarantine_dir=tmp_path / "q", calibration_store=calibration,
                telemetry=telemetry,
            ).run(source, context)
            assert run.records_quarantined and calibration.observations()
            # ... archived ...
            RunArchive(tmp_path / "runs").archive({
                "spans": [envelope("span", s.to_dict()) for s in telemetry.tracer.spans()],
                "metrics": [envelope("metric", m) for m in telemetry.metrics.snapshot()],
                "events": [envelope("event", e.to_dict()) for e in run.events],
            })
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
