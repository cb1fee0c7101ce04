"""The checkpoint directory's one owner: commit, the snapshot format, and
a commit that fails.  (Whatever sequence of crashes, recoveries and resumes
a checkpoint directory goes through is the state machine in
``tests/test_parity.py``.)
"""

import builtins
import dataclasses
import errno
import hashlib
import pickle
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.dataset import Dataset
from repro.core.evidence import EvidenceKind
from repro.core.levels import DataProcessingStage
from repro.core.payload import fingerprint_payload, walk_payload
from repro.core import runner
from repro.core.plan import PipelineError, PipelineStage, StagePlan
from repro.core.runner import PipelineContext, PipelineRunner, RunEventKind
from repro.durability import checkpoint
from repro.durability.checkpoint import RunCheckpointer
from repro.durability.fsfaults import SimulatedCrash
from repro.durability.journal import RunJournal
from repro.durability.recover import recover_run
from repro.faults import FaultInjector, FaultSpec
from repro.workers import DrainController, DrainInterrupt

S = DataProcessingStage
N_STAGES = 4
PAYLOAD = np.arange(6, dtype=np.float64)


def _toy_plan():
    return StagePlan.build("toy", [
        PipelineStage("ingest", S.INGEST, lambda x, ctx: x + 1.0),
        PipelineStage("clean", S.PREPROCESS, lambda x, ctx: x * 3.0),
        PipelineStage("encode", S.TRANSFORM, lambda x, ctx: x - 0.5),
        PipelineStage("pack", S.SHARD, lambda x, ctx: np.concatenate([x, x])),
    ])


def _run(ckpt, *, crash_at=None, resume=False):
    injector = FaultInjector(FaultSpec.parse(f"crash-at={crash_at}")) if crash_at else None
    runner = PipelineRunner(_toy_plan(), checkpoint_dir=ckpt, fault_injector=injector)
    return runner.run(PAYLOAD, resume=resume)


def _head(data):
    """A snapshot's head: everything before its first blob."""
    _, skeleton_len, table_len = checkpoint._FIXED.unpack_from(data)
    return data[: checkpoint._FIXED.size + skeleton_len + table_len]


def _commit(directory, payload, *, artifacts=None, index=0):
    """Commit *payload* as stage *index* the way the runner does; returns
    the checkpointer and the journal record."""
    checkpointer = RunCheckpointer(directory)
    context = PipelineContext(agent="p")
    context.artifacts.update(artifacts or {})
    checkpointer.commit(index, "s", "id-in", "id-out", payload, context)()
    return checkpointer, checkpointer.journal.records()[-1]


class TestCommit:
    def test_digest_is_of_the_bytes_written_not_a_read_back(self, tmp_path, monkeypatch):
        real_open = builtins.open

        def no_read_back(file, mode="r", *args, **kwargs):
            if "stage-" in str(file) and "w" not in mode:
                raise AssertionError(f"commit path re-read {file}")
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", no_read_back)
        _run(tmp_path)
        monkeypatch.undo()
        checkpointer = RunCheckpointer(tmp_path)
        commits = checkpointer.journal.last_run().stage_commits
        assert sorted(commits) == list(range(N_STAGES))
        for index, record in commits.items():
            data = checkpointer.snapshot_path(index).read_bytes()
            assert record["artifacts"]["checkpoint"] == hashlib.sha256(_head(data)).hexdigest()
            assert record["schema"] == 4

    def test_commit_records_both_fingerprints(self, tmp_path):
        run = _run(tmp_path)
        commits = RunCheckpointer(tmp_path).journal.last_run().stage_commits
        for index, result in enumerate(run.results):
            assert commits[index]["input_fingerprint"] == result.input_fingerprint
            assert commits[index]["output_fingerprint"] == result.output_fingerprint

    def test_snapshot_without_a_commit_is_never_restored(self, tmp_path):
        run = _run(tmp_path)
        checkpointer = RunCheckpointer(tmp_path)
        # an orphan for a stage index the journal never committed
        orphan = checkpointer.snapshot_path(N_STAGES)
        orphan.write_bytes(checkpointer.snapshot_path(0).read_bytes())
        checkpoint, quarantined = checkpointer.load_verified(_toy_plan())
        assert checkpoint.stage_index == N_STAGES - 1
        assert checkpoint.fingerprint == run.results[-1].output_fingerprint
        assert quarantined == []
        assert orphan.exists()  # resume leaves it; recover_run deletes it
        assert N_STAGES in recover_run(tmp_path).stages_discarded


@dataclasses.dataclass
class _Inner:
    weights: np.ndarray
    label: str


@dataclasses.dataclass
class _Outer:
    inner: _Inner
    scale: float


class _RawBuffer:
    """Not an array, yet pickles its memory out-of-band (protocol 5 lets
    any class do so)."""

    def __init__(self, data):
        self.data = bytearray(data)

    def __reduce_ex__(self, protocol):
        return _RawBuffer, (pickle.PickleBuffer(self.data),)


def _snapshot_regions(data):
    """Offsets inside the fixed header, skeleton, table and blob regions."""
    _, skeleton_len, table_len = checkpoint._FIXED.unpack_from(data)
    fixed = checkpoint._FIXED.size
    head = fixed + skeleton_len + table_len
    assert head < len(data)  # the payload below has out-of-band blobs
    return [0, 9, 17, fixed + skeleton_len // 2, fixed + skeleton_len + table_len // 2,
            head - 1, head, (head + len(data)) // 2, len(data) - 1]


class TestSnapshotFormat:
    """One file per stage: a head the journal's digest covers, then every
    distinct array once, each under its own digest."""

    # -- (i) every byte is covered ------------------------------------------
    @pytest.fixture(scope="class")
    def committed(self, tmp_path_factory):
        shared = np.arange(24, dtype=np.float64).reshape(4, 6)
        payload = {"a": shared, "dup": shared.copy(), "ints": np.arange(7, dtype=np.int32),
                   "strided": shared[:, ::2], "note": "x" * 40}
        checkpointer, record = _commit(tmp_path_factory.mktemp("cover"), payload)
        path = checkpointer.snapshot_path(0)
        return checkpointer, record, path, path.read_bytes()

    def _refused(self, committed, mutated):
        checkpointer, record, path, pristine = committed
        path.write_bytes(mutated)
        try:
            for restore in (False, True):
                blob, reason = checkpointer.verify(record, restore=restore)
                assert blob is None and "digest mismatch" in reason, (restore, reason)
        finally:
            path.write_bytes(pristine)

    def test_pristine_snapshot_verifies(self, committed):
        checkpointer, record, _, _ = committed
        assert checkpointer.verify(record, restore=False) == ({}, None)
        blob, reason = checkpointer.verify(record, restore=True)
        assert reason is None and sorted(blob) == ["artifacts", "evidence", "gate_reports", "payload"]

    def test_verification_block_smaller_than_every_region(self, committed, monkeypatch):
        monkeypatch.setattr(checkpoint, "_BLOCK", 7)  # regions span many blocks
        checkpointer, record, _, data = committed
        assert checkpointer.verify(record, restore=False) == ({}, None)
        self._refused(committed, data[:-1] + bytes([data[-1] ^ 0x80]))

    def test_a_flip_in_every_region_is_refused(self, committed):
        data = committed[3]
        for offset in _snapshot_regions(data):
            mutated = bytearray(data)
            mutated[offset] ^= 0x01
            self._refused(committed, bytes(mutated))

    @settings(max_examples=150, deadline=None)
    @given(where=st.floats(0, 1, exclude_max=True), bit=st.integers(0, 7))
    def test_any_flipped_bit_is_refused(self, committed, where, bit):
        mutated = bytearray(committed[3])
        mutated[int(where * len(mutated))] ^= 1 << bit
        self._refused(committed, bytes(mutated))

    @settings(max_examples=100, deadline=None)
    @given(where=st.floats(0, 1, exclude_max=True))
    @example(where=0.0)
    def test_any_truncation_is_refused(self, committed, where):
        data = committed[3]
        self._refused(committed, data[: int(where * len(data))])

    @settings(max_examples=25, deadline=None)
    @given(tail=st.binary(min_size=1, max_size=64))
    def test_trailing_bytes_are_refused(self, committed, tail):
        self._refused(committed, committed[3] + tail)

    # -- (ii) round trip -----------------------------------------------------
    def test_round_trip_of_every_array_kind(self, tmp_path):
        base = np.arange(12, dtype=np.float64).reshape(3, 4)
        twice = np.linspace(0.0, 1.0, 5)
        dataset = Dataset.from_arrays({"x": np.arange(6.0), "y": np.arange(6) % 2})
        payload = {
            "equal_a": base,
            "equal_b": base.copy(),
            "twice": [twice, twice],
            "fortran": np.asfortranarray(base * 2.0),
            "strided": base[:, ::2],
            "empty": np.zeros((0, 3), dtype=np.float32),
            "scalar": np.array(2.5),
            "dataset": dataset,
            "nested": _Outer(_Inner(np.ones(3, dtype=np.int16), "w"), 0.5),
        }
        # an object array fingerprints by its pointers, so it cannot sit in
        # a payload that must re-verify: it rides along as an artifact
        objects = np.array(["a", None, 3], dtype=object)
        checkpointer, record = _commit(
            tmp_path, payload,
            artifacts={"dataset": dataset, "objects": objects, "raw": _RawBuffer(b"not numpy")},
        )
        blob, reason = checkpointer.verify(record, restore=True)
        assert reason is None
        restored = blob["payload"]
        assert blob["artifacts"]["objects"].tolist() == ["a", None, 3]
        assert blob["artifacts"]["raw"].data == b"not numpy"
        assert fingerprint_payload(restored) == fingerprint_payload(payload)
        assert restored["fortran"].flags.f_contiguous
        assert blob["artifacts"]["dataset"] is restored["dataset"]
        assert restored["twice"][0] is restored["twice"][1]
        arrays = [restored[k] for k in ("equal_a", "equal_b", "fortran", "strided", "empty",
                                        "scalar")]
        arrays += [restored["twice"][0], restored["nested"].inner.weights,
                   *restored["dataset"].columns.values()]
        assert all(array.flags.writeable for array in arrays)
        # equal content was stored once but restores as two arrays
        restored["equal_a"][0, 0] = -1.0
        assert restored["equal_b"][0, 0] == 0.0
        assert not np.shares_memory(restored["equal_a"], restored["equal_b"])

    # -- (iii) each distinct array stored once ---------------------------------
    def test_equal_arrays_are_stored_once(self, tmp_path):
        a = np.random.default_rng(0).random(1 << 15)
        checkpointer, record = _commit(tmp_path, [a, a.copy()])
        assert checkpointer.snapshot_path(0).stat().st_size < 1.1 * a.nbytes
        blob, _ = checkpointer.verify(record, restore=True)
        assert np.array_equal(blob["payload"][0], a) and np.array_equal(blob["payload"][1], a)

    # -- (iv) no payload-sized copy ----------------------------------------------
    def test_commit_and_verify_hold_no_copy_of_the_payload(self, tmp_path):
        payload = {"field": np.zeros(1 << 23, dtype=np.float64)}  # 64 MiB
        checkpointer = RunCheckpointer(tmp_path)
        context = PipelineContext(agent="p")
        tracemalloc.start()
        try:
            checkpointer.commit(0, "s", "id-in", "id-out", payload, context)()
            commit_peak = tracemalloc.get_traced_memory()[1]
            record = checkpointer.journal.records()[-1]
            tracemalloc.reset_peak()
            assert checkpointer.verify(record, restore=False) == ({}, None)
            verify_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert commit_peak < 1 << 20, commit_peak
        assert verify_peak < 4 << 20, verify_peak

    # -- (v) each array hashed once ------------------------------------------------
    def test_commit_hashes_only_the_head_when_the_walk_saw_every_array(
        self, tmp_path, monkeypatch
    ):
        hashed = []

        class Counting:
            def __init__(self, data=b""):
                self._inner = hashlib.sha256()
                self.update(data)

            def update(self, data):
                hashed.append(memoryview(data).nbytes)
                self._inner.update(data)

            def hexdigest(self):
                return self._inner.hexdigest()

        def rehashed(array):
            raise AssertionError("commit hashed an array the walk had already hashed")

        counting = type("hashlib", (), {"sha256": Counting})
        monkeypatch.setattr(checkpoint, "hashlib", counting)
        monkeypatch.setattr(checkpoint, "fingerprint_array", rehashed)
        payload = [np.ones(1 << 16), np.arange(1 << 16, dtype=np.int64)]
        checkpointer, record = _commit(tmp_path, payload)
        monkeypatch.undo()
        data = checkpointer.snapshot_path(0).read_bytes()
        assert sum(hashed) == len(_head(data)) < 4096
        assert checkpointer.verify(record, restore=True)[1] is None

    def test_arrays_the_walk_did_not_see_are_hashed_by_commit(self, tmp_path):
        # a Fortran-order array the walk hands out no digest for, and a
        # Dataset the walk does not descend into
        dataset = Dataset.from_arrays({"x": np.arange(6.0)})
        for number, kwargs in enumerate(({}, {"artifacts": {"d": dataset}})):
            checkpointer, record = _commit(
                tmp_path / str(number), [np.arange(5.0), np.asfortranarray(np.eye(3))], **kwargs
            )
            assert checkpointer.verify(record, restore=True)[1] is None

    # -- (vi) a lying digest cannot restore ------------------------------------------
    def test_a_wrong_walk_digest_yields_a_snapshot_verify_refuses(self, tmp_path, monkeypatch):
        payload = [np.arange(9.0)]

        def lying_walk(walked, digests):
            result = walk_payload(walked, digests)
            (key,) = digests  # the one array's
            digests[key] = hashlib.sha256(b"not this array").hexdigest()
            return result

        monkeypatch.setattr(checkpoint, "walk_payload", lying_walk)
        checkpointer, record = _commit(tmp_path, payload)
        monkeypatch.undo()
        for restore in (False, True):
            blob, reason = checkpointer.verify(record, restore=restore)
            assert blob is None and "digest mismatch" in reason


class TestCommitFailure:
    """A commit that cannot land fails the run through the one abort path."""

    def test_full_disk_is_a_failed_run_not_a_raw_oserror(self, tmp_path):
        from repro.obs import Telemetry

        telemetry = Telemetry()
        injector = FaultInjector(FaultSpec.parse("enospc=checkpoint:1"))
        runner = PipelineRunner(_toy_plan(), checkpoint_dir=tmp_path, fault_injector=injector,
                                telemetry=telemetry)
        with pytest.raises(PipelineError, match="checkpoint commit failed for stage 'clean'") as info:
            runner.run(PAYLOAD)
        error = info.value
        assert (error.stage_name, error.stage_index) == ("clean", 1)
        assert isinstance(error.__cause__, OSError) and error.__cause__.errno == errno.ENOSPC
        assert error.events[-1].kind is RunEventKind.RUN_FAILED
        assert error.events[-1].stage_index == 1
        assert telemetry.tracer.find("run:toy")[0].status.value == "error"
        # the stage before it is committed; the failed one left no partial
        assert RunCheckpointer(tmp_path).journal.last_run().committed == [0]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["journal.jsonl", "stage-000.snap"]
        assert _run(tmp_path, resume=True).resumed_from == 0

    def test_unpicklable_artifact_is_a_failed_run(self, tmp_path):
        def publish(x, ctx):
            ctx.artifacts["handle"] = lambda: None
            return x

        plan = StagePlan.build("toy", [PipelineStage("publish", S.INGEST, publish)])
        with pytest.raises(PipelineError, match="checkpoint commit failed") as info:
            PipelineRunner(plan, checkpoint_dir=tmp_path).run(PAYLOAD)
        assert info.value.events[-1].kind is RunEventKind.RUN_FAILED
        assert info.value.__cause__ is not None
        assert not list(tmp_path.glob("stage-*"))

    def test_cli_prints_the_stage_and_exits_one(self, tmp_path, capsys):
        from repro.cli import main

        from repro.obs import read_jsonl

        code = main([
            "run", "climate", "--workdir", str(tmp_path / "w"), "--seed", "3",
            "--checkpoint", "--trace", "--inject-faults", "enospc=checkpoint:1",
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert "error (stage 'regrid'): checkpoint commit failed" in err
        assert "partial trace written" in err
        # a failed run keeps its events, ending in the terminal one
        events = [e["kind"] for e in read_jsonl(tmp_path / "w" / "events.jsonl")]
        assert (events[0], events[-1]) == ("run-started", "run-failed")


class TestWriteBehind:
    """A stage's commit lands on a helper thread while the next stage runs
    (inline on a 1-CPU host); the run joins it before the next commit, in
    every failure path and before it commits, so what the journal says is
    what happened."""

    @pytest.fixture(params=[1, 2], ids=["inline", "helper-thread"])
    def cpus(self, request, monkeypatch):
        monkeypatch.setattr(runner, "helper_threads", lambda: request.param)
        return request.param

    @staticmethod
    def _slow_or_failing_journal(monkeypatch, index, *, fail=False, delay=0.0):
        """Stage *index*'s journal record is appended after *delay*, or fails."""
        real = RunJournal.commit_stage

        def commit_stage(journal, **record):
            if record["index"] == index:
                time.sleep(delay)
                if fail:
                    raise OSError(errno.ENOSPC, "no space left on device (planted)")
            return real(journal, **record)

        monkeypatch.setattr(RunJournal, "commit_stage", commit_stage)

    def test_a_commit_that_fails_behind_fails_the_run_from_its_stage(
        self, tmp_path, monkeypatch, cpus
    ):
        self._slow_or_failing_journal(monkeypatch, 1, fail=True, delay=0.05)
        with pytest.raises(PipelineError, match="checkpoint commit failed for stage 'clean'") as info:
            PipelineRunner(_toy_plan(), checkpoint_dir=tmp_path).run(PAYLOAD)
        error = info.value
        assert (error.stage_name, error.stage_index) == ("clean", 1)
        assert isinstance(error.__cause__, OSError) and error.__cause__.errno == errno.ENOSPC
        assert (error.events[-1].kind, error.events[-1].stage_index) == (RunEventKind.RUN_FAILED, 1)
        # stage 1's snapshot landed, its record did not; stage 2 was never
        # snapshotted or journaled
        assert RunCheckpointer(tmp_path).journal.last_run().committed == [0]
        assert sorted(RunCheckpointer(tmp_path).snapshots()) == [0, 1]
        monkeypatch.undo()
        assert _run(tmp_path, resume=True).resumed_from == 0

    def test_a_failed_commit_outranks_the_next_stages_failure(self, tmp_path, monkeypatch, cpus):
        # without write-behind the next stage would never have run
        self._slow_or_failing_journal(monkeypatch, 1, fail=True, delay=0.05)

        def encode(x, ctx):
            raise RuntimeError("encode broke")

        plan = StagePlan.build("toy", [
            *_toy_plan().stages[:2], PipelineStage("encode", S.TRANSFORM, encode),
        ])
        with pytest.raises(PipelineError, match="checkpoint commit failed for stage 'clean'") as info:
            PipelineRunner(plan, checkpoint_dir=tmp_path).run(PAYLOAD)
        assert isinstance(info.value.__cause__, OSError)
        terminal = [e for e in info.value.events if e.kind is RunEventKind.RUN_FAILED]
        assert [e.stage_index for e in terminal] == [1]
        assert RunCheckpointer(tmp_path).journal.last_run().committed == [0]

    @pytest.mark.parametrize("mid_stage", [False, True], ids=["boundary", "mid-stage"])
    def test_a_drain_during_the_next_stage_leaves_the_stage_committed(
        self, tmp_path, monkeypatch, cpus, mid_stage
    ):
        self._slow_or_failing_journal(monkeypatch, 1, delay=0.05)
        drain = DrainController()

        def encode(x, ctx):
            drain.request("test drain")
            if mid_stage:
                raise DrainInterrupt("drained mid-stage")
            return x - 0.5

        plan = StagePlan.build("toy", [
            *_toy_plan().stages[:2], PipelineStage("encode", S.TRANSFORM, encode),
            _toy_plan().stages[3],
        ])
        with pytest.raises(DrainInterrupt):
            PipelineRunner(plan, checkpoint_dir=tmp_path, drain=drain).run(PAYLOAD)
        committed = RunCheckpointer(tmp_path).journal.last_run().committed
        assert committed == ([0, 1] if mid_stage else [0, 1, 2])
        assert _run(tmp_path, resume=True).resumed_from == committed[-1]

    def test_an_injected_crash_in_the_next_stage_leaves_the_stage_committed(
        self, tmp_path, cpus
    ):
        with pytest.raises(SimulatedCrash):
            _run(tmp_path, crash_at="stage:2:pre")
        assert RunCheckpointer(tmp_path).journal.last_run().committed == [0, 1]

    def test_no_commit_outlives_its_run(self, tmp_path, monkeypatch, cpus):
        self._slow_or_failing_journal(monkeypatch, 2, delay=0.05)

        def stop(event):
            if event.kind is RunEventKind.STAGE_STARTED and event.stage_index == 3:
                raise KeyboardInterrupt  # an error no lifecycle phase handles

        with pytest.raises(KeyboardInterrupt):
            PipelineRunner(_toy_plan(), checkpoint_dir=tmp_path, on_event=stop).run(PAYLOAD)
        assert not [t for t in threading.enumerate() if t.name.startswith("checkpoint-commit")]
        assert RunCheckpointer(tmp_path).journal.last_run().committed == [0, 1, 2]

    def test_the_next_stage_runs_while_a_commit_lands(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner, "helper_threads", lambda: 2)
        released, real = threading.Event(), RunJournal.commit_stage
        seen = []

        def commit_stage(journal, **record):
            if record["index"] == 0:
                assert released.wait(10)
            return real(journal, **record)

        def clean(x, ctx):
            seen.append(RunCheckpointer(tmp_path).journal.last_run().committed)
            released.set()
            return x * 3.0

        monkeypatch.setattr(RunJournal, "commit_stage", commit_stage)

        plan = StagePlan.build("toy", [
            _toy_plan().stages[0], PipelineStage("clean", S.PREPROCESS, clean),
            *_toy_plan().stages[2:],
        ])
        PipelineRunner(plan, checkpoint_dir=tmp_path).run(PAYLOAD)
        assert seen == [[]]  # stage 0's record had not landed when stage 1 ran
        assert RunCheckpointer(tmp_path).journal.last_run().committed == list(range(N_STAGES))

    def test_committed_state_is_captured_when_the_stage_commits(self, tmp_path, monkeypatch):
        # the next stage rewrites an artifact array in place and adds
        # evidence while stage 0's commit is still landing: the snapshot
        # holds stage 0's state as it was, and the array it froze
        monkeypatch.setattr(runner, "helper_threads", lambda: 2)
        self._slow_or_failing_journal(monkeypatch, 0, delay=0.05)
        weights = np.ones(4)

        def ingest(x, ctx):
            ctx.artifacts["weights"] = weights
            return x + 1.0

        def clean(x, ctx):
            ctx.artifacts["weights"] = np.zeros(4)
            ctx.record(EvidenceKind.VALIDATED_INGEST, "after stage 0")
            with pytest.raises(ValueError, match="read-only"):
                weights[0] = 7.0
            return x * 3.0

        plan = StagePlan.build("toy", [
            PipelineStage("ingest", S.INGEST, ingest), PipelineStage("clean", S.PREPROCESS, clean),
        ])
        PipelineRunner(plan, checkpoint_dir=tmp_path).run(PAYLOAD)
        checkpointer = RunCheckpointer(tmp_path)
        blob, reason = checkpointer.verify(checkpointer.journal.last_run().stage_commits[0],
                                           restore=True)
        assert reason is None
        assert blob["artifacts"]["weights"].tolist() == [1.0] * 4
        assert len(blob["evidence"]) == 0
