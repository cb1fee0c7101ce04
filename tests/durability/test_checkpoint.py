"""The checkpoint directory's one owner, and the ledger invariant.

Whatever sequence of crashes, recoveries and resumes a checkpoint
directory goes through, the journal's completed-stage table stays a
gap-free prefix, every snapshot on disk is one the journal names, and a
run that completes lands on the clean run's bytes.
"""

import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.levels import DataProcessingStage
from repro.core.plan import PipelineStage, StagePlan
from repro.core.runner import PipelineRunner
from repro.durability.checkpoint import RunCheckpointer
from repro.durability.fsfaults import SimulatedCrash
from repro.durability.recover import recover_run
from repro.faults import FaultInjector, FaultSpec

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


class TestCommit:
    def test_digest_is_of_the_bytes_written_not_a_read_back(self, tmp_path, monkeypatch):
        from repro.durability import atomic, checkpoint

        def no_read_back(path):
            raise AssertionError(f"commit path re-read {path}")

        monkeypatch.setattr(checkpoint, "sha256_path", no_read_back)
        monkeypatch.setattr(atomic, "sha256_path", no_read_back)
        _run(tmp_path)
        monkeypatch.undo()
        checkpointer = RunCheckpointer(tmp_path)
        commits = checkpointer.journal.last_run().stage_commits
        assert sorted(commits) == list(range(N_STAGES))
        for index, record in commits.items():
            data = checkpointer.snapshot_path(index).read_bytes()
            assert record["artifacts"]["checkpoint"] == hashlib.sha256(data).hexdigest()
            assert record["schema"] == 2

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


CRASH_POINTS = st.sampled_from(
    [f"stage:{index}:{phase}" for index in range(N_STAGES) for phase in ("pre", "post")]
)
STEPS = st.one_of(
    st.just(("recover", None)),
    st.tuples(st.just("resume-crash"), CRASH_POINTS),
    st.just(("resume", None)),
)


class TestLedgerInvariant:
    @pytest.fixture(scope="class")
    def clean(self):
        return _run(None)

    @settings(max_examples=40, deadline=None)
    @given(first_crash=CRASH_POINTS, steps=st.lists(STEPS, max_size=5))
    def test_any_crash_recover_resume_sequence(self, clean, first_crash, steps):
        """A fresh run that dies, then any mix of recovery scans, resumes
        that die again, and resumes that finish.  (Only the first run is
        fresh: a second fresh run supersedes the old commits in the journal
        and leaves their snapshots for ``recover_run`` to delete.)"""
        with tempfile.TemporaryDirectory() as scratch:
            ckpt = Path(scratch) / "ckpt"
            checkpointer = RunCheckpointer(ckpt)

            def check(completed=None):
                committed = checkpointer.journal.last_run().committed
                assert committed == list(range(len(committed)))
                assert set(checkpointer.snapshots()) <= set(committed)
                if completed is not None:
                    assert committed == list(range(N_STAGES))
                    assert (
                        completed.results[-1].output_fingerprint
                        == clean.results[-1].output_fingerprint
                    )
                    assert np.array_equal(completed.payload, clean.payload)

            # a fresh run always dies: every crash point lies inside the plan
            with pytest.raises(SimulatedCrash):
                _run(ckpt, crash_at=first_crash)
            check()
            for step, crash_at in steps:
                if step == "recover":
                    report = recover_run(ckpt)
                    assert report.stages_discarded == []
                    check()
                    continue
                try:
                    completed = _run(ckpt, crash_at=crash_at, resume=True)
                except SimulatedCrash:
                    completed = None  # the point lay beyond the restored prefix
                check(completed)
            check(_run(ckpt, resume=True))
