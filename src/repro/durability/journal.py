"""The write-ahead run journal: a run's on-disk state, reconstructible.

The checkpointer snapshots payloads and the stores persist artifacts;
the journal is the one record of *which* of those writes are committed —
it is the completed-stage table resume and recovery both read.  Four
durable, fsync-disciplined record types are appended at run boundaries:

* ``run-begin`` — the run's identity: pipeline, plan fingerprint,
  backend, input fingerprint, and where it resumed from;
* ``stage-commit`` — appended only *after* the stage's checkpoint hits
  disk, carrying the ids of the stage's input and output payloads, the
  output's content fingerprint (what a restored payload must hash to)
  and content digests of the committed artifacts (the checkpoint
  snapshot's head, the shard manifest) so resume and recovery verify
  rather than trust;
* ``run-commit`` — the run finished; everything is final;
* ``recovery`` — the recovery scanner's verdict: the stage a resume may
  start from, and what it verified and discarded to get there.

The invariant recovery relies on: **an artifact without a matching
journal record is uncommitted and may be discarded; a journal record
whose digests do not match the disk marks a torn commit and everything
from that stage onward is discarded.**  Re-executing discarded stages is
safe because stage execution is deterministic (the bitwise-parity
contract), so a killed-and-recovered run converges to the exact bytes of
an uninterrupted one.

The journal itself is an append-only JSONL log written through
:func:`repro.durability.atomic.append_jsonl_durable`, which heals its
own torn tail — the journal survives the crashes it exists to describe.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Mapping, Optional, Union

from repro.durability.atomic import append_jsonl_durable, read_jsonl

__all__ = [
    "JOURNAL_NAME",
    "JOURNAL_SCHEMA",
    "KIND_RUN_BEGIN",
    "KIND_STAGE_COMMIT",
    "KIND_RUN_COMMIT",
    "KIND_RECOVERY",
    "JOURNAL_KINDS",
    "RunJournal",
    "JournalReplay",
]

JOURNAL_NAME = "journal.jsonl"
#: bumped whenever a record's meaning changes; 3: a stage commit's
#: ``checkpoint`` digest covers the snapshot's head, not the whole file;
#: 4: its fingerprints are derivation ids, the content digest rides beside
#: them as ``content_fingerprint``, and snapshots are ``stage-NNN.snap``
JOURNAL_SCHEMA = 4

KIND_RUN_BEGIN = "run-begin"
KIND_STAGE_COMMIT = "stage-commit"
KIND_RUN_COMMIT = "run-commit"
KIND_RECOVERY = "recovery"
JOURNAL_KINDS = (KIND_RUN_BEGIN, KIND_STAGE_COMMIT, KIND_RUN_COMMIT, KIND_RECOVERY)


def _below(commits: Dict[int, Dict[str, object]], index: int) -> Dict[int, Dict[str, object]]:
    """The commits a record at *index* does not supersede."""
    return {i: record for i, record in commits.items() if i < index}


class JournalReplay:
    """The last run's journal segment, decoded for resume and recovery.

    ``stage_commits`` maps stage index → its ``stage-commit`` record;
    ``committed`` lists those indices in order.
    """

    def __init__(
        self,
        begin: Optional[Dict[str, object]],
        stage_commits: Dict[int, Dict[str, object]],
        run_commit: Optional[Dict[str, object]],
    ):
        self.begin = begin
        self.stage_commits = stage_commits
        self.run_commit = run_commit

    @property
    def committed(self) -> List[int]:
        return sorted(self.stage_commits)

    @property
    def run_committed(self) -> bool:
        return self.run_commit is not None


class RunJournal:
    """Append-only write-ahead journal for one checkpoint directory.

    A resumed run appends a fresh ``run-begin`` and a recovery scan its
    verdict; replay always works from the *last* begin, so the journal
    doubles as a crash history.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)

    # -- writing ----------------------------------------------------------

    def begin(
        self,
        *,
        pipeline: str,
        plan_fingerprint: str,
        backend: str,
        payload_fingerprint: str,
        resume_index: int = 0,
    ) -> None:
        self._append(
            KIND_RUN_BEGIN,
            {
                "pipeline": pipeline,
                "plan_fingerprint": plan_fingerprint,
                "backend": backend,
                "payload_fingerprint": payload_fingerprint,
                "resume_index": resume_index,
            },
        )

    def commit_stage(
        self,
        *,
        index: int,
        stage: str,
        output_fingerprint: str,
        artifacts: Mapping[str, str],
        input_fingerprint: str = "",
        content_fingerprint: str = "",
    ) -> None:
        """Record a stage commit; *artifacts* maps artifact name →
        sha256 content digest (e.g. ``checkpoint``, ``manifest``)."""
        self._append(
            KIND_STAGE_COMMIT,
            {
                "index": index,
                "stage": stage,
                "input_fingerprint": input_fingerprint,
                "output_fingerprint": output_fingerprint,
                "content_fingerprint": content_fingerprint,
                "artifacts": dict(artifacts),
            },
        )

    def commit_run(self, *, output_fingerprint: str) -> None:
        self._append(KIND_RUN_COMMIT, {"output_fingerprint": output_fingerprint})

    def record_recovery(self, *, resume_index: int, **report: object) -> None:
        """Record a recovery scan's verdict (its whole *report*): commits at
        index >= *resume_index* are superseded, as by a ``run-begin``."""
        self._append(KIND_RECOVERY, {"resume_index": resume_index, **report})

    def _append(self, kind: str, body: Mapping[str, object]) -> None:
        record = {"schema": JOURNAL_SCHEMA, "type": "journal", "kind": kind}
        record.update(body)
        append_jsonl_durable(self.path, [record], site="journal")

    # -- reading ----------------------------------------------------------

    def records(self) -> List[Dict[str, object]]:
        """All journal records, torn-tail tolerant."""
        return [
            record
            for record in read_jsonl(self.path)
            if record.get("type") == "journal" and record.get("kind") in JOURNAL_KINDS
        ]

    def last_run(self) -> JournalReplay:
        """Replay the journal into the state of the most recent run.

        Stage commits accumulate *across* segments: a ``run-begin`` or
        ``recovery`` record with ``resume_index=k`` supersedes commits at
        index >= k but keeps the prefix below it, and committing stage k
        invalidates any stale commits above k.  The result is the
        completed-stage table — there is no other.
        """
        begin: Optional[Dict[str, object]] = None
        stage_commits: Dict[int, Dict[str, object]] = {}
        run_commit: Optional[Dict[str, object]] = None
        for record in self.records():
            kind = record.get("kind")
            if kind == KIND_RUN_BEGIN:
                begin, run_commit = record, None
                stage_commits = _below(stage_commits, int(record.get("resume_index", 0) or 0))
            elif kind == KIND_RECOVERY:
                stage_commits = _below(stage_commits, int(record["resume_index"]))
            elif kind == KIND_STAGE_COMMIT:
                index = int(record["index"])
                stage_commits = _below(stage_commits, index)
                stage_commits[index] = record
            elif kind == KIND_RUN_COMMIT:
                run_commit = record
        if begin is None:
            return JournalReplay(None, {}, None)
        return JournalReplay(begin, stage_commits, run_commit)
