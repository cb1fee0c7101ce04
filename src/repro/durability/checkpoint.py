"""The checkpoint directory and its one owner.

Layout under the directory, known to this module only:

* ``stage-NNN.pkl`` — one pickled snapshot per completed stage (payload +
  artifacts + evidence), committed through the atomic primitive;
* ``journal.jsonl`` — the write-ahead :class:`RunJournal`, the **only**
  record of which stages are committed;
* ``stage-NNN.pkl.quarantined`` — snapshots a resume refused, kept for
  post-mortem and never restored.

A stage commits as one operation (:meth:`RunCheckpointer.commit`): the
snapshot lands first, then the journal's ``stage-commit`` record carrying
the sha256 of the bytes that were written.  A snapshot without a record is
uncommitted; a record whose snapshot no longer hashes to it is a torn
commit.  Resume (:meth:`RunCheckpointer.load_verified`) and recovery
(:func:`repro.durability.recover.recover_run`) both read the
completed-stage table from ``RunJournal.last_run()`` and both decide
whether a committed snapshot can be trusted by calling
:meth:`RunCheckpointer.verify`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import re
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.core.evidence import ReadinessEvidence
from repro.core.payload import fingerprint_payload
from repro.durability.atomic import atomic_write_bytes, sha256_path
from repro.durability.journal import JOURNAL_NAME, RunJournal

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.plan import StagePlan
    from repro.core.runner import PipelineContext

__all__ = [
    "CheckpointError",
    "RunCheckpoint",
    "QuarantinedCheckpoint",
    "RunCheckpointer",
]

_SNAPSHOT_RE = re.compile(r"^stage-(\d{3})\.pkl$")


class CheckpointError(RuntimeError):
    """A stored checkpoint is unusable (wrong plan, old format, stale payload)."""


@dataclasses.dataclass
class RunCheckpoint:
    """The restorable state of the last completed stage."""

    stage_index: int
    stage_name: str
    fingerprint: str
    payload: Any
    artifacts: Dict[str, Any]
    evidence: ReadinessEvidence
    #: the completed-stage table up to ``stage_index``: index -> the
    #: journal's ``stage-commit`` record
    completed: Dict[int, Dict[str, Any]]


@dataclasses.dataclass(frozen=True)
class QuarantinedCheckpoint:
    """One checkpoint resume rejected and set aside instead of restoring.

    The on-disk pickle (if any) is renamed to ``*.quarantined`` so it
    stays available for post-mortem without ever being restored again.
    """

    stage_index: int
    stage_name: str
    reason: str
    #: where the rejected payload snapshot was moved ("" if it was missing)
    quarantined_path: str = ""


class RunCheckpointer:
    """Persists per-stage payload snapshots so a failed run can resume."""

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        self.journal = RunJournal(self.directory / JOURNAL_NAME)

    def snapshot_path(self, index: int) -> Path:
        return self.directory / f"stage-{index:03d}.pkl"

    def snapshots(self) -> Dict[int, Path]:
        """Every snapshot on disk, committed or not, by stage index."""
        found = {}
        for path in self.directory.glob("*.pkl"):
            match = _SNAPSHOT_RE.match(path.name)
            if match is not None:
                found[int(match.group(1))] = path
        return dict(sorted(found.items()))

    def commit(
        self,
        index: int,
        stage_name: str,
        input_fingerprint: str,
        output_fingerprint: str,
        payload: Any,
        context: "PipelineContext",
    ) -> None:
        """Commit one completed stage: snapshot, then its journal record.

        The recorded checkpoint digest is taken over the bytes handed to
        the atomic primitive, never read back from disk — whatever happens
        to the file afterwards, the journal says what was committed.
        """
        # io.shards needs core.dataset, which is still mid-import when
        # this package first loads (core.dataset -> provenance -> here)
        from repro.io.shards import ShardManifest

        data = pickle.dumps(
            {
                "payload": payload,
                "artifacts": dict(context.artifacts),
                "evidence": context.evidence,
            }
        )
        # atomic + durable: a crash mid-write leaves a *.tmp sibling,
        # never a torn snapshot under the restorable name
        atomic_write_bytes(self.snapshot_path(index), data, site="checkpoint")
        artifacts = {"checkpoint": hashlib.sha256(data).hexdigest()}
        manifest = context.artifacts.get("manifest")
        if isinstance(manifest, ShardManifest):
            artifacts["manifest"] = hashlib.sha256(
                manifest.to_json().encode("utf-8")
            ).hexdigest()
        self.journal.commit_stage(
            index=index,
            stage=stage_name,
            input_fingerprint=input_fingerprint,
            output_fingerprint=output_fingerprint,
            artifacts=artifacts,
        )

    def verify(
        self, record: Mapping[str, Any], *, restore: bool
    ) -> Tuple[Optional[Dict[str, Any]], Optional[str]]:
        """The one trust decision for a journal-committed snapshot.

        Returns ``(blob, reason)`` — one is None.  The file must hash to
        the sha256 its ``stage-commit`` *record* carries; with *restore*
        (resume wants the payload back) the unpickled payload must also
        hash to the recorded ``output_fingerprint``.  Recovery, which only
        decides what stays on disk, stops after the byte check and gets an
        empty blob.
        """
        path = self.snapshot_path(int(record["index"]))
        if not path.exists():
            return None, "payload snapshot is missing"
        recorded = str((record.get("artifacts") or {}).get("checkpoint"))
        actual = sha256_path(path)
        if actual != recorded:
            return None, (
                f"checkpoint digest mismatch: committed sha256 {recorded[:12]}, "
                f"file hashes to {actual[:12]}"
            )
        if not restore:
            return {}, None
        try:
            with open(path, "rb") as fh:
                blob = pickle.load(fh)
            payload = blob["payload"]
        except Exception as exc:  # torn pickle, missing key, unpicklable
            return None, f"payload snapshot is unreadable ({type(exc).__name__}: {exc})"
        fingerprint = fingerprint_payload(payload)
        if fingerprint != record["output_fingerprint"]:
            return None, (
                f"fingerprint mismatch: stored {str(record['output_fingerprint'])[:12]}, "
                f"restored payload hashes to {fingerprint[:12]}"
            )
        return blob, None

    def load_verified(
        self, plan: "StagePlan"
    ) -> Tuple[Optional[RunCheckpoint], List[QuarantinedCheckpoint]]:
        """Restore the newest journal-committed stage that verifies.

        Walks the journal's completed-stage table newest-first, renames
        every snapshot :meth:`verify` refuses to ``*.quarantined`` and
        returns the last trustworthy checkpoint plus the quarantine
        report; the run's next ``run-begin`` record (``resume_index`` =
        the restore point) is what supersedes the refused commits.  With
        no survivor the run starts fresh — ``(None, [quarantined...])``.

        Raises :class:`CheckpointError` for a directory written by a
        different plan or by a release that kept a second ledger: those
        are caller errors, not storage corruption.
        """
        replay = self.journal.last_run()
        commits = replay.stage_commits
        if not commits:
            return None, []
        if replay.begin.get("plan_fingerprint") != plan.fingerprint():
            raise CheckpointError(
                f"checkpoint in {self.directory} was written by a different "
                f"plan than {plan.name!r}; refusing to resume"
            )
        if any("input_fingerprint" not in record for record in commits.values()):
            raise CheckpointError(
                f"checkpoint in {self.directory} was written by an older release "
                "(schema-1 journal: its stage commits carry no input_fingerprint, "
                "that lived in run-state.json); refusing to resume — start the "
                "run again without resume"
            )
        quarantined: List[QuarantinedCheckpoint] = []
        for index in sorted(commits, reverse=True):
            record = commits[index]
            blob, reason = self.verify(record, restore=True)
            if blob is None:
                path, qpath = self.snapshot_path(index), ""
                if path.exists():
                    qpath = str(path) + ".quarantined"
                    os.replace(path, qpath)
                quarantined.append(
                    QuarantinedCheckpoint(index, str(record["stage"]), str(reason), qpath)
                )
                continue
            return (
                RunCheckpoint(
                    stage_index=index,
                    stage_name=str(record["stage"]),
                    fingerprint=str(record["output_fingerprint"]),
                    payload=blob["payload"],
                    artifacts=dict(blob.get("artifacts", {})),
                    evidence=blob.get("evidence") or ReadinessEvidence(),
                    completed={i: r for i, r in commits.items() if i <= index},
                ),
                quarantined,
            )
        return None, quarantined
