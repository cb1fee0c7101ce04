"""The checkpoint directory and its one owner.

Layout under the directory, known to this module only:

* ``stage-NNN.snap`` — one snapshot per completed stage (payload +
  artifacts + evidence + gate reports), committed through the atomic
  primitive;
* ``journal.jsonl`` — the write-ahead :class:`RunJournal`, the **only**
  record of which stages are committed;
* ``stage-NNN.snap.quarantined`` — snapshots a resume refused, kept for
  post-mortem and never restored;
* ``stage-NNN.pkl`` (and ``.pkl.quarantined``) — an older release's
  snapshots, which recovery deletes.

A snapshot is one self-contained file, and it is not ``pickle.load``-able::

    magic | skeleton length | table length | skeleton | blob table | blobs
    |<---------------------------- head --------------------------->|

The *skeleton* is a protocol-5 pickle of the stage state whose array
buffers were handed out-of-band, so array memory never enters the pickle;
the *blob table* (JSON) lists every **distinct** buffer once — its
``fingerprint_array`` digest, the dtype + shape token that digest starts
with, its byte length — and maps each out-of-band slot of the skeleton to
a blob; the blobs follow, each written once, straight from the array's
memory.  Two arrays with equal content share a stored blob (and restore as
two independent arrays); arrays pickle cannot hand out — non-contiguous,
object-dtype, ``ndarray`` subclasses — stay in-band in the skeleton.

A stage commits as one operation (:meth:`RunCheckpointer.commit`): one
content walk of the payload (:func:`repro.core.payload.walk_payload`,
the only place a stage output is content-hashed), the snapshot, then the
journal's ``stage-commit`` record carrying the walk's content fingerprint
beside the stage's derivation id and the sha256 of the **head** as it was
written.  Every byte of the file is covered by that digest or by a blob
digest inside it, and a blob digest is the one the walk computed for the
same array — commit hashes an array again only when the walk did not see
it (pickle handed out a buffer the walk does not visit).  A
snapshot without a record is uncommitted; a record whose snapshot no
longer verifies is a torn commit.  Resume
(:meth:`RunCheckpointer.load_verified`) and recovery
(:func:`repro.durability.recover.recover_run`) both read the
completed-stage table from ``RunJournal.last_run()`` and both decide
whether a committed snapshot can be trusted by calling
:meth:`RunCheckpointer.verify` — one pass over the file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import re
import struct
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    BinaryIO,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from repro.core.evidence import ReadinessEvidence
from repro.core.payload import fingerprint_payload, memory_key, walk_payload
from repro.durability.atomic import staged_write
from repro.durability.journal import JOURNAL_NAME, JOURNAL_SCHEMA, RunJournal
from repro.provenance.record import array_header, fingerprint_array

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.plan import StagePlan
    from repro.core.runner import PipelineContext
    from repro.gates.gate import GateReport

__all__ = [
    "CheckpointError",
    "RunCheckpoint",
    "QuarantinedCheckpoint",
    "RunCheckpointer",
]

_SNAPSHOT_RE = re.compile(r"^stage-(\d{3})\.snap$")
#: snapshots, and refused snapshots, of journal schema 3 and before
_OLD_SNAPSHOT_RE = re.compile(r"^stage-\d{3}\.pkl(\.quarantined)?$")

_MAGIC = b"RPSNAP3\n"
#: magic, skeleton length, blob-table length
_FIXED = struct.Struct("<8sQQ")
#: verification that keeps nothing reads a snapshot through one such block
_BLOCK = 1 << 20


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
    #: the gate verdicts of the restored prefix, which the readiness
    #: certificate of the resumed run is built from
    gate_reports: List["GateReport"]
    #: the completed-stage table up to ``stage_index``: index -> the
    #: journal's ``stage-commit`` record
    completed: Dict[int, Dict[str, Any]]


@dataclasses.dataclass(frozen=True)
class QuarantinedCheckpoint:
    """One checkpoint resume rejected and set aside instead of restoring.

    The on-disk snapshot (if any) is renamed to ``*.quarantined`` so it
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
        return self.directory / f"stage-{index:03d}.snap"

    def snapshots(self) -> Dict[int, Path]:
        """Every snapshot on disk, committed or not, by stage index."""
        found = {}
        for path in self.directory.glob("*.snap"):
            match = _SNAPSHOT_RE.match(path.name)
            if match is not None:
                found[int(match.group(1))] = path
        return dict(sorted(found.items()))

    def old_snapshots(self) -> List[Path]:
        """Snapshot files an older release left (``stage-NNN.pkl`` and its
        ``.quarantined``, journal schema 3 and before): no commit this
        release writes can name them."""
        return sorted(
            path for path in self.directory.glob("stage-*.pkl*")
            if _OLD_SNAPSHOT_RE.match(path.name)
        )

    def commit(
        self,
        index: int,
        stage_name: str,
        input_fingerprint: str,
        output_fingerprint: str,
        payload: Any,
        context: "PipelineContext",
    ) -> Callable[[], None]:
        """Commit one completed stage in two halves; the stage is committed
        once the returned second half has returned.

        This call captures the stage state as it is now: the skeleton
        pickle, and the buffers it hands out of band, frozen (an array's
        memory is made read-only, any other writable buffer copied) — so
        it fails at once for state that does not pickle.  The second half
        reads only what was captured, never the live payload, so it may run
        on another thread while the next stage runs: it rebuilds the state
        over the captured buffers without copying them, walks that rebuild
        for the content fingerprint (:func:`walk_payload`, whose array
        digests the snapshot stores its blobs under without hashing them
        again), writes the snapshot and appends the journal record.  A
        wrong digest cannot restore wrong data — :meth:`verify` re-hashes
        every blob.

        The recorded checkpoint digest is taken over the head bytes handed
        to the atomic primitive, never read back from disk — whatever
        happens to the file afterwards, the journal says what was committed.
        """
        # io.shards needs core.dataset, which is still mid-import when
        # this package first loads (core.dataset -> provenance -> here)
        from repro.io.shards import ShardManifest

        state = {
            "payload": payload,
            "artifacts": dict(context.artifacts),
            "evidence": context.evidence,
            "gate_reports": list(context.gate_reports),
        }
        buffers: List[pickle.PickleBuffer] = []
        skeleton = pickle.dumps(state, protocol=5, buffer_callback=buffers.append)
        buffers = [_frozen(buffer) for buffer in buffers]
        path = self.snapshot_path(index)

        def land() -> None:
            rebuilt = pickle.loads(skeleton, buffers=buffers)
            array_digests: Dict[Any, str] = {}
            content = walk_payload(rebuilt["payload"], array_digests)[0]
            artifacts = {"checkpoint": _write_snapshot(path, skeleton, buffers, array_digests)}
            manifest = rebuilt["artifacts"].get("manifest")
            if isinstance(manifest, ShardManifest):
                artifacts["manifest"] = hashlib.sha256(
                    manifest.to_json().encode("utf-8")
                ).hexdigest()
            self.journal.commit_stage(
                index=index,
                stage=stage_name,
                input_fingerprint=input_fingerprint,
                output_fingerprint=output_fingerprint,
                content_fingerprint=content,
                artifacts=artifacts,
            )

        return land

    def verify(
        self, record: Mapping[str, Any], *, restore: bool
    ) -> Tuple[Optional[Dict[str, Any]], Optional[str]]:
        """The one trust decision for a journal-committed snapshot.

        Returns ``(blob, reason)`` — one is None.  One pass over the file:
        its head must hash to the sha256 the ``stage-commit`` *record*
        carries, every blob to its entry in the head's table, and nothing
        may follow the last blob; with *restore* (resume wants the payload
        back) each blob is read straight into the buffer its array will
        own, and the rebuilt payload must also hash to the recorded
        ``content_fingerprint``.  Recovery, which only decides what stays on
        disk, stops after the byte check and gets an empty blob.
        """
        recorded = str((record.get("artifacts") or {}).get("checkpoint"))
        try:
            with open(self.snapshot_path(int(record["index"])), "rb") as fh:
                skeleton, buffers = _read_snapshot(fh, recorded, restore)
        except FileNotFoundError:
            return None, "payload snapshot is missing"
        except CheckpointError as exc:
            return None, str(exc)
        if not restore:
            return {}, None
        try:
            blob = pickle.loads(skeleton, buffers=buffers)
            payload = blob["payload"]
        except Exception as exc:  # missing key, a class that no longer unpickles
            return None, f"payload snapshot is unreadable ({type(exc).__name__}: {exc})"
        fingerprint, recorded = fingerprint_payload(payload), str(record["content_fingerprint"])
        if fingerprint != recorded:
            return None, (
                f"fingerprint mismatch: stored {recorded[:12]}, "
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
        different plan or by a release with another journal schema (its
        snapshots are another format): those are caller errors, not
        storage corruption, and nothing on disk is touched.
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
        schemas = {record.get("schema") for record in commits.values()}
        if schemas != {JOURNAL_SCHEMA}:
            found = ", ".join(sorted(str(s) for s in schemas - {JOURNAL_SCHEMA}))
            raise CheckpointError(
                f"checkpoint in {self.directory} was written by an older release "
                f"(journal schema {found}; this release reads schema "
                f"{JOURNAL_SCHEMA}, whose stage commits name a different snapshot "
                "format); refusing to resume — start the run again without resume"
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
                    gate_reports=list(blob.get("gate_reports", ())),
                    completed={i: r for i, r in commits.items() if i <= index},
                ),
                quarantined,
            )
        return None, quarantined


# ---------------------------------------------------------------------------
# the snapshot file
# ---------------------------------------------------------------------------


def _frozen(buffer: pickle.PickleBuffer) -> pickle.PickleBuffer:
    """*buffer*, its memory now read-only for good: an array is frozen with
    its ``base`` chain (as :func:`repro.core.payload.commit_pass` freezes a
    stage output), any other writable buffer is replaced by a copy."""
    raw = buffer.raw()
    if raw.readonly:
        return buffer
    chain = raw.obj
    if not isinstance(chain, np.ndarray):
        return pickle.PickleBuffer(bytes(raw))
    while isinstance(chain, np.ndarray):
        chain.flags.writeable = False
        chain = chain.base
    return buffer


def _write_snapshot(
    path: Path,
    skeleton: bytes,
    buffers: List[pickle.PickleBuffer],
    array_digests: Mapping[Any, str],
) -> str:
    """Write the skeleton and its out-of-band *buffers* as a snapshot at
    *path*; returns the head's sha256.

    Atomic + durable (one guarded commit, site ``checkpoint``): a crash
    mid-write leaves a ``*.tmp`` sibling, never a torn snapshot under the
    restorable name.
    """
    blobs: Dict[Tuple[str, str], int] = {}
    entries: List[Tuple[str, str, int]] = []
    slots: List[int] = []
    memory: List[memoryview] = []
    for buffer in buffers:
        raw = buffer.raw()
        owner = raw.obj
        if not isinstance(owner, np.ndarray):
            owner = np.frombuffer(raw, dtype=np.uint8)
        # NumPy exports an array itself, or the transpose of a Fortran-
        # ordered one: either way *owner*'s C-order bytes are the buffer
        # (a 0-d array fingerprints, and so is described, as shape (1,))
        prefix = array_header(np.ascontiguousarray(owner)).decode("ascii")
        key = (array_digests.get(memory_key(owner)) or fingerprint_array(owner), prefix)
        if key not in blobs:
            blobs[key] = len(entries)
            entries.append((*key, raw.nbytes))
            memory.append(raw)
        slots.append(blobs[key])
    table = json.dumps({"blobs": entries, "slots": slots}).encode("ascii")
    head = hashlib.sha256()
    with staged_write(path, site="checkpoint") as fh:
        for piece in (_FIXED.pack(_MAGIC, len(skeleton), len(table)), skeleton, table):
            head.update(piece)
            fh.write(piece)
        for raw in memory:
            fh.write(raw)
    return head.hexdigest()


def _hash_into(fh: BinaryIO, nbytes: int, digest: Any, buffer: bytearray) -> None:
    """Feed the next *nbytes* of *fh* to *digest* by way of *buffer*: one
    that large ends up holding them, a smaller one is reused block by block."""
    view, at = memoryview(buffer), 0
    while nbytes:
        if at == len(buffer):
            at = 0  # smaller than the region: start over at its front
        got = fh.readinto(view[at : at + min(nbytes, len(buffer) - at)])
        if not got:
            break  # a short file: the digest will not match
        digest.update(view[at : at + got])
        at += got
        nbytes -= got


def _read_snapshot(
    fh: BinaryIO, recorded: str, restore: bool
) -> Tuple[bytearray, List[bytearray]]:
    """Verify an open snapshot front to back; with *restore*, keep it.

    Returns ``(skeleton, buffers)`` — one writable buffer per out-of-band
    slot, ready for ``pickle.loads(skeleton, buffers=...)`` — or, without
    *restore*, nothing, having held at most one block.  Raises
    :class:`CheckpointError` (always a ``digest mismatch``) for a file
    that is not, byte for byte, what the commit recorded.
    """
    size = os.fstat(fh.fileno()).st_size
    fixed = fh.read(_FIXED.size)
    magic, skeleton_len, table_len = (
        _FIXED.unpack(fixed) if len(fixed) == _FIXED.size else (b"", 0, 0)
    )
    head_len = _FIXED.size + skeleton_len + table_len
    if magic != _MAGIC or head_len > size:
        raise CheckpointError(
            "checkpoint digest mismatch: the file does not begin with a complete "
            "snapshot head"
        )
    block = bytearray(_BLOCK)

    def take(nbytes: int, digest: Any) -> bytearray:
        """Hash the next *nbytes*: for a restore read once, into memory of
        their own (the restored array will own it); else through the block."""
        buffer = bytearray(nbytes) if restore else block
        _hash_into(fh, nbytes, digest, buffer)
        return buffer

    head = hashlib.sha256(fixed)
    skeleton = take(skeleton_len, head)
    table_bytes = fh.read(table_len)
    head.update(table_bytes)
    if head.hexdigest() != recorded:
        raise CheckpointError(
            f"checkpoint digest mismatch: committed sha256 {recorded[:12]}, "
            f"snapshot head hashes to {head.hexdigest()[:12]}"
        )
    table = json.loads(table_bytes)
    described = head_len + sum(nbytes for _, _, nbytes in table["blobs"])
    if described != size:
        raise CheckpointError(
            f"checkpoint digest mismatch: the head describes a {described}-byte "
            f"snapshot, the file holds {size}"
        )
    stored: List[bytearray] = []
    for number, (want, prefix, nbytes) in enumerate(table["blobs"]):
        digest = hashlib.sha256(prefix.encode("ascii"))
        stored.append(take(nbytes, digest))
        if digest.hexdigest() != want:
            raise CheckpointError(
                f"checkpoint digest mismatch: blob {number} ({nbytes} bytes) hashes "
                f"to {digest.hexdigest()[:12]}, the snapshot's table says {want[:12]}"
            )
    if not restore:
        return bytearray(), []
    # slots that shared a stored blob were distinct arrays: each restores
    # into memory of its own, the first into the buffer the blob was read to
    taken = set()
    buffers = []
    for blob in table["slots"]:
        buffers.append(bytearray(stored[blob]) if blob in taken else stored[blob])
        taken.add(blob)
    return skeleton, buffers
