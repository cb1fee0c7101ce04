"""The recovery scanner: replay the journal, discard the uncommitted.

After a driver crash the checkpoint directory holds some mix of
committed snapshots, orphaned temp files, a possibly-torn journal tail,
and — in the worst injected cases — garbage under final artifact names.
:func:`recover_run` turns that wreckage back into a state ``--resume``
can trust, in four deterministic steps:

1. **Sweep partials** — ``*.tmp`` / ``*.spool`` siblings in the
   checkpoint and shard directories are, by the commit protocol,
   uncommitted by construction; remove them.
2. **Heal a torn tail** — the journal is truncated back to its last
   complete record.
3. **Replay the journal** — walk the committed stages oldest-first,
   verifying each recorded artifact digest against the disk (the
   checkpoint snapshot through the checkpointer's own ``verify``, the
   shard manifest here).  The first mismatch marks a torn commit: that
   stage and everything after it are discarded.
4. **Record the verdict** — stage snapshots without a surviving journal
   commit are deleted (so are an older release's ``stage-NNN.pkl``
   snapshots, which no commit can name) and a ``recovery`` record
   (``resume_index`` = the first unverified stage) is appended to the
   journal, superseding the discarded commits, so resume restarts from
   the last stage that provably committed.

Everything the scanner does is observable: a ``recovery`` span plus
``recovery_*`` counters land in telemetry, and the returned
:class:`RecoveryReport` renders the same story for the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from repro.durability.atomic import heal_torn_tail, sha256_path
from repro.durability.checkpoint import RunCheckpointer

__all__ = ["RecoveryReport", "recover_run"]

#: temp-file patterns that are uncommitted by the commit protocol
_PARTIAL_PATTERNS = ("*.tmp", "*.spool")

MANIFEST_NAME = "manifest.json"


@dataclass
class RecoveryReport:
    """What the scanner found and what it did about it."""

    checkpoint_dir: str
    shards_dir: Optional[str] = None
    journal_found: bool = False
    run_committed: bool = False
    partials_removed: List[str] = field(default_factory=list)
    tails_healed: Dict[str, int] = field(default_factory=dict)
    stages_committed: List[int] = field(default_factory=list)
    stages_discarded: List[int] = field(default_factory=list)
    resume_index: int = 0
    notes: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "checkpoint_dir": self.checkpoint_dir,
            "shards_dir": self.shards_dir,
            "journal_found": self.journal_found,
            "run_committed": self.run_committed,
            "partials_removed": list(self.partials_removed),
            "tails_healed": dict(self.tails_healed),
            "stages_committed": list(self.stages_committed),
            "stages_discarded": list(self.stages_discarded),
            "resume_index": self.resume_index,
            "notes": list(self.notes),
        }

    def summary(self) -> str:
        if not self.journal_found:
            status = "no journal"
        elif self.run_committed:
            status = "run committed"
        else:
            status = f"resume from stage {self.resume_index}"
        return (
            f"{status}; {len(self.stages_committed)} stage(s) verified, "
            f"{len(self.stages_discarded)} discarded, "
            f"{len(self.partials_removed)} partial(s) removed, "
            f"{len(self.tails_healed)} torn tail(s) healed"
        )


def _sweep_partials(roots: Iterable[Optional[Path]], report: RecoveryReport) -> None:
    seen = set()
    for root in roots:
        if root is None or not root.is_dir() or root in seen:
            continue
        seen.add(root)
        for pattern in _PARTIAL_PATTERNS:
            for partial in sorted(root.rglob(pattern)):
                if not partial.is_file():
                    continue
                try:
                    partial.unlink()
                except OSError:
                    continue
                report.partials_removed.append(str(partial))


def recover_run(
    checkpoint_dir: Union[str, Path],
    *,
    shards_dir: Optional[Union[str, Path]] = None,
    telemetry=None,
) -> RecoveryReport:
    """Scan a crashed run's on-disk state back to a resumable one.

    *telemetry* is an optional :class:`repro.obs.Telemetry`; when given,
    the scan runs under a ``recovery`` span and bumps ``recovery_*``
    counters so the repair is visible in traces.
    """
    checkpoint_dir = Path(checkpoint_dir)
    shards_path = Path(shards_dir) if shards_dir is not None else None
    report = RecoveryReport(
        checkpoint_dir=str(checkpoint_dir),
        shards_dir=str(shards_path) if shards_path is not None else None,
    )

    span = None
    if telemetry is not None:
        span = telemetry.tracer.start_span(
            "recovery", checkpoint_dir=str(checkpoint_dir)
        )
    try:
        _sweep_partials([checkpoint_dir, shards_path], report)

        checkpointer = RunCheckpointer(checkpoint_dir)
        journal = checkpointer.journal
        removed = heal_torn_tail(journal.path)
        if removed:
            report.tails_healed[str(journal.path)] = removed

        if not journal.path.exists():
            report.notes.append("no journal: checkpoint state left untouched")
            return report
        report.journal_found = True

        replay = journal.last_run()
        report.run_committed = replay.run_committed

        verified: List[int] = []
        for index in replay.committed:
            record = replay.stage_commits[index]
            _, reason = checkpointer.verify(record, restore=False)
            want_manifest = (record.get("artifacts") or {}).get("manifest")
            if reason is None and want_manifest and shards_path is not None:
                manifest_path = shards_path / MANIFEST_NAME
                if (
                    not manifest_path.exists()
                    or sha256_path(manifest_path) != want_manifest
                ):
                    reason = "manifest digest mismatch"
            if reason is not None:
                report.notes.append(f"stage {index}: {reason}; discarded")
                break
            verified.append(index)
        report.stages_committed = verified
        report.resume_index = (verified[-1] + 1) if verified else 0

        # a snapshot no surviving commit names is uncommitted: delete it
        for index, snapshot in checkpointer.snapshots().items():
            if index in verified:
                continue
            try:
                snapshot.unlink()
            except OSError:
                continue
            report.stages_discarded.append(index)
        for old in checkpointer.old_snapshots():
            try:
                old.unlink()
            except OSError:
                continue
            report.notes.append(f"{old.name}: an older release's snapshot; deleted")
        journal.record_recovery(**report.to_dict())
        return report
    finally:
        if telemetry is not None:
            counters = telemetry.metrics
            counters.counter("recovery_runs_total").inc()
            counters.counter("recovery_partials_removed_total").inc(
                len(report.partials_removed)
            )
            counters.counter("recovery_tails_healed_total").inc(
                len(report.tails_healed)
            )
            counters.counter("recovery_stages_discarded_total").inc(
                len(report.stages_discarded)
            )
            counters.counter("recovery_stages_verified_total").inc(
                len(report.stages_committed)
            )
            if span is not None:
                span.set_attribute("resume_index", report.resume_index)
                span.set_attribute("run_committed", report.run_committed)
                span.set_attribute(
                    "partials_removed", len(report.partials_removed)
                )
                span.set_attribute("stages_discarded", len(report.stages_discarded))
                telemetry.tracer.end_span(span)
