"""Durable runs: atomic artifact commits, a write-ahead run journal,
the fault tap on the commit primitives, and driver-crash recovery.

The paper's readiness levels treat pipeline outputs as trustworthy
artifacts; this package is where that trust is earned.  Five pieces:

* :mod:`repro.durability.atomic` — the single fsync-disciplined
  atomic-commit primitive (tmp + fsync + ``os.replace`` + dir fsync,
  plus torn-tail-healing append) every artifact store goes through, and
  the one JSONL line encoder / tolerant reader every log uses;
* :mod:`repro.durability.journal` — the write-ahead run journal
  (``run-begin`` / ``stage-commit`` with artifact digests /
  ``run-commit`` / ``recovery``), the one completed-stage table;
* :mod:`repro.durability.checkpoint` — the checkpoint directory's one
  owner: snapshot (streamed from array memory, each distinct array once)
  + journal record as a single stage commit, and the one check that
  decides whether a committed snapshot can be trusted;
* :mod:`repro.durability.fsfaults` — what the commit primitives need to
  run under chaos: the slot the run's one fault injector is installed
  in, the store-site registry, the typed schedule points (disk faults,
  driver crash at ``stage:N:pre|post``) and each disk fault's wreckage;
* :mod:`repro.durability.recover` — the recovery scanner behind
  ``repro run --recover``: replay the journal, discard the
  uncommitted, resume from the last verified stage.
"""

from repro.durability.atomic import (
    append_jsonl_durable,
    atomic_write_bytes,
    atomic_write_text,
    commit_file,
    fsync_dir,
    fsync_path,
    heal_torn_tail,
    jsonl_line,
    read_jsonl,
    sha256_path,
    staged_write,
)
from repro.durability.fsfaults import (
    CRASH_PHASES,
    DISK_FAULT_KINDS,
    CrashPoint,
    DiskFaultPoint,
    SimulatedCrash,
    activate,
    active_injector,
)
from repro.durability.journal import (
    JOURNAL_NAME,
    KIND_RECOVERY,
    KIND_RUN_BEGIN,
    KIND_RUN_COMMIT,
    KIND_STAGE_COMMIT,
    JournalReplay,
    RunJournal,
)
from repro.durability.recover import RecoveryReport, recover_run

__all__ = [
    "append_jsonl_durable",
    "atomic_write_bytes",
    "atomic_write_text",
    "commit_file",
    "fsync_dir",
    "fsync_path",
    "heal_torn_tail",
    "jsonl_line",
    "read_jsonl",
    "sha256_path",
    "staged_write",
    "CRASH_PHASES",
    "DISK_FAULT_KINDS",
    "CrashPoint",
    "DiskFaultPoint",
    "SimulatedCrash",
    "activate",
    "active_injector",
    "JOURNAL_NAME",
    "KIND_RECOVERY",
    "KIND_RUN_BEGIN",
    "KIND_RUN_COMMIT",
    "KIND_STAGE_COMMIT",
    "JournalReplay",
    "RunJournal",
    "RecoveryReport",
    "recover_run",
]
