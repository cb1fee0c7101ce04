"""The fault tap on the atomic-commit primitives, and the points it fires at.

The durability layer promises that every artifact commit is atomic and
fsync-disciplined, and that a run killed at any instant recovers to a
state bitwise-identical to an uninterrupted run.  Neither promise is
worth much untested, and real disks refuse to fail on schedule — so the
commit primitives in :mod:`repro.durability.atomic` consult a *tap*
before every guarded operation.  This module holds what the primitives
need for that, and nothing that decides *when* a fault fires:

* the **tap slot** (:func:`activate` / :func:`active_injector`): a
  process-global slot the runner fills with the run's
  :class:`repro.faults.inject.FaultInjector`, so every artifact store is
  under injection without threading an injector through its API.  The
  tap is asked ``fault_for(site)`` once per guarded op (and
  ``maybe_corrupt_checkpoint`` per landed stage commit); the injector
  numbers the ops and keeps the one fault log;
* the **site registry** :data:`KNOWN_SITES` and the typed schedule points
  of the ``--inject-faults`` grammar: :class:`DiskFaultPoint` (a fault
  kind at guarded op ``N`` of one site, ``site:N``) and :class:`CrashPoint`
  (driver death at ``stage:N:pre|post``; ``kill`` makes it a real ``SIGKILL``);
* the **fault mechanics** :func:`apply_commit_fault` /
  :func:`apply_append_fault`: ``enospc`` and ``eio`` leave a half-written
  temp file and raise the matching ``OSError``; ``torn-rename`` leaves
  garbage under the *final* name, as a non-atomic filesystem would;
  ``lost-write`` loses acked-but-unfsynced pages, as a power cut would.
"""

from __future__ import annotations

import errno
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, List, Optional, Union

__all__ = [
    "DISK_FAULT_KINDS",
    "KNOWN_SITES",
    "CRASH_PHASES",
    "SimulatedCrash",
    "CrashPoint",
    "DiskFaultPoint",
    "active_injector",
    "activate",
    "apply_commit_fault",
    "apply_append_fault",
]

#: fault kinds :func:`apply_commit_fault` knows how to stage
DISK_FAULT_KINDS = ("enospc", "eio", "torn-rename", "lost-write")

#: crash phases relative to a stage: before it runs, after it ran
CRASH_PHASES = ("pre", "post")

#: every logical site the artifact stores guard commits under; a typo'd
#: site in a fault spec would otherwise never fire and the chaos run
#: would silently test nothing
KNOWN_SITES = (
    "audit",
    "checkpoint",
    "dead-letter",
    "journal",
    "ledger",
    "manifest",
    "promoted-record",
    "provenance",
    "quarantine",
    "quarantine-record",
    "redrive-marker",
    "redrive-report",
    "shard",
)


class SimulatedCrash(BaseException):
    """Driver death at an injected crash point.

    ``BaseException``, not ``Exception``: the retry loop catches
    ``Exception`` to drive retries, and a crash must never be retried —
    the driver is gone, the half-committed state stays on disk for
    ``repro run --recover`` to heal.
    """

    def __init__(self, site: str):
        super().__init__(f"simulated driver crash at {site}")
        self.site = site


@dataclass(frozen=True)
class CrashPoint:
    """Where the driver dies: ``stage:N:pre`` (before the stage body
    runs) or ``stage:N:post`` (after it ran: its commit may still be in
    flight, which a raised crash waits out and a real ``SIGKILL`` may not)."""

    stage_index: int
    phase: str
    kill: bool = False

    def __post_init__(self) -> None:
        if self.phase not in CRASH_PHASES:
            raise ValueError(
                f"crash phase must be one of {CRASH_PHASES}, got {self.phase!r}"
            )
        if self.stage_index < 0:
            raise ValueError("crash stage index must be >= 0")

    @classmethod
    def parse(cls, text: str, *, kill: bool = False) -> "CrashPoint":
        parts = text.split(":")
        if len(parts) != 3 or parts[0] != "stage":
            raise ValueError(
                f"crash point must look like stage:N:pre|post, got {text!r}"
            )
        try:
            index = int(parts[1])
        except ValueError:
            raise ValueError(f"crash point stage index must be an int: {text!r}")
        return cls(stage_index=index, phase=parts[2], kill=kill)

    def render(self) -> str:
        return f"stage:{self.stage_index}:{self.phase}"


@dataclass(frozen=True)
class DiskFaultPoint:
    """One scheduled disk fault: *kind* fires at guarded op *index* of one
    logical *site* (per site only: the order of one site's ops is fixed)."""

    kind: str
    site: str
    index: int

    def __post_init__(self) -> None:
        if self.kind not in DISK_FAULT_KINDS:
            raise ValueError(
                f"disk fault kind must be one of {DISK_FAULT_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.index < 0:
            raise ValueError("disk fault op index must be >= 0")
        if self.site not in KNOWN_SITES:
            raise ValueError(
                f"unknown disk fault site {self.site!r}; "
                f"known sites: {', '.join(KNOWN_SITES)}"
            )

    @classmethod
    def parse(cls, kind: str, spec: str) -> "DiskFaultPoint":
        """Parse the CLI operand ``site:N``: ``"manifest:1"`` is the second
        guarded op at the manifest site."""
        site, _, index = spec.rpartition(":")
        if not site or not index.isdigit():
            raise ValueError(
                f"disk fault operand must be site:N, got {spec!r}; "
                f"known sites: {', '.join(KNOWN_SITES)}"
            )
        return cls(kind=kind, site=site, index=int(index))

    def render(self) -> str:
        """The ``--inject-faults`` entry that schedules this point."""
        return f"{self.kind}={self.site}:{self.index}"


# ---------------------------------------------------------------------------
# the process-global active-injector slot


#: the tap: anything answering ``fault_for`` and ``maybe_corrupt_checkpoint``
_ACTIVE: List[Optional[Any]] = [None]
_ACTIVE_LOCK = threading.Lock()


def active_injector() -> Optional[Any]:
    """The injector currently tapping the atomic primitives (or None)."""
    return _ACTIVE[0]


@contextmanager
def activate(injector: Optional[Any]) -> Iterator[None]:
    """Install *injector* as the process-global disk-fault tap for the
    duration of the block.  No-op when *injector* is None."""
    if injector is None:
        yield
        return
    with _ACTIVE_LOCK:
        previous = _ACTIVE[0]
        _ACTIVE[0] = injector
    try:
        yield
    finally:
        with _ACTIVE_LOCK:
            _ACTIVE[0] = previous


# ---------------------------------------------------------------------------
# fault mechanics, called by repro.durability.atomic when a point fires


def apply_commit_fault(kind: str, tmp: Union[str, Path], final: Union[str, Path]) -> None:
    """Fail an atomic tmp→final commit the way a real disk would.

    Always raises ``OSError``; the on-disk wreckage left behind is what
    the recovery scanner (and retrying callers) must cope with.
    """
    tmp = Path(tmp)
    final = Path(final)
    data = tmp.read_bytes() if tmp.exists() else b""
    half = data[: max(1, len(data) // 2)] if data else b""
    if kind == "enospc":
        # the write ran out of space mid-stream: torn temp file, no commit
        tmp.write_bytes(half)
        raise OSError(errno.ENOSPC, f"injected ENOSPC committing {final.name}")
    if kind == "eio":
        tmp.write_bytes(half)
        raise OSError(errno.EIO, f"injected EIO committing {final.name}")
    if kind == "torn-rename":
        # a non-atomic filesystem tore the rename: garbage under the
        # *final* name, temp gone — the worst case recovery must detect
        final.write_bytes(half + b"\x00torn")
        if tmp.exists():
            tmp.unlink()
        raise OSError(errno.EIO, f"injected torn rename of {final.name}")
    if kind == "lost-write":
        # the rename landed but the unfsynced tail never hit the platter
        final.write_bytes(half)
        if tmp.exists():
            tmp.unlink()
        raise OSError(
            errno.EIO, f"injected lost unfsynced write of {final.name}"
        )
    raise ValueError(f"unknown disk fault kind {kind!r}")


def apply_append_fault(kind: str, fh, payload: bytes, start: int) -> None:
    """Fail a durable JSONL append, leaving a torn tail for healing.

    *fh* is the open append handle positioned at *start*.  Always raises
    ``OSError``.
    """
    half = payload[: max(1, len(payload) // 2)]
    if kind in ("enospc", "eio"):
        fh.write(half)
        fh.flush()
        code = errno.ENOSPC if kind == "enospc" else errno.EIO
        raise OSError(code, f"injected {kind} during append")
    # torn-rename has no rename to tear on an append path; both remaining
    # kinds degrade to the same observable: an acked write whose tail is
    # missing after the crash
    fh.write(payload)
    fh.flush()
    fh.truncate(start + len(half))
    raise OSError(errno.EIO, f"injected {kind} during append (torn tail)")

