"""Deterministic disk-fault and driver-crash injection.

The durability layer makes two promises: every artifact commit is atomic
and fsync-disciplined, and a run killed at any instant can be recovered
to a state bitwise-identical to an uninterrupted run.  Neither promise
is worth much untested, and real disks refuse to fail on schedule — so
this module fakes the disk (and the driver) failing, deterministically:

* :class:`DiskFaultInjector` — a process-global tap the atomic-commit
  primitives in :mod:`repro.durability.atomic` consult on every guarded
  filesystem operation.  Each guarded op is numbered (globally and per
  logical *site* such as ``"manifest"`` or ``"checkpoint"``), and the
  injector's schedule names which op indices fail and how: ``enospc``
  and ``eio`` leave a half-written temp file and raise the matching
  ``OSError``; ``torn-rename`` simulates a non-atomic filesystem by
  leaving garbage under the *final* name; ``lost-write`` simulates
  acked-but-unfsynced pages vanishing at power loss.  The schedule is a
  pure function of the spec — no wall clock, no randomness — so chaos
  runs replay exactly.

* :class:`CrashPoint` / :class:`SimulatedCrash` — driver death at a
  stage boundary (``stage:N:pre|post``).  ``SimulatedCrash`` derives
  from ``BaseException`` so the runner's stage retry loop (which catches
  ``Exception``) cannot swallow it: a crash is not a stage failure, it
  is the driver vanishing.  With ``kill=True`` the crash is a real
  ``SIGKILL`` to the current process — used by the CI chaos smoke to
  prove recovery against genuine process death, not a simulation of it.

The active injector is a module-global slot (installed by the runner for
the duration of a run via :func:`activate`) so every artifact store gets
injection coverage through the shared atomic primitives without each
store threading an injector parameter through its API.
"""

from __future__ import annotations

import errno
import os
import signal
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

__all__ = [
    "DISK_FAULT_KINDS",
    "KNOWN_SITES",
    "CRASH_PHASES",
    "SimulatedCrash",
    "CrashPoint",
    "DiskFaultPoint",
    "DiskFaultInjector",
    "active_injector",
    "activate",
    "apply_commit_fault",
    "apply_append_fault",
    "crash",
]

#: fault kinds the disk injector knows how to stage
DISK_FAULT_KINDS = ("enospc", "eio", "torn-rename", "lost-write")

#: crash phases relative to a stage: before it runs, after it commits
CRASH_PHASES = ("pre", "post")

#: any-site wildcard in a rendered DiskFaultPoint
ANY_SITE = "*"

#: every logical site the artifact stores guard commits under; a typo'd
#: site in a fault spec would otherwise never fire and the chaos run
#: would silently test nothing
KNOWN_SITES = (
    "calibration",
    "checkpoint",
    "dead-letter",
    "journal",
    "manifest",
    "promoted-record",
    "provenance",
    "quarantine",
    "quarantine-record",
    "redrive-marker",
    "redrive-report",
    "run-index",
    "run-record",
    "shard",
)


class SimulatedCrash(BaseException):
    """Driver death at an injected crash point.

    ``BaseException``, not ``Exception``: the runner's stage-attempt loop
    catches ``Exception`` to drive retries, and a crash must never be
    retried — the driver is gone, the half-committed state stays on disk
    for ``repro run --recover`` to heal.
    """

    def __init__(self, site: str):
        super().__init__(f"simulated driver crash at {site}")
        self.site = site


@dataclass(frozen=True)
class CrashPoint:
    """Where the driver dies: ``stage:N:pre`` (before the stage body
    runs) or ``stage:N:post`` (after its checkpoint + journal commit)."""

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
    """One scheduled disk fault: *kind* fires at guarded-op *index*,
    counted either globally (``site == "*"``) or per logical site."""

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
        if self.site != ANY_SITE and self.site not in KNOWN_SITES:
            raise ValueError(
                f"unknown disk fault site {self.site!r}; "
                f"known sites: {', '.join(KNOWN_SITES)}"
            )

    @classmethod
    def parse(cls, kind: str, spec: str) -> "DiskFaultPoint":
        """Parse the CLI operand: ``"3"`` (global op 3) or ``"manifest:1"``
        (the second guarded op at the manifest site)."""
        site = ANY_SITE
        text = spec
        if ":" in spec:
            site, text = spec.rsplit(":", 1)
        try:
            index = int(text)
        except ValueError:
            raise ValueError(
                f"disk fault operand must be N or site:N, got {spec!r}"
            )
        return cls(kind=kind, site=site or ANY_SITE, index=index)

    @classmethod
    def parse_rendered(cls, text: str) -> "DiskFaultPoint":
        """Inverse of :meth:`render` (``kind:site:index``)."""
        kind, _, rest = text.partition(":")
        return cls.parse(kind, rest)

    def render(self) -> str:
        return f"{self.kind}:{self.site}:{self.index}"


class DiskFaultInjector:
    """Numbers guarded filesystem ops and fires the scheduled faults.

    Thread-safe: guarded ops may come from the runner thread and from
    threaded-backend tasks concurrently.  Each scheduled point fires at
    most once — a retried write draws a fresh op number and succeeds,
    which is exactly how a transient full-disk clears in production.
    """

    def __init__(
        self,
        points: Tuple[DiskFaultPoint, ...],
        *,
        on_fault: Optional[Callable[[str, str], None]] = None,
    ):
        self._points = tuple(points)
        self._lock = threading.Lock()
        self._global_ops = 0
        self._site_ops: Dict[str, int] = {}
        self._fired: set = set()
        self._on_fault = on_fault
        #: (kind, site, global_op_index) for every fault actually fired
        self.log: List[Tuple[str, str, int]] = []

    def fault_for(self, site: str) -> Optional[str]:
        """Advance the op counters for *site*; return the fault kind
        scheduled for this op, or None."""
        fired: Optional[DiskFaultPoint] = None
        with self._lock:
            global_index = self._global_ops
            self._global_ops += 1
            site_index = self._site_ops.get(site, 0)
            self._site_ops[site] = site_index + 1
            for point in self._points:
                if point in self._fired:
                    continue
                hit = (point.site == ANY_SITE and point.index == global_index) or (
                    point.site == site and point.index == site_index
                )
                if hit:
                    self._fired.add(point)
                    self.log.append((point.kind, site, global_index))
                    fired = point
                    break
        if fired is None:
            return None
        if self._on_fault is not None:
            self._on_fault(fired.kind, site)
        return fired.kind

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for kind, _site, _index in self.log:
            out[kind] = out.get(kind, 0) + 1
        return out


# ---------------------------------------------------------------------------
# the process-global active-injector slot


_ACTIVE: List[Optional[DiskFaultInjector]] = [None]
_ACTIVE_LOCK = threading.Lock()


def active_injector() -> Optional[DiskFaultInjector]:
    """The injector currently tapping the atomic primitives (or None)."""
    return _ACTIVE[0]


@contextmanager
def activate(injector: Optional[DiskFaultInjector]) -> Iterator[None]:
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


def crash(point: CrashPoint) -> None:
    """Die at *point*: real SIGKILL when ``kill``, else SimulatedCrash."""
    if point.kill:
        os.kill(os.getpid(), signal.SIGKILL)
    raise SimulatedCrash(point.render())
