"""Deterministic fault injection: the chaos harness the parity tests run under.

One :class:`FaultInjector` realises a run's whole ``--inject-faults``
schedule (:meth:`FaultSpec.parse` is the one grammar; it holds typed
points, parsed once).  As the execution backend's last hook
(:attr:`~repro.core.backends.ExecutionBackend.hooks`) it injects the
faults real campaigns hit — transient exceptions in fanned-out tasks,
slow tasks, worker kills, torn shard files, corrupted checkpoint payloads
(applied by the runner right after a stage commits), driver death at a
stage boundary — and it *is* the tap the atomic-commit primitives consult
(:func:`repro.durability.fsfaults.activate`), failing the scheduled
guarded commits with ENOSPC / EIO / a torn rename / a lost unfsynced
write.  One op numbering, one :attr:`~FaultInjector.log` — from a
*seeded, schedule-independent* plan.  Every injection decision is a pure
function of ``(seed, site key, attempt number)``:

* a map task's site key includes its **item index**, so whether task 7
  of the regrid fan-out faults on its first attempt is identical under
  the serial, threaded, and simspmd backends regardless of thread
  scheduling;
* a retried task draws with an incremented attempt number, so "fails
  once then succeeds" schedules are expressible and reproducible;
* op-level sites (``stats``, ``shard_write``) and guarded commits
  (globally and per store site) are numbered in call order, which the
  engine keeps backend-independent.

The injected fault *schedule* is therefore bitwise identical across
backends, which is what lets the test suite demand bitwise-identical
*outputs* under chaos (see ``tests/faults/test_parity_under_faults.py``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import re
import signal
import threading
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple,
)

from repro.durability.fsfaults import (
    ANY_SITE,
    DISK_FAULT_KINDS,
    CrashPoint,
    DiskFaultPoint,
    SimulatedCrash,
)
from repro.faults.errors import TransientFaultError, WorkerCrash
from repro.faults.retry import Clock, SystemClock, _unit_draw
from repro.workers import ipc

__all__ = [
    "InjectedFaultError",
    "FaultSpec",
    "InjectedFault",
    "FaultInjector",
]

#: the three site-key shapes :meth:`FaultInjector.backend_op` generates; a
#: poison site of any other shape could never match a task
_TASK_SITE = re.compile(r"(map#\d+\[\d+\]|stats#\d+|shard_write#\d+)")


class InjectedFaultError(TransientFaultError):
    """A synthetic transient fault raised by the injector."""

    def __init__(self, site: str, attempt: int):
        super().__init__(f"injected transient fault at {site} (attempt {attempt})")
        self.site = site
        self.attempt = attempt


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """The seeded chaos schedule for one run.

    ``transient_rate``/``slow_rate`` are per-(site, attempt) injection
    probabilities realised through the deterministic draw;
    ``torn_shards`` tears the first N ``shard_write`` operations (a
    garbage partial file appears at a real shard path, then the writer
    "crashes"); ``corrupt_checkpoints`` names stage indices whose
    checkpoint payloads are truncated and bit-flipped after being saved.
    """

    seed: int = 0
    transient_rate: float = 0.0
    slow_rate: float = 0.0
    slow_seconds: float = 0.05
    torn_shards: int = 0
    corrupt_checkpoints: Tuple[int, ...] = ()
    #: per-(task, lease attempt) probability that the worker executing the
    #: task is SIGKILLed mid-flight (simulated as a WorkerCrash on
    #: in-process backends); drawn against the *lease* attempt so a
    #: respawned worker — whose forked injector state is fresh — still
    #: follows the same deterministic schedule
    worker_kill_rate: float = 0.0
    #: task sites (e.g. ``map#2[5]``) that kill their worker on *every*
    #: attempt: the poison tasks the supervisor must detect and dead-letter
    poison_sites: Tuple[str, ...] = ()
    #: scheduled disk faults: the Nth guarded commit (globally, or at one
    #: store site) fails with ENOSPC / EIO / a torn rename / a lost
    #: unfsynced write
    disk_faults: Tuple[DiskFaultPoint, ...] = ()
    #: where the driver dies, once (None = no crash).  Its ``kill`` flag
    #: makes that a real ``SIGKILL`` instead of a raised
    #: :class:`~repro.durability.fsfaults.SimulatedCrash` — how the CI
    #: chaos smoke proves recovery against true process death
    crash_at: Optional[CrashPoint] = None

    def __post_init__(self) -> None:
        for name in ("transient_rate", "slow_rate", "worker_kill_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.slow_seconds < 0 or self.torn_shards < 0:
            raise ValueError("slow_seconds and torn_shards must be non-negative")
        for site in self.poison_sites:
            if not _TASK_SITE.fullmatch(site):
                raise ValueError(
                    f"poison site must look like map#N[i], stats#N or "
                    f"shard_write#N, got {site!r}"
                )

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse the CLI form: ``seed=7,rate=0.1,torn-shards=1,...``.

        Keys: ``seed``, ``rate`` (alias ``transient-rate``),
        ``slow-rate``, ``slow-seconds``, ``torn-shards``,
        ``corrupt-checkpoint`` (a stage index; repeatable via ``+``:
        ``corrupt-checkpoint=2+4``), ``kill-rate`` (alias
        ``worker-kill-rate``), ``poison-site`` (a task site key;
        repeatable via ``+``: ``poison-site=map#0[3]+map#2[0]``).

        Disk-fault keys (guarded-commit op index, or ``site:index`` for
        per-store numbering; repeatable via ``+``): ``enospc``, ``eio``,
        ``torn-rename``, ``lost-write`` — e.g.
        ``enospc=manifest:0+checkpoint:2`` or ``eio=3``.  Driver crash:
        ``crash-at=stage:N:pre|post`` (``crash-kill=1`` makes it a real
        SIGKILL instead of a simulated crash, and is rejected without a
        ``crash-at`` to apply to).
        """
        disk_faults: List[DiskFaultPoint] = []
        crash_at, crash_kill = "", False
        kwargs: Dict[str, Any] = {}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(f"bad --inject-faults entry {part!r}; expected key=value")
            key, _, value = part.partition("=")
            key = key.strip().lower().replace("_", "-")
            value = value.strip()
            if key == "seed":
                kwargs["seed"] = int(value)
            elif key in ("rate", "transient-rate"):
                kwargs["transient_rate"] = float(value)
            elif key == "slow-rate":
                kwargs["slow_rate"] = float(value)
            elif key == "slow-seconds":
                kwargs["slow_seconds"] = float(value)
            elif key == "torn-shards":
                kwargs["torn_shards"] = int(value)
            elif key == "corrupt-checkpoint":
                kwargs["corrupt_checkpoints"] = tuple(
                    int(v) for v in value.split("+") if v
                )
            elif key in ("kill-rate", "worker-kill-rate"):
                kwargs["worker_kill_rate"] = float(value)
            elif key == "poison-site":
                kwargs["poison_sites"] = tuple(
                    v.strip() for v in value.split("+") if v.strip()
                )
            elif key in DISK_FAULT_KINDS:
                disk_faults.extend(
                    DiskFaultPoint.parse(key, v.strip())
                    for v in value.split("+")
                    if v.strip()
                )
            elif key == "crash-at":
                crash_at = value
            elif key == "crash-kill":
                crash_kill = value.lower() in ("1", "true", "yes")
            else:
                raise ValueError(f"unknown --inject-faults key {key!r}")
        if crash_at:
            kwargs["crash_at"] = CrashPoint.parse(crash_at, kill=crash_kill)
        elif crash_kill:
            raise ValueError("crash-kill needs a crash-at=stage:N:pre|post to apply to")
        return cls(disk_faults=tuple(disk_faults), **kwargs)


@dataclasses.dataclass(frozen=True)
class InjectedFault:
    """One realised injection, for the run's fault accounting."""

    #: "transient" | "slow" | "torn-shard" | "corrupt-checkpoint" |
    #: "worker-kill" | "crash" | "disk-<kind>"
    kind: str
    site: str
    attempt: int
    detail: str = ""


class FaultInjector:
    """Seeded chaos source; thread-safe; wraps backends and taps commits."""

    def __init__(
        self,
        spec: FaultSpec,
        *,
        clock: Optional[Clock] = None,
    ):
        self.spec = spec
        #: sleeps for injected slow tasks go through this (virtual in tests)
        self.clock = clock or SystemClock()
        self._lock = threading.Lock()
        #: the one numbering: attempts per task site (``map#0[3]``), backend
        #: ops (``map``, ``stats``, ``shard_write``) and guarded commits, per
        #: store site and — under :data:`ANY_SITE` — globally
        self._counts: Dict[str, int] = {}
        #: one-shot schedule items already fired (disk points, checkpoint
        #: indices, the crash point): a retried write draws a fresh op
        #: number and succeeds, exactly as a transient full disk clears
        self._fired: Set[object] = set()
        self.log: List[InjectedFault] = []

    # -- accounting --------------------------------------------------------------
    def _record(self, fault: InjectedFault) -> None:
        with self._lock:
            self.log.append(fault)
        # under the process backend this injector is a fork-copy whose log
        # dies with the worker: replicate the entry to the parent's copy
        # via the task-event channel (no-op on in-process backends)
        ipc.emit_task_event("fault-injected", dataclasses.asdict(fault))

    def replay(self, kind: str, payload: Mapping[str, Any]) -> None:
        """Task-event sink: append a fault replicated from a worker (no re-emit)."""
        if kind == "fault-injected":
            with self._lock:
                self.log.append(InjectedFault(**payload))

    def counts(self) -> Dict[str, int]:
        """Realised injections by kind."""
        with self._lock:
            out: Dict[str, int] = {}
            for fault in self.log:
                out[fault.kind] = out.get(fault.kind, 0) + 1
            return out

    def describe(self) -> str:
        counts = self.counts()
        if not counts:
            return "fault injector: no faults injected"
        body = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        return f"fault injector (seed={self.spec.seed}): {body}"

    def unfired(self) -> List[str]:
        """Scheduled points the log never saw fire, as ``--inject-faults``
        entries: the part of the chaos spec this run did not test."""
        spec = self.spec
        with self._lock:
            entries = [(fault.kind, fault.site) for fault in self.log]
        torn = spec.torn_shards - sum(kind == "torn-shard" for kind, _ in entries)

        def claim(kind: str, site: str = ANY_SITE) -> bool:
            """Take one log entry of *kind* at *site* (``*``: at any site)."""
            for entry in entries:
                if entry[0] == kind and site in (ANY_SITE, entry[1]):
                    entries.remove(entry)
                    return True
            return False

        # site-scoped disk points claim their log entries before wildcards do
        points = sorted(spec.disk_faults, key=lambda p: p.site == ANY_SITE)
        out = [p.render() for p in points if not claim(f"disk-{p.kind}", p.site)]
        if spec.crash_at is not None and not claim("crash"):
            out.append(f"crash-at={spec.crash_at.render()}")
        out += [f"poison-site={s}" for s in spec.poison_sites if not claim("worker-kill", s)]
        out += [
            f"corrupt-checkpoint={i}"
            for i in spec.corrupt_checkpoints
            if not claim("corrupt-checkpoint", f"stage-{i}")
        ]
        if torn > 0:
            out.append(f"torn-shards={torn}")
        return out

    # -- decisions ---------------------------------------------------------------
    def _take(self, key: str) -> int:
        """The next 0-based index under *key*; call with the lock held."""
        n = self._counts.get(key, 0)
        self._counts[key] = n + 1
        return n

    def next_op(self, op: str) -> str:
        """Allocate the next deterministic site key for a backend op."""
        with self._lock:
            return f"{op}#{self._take(op)}"

    def fault_for(self, site: str) -> Optional[str]:
        """Number one guarded commit at *site*; the disk-fault kind
        scheduled for it, or None.  What the commit primitives ask the
        active tap (:mod:`repro.durability.atomic`)."""
        with self._lock:
            index = {ANY_SITE: self._take(ANY_SITE), site: self._take(site)}
            for point in self.spec.disk_faults:
                if point not in self._fired and index.get(point.site) == point.index:
                    self._fired.add(point)
                    break
            else:
                return None
        self._record(InjectedFault(f"disk-{point.kind}", site, 1))
        return point.kind

    def fault_point(self, site: str) -> None:
        """Maybe raise a transient fault or sleep, per the seeded schedule.

        Call once per attempt of a unit of work; the attempt counter for
        *site* advances on every call, so a retried unit draws fresh
        (deterministic) decisions.
        """
        with self._lock:
            attempt = self._take(site) + 1
        spec = self.spec
        if spec.transient_rate > 0.0:
            if _unit_draw(spec.seed, f"transient|{site}", attempt) < spec.transient_rate:
                self._record(InjectedFault("transient", site, attempt))
                raise InjectedFaultError(site, attempt)
        if spec.slow_rate > 0.0:
            if _unit_draw(spec.seed, f"slow|{site}", attempt) < spec.slow_rate:
                self._record(
                    InjectedFault("slow", site, attempt, f"{spec.slow_seconds}s")
                )
                self.clock.sleep(spec.slow_seconds)
        self._maybe_kill_worker(site, attempt)

    def _maybe_kill_worker(self, site: str, attempt: int) -> None:
        """Kill the executing worker process per the seeded schedule.

        Poison sites kill on *every* attempt; otherwise the decision is a
        seeded draw keyed by the **lease attempt** (supervisor-side
        counter), not the local attempt — a respawned worker's forked
        injector restarts its local counters, but the lease attempt keeps
        advancing, so the schedule stays deterministic and a non-poison
        task eventually draws a clean attempt and completes.

        Inside a real worker process the kill is genuine (SIGKILL to
        self, after replicating the log entry to the parent — the pipe
        buffer survives the death).  On in-process backends it degrades
        to raising :class:`WorkerCrash`, which exercises the same
        transient-retry path without killing the test runner.
        """
        spec = self.spec
        poison = site in spec.poison_sites
        if not poison:
            if spec.worker_kill_rate <= 0.0:
                return
            draw_attempt = ipc.current_lease_attempt() or attempt
            draw = _unit_draw(spec.seed, f"kill|{site}", draw_attempt)
            if draw >= spec.worker_kill_rate:
                return
        fault = InjectedFault(
            "worker-kill", site, attempt, "poison" if poison else ""
        )
        self._record(fault)
        if ipc.in_worker():
            os.kill(os.getpid(), signal.SIGKILL)
        raise WorkerCrash(
            f"injected worker kill at {site} (attempt {attempt}"
            + (", poison task" if poison else "")
            + ")"
        )

    # -- filesystem chaos --------------------------------------------------------
    def maybe_tear_shard(self, directory: Path, shard_name: str, site: str) -> bool:
        """Tear one shard (garbage partial file at a real shard path) and
        report whether the simulated writer should now crash."""
        with self._lock:
            if self._take("torn-shards") >= self.spec.torn_shards:
                return False
        directory.mkdir(parents=True, exist_ok=True)
        (directory / shard_name).write_bytes(b"RPS1\x00torn-by-fault-injector")
        self._record(InjectedFault("torn-shard", site, 1, shard_name))
        return True

    def maybe_corrupt_checkpoint(self, path: Path, stage_index: int) -> bool:
        """Truncate + bit-flip a just-committed checkpoint snapshot (once per
        scheduled stage index) — exactly the damage a node crash leaves
        behind, which resume and recovery must refuse."""
        once = ("corrupt-checkpoint", stage_index)
        with self._lock:
            if stage_index not in self.spec.corrupt_checkpoints or once in self._fired:
                return False
            self._fired.add(once)
        data = path.read_bytes()
        torn = bytearray(data[: max(len(data) // 2, 1)])
        torn[len(torn) // 2] ^= 0xFF
        path.write_bytes(bytes(torn))
        self._record(
            InjectedFault("corrupt-checkpoint", f"stage-{stage_index}", 1, path.name)
        )
        return True

    # -- driver crash ------------------------------------------------------------
    def maybe_crash(self, stage_index: int, phase: str) -> None:
        """Die at the scheduled crash point (once).

        Raises :class:`~repro.durability.fsfaults.SimulatedCrash`
        (``BaseException`` — the retry loop cannot catch it) or, with
        ``crash-kill``, SIGKILLs the driver process for real.  The
        half-committed on-disk state is left exactly as a power loss
        would leave it, for ``repro run --recover`` to heal.
        """
        point = self.spec.crash_at
        with self._lock:
            if (
                point is None
                or point in self._fired
                or (point.stage_index, point.phase) != (stage_index, phase)
            ):
                return
            self._fired.add(point)
        self._record(InjectedFault("crash", point.render(), 1))
        if point.kill:
            os.kill(os.getpid(), signal.SIGKILL)
        raise SimulatedCrash(point.render())

    # -- the backend hook --------------------------------------------------------
    @contextlib.contextmanager
    def backend_op(
        self, backend: Any, op: str, tasks: int, *,
        table: Sequence[Any] = (), directory: Optional[Path] = None, **_: Any,
    ) -> Iterator[Optional[Callable[..., Any]]]:
        """As a backend hook: number one op (``map#N``, ``stats#N``,
        ``shard_write#N``) and inject its faults.  A ``map`` task's fault is
        retried in place by the backend's task-level retry, an op-level
        fault escapes the stage to the runner's stage-level policy."""
        site = self.next_op(op)
        if op != "map":
            if table:
                split, i = table[0][:2]
                if self.maybe_tear_shard(directory, f"{split}-{i:05d}.rps", site):
                    # the torn file is on disk; now "crash" the writer — the
                    # stage-level retry must overwrite it atomically
                    raise InjectedFaultError(f"{site}(torn)", 1)
            self.fault_point(site)
            yield None
            return

        def chaotic(task: Callable[[Any], Any], indexed: Tuple[int, Any]) -> Any:
            # site key carries the item index: the schedule is a property
            # of the logical task, never of thread/rank scheduling
            self.fault_point(f"{site}[{indexed[0]}]")
            return task(indexed)

        yield chaotic
