"""Deterministic fault injection: the chaos harness the parity tests run under.

A :class:`FaultInjector` wraps the execution backend of a run and injects
the faults real campaigns hit — transient exceptions in fanned-out tasks,
slow tasks, torn shard files, corrupted checkpoint payloads (applied by
the runner right after a stage commits) — from a *seeded,
schedule-independent* plan.  Every injection decision is a pure function of
``(seed, site key, attempt number)``:

* a map task's site key includes its **item index**, so whether task 7
  of the regrid fan-out faults on its first attempt is identical under
  the serial, threaded, and simspmd backends regardless of thread
  scheduling;
* a retried task draws with an incremented attempt number, so "fails
  once then succeeds" schedules are expressible and reproducible;
* op-level sites (``stats``, ``shard_write``) are numbered in call
  order, which the engine keeps backend-independent.

The injected fault *schedule* is therefore bitwise identical across
backends, which is what lets the test suite demand bitwise-identical
*outputs* under chaos (see ``tests/faults/test_parity_under_faults.py``).
"""

from __future__ import annotations

import dataclasses
import os
import signal
import threading
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.backends import ExecutionBackend
from repro.io.shards import shard_table
from repro.faults.errors import TransientFaultError, WorkerCrash
from repro.faults.retry import Clock, SystemClock, _unit_draw
from repro.workers import ipc

__all__ = [
    "InjectedFaultError",
    "FaultSpec",
    "InjectedFault",
    "FaultInjector",
    "FaultInjectingBackend",
]


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
    #: scheduled disk faults in rendered ``kind:site:index`` form (see
    #: :class:`repro.durability.fsfaults.DiskFaultPoint`): the Nth guarded
    #: commit at a store site fails with ENOSPC / EIO / a torn rename /
    #: a lost unfsynced write
    disk_faults: Tuple[str, ...] = ()
    #: driver crash point ``stage:N:pre|post`` ("" = no crash); fires once
    crash_at: str = ""
    #: real ``SIGKILL`` to the driver at the crash point instead of
    #: raising :class:`~repro.durability.fsfaults.SimulatedCrash` — used
    #: by the CI chaos smoke to prove recovery against true process death
    crash_kill: bool = False

    def __post_init__(self) -> None:
        for name in ("transient_rate", "slow_rate", "worker_kill_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.slow_seconds < 0 or self.torn_shards < 0:
            raise ValueError("slow_seconds and torn_shards must be non-negative")
        from repro.durability.fsfaults import CrashPoint, DiskFaultPoint

        for rendered in self.disk_faults:
            DiskFaultPoint.parse_rendered(rendered)  # raises on bad form
        if self.crash_at:
            CrashPoint.parse(self.crash_at)

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
        SIGKILL instead of a simulated crash).
        """
        from repro.durability.fsfaults import DISK_FAULT_KINDS, DiskFaultPoint

        disk_faults: List[str] = []
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
                    DiskFaultPoint.parse(key, v.strip()).render()
                    for v in value.split("+")
                    if v.strip()
                )
            elif key == "crash-at":
                kwargs["crash_at"] = value
            elif key == "crash-kill":
                kwargs["crash_kill"] = value.lower() in ("1", "true", "yes")
            else:
                raise ValueError(f"unknown --inject-faults key {key!r}")
        if disk_faults:
            kwargs["disk_faults"] = tuple(disk_faults)
        return cls(**kwargs)

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class InjectedFault:
    """One realised injection, for the run's fault accounting."""

    kind: str  # "transient" | "slow" | "torn-shard" | "corrupt-checkpoint" | "worker-kill"
    site: str
    attempt: int
    detail: str = ""


class FaultInjector:
    """Seeded chaos source; thread-safe; wraps backends."""

    def __init__(
        self,
        spec: Optional[FaultSpec] = None,
        *,
        clock: Optional[Clock] = None,
        **overrides: Any,
    ):
        if spec is None:
            spec = FaultSpec(**overrides)
        elif overrides:
            spec = dataclasses.replace(spec, **overrides)
        self.spec = spec
        #: sleeps for injected slow tasks go through this (virtual in tests)
        self.clock = clock or SystemClock()
        self._lock = threading.Lock()
        self._attempts: Dict[str, int] = {}
        self._op_counts: Dict[str, int] = {}
        self._torn = 0
        self._corrupted: List[int] = []
        self.log: List[InjectedFault] = []
        #: disk-fault tap installed on the atomic-commit primitives for
        #: the run's duration (see :mod:`repro.durability.fsfaults`)
        self.disk_injector = None
        if self.spec.disk_faults:
            from repro.durability.fsfaults import DiskFaultInjector, DiskFaultPoint

            points = tuple(
                DiskFaultPoint.parse_rendered(text) for text in self.spec.disk_faults
            )
            self.disk_injector = DiskFaultInjector(
                points,
                on_fault=lambda kind, site: self._record(
                    InjectedFault(kind=f"disk-{kind}", site=site, attempt=1)
                ),
            )
        self._crash_fired = False

    # -- accounting --------------------------------------------------------------
    def _record(self, fault: InjectedFault) -> None:
        with self._lock:
            self.log.append(fault)
        # under the process backend this injector is a fork-copy whose log
        # dies with the worker: replicate the entry to the parent's copy
        # via the task-event channel (no-op on in-process backends)
        ipc.emit_task_event("fault-injected", dataclasses.asdict(fault))

    def _replay(self, payload: Mapping[str, Any]) -> None:
        """Append a fault replicated from a worker process (no re-emit)."""
        fault = InjectedFault(**payload)
        with self._lock:
            self.log.append(fault)

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

    # -- decisions ---------------------------------------------------------------
    def _next_attempt(self, site: str) -> int:
        with self._lock:
            attempt = self._attempts.get(site, 0) + 1
            self._attempts[site] = attempt
            return attempt

    def next_op(self, op: str) -> str:
        """Allocate the next deterministic site key for a backend op."""
        with self._lock:
            n = self._op_counts.get(op, 0)
            self._op_counts[op] = n + 1
            return f"{op}#{n}"

    def fault_point(self, site: str) -> None:
        """Maybe raise a transient fault or sleep, per the seeded schedule.

        Call once per attempt of a unit of work; the attempt counter for
        *site* advances on every call, so a retried unit draws fresh
        (deterministic) decisions.
        """
        attempt = self._next_attempt(site)
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
            if self._torn >= self.spec.torn_shards:
                return False
            self._torn += 1
        directory.mkdir(parents=True, exist_ok=True)
        (directory / shard_name).write_bytes(b"RPS1\x00torn-by-fault-injector")
        self._record(InjectedFault("torn-shard", site, 1, shard_name))
        return True

    def maybe_corrupt_checkpoint(self, path: Path, stage_index: int) -> bool:
        """Truncate + bit-flip a just-committed checkpoint snapshot (once per
        scheduled stage index) — exactly the damage a node crash leaves
        behind, which resume and recovery must refuse."""
        with self._lock:
            if (
                stage_index not in self.spec.corrupt_checkpoints
                or stage_index in self._corrupted
            ):
                return False
            self._corrupted.append(stage_index)
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
        (``BaseException`` — the runner's retry loop cannot catch it) or,
        with ``crash-kill``, SIGKILLs the driver process for real.  The
        half-committed on-disk state is left exactly as a power loss
        would leave it, for ``repro run --recover`` to heal.
        """
        if not self.spec.crash_at:
            return
        from repro.durability.fsfaults import CrashPoint, crash

        point = CrashPoint.parse(self.spec.crash_at, kill=self.spec.crash_kill)
        with self._lock:
            if self._crash_fired:
                return
            if point.stage_index != stage_index or point.phase != phase:
                return
            self._crash_fired = True
        self._record(InjectedFault("crash", point.render(), 1))
        crash(point)

    # -- wrappers ----------------------------------------------------------------
    def wrap_backend(self, backend: ExecutionBackend) -> "FaultInjectingBackend":
        return FaultInjectingBackend(backend, self)


class FaultInjectingBackend(ExecutionBackend):
    """Chaos proxy around a real backend.

    Sits between the (optional) telemetry instrumentation and the real
    backend, so injected faults flow through the same retry machinery as
    real ones: per-task faults are retried by the inner backend's
    task-level retry, op-level faults escape the stage and are retried
    by the runner's stage-level policy.
    """

    def __init__(self, inner: ExecutionBackend, injector: FaultInjector):
        self.inner = inner
        self.injector = injector
        self.name = inner.name
        # a crash-surviving backend executes tasks in worker processes:
        # hook its task-event channel so faults injected there are
        # replicated into this (parent-side) injector's log
        target: Any = inner
        while target is not None and not hasattr(target, "add_task_event_handler"):
            target = getattr(target, "inner", None)
        if target is not None:

            def _on_task_event(kind: str, payload: Dict[str, Any]) -> None:
                if kind == "fault-injected":
                    injector._replay(payload)

            target.add_task_event_handler("fault-injector", _on_task_event)

    @property
    def width(self) -> int:
        return self.inner.width

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        *,
        weights: Optional[Sequence[float]] = None,
    ) -> List[Any]:
        items = list(items)
        site = self.injector.next_op("map")

        def chaotic(indexed: Tuple[int, Any]) -> Any:
            index, item = indexed
            # site key carries the item index: the schedule is a property
            # of the logical task, never of thread/rank scheduling
            self.injector.fault_point(f"{site}[{index}]")
            return fn(item)

        return self.inner.map(chaotic, list(enumerate(items)), weights=weights)

    def stats(self, data: np.ndarray, **kwargs: Any) -> Any:
        self.injector.fault_point(self.injector.next_op("stats"))
        return self.inner.stats(data, **kwargs)

    def shard_write(
        self,
        dataset: Any,
        directory: Union[str, Path],
        splits: Dict[str, np.ndarray],
        *,
        shards_per_split: int = 4,
        **options: Any,
    ) -> Any:
        site = self.injector.next_op("shard_write")
        table = shard_table(splits, shards_per_split)
        if table:
            split, i, _ = table[0]
            if self.injector.maybe_tear_shard(
                Path(directory), f"{split}-{i:05d}.rps", site
            ):
                # the torn file is on disk; now "crash" the writer — the
                # stage-level retry must overwrite it atomically
                raise InjectedFaultError(f"{site}(torn)", 1)
        self.injector.fault_point(site)
        return self.inner.shard_write(
            dataset, directory, splits, shards_per_split=shards_per_split, **options
        )

    def describe(self) -> str:
        return f"{self.inner.describe()} [chaos seed={self.injector.spec.seed}]"
