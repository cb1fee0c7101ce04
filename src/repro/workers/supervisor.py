"""The supervisor: leases out tasks, watches heartbeats, survives crashes.

One :class:`WorkerSupervisor` drives one ``map`` fan-out over a pool of
forked worker processes (:mod:`repro.workers.worker`).  Its loop is the
robustness core of the process backend:

* **leases** — every task grant is a :class:`Lease` (task id, item
  index, attempt count, optional real deadline).  The attempt counter
  lives *here*, in the parent, so it survives worker death — seeded
  per-attempt fault schedules stay deterministic across respawns.
* **crash detection** — ``multiprocessing.connection.wait`` watches
  every worker's pipe *and* process sentinel; a dead sentinel, broken
  pipe, or heartbeat silence past ``heartbeat_timeout`` marks the
  worker crashed/hung.  Hung workers are SIGKILLed — the only cure for
  a wedged C extension.
* **recovery** — a crashed worker's lease is re-queued at the *front*
  (retry promptly, preserve locality) and a replacement worker is
  forked; re-queues are recorded as ``WorkerCrash`` retries in the
  run's task-retry accounting.
* **poison detection** — a task whose lease dies ``max_task_crashes``
  consecutive times raises :class:`~repro.faults.errors.PoisonTaskError`
  (permanent), which the runner routes to the dead-letter store instead
  of looping forever.
* **deadlines** — with a ``lease_timeout`` set (the runner wires the
  stage budget in), an overrunning task's worker is killed for real and
  the stage sees a :class:`~repro.faults.errors.StageTimeoutError`.
* **determinism** — results land in a slot table keyed by item index;
  completion order is scheduling noise, the returned list is always in
  input order.  On task failure the supervisor stops granting, lets
  in-flight work finish, and raises the error of the *lowest* failed
  index — the same exception a serial run of the same schedule would
  surface first.

Workers are forked per fan-out, inheriting the task closure and items;
fork is mandatory (map tasks close over datasets and injectors that do
not pickle) and is why this backend is POSIX-only.
"""

from __future__ import annotations

import dataclasses
import time
from collections import deque
from multiprocessing import get_context
from multiprocessing.connection import Connection, wait as connection_wait
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence

from repro.faults.errors import PoisonTaskError, StageTimeoutError
from repro.workers import ipc
from repro.workers.drain import DrainController, DrainInterrupt
from repro.workers.worker import worker_main

__all__ = ["Lease", "WorkerCrashEvent", "WorkerSupervisor"]

#: seconds a worker gets to exit after it is told to stop, before it is killed
SHUTDOWN_GRACE = 2.0


@dataclasses.dataclass
class Lease:
    """One outstanding task grant: who runs what, until when."""

    task_id: str
    index: int
    attempt: int
    granted_at: float
    #: absolute monotonic deadline; None = no real-kill budget
    deadline: Optional[float]
    #: opaque span handle opened by the telemetry layer (if attached)
    span: Any = None


@dataclasses.dataclass(frozen=True)
class WorkerCrashEvent:
    """One detected worker death/hang, for the run's crash report."""

    worker_id: int
    reason: str  # "dead-worker" | "missed-heartbeat" | "lease-expired"
    task_id: str = ""
    task_index: Optional[int] = None
    attempt: int = 0
    requeued: bool = False

    def describe(self) -> str:
        task = f" while running {self.task_id}" if self.task_id else " while idle"
        action = " (lease re-queued)" if self.requeued else ""
        return f"worker {self.worker_id} {self.reason}{task}{action}"


class _WorkerHandle:
    """Parent-side view of one worker process."""

    __slots__ = ("worker_id", "process", "conn", "lease", "last_beat")

    def __init__(self, worker_id: int, process: Any, conn: Connection):
        self.worker_id = worker_id
        self.process = process
        self.conn = conn
        self.lease: Optional[Lease] = None
        self.last_beat = time.monotonic()


class WorkerSupervisor:
    """Runs one ordered fan-out over a supervised pool of forked workers."""

    def __init__(
        self,
        n_workers: int,
        *,
        label: str = "map",
        heartbeat_interval: float = 0.1,
        heartbeat_timeout: Optional[float] = None,
        lease_timeout: Optional[float] = None,
        max_task_crashes: int = 3,
        drain: Optional[DrainController] = None,
        counters: Optional[Dict[str, int]] = None,
        crash_events: Optional[List[WorkerCrashEvent]] = None,
        task_retry_stats: Any = None,
        event_handlers: Sequence[Callable[[str, Dict[str, Any]], None]] = (),
        recorder: Any = None,
    ):
        self.n_workers = max(1, int(n_workers))
        self.label = label
        self.heartbeat_interval = heartbeat_interval
        # generous default: heartbeats are cheap, false hang verdicts are not
        self.heartbeat_timeout = (
            heartbeat_timeout
            if heartbeat_timeout is not None
            else max(10.0 * heartbeat_interval, 1.0)
        )
        self.lease_timeout = lease_timeout
        self.max_task_crashes = max(1, int(max_task_crashes))
        self.drain = drain
        self.counters = counters if counters is not None else {}
        self.crash_events = crash_events if crash_events is not None else []
        self.task_retry_stats = task_retry_stats
        self.event_handlers = list(event_handlers)
        #: the run's telemetry recorder: it spans each lease parent-side
        self.recorder = recorder
        self._ctx = get_context("fork")
        self._workers: Dict[int, _WorkerHandle] = {}
        self._next_worker_id = 0
        #: max heartbeat silence observed across the fan-out (gauge feed)
        self.max_heartbeat_gap = 0.0

    # -- counters ----------------------------------------------------------------
    def _bump(self, key: str) -> None:
        self.counters[key] = self.counters.get(key, 0) + 1

    # -- pool management ---------------------------------------------------------
    def _spawn(self) -> _WorkerHandle:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=worker_main,
            args=(
                worker_id,
                child_conn,
                [h.conn for h in self._workers.values()],
                self._fn,
                self._items,
                self.heartbeat_interval,
            ),
            name=f"repro-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # the child's end lives only in the child now
        handle = _WorkerHandle(worker_id, process, parent_conn)
        self._workers[worker_id] = handle
        return handle

    def _discard(self, handle: _WorkerHandle) -> None:
        """Remove a worker from the pool, reaping the process."""
        self._workers.pop(handle.worker_id, None)
        try:
            handle.conn.close()
        except OSError:
            pass
        if handle.process.is_alive():
            handle.process.kill()
        handle.process.join(timeout=SHUTDOWN_GRACE)

    def _kill(self, handle: _WorkerHandle) -> None:
        if handle.process.is_alive():
            handle.process.kill()  # SIGKILL: hung workers ignore politeness

    # -- the run -----------------------------------------------------------------
    def run(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        self._fn = fn
        self._items = list(items)
        n = len(self._items)
        results: List[Any] = [None] * n
        done = [False] * n
        pending: Deque[int] = deque(range(n))
        #: index -> terminal error (poison, deadline, task exception)
        failures: Dict[int, BaseException] = {}
        grants: Dict[int, int] = {}
        crashes: Dict[int, int] = {}
        stop_dispatch = False
        drained = False

        def grant(handle: _WorkerHandle, index: int) -> None:
            attempt = grants.get(index, 0) + 1
            grants[index] = attempt
            task_id = f"{self.label}[{index}]@{attempt}"
            now = time.monotonic()
            span = None
            if self.recorder is not None:
                span = self.recorder.open_worker_span(
                    task_id=task_id,
                    worker=handle.worker_id,
                    index=index,
                    attempt=attempt,
                )
            handle.lease = Lease(
                task_id=task_id,
                index=index,
                attempt=attempt,
                granted_at=now,
                deadline=(
                    now + self.lease_timeout
                    if self.lease_timeout is not None
                    else None
                ),
                span=span,
            )
            handle.last_beat = now  # the grant restarts the silence clock
            try:
                handle.conn.send(("task", task_id, index, attempt))
            except (BrokenPipeError, OSError):
                # dead before the grant left the parent: ungrant; the
                # sentinel sweep will reap and respawn this worker
                grants[index] = attempt - 1
                self._end_span(handle.lease, error="worker died before grant")
                handle.lease = None
                pending.appendleft(index)

        def settle_crash(handle: _WorkerHandle, reason: str) -> None:
            """One worker is gone: account for it, requeue, respawn."""
            lease = handle.lease
            requeue = False
            if lease is not None:
                crashes[lease.index] = crashes.get(lease.index, 0) + 1
                if (
                    not stop_dispatch
                    and crashes[lease.index] >= self.max_task_crashes
                ):
                    failures.setdefault(
                        lease.index,
                        PoisonTaskError(
                            f"task {lease.task_id} killed "
                            f"{crashes[lease.index]} consecutive workers; "
                            "routing to the dead-letter store",
                            task_id=lease.task_id,
                            crashes=crashes[lease.index],
                        ),
                    )
                    self._bump("poison_tasks")
                elif not stop_dispatch:
                    pending.appendleft(lease.index)
                    self._bump("tasks_requeued")
                    requeue = True
                    if self.task_retry_stats is not None:
                        self.task_retry_stats.record("WorkerCrash")
                self._end_span(lease, error=f"worker {reason}")
            event = WorkerCrashEvent(
                worker_id=handle.worker_id,
                reason=reason,
                task_id=lease.task_id if lease else "",
                task_index=lease.index if lease else None,
                attempt=lease.attempt if lease else 0,
                requeued=requeue,
            )
            self.crash_events.append(event)
            handle.lease = None
            self._discard(handle)
            if not stop_dispatch and (pending or len(self._workers) == 0):
                self._spawn()
                self._bump("worker_restarts")

        def handle_message(handle: _WorkerHandle, message: tuple) -> None:
            tag = message[0]
            handle.last_beat = time.monotonic()
            if tag in ("ready", "ack"):
                return
            if tag == "heartbeat":
                self._bump("heartbeats")
                return
            if tag == "event":
                _tag, _wid, _task_id, kind, payload = message
                for handler in self.event_handlers:
                    handler(kind, payload)
                return
            if tag == "result":
                _tag, _wid, task_id, index, value = message
                lease = handle.lease
                if lease is None or lease.task_id != task_id:
                    return  # stale delivery from a superseded lease
                results[index] = value
                done[index] = True
                self._end_span(lease)
                handle.lease = None
                return
            if tag == "error":
                _tag, _wid, task_id, index, blob = message
                lease = handle.lease
                if lease is None or lease.task_id != task_id:
                    return
                error = ipc.decode_error(blob)
                failures.setdefault(index, error)
                self._end_span(lease, error=f"{type(error).__name__}: {error}")
                handle.lease = None

        def drain_conn(handle: _WorkerHandle) -> None:
            try:
                while handle.conn.poll():
                    handle_message(handle, handle.conn.recv())
            except (EOFError, OSError):
                pass  # pipe closed mid-drain: the sentinel sweep handles it

        try:
            for _ in range(min(self.n_workers, max(n, 1))):
                self._spawn()
            while True:
                if failures and not stop_dispatch:
                    stop_dispatch = True
                if (
                    not stop_dispatch
                    and self.drain is not None
                    and self.drain.requested
                ):
                    stop_dispatch = True
                    drained = True
                if not stop_dispatch:
                    for handle in list(self._workers.values()):
                        if pending and handle.lease is None:
                            grant(handle, pending.popleft())
                in_flight = any(
                    h.lease is not None for h in self._workers.values()
                )
                if not in_flight and (stop_dispatch or not pending):
                    break

                tick = max(min(self.heartbeat_interval / 2.0, 0.1), 0.005)
                watched: Dict[Any, _WorkerHandle] = {}
                for handle in self._workers.values():
                    watched[handle.conn] = handle
                    watched[handle.process.sentinel] = handle
                for ready in connection_wait(list(watched), timeout=tick):
                    handle = watched[ready]
                    if handle.worker_id not in self._workers:
                        continue  # already reaped this sweep
                    if ready is handle.conn:
                        drain_conn(handle)
                    if not handle.process.is_alive():
                        drain_conn(handle)  # buffered events arrive with EOF
                        if handle.worker_id in self._workers:
                            settle_crash(handle, "dead-worker")

                now = time.monotonic()
                for handle in list(self._workers.values()):
                    lease = handle.lease
                    if lease is not None:
                        self.max_heartbeat_gap = max(
                            self.max_heartbeat_gap, now - handle.last_beat
                        )
                    if (
                        lease is not None
                        and lease.deadline is not None
                        and now >= lease.deadline
                    ):
                        # a real, preemptive deadline: kill, do not requeue
                        self._kill(handle)
                        drain_conn(handle)
                        self._bump("leases_expired")
                        failures.setdefault(
                            lease.index,
                            StageTimeoutError(
                                f"task {lease.task_id} exceeded its "
                                f"{self.lease_timeout:g}s lease; worker "
                                f"{handle.worker_id} killed"
                            ),
                        )
                        self._end_span(lease, error="lease expired")
                        handle.lease = None
                        self.crash_events.append(
                            WorkerCrashEvent(
                                worker_id=handle.worker_id,
                                reason="lease-expired",
                                task_id=lease.task_id,
                                task_index=lease.index,
                                attempt=lease.attempt,
                            )
                        )
                        self._discard(handle)
                        continue
                    if (
                        lease is not None
                        and now - handle.last_beat > self.heartbeat_timeout
                    ):
                        # leased but silent: wedged in C code or paused —
                        # indistinguishable from dead, treated the same
                        # (idle workers legitimately stay quiet)
                        self._kill(handle)
                        drain_conn(handle)
                        if handle.worker_id in self._workers:
                            settle_crash(handle, "missed-heartbeat")
        finally:
            self._shutdown()

        if failures:
            raise failures[min(failures)]
        if drained:
            reason = self.drain.reason if self.drain is not None else ""
            raise DrainInterrupt(
                "map drained before completion"
                + (f" ({reason})" if reason else "")
            )
        return results

    # -- teardown ----------------------------------------------------------------
    def _end_span(self, lease: Lease, error: Optional[str] = None) -> None:
        if lease.span is not None and self.recorder is not None:
            self.recorder.close_worker_span(lease.span, error)
            lease.span = None

    def _shutdown(self) -> None:
        for handle in self._workers.values():
            try:
                handle.conn.send(("shutdown",))
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + SHUTDOWN_GRACE
        for handle in list(self._workers.values()):
            handle.process.join(timeout=max(deadline - time.monotonic(), 0.0))
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(timeout=SHUTDOWN_GRACE)
            try:
                handle.conn.close()
            except OSError:
                pass
        self._workers.clear()
