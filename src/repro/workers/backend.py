"""``ProcessBackend``: the supervised multi-process execution backend.

Registered as ``"process"`` in :data:`repro.core.backends.BACKENDS`.
Each :meth:`fan_out` forks a fresh pool of worker processes and drives
it through a :class:`~repro.workers.supervisor.WorkerSupervisor`;
``map``, ``stats`` and ``shard_write`` are inherited from the base
protocol, so they decompose into the same partition grid / shard table
fan-outs as on every other backend.

**Parity.**  Workers may finish out of order, crash, and be respawned;
none of it is visible in the results: the supervisor reassembles values
into input order, statistics merge in partition order, and the shard
table is cut identically — so serial, threaded, simspmd, and process
runs of one plan produce bitwise-identical statistics, payloads, and
shard files (enforced by ``tests/domains/test_backend_parity.py``).

**Capabilities.**  Unlike the in-process backends this one *survives
worker death* (``survives_worker_crash``) and *enforces deadlines
preemptively* (``preemptive_timeout``) — a hung or overrunning task's
worker is really killed, not politely asked.

Fork start method is required: map tasks are closures over datasets and
over the run's hook wrappers (fault points, task spans) that do not
pickle; fork inheritance hands them to the workers for free, and only
results cross the pipes.
"""

from __future__ import annotations

import multiprocessing
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.backends import BACKENDS, ExecutionBackend
from repro.workers.supervisor import WorkerCrashEvent, WorkerSupervisor

__all__ = ["ProcessBackend"]


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


class ProcessBackend(ExecutionBackend):
    """Supervised worker-process pool with crash recovery (POSIX only)."""

    name = "process"
    #: a blown stage deadline kills the worker for real (SIGKILL)
    preemptive_timeout = True
    #: worker death re-queues the lease instead of failing the stage
    survives_worker_crash = True

    def __init__(
        self,
        workers: int = 4,
        *,
        heartbeat_interval: float = 0.1,
        heartbeat_timeout: Optional[float] = None,
        max_task_crashes: int = 3,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if not _fork_available():
            raise RuntimeError(
                "the process backend requires the 'fork' start method "
                "(map tasks are closures; only results are pickled) — "
                "unavailable on this platform"
            )
        self.workers = int(workers)
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.max_task_crashes = int(max_task_crashes)
        #: cumulative supervision counters across this backend's fan-outs:
        #: worker_restarts / tasks_requeued / leases_expired / poison_tasks
        #: / heartbeats — the runner flushes per-stage deltas into metrics
        self.worker_counters: Dict[str, int] = {}
        #: every detected crash/hang/expiry, in detection order
        self.crash_events: List[WorkerCrashEvent] = []
        #: widest heartbeat silence observed (feeds the heartbeat gauge)
        self.heartbeat_gap_max = 0.0
        self._map_count = 0

    def _replay_task_retry(self, kind: str, payload: Dict[str, Any]) -> None:
        # in-worker task retries tally into a forked RetryStats the parent
        # never sees; replay them into the parent-side tally so retry
        # accounting is backend-independent (see run_task.on_retry)
        if kind == "task-retry" and self.task_retry_stats is not None:
            self.task_retry_stats.record(str(payload.get("error_type", "Exception")))

    @property
    def width(self) -> int:
        return self.workers

    def fan_out(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        # lazy imports: importing either module imports this one first
        from repro.faults.inject import FaultInjector
        from repro.obs.instrument import RunRecorder

        items = list(items)
        if not items:
            return []
        label = f"proc-map#{self._map_count}"
        self._map_count += 1
        # the run's hooks reach into the workers: faults injected in one
        # replay into the injector's log, and the recorder spans each lease
        # parent-side (a forked tracer's spans die with the worker)
        handlers = [self._replay_task_retry]
        handlers += [h.replay for h in self.hooks if isinstance(h, FaultInjector)]
        supervisor = WorkerSupervisor(
            min(self.workers, len(items)),
            label=label,
            heartbeat_interval=self.heartbeat_interval,
            heartbeat_timeout=self.heartbeat_timeout,
            lease_timeout=self.lease_timeout,
            max_task_crashes=self.max_task_crashes,
            drain=self.drain,
            counters=self.worker_counters,
            crash_events=self.crash_events,
            task_retry_stats=self.task_retry_stats,
            event_handlers=handlers,
            recorder=next((h for h in self.hooks if isinstance(h, RunRecorder)), None),
        )
        try:
            return supervisor.run(self.run_task(fn), items)
        finally:
            self.heartbeat_gap_max = max(
                self.heartbeat_gap_max, supervisor.max_heartbeat_gap
            )


# registration is idempotent and import-order safe: core.backends also
# guard-imports this module at the end of its own body
BACKENDS.setdefault(ProcessBackend.name, ProcessBackend)
