"""The supervised process backend: leases, crashes, poison, deadlines.

Every test here runs real forked worker processes and kills them for
real (``SIGKILL``/``SIGSTOP``) — nothing is mocked.  The contract under
test: out-of-order completion, worker death, hangs, and expired leases
are all invisible in the returned results (input order, correct values),
and every pathology surfaces as the right exception type with the right
supervision accounting.
"""

import os
import signal
import time

import pytest

from repro.core.backends import BACKENDS, get_backend
from repro.faults import (
    FaultInjector,
    FaultSpec,
    PoisonTaskError,
    RetryPolicy,
    StageTimeoutError,
)
from repro.workers import ProcessBackend
from repro.workers.ipc import RemoteTaskError, current_lease_attempt, in_worker


def _square(x):
    return x * x


class TestRegistration:
    def test_registered_in_backends(self):
        assert BACKENDS["process"] is ProcessBackend
        backend = get_backend("process", workers=3)
        assert isinstance(backend, ProcessBackend)
        assert backend.width == 3

    def test_capability_flags(self):
        caps = ProcessBackend.capabilities()
        assert caps == {"preemptive_timeout": True, "survives_worker_crash": True}
        # the in-process backends promise neither
        assert BACKENDS["threaded"].capabilities() == {
            "preemptive_timeout": False,
            "survives_worker_crash": False,
        }

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ProcessBackend(workers=0)


class TestOrderedResults:
    def test_map_returns_input_order(self):
        backend = ProcessBackend(workers=4)
        assert backend.map(_square, list(range(12))) == [i * i for i in range(12)]

    def test_completion_order_is_invisible(self):
        """Early items finish last; the result list doesn't care."""

        def staggered(x):
            time.sleep(0.15 if x < 2 else 0.0)
            return x + 100

        backend = ProcessBackend(workers=4)
        assert backend.map(staggered, list(range(8))) == [i + 100 for i in range(8)]

    def test_empty_and_fewer_items_than_workers(self):
        backend = ProcessBackend(workers=8)
        assert backend.map(_square, []) == []
        assert backend.map(_square, [5]) == [25]

    def test_closures_cross_by_fork_not_pickle(self):
        """Map tasks may close over unpicklable state (the whole point of fork)."""
        gate = (lambda: "unpicklable", object())

        def task(x):
            assert gate[1] is not None
            return x * 3

        assert ProcessBackend(workers=2).map(task, [1, 2, 3]) == [3, 6, 9]

    def test_worker_context_visible_in_tasks(self):
        def probe(x):
            return (in_worker(), current_lease_attempt(), os.getpid())

        backend = ProcessBackend(workers=2)
        rows = backend.map(probe, list(range(4)))
        assert all(flag for flag, _, _ in rows)
        assert all(attempt == 1 for _, attempt, _ in rows)
        assert all(pid != os.getpid() for _, _, pid in rows)
        # ...and the parent process is not "in a worker"
        assert not in_worker()
        assert current_lease_attempt() is None


class TestErrorTransport:
    def test_lowest_failed_index_wins(self):
        """Parity with serial: the first error a serial run would hit."""

        def explode(x):
            if x in (2, 5):
                raise ValueError(f"boom {x}")
            return x

        backend = ProcessBackend(workers=4)
        with pytest.raises(ValueError, match="boom 2"):
            backend.map(explode, list(range(8)))

    def test_unpicklable_error_ships_as_remote_task_error(self):
        class Gnarly(Exception):
            def __init__(self, a, b):  # pickles, explodes on load
                super().__init__(f"{a}/{b}")

        def explode(x):
            if x == 1:
                raise Gnarly("left", "right")
            return x

        backend = ProcessBackend(workers=2)
        with pytest.raises(RemoteTaskError) as info:
            backend.map(explode, [0, 1, 2])
        assert info.value.error_type == "Gnarly"
        assert "left/right" in str(info.value)
        assert "Gnarly" in info.value.remote_traceback

    def test_error_does_not_restart_pool_forever(self):
        backend = ProcessBackend(workers=2)
        with pytest.raises(RuntimeError, match="nope"):
            backend.map(lambda x: (_ for _ in ()).throw(RuntimeError("nope")), [0])
        # an ordinary exception is not a crash
        assert backend.worker_counters.get("worker_restarts", 0) == 0
        assert backend.crash_events == []


class TestCrashRecovery:
    def test_first_attempt_crash_is_requeued_and_recovers(self):
        """SIGKILL on attempt 1; the respawned lease (attempt 2) succeeds."""

        def fragile(x):
            if x == 3 and current_lease_attempt() == 1:
                os.kill(os.getpid(), signal.SIGKILL)
            return x * 10

        backend = ProcessBackend(workers=2)
        assert backend.map(fragile, list(range(6))) == [i * 10 for i in range(6)]
        counters = backend.worker_counters
        assert counters["tasks_requeued"] == 1
        assert counters["worker_restarts"] >= 1
        assert counters.get("poison_tasks", 0) == 0
        crash = next(e for e in backend.crash_events if e.task_index == 3)
        assert crash.reason == "dead-worker"
        assert crash.requeued
        assert "re-queued" in crash.describe()

    def test_idle_worker_death_does_not_fail_the_map(self):
        """A worker dying *between* leases is replaced, not reported as a task loss."""

        def sometimes_die_after(x):
            # finish the task, then die before the next grant arrives
            if x == 0:
                result = x + 7

                def _die():
                    os.kill(os.getpid(), signal.SIGKILL)

                import threading

                threading.Timer(0.05, _die).start()
                return result
            time.sleep(0.1)
            return x + 7

        backend = ProcessBackend(workers=2)
        assert backend.map(sometimes_die_after, list(range(6))) == [
            i + 7 for i in range(6)
        ]

    def test_hung_worker_detected_by_missed_heartbeats(self):
        """SIGSTOP freezes heartbeats; the supervisor kills and re-leases."""

        def wedge(x):
            if x == 2 and current_lease_attempt() == 1:
                os.kill(os.getpid(), signal.SIGSTOP)  # wedged C extension
            return x - 1

        backend = ProcessBackend(
            workers=2, heartbeat_interval=0.05, heartbeat_timeout=0.4
        )
        assert backend.map(wedge, list(range(5))) == [i - 1 for i in range(5)]
        reasons = {e.reason for e in backend.crash_events}
        assert "missed-heartbeat" in reasons
        assert backend.worker_counters["tasks_requeued"] >= 1
        assert backend.heartbeat_gap_max > 0.0


class TestPoisonDetection:
    def test_task_killing_k_consecutive_workers_is_poison(self):
        def poison(x):
            if x == 3:
                os.kill(os.getpid(), signal.SIGKILL)
            return x

        backend = ProcessBackend(workers=2, max_task_crashes=3)
        with pytest.raises(PoisonTaskError) as info:
            backend.map(poison, list(range(6)))
        assert info.value.crashes == 3
        assert info.value.task_id == "proc-map#0[3]@3"
        assert backend.worker_counters["poison_tasks"] == 1
        # attempts 1 and 2 were re-queues; attempt 3 crossed the threshold
        assert backend.worker_counters["tasks_requeued"] == 2

    def test_attempt_counter_survives_respawn(self):
        """The lease attempt lives in the parent, so a fresh fork sees 2, 3, ..."""
        seen = []

        def record_attempt(x):
            attempt = current_lease_attempt()
            if x == 1 and attempt < 3:
                os.kill(os.getpid(), signal.SIGKILL)
            return (x, attempt)

        backend = ProcessBackend(workers=1, max_task_crashes=5)
        results = backend.map(record_attempt, [0, 1, 2])
        seen = dict((x, a) for x, a in results)
        assert seen[0] == 1 and seen[2] == 1
        assert seen[1] == 3  # two SIGKILLs, third lease attempt succeeded


class TestLeaseDeadlines:
    def test_expired_lease_kills_worker_and_raises_stage_timeout(self):
        def overrun(x):
            if x == 1:
                time.sleep(30.0)
            return x

        backend = ProcessBackend(workers=2)
        backend.lease_timeout = 0.4  # what the runner wires from --stage-timeout
        start = time.monotonic()
        with pytest.raises(StageTimeoutError, match=r"exceeded its 0\.4s lease"):
            backend.map(overrun, [0, 1, 2])
        assert time.monotonic() - start < 10.0, "kill must preempt the sleep"
        assert backend.worker_counters["leases_expired"] == 1
        expiry = next(e for e in backend.crash_events if e.reason == "lease-expired")
        assert expiry.task_index == 1
        assert not expiry.requeued  # deadlines are terminal, never re-queued


class TestInjectedChaos:
    """The seeded fault injector drives worker kills through the same path."""

    @staticmethod
    def _chaotic(workers, spec):
        injector = FaultInjector(spec)
        backend = ProcessBackend(workers=workers)
        backend.hooks = (injector,)
        return backend, injector

    def test_seeded_worker_kills_recover_bitwise(self):
        backend, injector = self._chaotic(3, FaultSpec.parse("seed=3, kill-rate=0.25"))
        items = list(range(12))
        assert backend.map(_square, items) == [i * i for i in items]
        assert backend.worker_counters["tasks_requeued"] >= 1
        # in-worker injections were replayed into the parent-side log
        kills = [f for f in injector.log if f.kind == "worker-kill"]
        assert len(kills) == backend.worker_counters["tasks_requeued"]

    def test_poison_site_routes_to_poison_error(self):
        backend, injector = self._chaotic(2, FaultSpec.parse("seed=7, poison-site=map#0[4]"))
        with pytest.raises(PoisonTaskError) as info:
            backend.map(_square, list(range(8)))
        assert info.value.task_id == "proc-map#0[4]@3"
        assert backend.worker_counters["poison_tasks"] == 1
        poisons = [f for f in injector.log if f.detail == "poison"]
        assert len(poisons) == 3  # one injection per doomed lease attempt

    def test_in_worker_retries_replay_into_parent_stats(self):
        """Task retries tally in a forked RetryStats; events replay them."""
        from repro.faults.retry import RetryStats

        backend, injector = self._chaotic(3, FaultSpec(seed=3, transient_rate=0.2))
        stats = RetryStats()
        backend.configure_retry(
            RetryPolicy(max_attempts=5, base_delay=0.0, jitter=0.0), stats=stats
        )
        assert backend.map(_square, list(range(10))) == [i * i for i in range(10)]
        snap = stats.snapshot()
        assert snap["retries"] == 8  # seed=3 schedule, verified against serial
        assert snap["by_error"] == {"InjectedFaultError": 8}
        transients = [f for f in injector.log if f.kind == "transient"]
        assert len(transients) == 8
