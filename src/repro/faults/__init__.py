"""Fault tolerance: taxonomy, retry policies, chaos injection, dead letters.

The resilience layer of the pipeline engine (see DESIGN.md, "Fault
tolerance").  Four pieces:

* :mod:`repro.faults.errors` — transient-vs-permanent classification;
* :mod:`repro.faults.retry` — :class:`RetryPolicy` (deterministic seeded
  backoff), :class:`Deadline` budgets, and the single retry loop both
  the runner and the backends use, with injectable clocks so tests never
  wall-sleep;
* :mod:`repro.faults.inject` — the seeded :class:`FaultInjector` chaos
  harness, the one injector behind ``--inject-faults`` (task faults,
  torn shards, corrupted checkpoints, disk faults at the commit
  primitives, driver crashes), whose schedule is backend-independent;
* :mod:`repro.faults.deadletter` — the record of work a run could not
  complete, keyed by payload fingerprint for re-driving.
"""

from repro.faults.deadletter import (
    DEAD_LETTER_NAME,
    DeadLetterLog,
    DeadLetterRecord,
)
from repro.faults.errors import (
    FaultKind,
    PermanentFaultError,
    PoisonTaskError,
    StageTimeoutError,
    TransientFaultError,
    WorkerCrash,
    classify_fault,
    is_transient,
)
from repro.faults.inject import (
    FaultInjector,
    FaultSpec,
    InjectedFault,
    InjectedFaultError,
)
from repro.faults.retry import (
    Clock,
    Deadline,
    RetryOutcome,
    RetryPolicy,
    RetryStats,
    SystemClock,
    VirtualClock,
    call_with_retry,
)

__all__ = [
    "FaultKind",
    "TransientFaultError",
    "PermanentFaultError",
    "StageTimeoutError",
    "WorkerCrash",
    "PoisonTaskError",
    "classify_fault",
    "is_transient",
    "Clock",
    "SystemClock",
    "VirtualClock",
    "RetryPolicy",
    "Deadline",
    "RetryStats",
    "RetryOutcome",
    "call_with_retry",
    "FaultSpec",
    "FaultInjector",
    "InjectedFault",
    "InjectedFaultError",
    "DEAD_LETTER_NAME",
    "DeadLetterRecord",
    "DeadLetterLog",
]
