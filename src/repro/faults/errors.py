"""The fault taxonomy: which failures are worth retrying.

Large preprocessing campaigns die overwhelmingly to *transient* faults —
flaky parallel filesystems, evicted nodes, slow ranks, interrupted
syscalls — while genuinely *permanent* faults (schema violations, bad
configuration, validation failures) must fail fast and loudly.  The
engine branches on this distinction everywhere retry is possible, so the classification lives in one place:

* :class:`TransientFaultError` — the explicit "retry me" marker any layer
  can raise (the fault injector's :class:`~repro.faults.inject.
  InjectedFaultError` and the runner's :class:`StageTimeoutError` are
  subclasses);
* :class:`PermanentFaultError` — the explicit "do not bother" marker;
* :func:`classify_fault` — the default classifier for everything else:
  OS-level flakiness (timeouts, interrupted calls, connection resets,
  generic ``OSError``) is transient, while missing files, permission
  errors, and ordinary programming errors (``ValueError``,
  ``TypeError``, ``KeyError``, ...) are permanent.

Any exception can also opt in by carrying a truthy ``transient``
attribute — useful for library errors the taxonomy cannot import.
"""

from __future__ import annotations

import enum

__all__ = [
    "FaultKind",
    "TransientFaultError",
    "PermanentFaultError",
    "StageTimeoutError",
    "WorkerCrash",
    "PoisonTaskError",
    "classify_fault",
    "is_transient",
]


class FaultKind(enum.Enum):
    """Retryability of a failure."""

    TRANSIENT = "transient"
    PERMANENT = "permanent"


class TransientFaultError(RuntimeError):
    """A failure expected to clear on retry (flaky IO, evicted worker)."""

    transient = True


class PermanentFaultError(RuntimeError):
    """A failure that will recur on every retry (bad input, bad config)."""

    transient = False


class StageTimeoutError(TransientFaultError):
    """A stage exceeded its deadline budget (slow rank, stuck filesystem)."""


class WorkerCrash(TransientFaultError):
    """A worker process died mid-task (OOM kill, eviction, segfault).

    Crash, not exception: the task raised nothing — its *host* vanished.
    Transient by taxonomy (the canonical HPC failure mode that clears on
    retry), so a supervisor re-queues the dead worker's lease and the
    serial/threaded backends retry the simulated equivalent in place.
    """


class PoisonTaskError(PermanentFaultError):
    """One task killed K consecutive workers; re-queueing it again would
    loop forever, so the supervisor routes it to the dead-letter store."""

    def __init__(self, message: str, *, task_id: str = "", crashes: int = 0):
        super().__init__(message)
        self.task_id = task_id
        self.crashes = crashes


#: OSError subclasses that indicate a wrong *request*, not a flaky system;
#: everything else OS-level is presumed transient
_PERMANENT_OS_ERRORS = (
    FileNotFoundError,
    PermissionError,
    IsADirectoryError,
    NotADirectoryError,
    FileExistsError,
)

#: non-OSError exception types the classifier treats as transient
_TRANSIENT_TYPES = (
    TimeoutError,
    InterruptedError,
    ConnectionError,
    BlockingIOError,
)


def classify_fault(error: BaseException) -> FaultKind:
    """Classify an exception as transient (retryable) or permanent.

    Precedence: an explicit ``transient`` attribute on the exception wins;
    then the known-permanent ``OSError`` subclasses; then the transient
    type lists; everything unrecognised is permanent — retrying an
    unknown failure mode by default would mask real bugs.
    """
    marker = getattr(error, "transient", None)
    if marker is not None:
        return FaultKind.TRANSIENT if marker else FaultKind.PERMANENT
    if isinstance(error, _PERMANENT_OS_ERRORS):
        return FaultKind.PERMANENT
    if isinstance(error, _TRANSIENT_TYPES):
        return FaultKind.TRANSIENT
    if isinstance(error, OSError):
        return FaultKind.TRANSIENT
    return FaultKind.PERMANENT


def is_transient(error: BaseException) -> bool:
    return classify_fault(error) is FaultKind.TRANSIENT
