"""Worker-side IPC context: how code discovers it runs inside a worker.

The supervised process backend (:mod:`repro.workers.supervisor`) forks
worker processes that execute ordinary map tasks — including what the
run's backend hooks wrap around them (fault injection, telemetry
tracing) and task retries.  Those layers sometimes need to behave
differently inside a worker:

* the fault injector's worker-kill fault must ``SIGKILL`` the *worker*
  process (never the supervisor), keyed by the **lease attempt** the
  supervisor granted — a respawned worker starts with fresh module
  state, so any in-process counter would reset and the same task would
  be killed forever;
* realised injections and task retries happen in the worker's forked
  copy of the injector/stats objects; shipping them back as **task
  events** over the worker's pipe keeps the parent-side fault report
  and retry accounting correct.

This module is the tiny, stdlib-only seam both sides share:
:func:`worker_context` is entered by ``worker_main`` around each task;
:func:`in_worker` / :func:`current_lease_attempt` /
:func:`emit_task_event` are safe to call from anywhere (no-ops in the
parent).  Keeping it dependency-free avoids import cycles — it is
imported by :mod:`repro.faults.inject` and :mod:`repro.core.backends`,
both of which the backend package itself builds on.
"""

from __future__ import annotations

import contextlib
import pickle
import traceback
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

__all__ = [
    "RemoteTaskError",
    "in_worker",
    "current_lease_attempt",
    "emit_task_event",
    "worker_context",
    "encode_error",
    "decode_error",
]


class RemoteTaskError(RuntimeError):
    """A worker task failed with an exception that cannot cross the pipe.

    Carries the original type name, message, retry classification, and
    formatted traceback, so the supervisor can re-raise *something*
    faithful when the real exception object is unpicklable.
    """

    def __init__(
        self,
        error_type: str,
        message: str,
        *,
        transient: bool = False,
        remote_traceback: str = "",
    ):
        super().__init__(f"{error_type}: {message}")
        self.error_type = error_type
        self.transient = transient
        self.remote_traceback = remote_traceback


#: (lease attempt, event emitter) for the task executing in this process;
#: None outside a worker task
_CONTEXT: Optional[Tuple[int, Callable[[str, Dict[str, Any]], None]]] = None


def in_worker() -> bool:
    """True when called from inside a supervised worker task."""
    return _CONTEXT is not None


def current_lease_attempt() -> Optional[int]:
    """The supervisor-granted attempt of the executing lease (None in parent).

    This is the counter that survives worker death: a forked replacement
    worker inherits nothing from its predecessor, but the supervisor's
    lease table does the counting, so seeded per-attempt fault draws stay
    deterministic across respawns.
    """
    return _CONTEXT[0] if _CONTEXT is not None else None


def emit_task_event(kind: str, payload: Dict[str, Any]) -> bool:
    """Ship one event to the supervisor immediately; False in the parent.

    Events are sent over the worker's pipe *before* the task result, so
    they survive even when the worker dies right after emitting (the
    message sits in the pipe buffer and is drained with the EOF).
    """
    if _CONTEXT is None:
        return False
    _CONTEXT[1](kind, payload)
    return True


@contextlib.contextmanager
def worker_context(
    attempt: int, emit: Callable[[str, Dict[str, Any]], None]
) -> Iterator[None]:
    """Mark this process as executing a leased worker task."""
    global _CONTEXT
    previous = _CONTEXT
    _CONTEXT = (attempt, emit)
    try:
        yield
    finally:
        _CONTEXT = previous


# ---------------------------------------------------------------------------
# error transport
# ---------------------------------------------------------------------------


def encode_error(exc: BaseException) -> Dict[str, Any]:
    """Package a task exception for the pipe.

    The happy path ships the exception object itself — but only after a
    local pickle round-trip proves it survives (exceptions with custom
    ``__init__`` signatures often pickle fine and explode on load).  The
    fallback ships a descriptor that :func:`decode_error` rebuilds into a
    :class:`RemoteTaskError` preserving the retry classification.
    """
    try:
        pickle.loads(pickle.dumps(exc))
        return {"form": "pickled", "exception": exc}
    except Exception:
        from repro.faults.errors import is_transient

        return {
            "form": "encoded",
            "type": type(exc).__name__,
            "message": str(exc),
            "transient": is_transient(exc),
            "traceback": "".join(
                traceback.format_exception(type(exc), exc, exc.__traceback__)
            ),
        }


def decode_error(blob: Dict[str, Any]) -> BaseException:
    """Rebuild the exception a worker task died with."""
    if blob.get("form") == "pickled":
        return blob["exception"]
    return RemoteTaskError(
        str(blob.get("type", "Exception")),
        str(blob.get("message", "")),
        transient=bool(blob.get("transient", False)),
        remote_traceback=str(blob.get("traceback", "")),
    )
