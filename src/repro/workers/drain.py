"""Graceful drain: turn SIGINT/SIGTERM into a clean, resumable stop.

A :class:`DrainController` is a thread-safe "please stop" flag shared by
the CLI signal handlers, the :class:`~repro.core.runner.PipelineRunner`
(which checks it at stage boundaries — after the previous stage's
checkpoint is already flushed), and the process backend's supervisor
(which stops handing out leases mid-``map``, lets in-flight tasks
finish, and shuts the worker pool down).  Both paths raise
:class:`DrainInterrupt`, which the runner surfaces as a
``RUN_INTERRUPTED`` event instead of a failure: nothing is
dead-lettered, the last completed stage's checkpoint is intact, and a
``--resume`` rerun picks up exactly where the drain cut in — producing
bitwise-identical shards to an uninterrupted run (enforced by
``tests/workers/test_drain_resume.py``).

The second signal is an escape hatch: once a drain is already pending,
the installed handler restores default behaviour and re-raises, so a
double Ctrl-C still kills a wedged run the classic way.
"""

from __future__ import annotations

import signal
import threading
from typing import Callable, List, Optional, Tuple

__all__ = ["DrainController", "DrainInterrupt"]


class DrainInterrupt(Exception):
    """The run stopped on request — a controlled stop, not a failure.

    Deliberately *not* a fault: the runner neither retries nor
    dead-letters it, and the CLI exits with the conventional 130.
    """

    def __init__(self, message: str = "run drained on request"):
        super().__init__(message)
        #: filled in by the runner when the drain surfaced mid-run
        self.stage_name: Optional[str] = None
        self.stage_index: Optional[int] = None


class DrainController:
    """Thread-safe drain flag with optional signal installation."""

    def __init__(self) -> None:
        self._event = threading.Event()
        self._lock = threading.Lock()
        self.reason: str = ""

    @property
    def requested(self) -> bool:
        return self._event.is_set()

    def request(self, reason: str = "drain requested") -> None:
        """Ask the run to stop at the next safe point (idempotent)."""
        with self._lock:
            if not self._event.is_set():
                self.reason = reason
        self._event.set()

    def install(self) -> Callable[[], None]:
        """Route SIGINT and SIGTERM into :meth:`request`; returns an uninstaller.

        Only callable from the main thread (a CPython restriction on
        ``signal.signal``).  A second delivery of the same signal while a
        drain is already pending restores the default disposition and
        re-raises it, so an operator can always force-kill.
        """
        previous: List[Tuple[int, object]] = []

        def handler(signum: int, frame: object) -> None:
            if self.requested:
                signal.signal(signum, signal.SIG_DFL)
                signal.raise_signal(signum)
                return
            self.request(f"received {signal.Signals(signum).name}")

        for signum in (signal.SIGINT, signal.SIGTERM):
            previous.append((signum, signal.getsignal(signum)))
            signal.signal(signum, handler)

        def uninstall() -> None:
            for signum, old in previous:
                signal.signal(signum, old)  # type: ignore[arg-type]

        return uninstall
