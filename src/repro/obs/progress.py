"""Live run progress: a thread-safe snapshot of how far along a run is.

The runner already emits structured :class:`~repro.core.runner.RunEvent`
transitions and counts logical backend tasks in the metrics registry;
this module folds both into a pollable surface:

* :class:`ProgressReporter` — subscribe it as the runner's ``on_event``
  callback (and hand it the run's :class:`~repro.obs.Telemetry`), then
  poll :meth:`snapshot` from any thread.  Stage transitions arrive via
  events; task counts are read live from the ``backend_tasks_total``
  counters the run's :class:`~repro.obs.instrument.RunRecorder`
  maintains as a backend hook — and because those counts are *logical*,
  the reported progress is identical on every backend (the parity
  contract extended to progress).
* **ETA** — the mean completed-stage duration times the stages
  remaining.
* :class:`ProgressTicker` — a daemon thread that prints one progress
  line whenever the snapshot changes; ``run --progress`` drives it, and
  the future async job service will stream the same snapshots.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
import time
from typing import IO, TYPE_CHECKING, Callable, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.runner import RunEvent
    from repro.obs import Telemetry

__all__ = ["ProgressSnapshot", "ProgressReporter", "ProgressTicker"]


@dataclasses.dataclass(frozen=True)
class ProgressSnapshot:
    """One instant of run progress (safe to hand across threads)."""

    pipeline: str
    #: "idle" | "running" | "completed" | "failed"
    status: str
    stage: str
    stage_index: int
    stages_done: int
    stages_total: int
    #: logical backend tasks executed so far (identical on every backend)
    tasks_done: int
    elapsed_s: float
    eta_s: Optional[float]
    #: stage-completion fraction in [0, 1] (None before the total is known)
    fraction: Optional[float]

    def render(self) -> str:
        """One terminal line: ``[3/8] stage:regrid tasks=52 ...``."""
        if self.stages_total:
            head = f"[{self.stages_done}/{self.stages_total}]"
        else:
            head = f"[{self.stages_done}]"
        parts = [head]
        if self.status == "running" and self.stage:
            parts.append(self.stage)
        else:
            parts.append(self.status)
        parts.append(f"tasks={self.tasks_done}")
        parts.append(f"elapsed={self.elapsed_s:.1f}s")
        if self.eta_s is not None and self.status == "running":
            parts.append(f"eta={self.eta_s:.1f}s")
        if self.fraction is not None:
            parts.append(f"({self.fraction:.0%})")
        return " ".join(parts)

    def to_dict(self) -> Dict[str, object]:
        return {
            "pipeline": self.pipeline,
            "status": self.status,
            "stage": self.stage,
            "stage_index": self.stage_index,
            "stages_done": self.stages_done,
            "stages_total": self.stages_total,
            "tasks_done": self.tasks_done,
            "elapsed_s": round(self.elapsed_s, 6),
            "eta_s": round(self.eta_s, 6) if self.eta_s is not None else None,
            "fraction": round(self.fraction, 6) if self.fraction is not None else None,
        }


class ProgressReporter:
    """Folds run events + live metrics into pollable progress snapshots."""

    def __init__(
        self,
        telemetry: Optional["Telemetry"] = None,
        *,
        clock: Callable[[], float] = time.time,
    ):
        self.telemetry = telemetry
        self._clock = clock
        self._lock = threading.Lock()
        self._pipeline = ""
        self._status = "idle"
        self._stage = ""
        self._stage_index = -1
        self._stages_done = 0
        self._total: Optional[int] = None
        self._started_at: Optional[float] = None
        self._finished_at: Optional[float] = None

    # -- event intake (the runner's on_event callback) ---------------------------
    def on_event(self, event: "RunEvent") -> None:
        """Thread-safe intake of one structured run event."""
        kind = event.kind.value
        with self._lock:
            self._pipeline = event.pipeline or self._pipeline
            if kind == "run-started":
                self._status = "running"
                self._started_at = event.timestamp or self._clock()
                self._stages_done = 0
                self._stage = ""
                self._stage_index = -1
            elif kind == "stage-started":
                self._stage = event.stage_name or ""
                self._stage_index = (
                    event.stage_index if event.stage_index is not None else -1
                )
            elif kind in ("stage-completed", "stage-skipped"):
                self._stages_done += 1
                if self._stage == (event.stage_name or ""):
                    self._stage = ""
            elif kind == "run-completed":
                self._status = "completed"
                self._finished_at = event.timestamp or self._clock()
            elif kind == "run-failed":
                self._status = "failed"
                self._finished_at = event.timestamp or self._clock()

    # -- polling -----------------------------------------------------------------
    def _tasks_done(self) -> int:
        if self.telemetry is None:
            return 0
        total = 0.0
        for row in self.telemetry.metrics.snapshot():
            if row.get("name") == "backend_tasks_total":
                total += float(row.get("value") or 0.0)
        return int(total)

    def _stages_total(self) -> Optional[int]:
        if self._total is not None:
            return self._total
        # the run-root span carries the plan's stage count
        if self.telemetry is not None:
            for span in self.telemetry.tracer.spans():
                if span.name.startswith("run:"):
                    stages = span.attributes.get("stages")
                    if isinstance(stages, int):
                        self._total = stages
                        return stages
        return None

    def _eta(self, elapsed: float, done: int, total: Optional[int]) -> Optional[float]:
        if self._status != "running":
            return None
        if total and done:
            mean = elapsed / done
            return mean * max(total - done, 0)
        return None

    def snapshot(self) -> ProgressSnapshot:
        """The current progress, computed from events + live counters."""
        with self._lock:
            status = self._status
            stage = self._stage
            stage_index = self._stage_index
            done = self._stages_done
            started = self._started_at
            finished = self._finished_at
            pipeline = self._pipeline
        if started is None:
            elapsed = 0.0
        elif finished is not None:
            elapsed = max(finished - started, 0.0)
        else:
            elapsed = max(self._clock() - started, 0.0)
        total = self._stages_total()
        fraction = (done / total) if total else None
        return ProgressSnapshot(
            pipeline=pipeline,
            status=status,
            stage=stage,
            stage_index=stage_index,
            stages_done=done,
            stages_total=total or 0,
            tasks_done=self._tasks_done(),
            elapsed_s=elapsed,
            eta_s=self._eta(elapsed, done, total),
            fraction=fraction,
        )


class ProgressTicker:
    """Daemon thread printing a progress line whenever progress changes."""

    #: seconds between two looks at the reporter
    interval_s = 0.2

    def __init__(self, reporter: ProgressReporter, *, stream: Optional[IO[str]] = None):
        self.reporter = reporter
        self.stream = stream if stream is not None else sys.stderr
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._last_line = ""

    def _emit(self) -> None:
        line = self.reporter.snapshot().render()
        if line != self._last_line:
            self._last_line = line
            print(f"progress: {line}", file=self.stream, flush=True)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._emit()

    def start(self) -> "ProgressTicker":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._loop, name="repro-progress", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the loop and print the final state (safe to call twice)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._emit()

    def __enter__(self) -> "ProgressTicker":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
