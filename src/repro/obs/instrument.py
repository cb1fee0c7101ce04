"""Run telemetry: one run's lifecycle and backend work as spans and metrics.

The runner publishes every lifecycle moment (one
:class:`~repro.core.runner.RunEvent` plus the facts telemetry wants) to a
recorder; :class:`RunRecorder` turns them into the run/stage spans, span
events and metrics.  An untraced run talks to a :class:`NullRecorder`
instead, so past opening the run the runner never asks whether telemetry
is attached.

A telemetered run also installs its recorder as the first of the
backend's :attr:`~repro.core.backends.ExecutionBackend.hooks`, so for
every backend operation a stage performs it records:

* an operation span (``backend.map`` / ``backend.stats`` /
  ``backend.shard_write``) parented under the current stage span;
* a per-task child span for each fanned-out ``map`` item (worker
  threads receive the parent explicitly, so attribution survives the
  thread hop), and on a supervising backend a ``worker.task`` span per
  lease;
* ``backend_tasks_total`` and ``backend_ops_total`` counters labelled by
  pipeline, stage, operation, and backend.

Task counts are **logical**: ``map`` counts its items, ``stats`` counts
its partition grid, ``shard_write`` counts the global shard table — the
same numbers regardless of which backend executes them.  The engine's
bitwise-parity contract therefore extends to telemetry: serial,
threaded, simspmd and process runs of one plan record identical work
counts (enforced by tests).
"""

from __future__ import annotations

import contextlib
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.backends import ExecutionBackend
from repro.obs.resources import ResourceProfiler, throughput
from repro.obs.tracing import Span, SpanStatus

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.core.runner import RunEvent
    from repro.faults.inject import FaultInjector
    from repro.obs import Telemetry

__all__ = [
    "BATCH_SIZE_BUCKETS",
    "NullRecorder",
    "RunRecorder",
]

#: bucket bounds for the records-per-batch histogram — counts, not
#: seconds, so the default (duration) grid does not apply
BATCH_SIZE_BUCKETS: tuple = (1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0)


class NullRecorder:
    """The recorder of an untraced run: every lifecycle moment is dropped.

    It is never installed as a backend hook, so with no Telemetry attached
    stages fan out through the bare backend — the untraced hot path.
    """

    #: the span of the stage most recently started (None when untraced)
    stage_span: Optional[Span] = None

    def span_annotations(self) -> Dict[str, object]:
        """Provenance annotations linking a record to the stage's span."""
        return {}

    def record(self, event: "RunEvent", **facts: Any) -> None:
        """One lifecycle moment: the run event plus what telemetry adds to it."""

    def count(self, name: str, amount: float = 1, **labels: object) -> None:
        """Bump a per-pipeline counter (a zero amount creates no series)."""


#: supervision counter (ExecutionBackend.worker_counters key) -> metric
_WORKER_METRICS = {
    "worker_restarts": "worker_restarts_total",
    "leases_expired": "leases_expired_total",
    "tasks_requeued": "tasks_requeued_total",
    "poison_tasks": "poison_tasks_total",
}


class RunRecorder(NullRecorder):
    """Turns one run's lifecycle moments into spans, span events and metrics.

    *backend* is the run's backend — its name labels the spans and its
    supervision tallies (``crash_events`` / ``worker_counters`` /
    ``heartbeat_gap_max``) are flushed per stage; *injector* is the run's
    fault injector, whose realised injections are flushed the same way.
    """

    def __init__(
        self,
        telemetry: "Telemetry",
        pipeline: str,
        backend: ExecutionBackend,
        injector: Optional["FaultInjector"] = None,
    ):
        self.telemetry = telemetry
        self.pipeline = pipeline
        self.backend = backend
        self.injector = injector
        self.run_span: Optional[Span] = None
        self._profiler = ResourceProfiler()
        #: where the open stage began in the injector log, the backend's
        #: crash log and its supervision counters
        self._marks: Tuple[int, int, Dict[str, int]] = (0, 0, {})

    # -- the backend hook --------------------------------------------------------
    @contextlib.contextmanager
    def backend_op(
        self, backend: ExecutionBackend, op: str, tasks: int, *,
        batches: Sequence[slice] = (), table: Sequence[Any] = (), directory: Any = None,
        **attributes: Any,
    ) -> Iterator[Optional[Callable[..., Any]]]:
        """As a backend hook: count one op and span it, and each ``map`` task.
        ``batches`` is a batched ``map``'s slice grid, ``table`` a
        ``shard_write``'s shard table (``directory`` is the injector's);
        the other facts (``rows``, ``codec``) label the op span."""
        stage = self.stage_span.attributes["stage"]
        labels = {"pipeline": self.pipeline, "stage": stage, "backend": backend.name}
        metrics, tracer = self.telemetry.metrics, self.telemetry.tracer
        if batches:
            # the slice grid is a pure function of (len(items), batch_size),
            # so batching telemetry is identical on every backend too
            metrics.counter("stage_batches_total", **labels).inc(len(batches))
            histogram = metrics.histogram("stage_batch_size", buckets=BATCH_SIZE_BUCKETS, **labels)
            for s in batches:
                histogram.observe(s.stop - s.start)
        metrics.counter("backend_ops_total", op=op, **labels).inc()
        metrics.counter("backend_tasks_total", op=op, **labels).inc(tasks)
        with tracer.span(
            f"backend.{op}:{stage}", parent=self.stage_span,
            backend=backend.name, tasks=tasks, **attributes,
        ) as op_span:
            if op != "map":
                yield None
                if table:
                    # what the manifest counts, set once the write succeeded
                    op_span.set_attributes(
                        shards=len(table), samples=sum(len(rows) for _, _, rows in table)
                    )
                return

            def traced(task: Callable[[Any], Any], indexed: Tuple[int, Any]) -> Any:
                # parent passed explicitly: worker threads have no ambient span
                with tracer.span(
                    "backend.task", parent=op_span, backend=backend.name, stage=stage, op="map"
                ):
                    return task(indexed)

            yield traced

    def open_worker_span(self, **lease: object) -> Span:
        """A supervising backend's lease (``task_id``, ``worker``, ``index``,
        ``attempt``), spanned parent-side: a forked tracer's spans would die
        with the worker process."""
        return self.telemetry.tracer.start_span(
            "worker.task", parent=self.stage_span, backend=self.backend.name,
            stage=self.stage_span.attributes["stage"], **lease,
        )

    def close_worker_span(self, span: Span, error: Optional[str] = None) -> None:
        status = SpanStatus.ERROR if error else SpanStatus.OK
        self.telemetry.tracer.end_span(span, status=status, error=error or "")

    def span_annotations(self) -> Dict[str, object]:
        return {"span_id": self.stage_span.span_id, "trace_id": self.stage_span.trace_id}

    def count(self, name: str, amount: float = 1, **labels: object) -> None:
        if amount:
            self.telemetry.metrics.counter(name, pipeline=self.pipeline, **labels).inc(amount)

    def _gauge(self, name: str, value: float, **labels: object) -> None:
        self.telemetry.metrics.gauge(name, pipeline=self.pipeline, **labels).set(value)

    def record(self, event: "RunEvent", **facts: Any) -> None:
        handler = self._HANDLERS.get(event.kind.value)
        if handler is not None:
            handler(self, event, **facts)

    # -- the run span ------------------------------------------------------------
    def _run_started(self, event: "RunEvent", *, stages: int, decision: Any) -> None:
        self.run_span = span = self.telemetry.tracer.start_span(
            f"run:{self.pipeline}", parent=None,
            pipeline=self.pipeline, backend=self.backend.name, stages=stages,
        )
        if decision is not None:
            span.set_attributes(
                schedule_mode=decision.mode,
                schedule_config=decision.chosen.label(),
                schedule_predicted_s=decision.predicted_seconds,
                schedule_candidates=len(decision.candidates),
                schedule_hash=decision.content_hash()[:12],
            )

    def _run_completed(
        self, event: "RunEvent", *, results: Sequence[Any], restored: int, decision: Any,
    ) -> None:
        if decision is not None:
            # the run's prediction error as first-class metrics: measured
            # seconds against the medians the choice was made on
            _, actual, error, stage_errors = decision.prediction_error(results)
            self._gauge("schedule_prediction_error", error)
            for stage, stage_error in stage_errors.items():
                self._gauge("schedule_prediction_error", stage_error, stage=stage)
            self.run_span.set_attributes(
                schedule_actual_s=actual, schedule_prediction_error=error
            )
        degraded = any(r.degraded for r in results)
        self.run_span.set_attributes(
            stages_executed=len(results) - restored,
            stages_restored=restored,
            seconds=event.seconds,
            output_fingerprint=event.fingerprint[:12],
            degraded=degraded,
            retries=sum(r.attempts - 1 + r.task_retries for r in results),
        )
        self._end_run("degraded" if degraded else "ok")

    def _run_failed(self, event: "RunEvent", *, error: str) -> None:
        self._end_run("error", error)

    def _run_interrupted(self, event: "RunEvent", *, error: str) -> None:
        if self.stage_span is not None and not self.stage_span.ended:
            self._close_stage(error=event.detail)  # a mid-stage drain
        self._end_run("interrupted", error)

    def _end_run(self, status: str, error: str = "") -> None:
        self.telemetry.tracer.end_span(
            self.run_span, status=SpanStatus.ERROR if error else SpanStatus.OK, error=error
        )
        self.count("runs_total", status=status)

    # -- stage spans -------------------------------------------------------------
    def _stage_started(self, event: "RunEvent", *, stage: Any) -> None:
        self.stage_span = self.telemetry.tracer.start_span(
            f"stage:{stage.name}",
            parent=self.run_span,
            pipeline=self.pipeline,
            stage=stage.name,
            index=event.stage_index,
            processing_stage=stage.processing_stage.name,
            parallelism=stage.parallelism.value,
            backend=self.backend.name,
        )
        self._profiler.start()
        self._marks = (
            len(self.injector.log) if self.injector is not None else 0,
            len(self.backend.crash_events),
            dict(self.backend.worker_counters),
        )

    def _close_stage(self, error: str = "", **attributes: object) -> None:
        """Flush the stage's injected faults and worker crashes, end its span."""
        span, backend = self.stage_span, self.backend
        fault_mark, crash_mark, counters_before = self._marks
        for fault in self.injector.log[fault_mark:] if self.injector is not None else ():
            span.add_event(
                "fault_injected", kind=fault.kind, site=fault.site,
                attempt=fault.attempt, detail=fault.detail,
            )
            self.count("faults_injected_total", kind=fault.kind)
        if backend.survives_worker_crash:
            for crash in backend.crash_events[crash_mark:]:
                span.add_event(
                    "worker_crash", worker=crash.worker_id, reason=crash.reason,
                    task=crash.task_id, attempt=crash.attempt, requeued=crash.requeued,
                )
            for key, metric in _WORKER_METRICS.items():
                delta = backend.worker_counters.get(key, 0) - counters_before.get(key, 0)
                self.count(metric, delta, stage=span.attributes["stage"])
            self._gauge("worker_heartbeat_gap_seconds", backend.heartbeat_gap_max)
        span.set_attributes(**attributes)
        self.telemetry.tracer.end_span(
            span, status=SpanStatus.ERROR if error else SpanStatus.OK, error=error
        )

    def _stage_retried(self, event: "RunEvent", **retry: object) -> None:
        self.stage_span.add_event("retry", **retry)
        self.count("stage_retries_total", stage=event.stage_name)

    def _stage_completed(
        self, event: "RunEvent", *, items: int, nbytes: int, attempts: int, task_retries: int
    ) -> None:
        delta = self._profiler.stop()
        items_per_s = throughput(items, event.seconds)
        bytes_per_s = throughput(nbytes, event.seconds)
        self._close_stage(
            items=items,
            bytes=nbytes,
            items_per_s=items_per_s,
            bytes_per_s=bytes_per_s,
            cpu_s=delta.cpu_s,
            cpu_fraction=delta.cpu_fraction,
            max_rss_bytes=delta.max_rss_bytes,
            rss_growth_bytes=delta.max_rss_growth_bytes,
            output_fingerprint=event.fingerprint[:12],
            attempts=attempts,
            task_retries=task_retries,
        )
        labels = {"pipeline": self.pipeline, "stage": event.stage_name}
        metrics = self.telemetry.metrics
        metrics.histogram("stage_seconds", **labels).observe(event.seconds)
        metrics.counter("stage_items_total", **labels).inc(items)
        metrics.counter("stage_bytes_total", **labels).inc(nbytes)
        metrics.gauge("stage_items_per_s", **labels).set(items_per_s)
        metrics.gauge("stage_bytes_per_s", **labels).set(bytes_per_s)

    def _stage_degraded(self, event: "RunEvent") -> None:
        # a gate quarantined records: the stage completed and its span ended
        self.count("stages_degraded_total", stage=event.stage_name)

    def _stage_failed(self, event: "RunEvent", *, error: str) -> None:
        self._close_stage(error=error)

    def _gate(self, event: "RunEvent", *, report: Any) -> None:
        self.count(
            "gate_checks_total",
            stage=report.stage, boundary=report.boundary, verdict=report.verdict,
        )
        self.count("records_quarantined_total", report.records_quarantined, stage=report.stage)
        self.stage_span.add_event(
            "gate",
            boundary=report.boundary,
            contract=report.contract,
            contract_hash=report.contract_hash[:12],
            verdict=report.verdict,
            records_checked=report.records_checked,
            records_quarantined=report.records_quarantined,
        )
        if report.verdict == "fail":
            self._close_stage(error=event.detail)

    #: RunEventKind value -> what telemetry records for it (kinds not
    #: listed — stage-skipped, run-scheduled, ... — leave no telemetry)
    _HANDLERS = {
        "run-started": _run_started,
        "run-recovered": lambda self, event: self.count("runs_recovered_total"),
        "checkpoint-quarantined": lambda self, event: self.count("checkpoints_quarantined_total"),
        "stage-started": _stage_started,
        "stage-retried": _stage_retried,
        "stage-completed": _stage_completed,
        "stage-degraded": _stage_degraded,
        "stage-failed": _stage_failed,
        "gate-passed": _gate,
        "gate-warned": _gate,
        "records-quarantined": _gate,
        "gate-failed": _gate,
        "run-completed": _run_completed,
        "run-failed": _run_failed,
        "run-interrupted": _run_interrupted,
    }
