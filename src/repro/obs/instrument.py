"""Backend instrumentation: observed work counts that prove parity.

:class:`InstrumentedBackend` wraps any
:class:`~repro.core.backends.ExecutionBackend` and records, for every
backend operation a stage performs:

* an operation span (``backend.map`` / ``backend.stats`` /
  ``backend.shard_write``) parented under the current stage span;
* a per-task child span for each fanned-out :meth:`map` item (worker
  threads receive the parent explicitly, so attribution survives the
  thread hop);
* ``backend_tasks_total`` and ``backend_ops_total`` counters labelled by
  pipeline, stage, operation, and backend.

Task counts are **logical**: ``map`` counts its items, ``stats`` counts
its partition grid, ``shard_write`` counts the global shard table — the
same numbers regardless of which backend executes them.  The engine's
bitwise-parity contract therefore extends to telemetry: serial,
threaded, and simspmd runs of one plan record identical work counts
(enforced by tests).

The wrapper is installed by :class:`~repro.core.runner.PipelineRunner`
as ``context.backend`` for the duration of a telemetered run; stages
keep calling the plain backend protocol and never see the difference.

:class:`RunRecorder` is the other half of a telemetered run: the runner
publishes every lifecycle moment (one :class:`~repro.core.runner.RunEvent`
plus the facts telemetry wants) to a recorder, and this one turns them
into the run/stage spans, span events and metrics.  An untraced run talks
to a :class:`NullRecorder` instead, so the runner never asks whether
telemetry is attached.
"""

from __future__ import annotations

from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.backends import (
    DEFAULT_STATS_PARTITIONS,
    ExecutionBackend,
    batch_slices,
)
from repro.io.shards import shard_table
from repro.obs.resources import ResourceProfiler, throughput
from repro.obs.tracing import Span, SpanStatus

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.core.dataset import Dataset
    from repro.core.runner import RunEvent
    from repro.faults.inject import FaultInjector
    from repro.io.shards import ShardManifest
    from repro.obs import Telemetry
    from repro.parallel.stats import FeatureStats

__all__ = [
    "InstrumentedBackend",
    "BATCH_SIZE_BUCKETS",
    "NullRecorder",
    "RunRecorder",
    "recorder_for",
]

#: bucket bounds for the records-per-batch histogram — counts, not
#: seconds, so the default (duration) grid does not apply
BATCH_SIZE_BUCKETS: tuple = (1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0)


class InstrumentedBackend(ExecutionBackend):
    """Telemetry-recording proxy around a real execution backend."""

    def __init__(
        self,
        inner: ExecutionBackend,
        telemetry: "Telemetry",
        *,
        pipeline: str = "",
    ):
        self.inner = inner
        self.telemetry = telemetry
        self.pipeline = pipeline
        #: set by the runner before each stage executes
        self.stage_name: str = ""
        self.stage_span: Optional[Span] = None
        self.name = inner.name

    @property
    def width(self) -> int:
        return self.inner.width

    def activate_stage(self, stage_name: str, stage_span: Optional[Span]) -> None:
        """Point subsequent operations at the currently executing stage."""
        self.stage_name = stage_name
        self.stage_span = stage_span

    # -- worker-process spans (supervised backends) ------------------------------
    def _open_worker_span(
        self, *, task_id: str, worker: int, index: int, attempt: int
    ) -> Span:
        return self.telemetry.tracer.start_span(
            "worker.task",
            parent=self.stage_span,
            backend=self.inner.name,
            stage=self.stage_name,
            task_id=task_id,
            worker=worker,
            index=index,
            attempt=attempt,
        )

    def _close_worker_span(self, span: Span, error: Optional[str] = None) -> None:
        if error:
            self.telemetry.tracer.end_span(
                span, status=SpanStatus.ERROR, error=error
            )
        else:
            self.telemetry.tracer.end_span(span)

    # -- recording helpers -------------------------------------------------------
    def _labels(self, op: str) -> Dict[str, object]:
        return {
            "pipeline": self.pipeline,
            "stage": self.stage_name,
            "backend": self.inner.name,
            "op": op,
        }

    def _count(self, op: str, tasks: int) -> None:
        metrics = self.telemetry.metrics
        metrics.counter("backend_ops_total", **self._labels(op)).inc()
        metrics.counter("backend_tasks_total", **self._labels(op)).inc(tasks)

    # -- the backend protocol ----------------------------------------------------
    def map(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        *,
        weights: Optional[Sequence[float]] = None,
    ) -> List[Any]:
        items = list(items)
        self._count("map", len(items))
        tracer = self.telemetry.tracer
        with tracer.span(
            f"backend.map:{self.stage_name}",
            parent=self.stage_span,
            backend=self.inner.name,
            tasks=len(items),
        ) as op_span:

            def traced(item: Any) -> Any:
                # parent passed explicitly: worker threads have no ambient span
                with tracer.span(
                    "backend.task",
                    parent=op_span,
                    backend=self.inner.name,
                    stage=self.stage_name,
                    op="map",
                ):
                    return fn(item)

            return self.inner.map(traced, items, weights=weights)

    def map_batches(
        self,
        fn: Callable[[Sequence[Any]], Sequence[Any]],
        items: Sequence[Any],
        *,
        batch_size: Optional[int] = None,
        record_fn: Optional[Callable[[Any], Any]] = None,
        weights: Optional[Sequence[float]] = None,
    ) -> List[Any]:
        items = list(items)
        if batch_size:
            # logical batching telemetry: the slice grid is a pure
            # function of (len(items), batch_size), so these counts are
            # identical on every backend — parity extends to batching
            labels = {
                "pipeline": self.pipeline,
                "stage": self.stage_name,
                "backend": self.inner.name,
            }
            metrics = self.telemetry.metrics
            slices = batch_slices(len(items), int(batch_size))
            metrics.counter("stage_batches_total", **labels).inc(len(slices))
            histogram = metrics.histogram(
                "stage_batch_size", buckets=BATCH_SIZE_BUCKETS, **labels
            )
            for s in slices:
                histogram.observe(s.stop - s.start)
        # the base implementation routes through self.map either way, so
        # op/task spans and backend_*_total counters come along for free
        return super().map_batches(
            fn,
            items,
            batch_size=batch_size,
            record_fn=record_fn,
            weights=weights,
        )

    def stats(
        self, data: np.ndarray, *, partitions: int = DEFAULT_STATS_PARTITIONS
    ) -> "FeatureStats":
        # logical task count == partition grid, identical on every backend
        self._count("stats", partitions)
        with self.telemetry.tracer.span(
            f"backend.stats:{self.stage_name}",
            parent=self.stage_span,
            backend=self.inner.name,
            tasks=partitions,
            rows=int(np.asarray(data).shape[0]),
        ):
            return self.inner.stats(data, partitions=partitions)

    def shard_write(
        self,
        dataset: "Dataset",
        directory: Union[str, Path],
        splits: Dict[str, np.ndarray],
        *,
        shards_per_split: int = 4,
        codec_name: str = "raw",
        **options: Any,
    ) -> "ShardManifest":
        # logical task count == the global shard table every backend cuts
        n_shards = len(shard_table(splits, shards_per_split))
        self._count("shard_write", n_shards)
        with self.telemetry.tracer.span(
            f"backend.shard_write:{self.stage_name}",
            parent=self.stage_span,
            backend=self.inner.name,
            tasks=n_shards,
            codec=codec_name,
        ) as op_span:
            manifest = self.inner.shard_write(
                dataset, directory, splits,
                shards_per_split=shards_per_split, codec_name=codec_name, **options,
            )
            op_span.set_attributes(shards=manifest.n_shards, samples=manifest.n_samples)
            return manifest

    def describe(self) -> str:
        return f"{self.inner.describe()} [instrumented]"


class NullRecorder:
    """The recorder of an untraced run: every lifecycle moment is dropped.

    The backend is *not* wrapped, so with no Telemetry attached stages
    fan out through the bare backend — the untraced hot path.
    """

    #: the span of the stage most recently started (None when untraced)
    stage_span: Optional[Span] = None

    def wrap_backend(self, backend: ExecutionBackend) -> ExecutionBackend:
        return backend

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

    *backend* is the real (unwrapped) backend — its name labels the spans
    and its supervision tallies (``crash_events`` / ``worker_counters`` /
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
        self._instrumented: Optional[InstrumentedBackend] = None
        self._profiler = ResourceProfiler()
        #: where the open stage began in the injector log, the backend's
        #: crash log and its supervision counters
        self._marks: Tuple[int, int, Dict[str, int]] = (0, 0, {})

    def wrap_backend(self, backend: ExecutionBackend) -> ExecutionBackend:
        self._instrumented = proxy = InstrumentedBackend(
            backend, self.telemetry, pipeline=self.pipeline
        )
        # a supervising backend runs tasks in worker *processes*, where a
        # forked tracer's spans die with the worker: parent-side hooks make
        # each lease a real "worker.task" span under the live stage span
        self.backend.worker_span_hooks = (proxy._open_worker_span, proxy._close_worker_span)
        return proxy

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
                schedule_cluster=decision.cluster,
                schedule_hash=decision.content_hash()[:12],
            )

    def _run_completed(
        self, event: "RunEvent", *, results: Sequence[Any], restored: int, decision: Any,
        stage_errors: Mapping[str, float],
    ) -> None:
        if decision is not None:
            # the run's prediction error as first-class metrics
            executed = [r for r in results if not r.restored and not r.degraded]
            names = {r.stage_name for r in executed}
            predicted = sum(s for name, s in decision.predicted_stage_seconds if name in names)
            actual = sum(r.seconds for r in executed)
            error = abs(actual - predicted) / predicted if predicted > 0 else 0.0
            self._gauge("schedule_prediction_error", error)
            for stage_name, stage_error in stage_errors.items():
                self._gauge("schedule_prediction_error", stage_error, stage=stage_name)
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
        self._instrumented.activate_stage(stage.name, self.stage_span)
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

    def _stage_degraded(self, event: "RunEvent", *, error: str = "", **counts: int) -> None:
        if error:  # skipped under skip-degraded; a quarantine degrade's span already ended
            self._close_stage(error=error, degraded=True, **counts)
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


def recorder_for(
    telemetry: Optional["Telemetry"],
    pipeline: str,
    backend: ExecutionBackend,
    injector: Optional["FaultInjector"] = None,
) -> NullRecorder:
    """The recorder a run reports to: real with a Telemetry, a no-op without."""
    if telemetry is None:
        return NullRecorder()
    return RunRecorder(telemetry, pipeline, backend, injector)
