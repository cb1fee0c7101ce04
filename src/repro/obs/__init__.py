"""Observability: spans, metrics, resource profiling, and sinks.

The telemetry layer of the pipeline engine (see DESIGN.md,
"Observability").  A :class:`Telemetry` object bundles the three
collectors one run shares:

* :class:`~repro.obs.tracing.Tracer` — hierarchical spans
  (run → stage → backend op → task);
* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges, and
  mergeable histograms (stage durations, task counts, throughput);
* :mod:`~repro.obs.resources` — RSS/CPU deltas and payload IO sizes.

Collected telemetry exports to any :class:`~repro.obs.sinks.TelemetrySink`
(JSONL trace directories for the CLI, in-memory for tests) in one stable,
schema-versioned record format.

On top of that raw substrate sits the analytics layer:

* :mod:`~repro.obs.analyze` — span-tree reconstruction, critical path,
  per-stage rollups with straggler detection, and the deterministic
  :class:`TraceReport`;
* :mod:`~repro.obs.history` — robust cross-run regression diffing
  (:func:`diff_stage_seconds`) of a trace's engine stage seconds against
  the ledger's earlier runs (:mod:`repro.sched.ledger`);
* :mod:`~repro.obs.progress` — the thread-safe :class:`ProgressReporter`
  behind ``run --progress``;
* :mod:`~repro.obs.export` — Chrome/Perfetto ``trace_event`` and
  Prometheus text-exposition exporters.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.analyze import (
    CriticalPathEntry,
    SpanNode,
    StageRollup,
    TraceReport,
    analyze_trace,
    build_span_tree,
    critical_path,
    median,
    median_mad,
    stage_rollups,
    trace_stage_seconds,
)
from repro.obs.export import (
    to_chrome_trace,
    to_prometheus_text,
    write_chrome_trace,
    write_prometheus_text,
)
from repro.obs.history import (
    RunDiff,
    StageDiff,
    diff_stage_seconds,
    regression_limit,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.progress import ProgressReporter, ProgressSnapshot, ProgressTicker
from repro.obs.resources import (
    ResourceDelta,
    ResourceProfiler,
    ResourceSample,
    payload_items,
    payload_nbytes,
    sample_resources,
    throughput,
)
from repro.obs.sinks import (
    SCHEMA_VERSION,
    InMemorySink,
    JsonlTelemetrySink,
    TelemetrySink,
    read_jsonl,
    read_trace,
    write_jsonl,
)
from repro.obs.tracing import Span, SpanStatus, Tracer

__all__ = [
    "Telemetry",
    "Tracer",
    "Span",
    "SpanStatus",
    # analysis
    "SpanNode",
    "CriticalPathEntry",
    "StageRollup",
    "TraceReport",
    "build_span_tree",
    "critical_path",
    "stage_rollups",
    "analyze_trace",
    "median",
    "median_mad",
    # history
    "StageDiff",
    "RunDiff",
    "regression_limit",
    "trace_stage_seconds",
    "diff_stage_seconds",
    # progress
    "ProgressReporter",
    "ProgressSnapshot",
    "ProgressTicker",
    # export
    "to_chrome_trace",
    "write_chrome_trace",
    "to_prometheus_text",
    "write_prometheus_text",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
    "ResourceProfiler",
    "ResourceSample",
    "ResourceDelta",
    "sample_resources",
    "payload_items",
    "payload_nbytes",
    "throughput",
    "TelemetrySink",
    "InMemorySink",
    "JsonlTelemetrySink",
    "SCHEMA_VERSION",
    "read_jsonl",
    "read_trace",
    "write_jsonl",
]


class Telemetry:
    """One run's telemetry: a tracer plus a metrics registry.

    Pass an instance to :class:`~repro.core.runner.PipelineRunner` (or
    ``Pipeline.run(telemetry=...)`` / ``DomainArchetype.run(telemetry=...)``)
    and every layer of the engine records into it; afterwards
    :meth:`export` writes its spans and metrics to a sink.
    """

    def __init__(self, *, tracer: Optional[Tracer] = None):
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = MetricsRegistry()

    def export(self, sink: TelemetrySink) -> TelemetrySink:
        """Emit all spans and a metrics snapshot, then close the sink."""
        for span in self.tracer.spans():
            sink.emit_span(span.to_dict())
        for metric in self.metrics.snapshot():
            sink.emit_metric(metric)
        sink.close()
        return sink
