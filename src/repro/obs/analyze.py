"""Trace analysis: turn a raw trace into answers.

PR 2 gave the engine raw telemetry — spans, metrics, events on JSONL
sinks — but raw telemetry only *records*; it does not *answer*.  This
module is the question-answering layer on top of a trace directory:

* :func:`build_span_tree` — reconstruct the span forest from the flat
  ``spans.jsonl`` stream (each :class:`SpanNode` holds its children in
  start order);
* :func:`critical_path` — the chain of spans that determined the run's
  wall time: starting at the root, descend at every level into the child
  that *finished last* (the one the parent had to wait for), accumulating
  per-span self time (duration not explained by the critical child);
* :func:`stage_rollups` — per-stage wall/CPU/RSS/throughput totals plus
  backend-task distribution statistics: task count, mean/max task
  seconds, **skew** (max/mean — the classic straggler symptom) and a
  robust **straggler count** (tasks slower than ``median + 4·MAD``,
  with an absolute floor so microsecond jitter never flags);
* :func:`analyze_trace` — everything above bundled into a
  :class:`TraceReport`, a deterministic dataclass that round-trips to
  JSON byte-identically (sorted keys, values rounded to fixed
  precision, no wall-clock re-stamping).

The robust statistics cross-run regression diffing
(:mod:`repro.obs.history`) prices its comparisons through live here too:
:func:`median` and :func:`median_mad`.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.obs.metrics import Histogram
from repro.obs.sinks import read_trace

__all__ = [
    "TRACE_REPORT_SCHEMA",
    "SpanNode",
    "CriticalPathEntry",
    "StageRollup",
    "TraceReport",
    "build_span_tree",
    "critical_path",
    "stage_rollups",
    "analyze_trace",
    "trace_stage_seconds",
    "median",
    "median_mad",
]

#: bump when TraceReport's serialized shape changes
TRACE_REPORT_SCHEMA = 1

#: a task is a straggler when slower than median + this many MADs ...
STRAGGLER_MADS = 4.0
#: ... and slower than the median by at least this many seconds
#: (microsecond-scale jitter on tiny tasks must never flag)
STRAGGLER_FLOOR_S = 1e-3

#: fixed float precision of every serialized second/byte figure, so a
#: report built twice from one trace is byte-identical
_ROUND = 6


# ---------------------------------------------------------------------------
# robust statistics (the shared comparison codepath)
# ---------------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    """Plain median; 0.0 for an empty sequence."""
    ordered = sorted(float(v) for v in values)
    n = len(ordered)
    if n == 0:
        return 0.0
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def median_mad(values: Sequence[float]) -> Tuple[float, float]:
    """(median, median absolute deviation) — the robust centre and spread.

    MAD is preferred over the standard deviation for run timings because
    one cold-cache outlier run must not widen the band that later runs
    are judged against.
    """
    center = median(values)
    deviations = [abs(float(v) - center) for v in values]
    return center, median(deviations)


# ---------------------------------------------------------------------------
# span tree
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class SpanNode:
    """One span plus its children, reconstructed from the flat stream."""

    span: Dict[str, object]
    children: List["SpanNode"] = dataclasses.field(default_factory=list)

    @property
    def span_id(self) -> str:
        return str(self.span.get("span_id", ""))

    @property
    def name(self) -> str:
        return str(self.span.get("name", "?"))

    @property
    def start(self) -> float:
        return float(self.span.get("start") or 0.0)

    @property
    def end(self) -> float:
        end = self.span.get("end")
        if end is None:
            return self.start + self.duration_s
        return float(end)

    @property
    def duration_s(self) -> float:
        return float(self.span.get("duration_s") or 0.0)

    @property
    def status(self) -> str:
        return str(self.span.get("status", ""))

    @property
    def attributes(self) -> Dict[str, object]:
        attrs = self.span.get("attributes")
        return attrs if isinstance(attrs, dict) else {}

    def walk(self) -> List["SpanNode"]:
        """This node and every descendant, depth-first in start order."""
        out = [self]
        for child in self.children:
            out.extend(child.walk())
        return out


def build_span_tree(spans: Sequence[Mapping[str, object]]) -> List[SpanNode]:
    """Reconstruct the span forest; returns the roots in start order.

    Spans whose parent is missing from the stream (torn trace, partial
    export) become roots rather than being dropped — an analysis must
    degrade, not crash, on a crashed run's trace.
    """
    nodes = {str(s.get("span_id", "")): SpanNode(dict(s)) for s in spans}
    roots: List[SpanNode] = []
    for node in nodes.values():
        parent_id = node.span.get("parent_id")
        parent = nodes.get(str(parent_id)) if parent_id else None
        if parent is not None and parent is not node:
            parent.children.append(node)
        else:
            roots.append(node)
    order_key = lambda n: (n.start, n.span_id)  # noqa: E731
    for node in nodes.values():
        node.children.sort(key=order_key)
    roots.sort(key=order_key)
    return roots


# ---------------------------------------------------------------------------
# critical path
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class CriticalPathEntry:
    """One span on the chain that determined the run's wall time."""

    name: str
    span_id: str
    depth: int
    duration_s: float
    #: duration not explained by this span's critical child — the time
    #: this span itself was the reason the run was still going
    self_s: float
    status: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "depth": self.depth,
            "duration_s": round(self.duration_s, _ROUND),
            "self_s": round(self.self_s, _ROUND),
            "status": self.status,
        }


def critical_path(root: SpanNode) -> List[CriticalPathEntry]:
    """The last-finishing chain from *root* down to a leaf.

    At every level the critical child is the one that **ended last** —
    the child the parent had to wait for before it could close.  Ties
    break on latest start, then span id, so the path is deterministic
    for any input ordering.  A span's self time is its duration minus
    its critical child's duration (clamped at zero): the share of the
    wall clock attributable to the span's own work or scheduling gaps.
    """
    path: List[CriticalPathEntry] = []
    node: Optional[SpanNode] = root
    depth = 0
    while node is not None:
        ended = [c for c in node.children if c.duration_s > 0 or c.span.get("end")]
        critical_child: Optional[SpanNode] = None
        if ended:
            critical_child = max(ended, key=lambda c: (c.end, c.start, c.span_id))
        child_s = critical_child.duration_s if critical_child is not None else 0.0
        path.append(
            CriticalPathEntry(
                name=node.name,
                span_id=node.span_id,
                depth=depth,
                duration_s=node.duration_s,
                self_s=max(node.duration_s - child_s, 0.0),
                status=node.status,
            )
        )
        node = critical_child
        depth += 1
    return path


# ---------------------------------------------------------------------------
# per-stage rollups
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class StageRollup:
    """Everything one stage cost, with its task distribution."""

    stage: str
    index: int
    wall_s: float
    cpu_s: float
    max_rss_bytes: int
    items: int
    nbytes: int
    items_per_s: float
    status: str
    #: fanned-out backend tasks under this stage (logical == physical here:
    #: every task span is one executed task)
    task_count: int
    task_mean_s: float
    task_max_s: float
    #: max/mean task seconds — 1.0 is perfect balance; large values mean
    #: one task dominated the fan-out (the straggler symptom)
    task_skew: float
    #: tasks slower than median + 4 MAD (and an absolute floor)
    stragglers: int
    #: p50/p95/p99 of the stage_seconds histogram (0.0 when no histogram)
    p50_s: float = 0.0
    p95_s: float = 0.0
    p99_s: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "stage": self.stage,
            "index": self.index,
            "wall_s": round(self.wall_s, _ROUND),
            "cpu_s": round(self.cpu_s, _ROUND),
            "max_rss_bytes": int(self.max_rss_bytes),
            "items": int(self.items),
            "nbytes": int(self.nbytes),
            "items_per_s": round(self.items_per_s, _ROUND),
            "status": self.status,
            "task_count": int(self.task_count),
            "task_mean_s": round(self.task_mean_s, _ROUND),
            "task_max_s": round(self.task_max_s, _ROUND),
            "task_skew": round(self.task_skew, _ROUND),
            "stragglers": int(self.stragglers),
            "p50_s": round(self.p50_s, _ROUND),
            "p95_s": round(self.p95_s, _ROUND),
            "p99_s": round(self.p99_s, _ROUND),
        }

    @classmethod
    def from_dict(cls, row: Mapping[str, object]) -> "StageRollup":
        return cls(
            stage=str(row["stage"]),
            index=int(row.get("index", 0)),  # type: ignore[arg-type]
            wall_s=float(row.get("wall_s", 0.0)),  # type: ignore[arg-type]
            cpu_s=float(row.get("cpu_s", 0.0)),  # type: ignore[arg-type]
            max_rss_bytes=int(row.get("max_rss_bytes", 0)),  # type: ignore[arg-type]
            items=int(row.get("items", 0)),  # type: ignore[arg-type]
            nbytes=int(row.get("nbytes", 0)),  # type: ignore[arg-type]
            items_per_s=float(row.get("items_per_s", 0.0)),  # type: ignore[arg-type]
            status=str(row.get("status", "")),
            task_count=int(row.get("task_count", 0)),  # type: ignore[arg-type]
            task_mean_s=float(row.get("task_mean_s", 0.0)),  # type: ignore[arg-type]
            task_max_s=float(row.get("task_max_s", 0.0)),  # type: ignore[arg-type]
            task_skew=float(row.get("task_skew", 0.0)),  # type: ignore[arg-type]
            stragglers=int(row.get("stragglers", 0)),  # type: ignore[arg-type]
            p50_s=float(row.get("p50_s", 0.0)),  # type: ignore[arg-type]
            p95_s=float(row.get("p95_s", 0.0)),  # type: ignore[arg-type]
            p99_s=float(row.get("p99_s", 0.0)),  # type: ignore[arg-type]
        )


def _stage_histograms(
    metrics: Sequence[Mapping[str, object]],
) -> Dict[str, Histogram]:
    """Rebuild the per-stage ``stage_seconds`` histograms from a snapshot."""
    out: Dict[str, Histogram] = {}
    for row in metrics:
        if row.get("name") != "stage_seconds" or row.get("kind") != "histogram":
            continue
        labels = row.get("labels") or {}
        stage = str(labels.get("stage", "")) if isinstance(labels, dict) else ""
        buckets = row.get("buckets")
        counts = row.get("counts")
        if not stage or not isinstance(buckets, list) or not isinstance(counts, list):
            continue
        hist = Histogram(buckets)
        if len(counts) != len(hist.counts):
            continue
        hist.counts = [int(c) for c in counts]
        hist.count = int(row.get("count") or 0)
        hist.sum = float(row.get("sum") or 0.0)
        low, high = row.get("min"), row.get("max")
        hist.min = float(low) if low is not None else math.inf
        hist.max = float(high) if high is not None else -math.inf
        if stage in out and out[stage].buckets == hist.buckets:
            out[stage].merge(hist)
        else:
            out[stage] = hist
    return out


def trace_stage_seconds(metrics: Sequence[Mapping[str, object]]) -> Dict[str, float]:
    """Stage name -> engine seconds (``StageResult.seconds``, what a
    ledger row files); span wall also holds the runner's bookkeeping."""
    return {stage: hist.sum for stage, hist in _stage_histograms(metrics).items()}


def stage_rollups(
    roots: Sequence[SpanNode],
    metrics: Sequence[Mapping[str, object]] = (),
) -> List[StageRollup]:
    """Per-stage cost and task-distribution rows, in execution order."""
    histograms = _stage_histograms(metrics)
    rollups: List[StageRollup] = []
    stage_nodes = [
        node
        for root in roots
        for node in root.walk()
        if node.name.startswith("stage:")
    ]
    stage_nodes.sort(key=lambda n: (n.start, n.span_id))
    for node in stage_nodes:
        attrs = node.attributes
        tasks = [
            d.duration_s for d in node.walk() if d.name == "backend.task"
        ]
        task_count = len(tasks)
        task_mean = sum(tasks) / task_count if task_count else 0.0
        task_max = max(tasks) if tasks else 0.0
        skew = (task_max / task_mean) if task_mean > 0 else 0.0
        stragglers = 0
        if task_count >= 3:
            center, mad = median_mad(tasks)
            limit = center + max(STRAGGLER_MADS * mad, STRAGGLER_FLOOR_S)
            stragglers = sum(1 for t in tasks if t > limit)
        stage = str(attrs.get("stage", node.name[len("stage:"):]))
        hist = histograms.get(stage)
        rollups.append(
            StageRollup(
                stage=stage,
                index=int(attrs.get("index", len(rollups))),  # type: ignore[arg-type]
                wall_s=node.duration_s,
                cpu_s=float(attrs.get("cpu_s") or 0.0),  # type: ignore[arg-type]
                max_rss_bytes=int(attrs.get("max_rss_bytes") or 0),  # type: ignore[arg-type]
                items=int(attrs.get("items") or 0),  # type: ignore[arg-type]
                nbytes=int(attrs.get("bytes") or 0),  # type: ignore[arg-type]
                items_per_s=float(attrs.get("items_per_s") or 0.0),  # type: ignore[arg-type]
                status=node.status,
                task_count=task_count,
                task_mean_s=task_mean,
                task_max_s=task_max,
                task_skew=skew,
                stragglers=stragglers,
                p50_s=hist.quantile(0.50) if hist is not None else 0.0,
                p95_s=hist.quantile(0.95) if hist is not None else 0.0,
                p99_s=hist.quantile(0.99) if hist is not None else 0.0,
            )
        )
    return rollups


# ---------------------------------------------------------------------------
# the report
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class TraceReport:
    """Deterministic analysis of one trace directory.

    Built from recorded telemetry only — never from the current clock —
    so analysing the same trace twice yields byte-identical JSON.
    """

    pipeline: str
    backend: str
    status: str
    total_wall_s: float
    n_spans: int
    n_tasks: int
    trace_ids: Tuple[str, ...]
    stages: Tuple[StageRollup, ...]
    critical_path: Tuple[CriticalPathEntry, ...]

    @property
    def stage_seconds(self) -> Dict[str, float]:
        """Stage name -> wall seconds (the cross-run diff currency)."""
        return {r.stage: r.wall_s for r in self.stages}

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": TRACE_REPORT_SCHEMA,
            "pipeline": self.pipeline,
            "backend": self.backend,
            "status": self.status,
            "total_wall_s": round(self.total_wall_s, _ROUND),
            "n_spans": self.n_spans,
            "n_tasks": self.n_tasks,
            "trace_ids": list(self.trace_ids),
            "stages": [r.to_dict() for r in self.stages],
            "critical_path": [e.to_dict() for e in self.critical_path],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, row: Mapping[str, object]) -> "TraceReport":
        return cls(
            pipeline=str(row.get("pipeline", "")),
            backend=str(row.get("backend", "")),
            status=str(row.get("status", "")),
            total_wall_s=float(row.get("total_wall_s", 0.0)),  # type: ignore[arg-type]
            n_spans=int(row.get("n_spans", 0)),  # type: ignore[arg-type]
            n_tasks=int(row.get("n_tasks", 0)),  # type: ignore[arg-type]
            trace_ids=tuple(str(t) for t in row.get("trace_ids", ())),  # type: ignore[union-attr]
            stages=tuple(
                StageRollup.from_dict(r) for r in row.get("stages", ())  # type: ignore[union-attr]
            ),
            critical_path=tuple(
                CriticalPathEntry(
                    name=str(e["name"]),
                    span_id=str(e.get("span_id", "")),
                    depth=int(e.get("depth", 0)),
                    duration_s=float(e.get("duration_s", 0.0)),
                    self_s=float(e.get("self_s", 0.0)),
                    status=str(e.get("status", "")),
                )
                for e in row.get("critical_path", ())  # type: ignore[union-attr]
            ),
        )

    # -- rendering -------------------------------------------------------------
    def render_critical_path(self) -> str:
        """Indented text view of the critical path with self-time shares."""
        from repro.core.report import render_table

        total = self.total_wall_s or sum(e.self_s for e in self.critical_path)
        rows = []
        for e in self.critical_path:
            share = (e.self_s / total) if total > 0 else 0.0
            rows.append(
                (
                    "  " * e.depth + e.name,
                    f"{e.duration_s:.4f}",
                    f"{e.self_s:.4f}",
                    f"{share:.0%}",
                    e.status,
                )
            )
        return render_table(
            ["span", "total s", "self s", "share", "status"],
            rows,
            align_right=[False, True, True, True, False],
        )

    def render_stages(self) -> str:
        """Per-stage rollup table (wall, cpu, tasks, skew, stragglers)."""
        from repro.core.report import format_bytes, render_table

        rows = []
        for r in self.stages:
            rows.append(
                (
                    r.stage,
                    f"{r.wall_s:.4f}",
                    f"{r.cpu_s:.4f}",
                    format_bytes(float(r.max_rss_bytes)) if r.max_rss_bytes else "",
                    r.items or "",
                    r.task_count or "",
                    f"{r.task_skew:.2f}" if r.task_count else "",
                    r.stragglers or "",
                    r.status,
                )
            )
        return render_table(
            [
                "stage",
                "wall s",
                "cpu s",
                "max rss",
                "items",
                "tasks",
                "skew",
                "stragglers",
                "status",
            ],
            rows,
            align_right=[False, True, True, True, True, True, True, True, False],
        )


def analyze_trace(
    trace: Union[str, Path, Mapping[str, Sequence[Mapping[str, object]]]],
) -> TraceReport:
    """Analyze a trace directory (or pre-read trace dict) into a report.

    Raises :class:`ValueError` when the trace holds no spans — callers
    (the CLI) turn that into a friendly error.
    """
    if isinstance(trace, (str, Path)):
        trace = read_trace(trace)
    spans = list(trace.get("spans", ()))
    metrics = list(trace.get("metrics", ()))
    if not spans:
        raise ValueError("trace holds no spans")
    roots = build_span_tree(spans)
    run_roots = [r for r in roots if r.name.startswith("run:")]
    primary = run_roots[0] if run_roots else roots[0]
    rollups = stage_rollups(roots, metrics)
    path = critical_path(primary)
    attrs = primary.attributes
    n_tasks = sum(
        1 for root in roots for n in root.walk() if n.name == "backend.task"
    )
    return TraceReport(
        pipeline=str(attrs.get("pipeline", primary.name.split(":", 1)[-1])),
        backend=str(attrs.get("backend", "")),
        status=primary.status,
        total_wall_s=primary.duration_s,
        n_spans=len(spans),
        n_tasks=n_tasks,
        trace_ids=tuple(sorted({str(s.get("trace_id", "")) for s in spans})),
        stages=tuple(rollups),
        critical_path=tuple(path),
    )
