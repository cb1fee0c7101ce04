"""Trace analysis: span trees, critical path, rollups, report determinism."""

import json

import numpy as np
import pytest

from repro.core.levels import DataProcessingStage
from repro.core.plan import PipelineStage, StagePlan
from repro.core.runner import PipelineRunner
from repro.obs import InMemorySink, Telemetry
from repro.obs.sinks import envelope
from repro.obs.analyze import (
    TraceReport,
    analyze_trace,
    build_span_tree,
    critical_path,
    median,
    median_mad,
    stage_rollups,
)

S = DataProcessingStage


def span(name, span_id, start, end, parent=None, status="ok", attrs=None):
    return {
        "name": name,
        "span_id": span_id,
        "trace_id": "t1",
        "parent_id": parent,
        "start": start,
        "end": end,
        "duration_s": end - start,
        "status": status,
        "attributes": attrs or {},
        "events": [],
    }


def ana_plan(n_map_items):
    """A two-stage plan whose first stage fans out *n_map_items* tasks."""

    def fan(payload, ctx):
        ctx.backend.map(lambda i: i * 2, list(range(n_map_items)))
        return payload

    return StagePlan.build("ana", [
        PipelineStage("fan", S.INGEST, fan),
        PipelineStage("double", S.TRANSFORM, lambda p, ctx: p * 2),
    ])


def traced_run(tmp_path, n_map_items=8):
    """A real telemetered run whose trace holds stage + backend.task spans."""
    telemetry = Telemetry()
    run = PipelineRunner(ana_plan(n_map_items), telemetry=telemetry).run(np.ones(4))
    sink = InMemorySink()
    for event in run.events:
        sink.emit(envelope("event", event.to_dict()))
    telemetry.export(sink)
    return {"spans": sink.spans, "metrics": sink.metrics, "events": sink.events}


class TestRobustStats:
    def test_median(self):
        assert median([]) == 0.0
        assert median([3.0]) == 3.0
        assert median([1.0, 9.0, 2.0]) == 2.0
        assert median([1.0, 2.0, 3.0, 4.0]) == 2.5

    def test_median_mad_outlier_resistant(self):
        center, mad = median_mad([1.0, 1.0, 1.0, 1.0, 100.0])
        assert center == 1.0
        assert mad == 0.0
        center, mad = median_mad([1.0, 2.0, 3.0, 4.0, 100.0])
        assert center == 3.0
        assert mad == 1.0


class TestBuildSpanTree:
    def test_parent_child_links(self):
        spans = [
            span("run:p", "s1", 0.0, 10.0),
            span("stage:a", "s2", 0.0, 4.0, parent="s1"),
            span("stage:b", "s3", 4.0, 10.0, parent="s1"),
        ]
        roots = build_span_tree(spans)
        assert [r.name for r in roots] == ["run:p"]
        assert [c.name for c in roots[0].children] == ["stage:a", "stage:b"]

    def test_orphans_become_roots(self):
        spans = [span("stage:x", "s9", 1.0, 2.0, parent="missing")]
        roots = build_span_tree(spans)
        assert [r.name for r in roots] == ["stage:x"]

    def test_children_sorted_by_start_then_id(self):
        spans = [
            span("run:p", "s1", 0.0, 10.0),
            span("late", "s3", 5.0, 6.0, parent="s1"),
            span("early", "s2", 1.0, 2.0, parent="s1"),
            span("tie-b", "s5", 5.0, 6.0, parent="s1"),
        ]
        (root,) = build_span_tree(spans)
        assert [c.name for c in root.children] == ["early", "late", "tie-b"]


class TestCriticalPath:
    def test_descends_into_last_finishing_child(self):
        spans = [
            span("run:p", "s1", 0.0, 10.0),
            span("stage:a", "s2", 0.0, 4.0, parent="s1"),
            span("stage:b", "s3", 2.0, 9.0, parent="s1"),
            span("task", "s4", 2.0, 8.0, parent="s3"),
        ]
        (root,) = build_span_tree(spans)
        path = critical_path(root)
        assert [e.name for e in path] == ["run:p", "stage:b", "task"]
        assert [e.depth for e in path] == [0, 1, 2]
        # self time = duration minus critical child's duration
        assert path[0].self_s == pytest.approx(10.0 - 7.0)
        assert path[1].self_s == pytest.approx(7.0 - 6.0)
        assert path[2].self_s == pytest.approx(6.0)

    def test_tie_breaks_deterministically_on_span_id(self):
        spans = [
            span("run:p", "s1", 0.0, 5.0),
            span("x", "s2", 0.0, 5.0, parent="s1"),
            span("y", "s3", 0.0, 5.0, parent="s1"),
        ]
        (root,) = build_span_tree(spans)
        assert [e.name for e in critical_path(root)] == ["run:p", "y"]


class TestStageRollups:
    def stage_with_tasks(self, durations):
        spans = [span("run:p", "s1", 0.0, 100.0)]
        spans.append(
            span("stage:fan", "s2", 0.0, 50.0, parent="s1",
                 attrs={"stage": "fan", "index": 0, "items": 4, "cpu_s": 1.5})
        )
        t = 0.0
        for i, d in enumerate(durations):
            spans.append(
                span("backend.task", f"t{i:03d}", t, t + d, parent="s2")
            )
            t += d
        return build_span_tree(spans)

    def test_task_distribution_and_skew(self):
        roots = self.stage_with_tasks([1.0, 1.0, 1.0, 5.0])
        (rollup,) = stage_rollups(roots)
        assert rollup.stage == "fan"
        assert rollup.task_count == 4
        assert rollup.task_max_s == pytest.approx(5.0)
        assert rollup.task_skew == pytest.approx(5.0 / 2.0)
        assert rollup.cpu_s == pytest.approx(1.5)

    def test_straggler_detection(self):
        roots = self.stage_with_tasks([1.0, 1.0, 1.0, 1.0, 8.0])
        (rollup,) = stage_rollups(roots)
        assert rollup.stragglers == 1

    def test_balanced_tasks_have_no_stragglers(self):
        roots = self.stage_with_tasks([1.0, 1.0, 1.0, 1.0])
        (rollup,) = stage_rollups(roots)
        assert rollup.stragglers == 0

    def test_microsecond_jitter_never_flags(self):
        roots = self.stage_with_tasks([0.0010, 0.0010, 0.0010, 0.0015])
        (rollup,) = stage_rollups(roots)
        assert rollup.stragglers == 0


class TestAnalyzeTrace:
    def test_empty_trace_raises(self):
        with pytest.raises(ValueError):
            analyze_trace({"spans": [], "metrics": [], "events": []})

    def test_real_run_report(self, tmp_path):
        trace = traced_run(tmp_path)
        report = analyze_trace(trace)
        assert report.pipeline == "ana"
        assert report.status == "ok"
        assert [r.stage for r in report.stages] == ["fan", "double"]
        assert report.n_tasks >= 1
        assert report.critical_path[0].name == "run:ana"
        assert report.total_wall_s > 0
        # p50/p95 come from the stage_seconds histograms
        assert all(r.p95_s >= r.p50_s >= 0 for r in report.stages)

    def test_report_is_deterministic(self, tmp_path):
        trace = traced_run(tmp_path)
        a = analyze_trace(trace).to_json()
        b = analyze_trace(trace).to_json()
        assert a == b

    def test_report_round_trips_through_json(self, tmp_path):
        trace = traced_run(tmp_path)
        report = analyze_trace(trace)
        restored = TraceReport.from_dict(json.loads(report.to_json()))
        assert restored.to_json() == report.to_json()

    def test_renders(self, tmp_path):
        report = analyze_trace(traced_run(tmp_path))
        crit = report.render_critical_path()
        assert "run:ana" in crit
        stages = report.render_stages()
        assert "fan" in stages and "stragglers" in stages

    def test_stage_seconds_property(self, tmp_path):
        report = analyze_trace(traced_run(tmp_path))
        seconds = report.stage_seconds
        assert set(seconds) == {"fan", "double"}
        assert all(v > 0 for v in seconds.values())
