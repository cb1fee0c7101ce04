"""Live progress: event folding, ETA, backend-parity task counts, ticker."""

import io

import numpy as np
import pytest

from repro.core.levels import DataProcessingStage
from repro.core.plan import PipelineStage, StagePlan
from repro.core.runner import PipelineRunner
from repro.core.runner import RunEvent, RunEventKind
from repro.obs import ProgressReporter, ProgressTicker, Telemetry

S = DataProcessingStage

BACKEND_NAMES = ["serial", "threaded", "simspmd"]


def event(kind, stage=None, index=None, seconds=0.0, ts=0.0):
    return RunEvent(
        kind=RunEventKind(kind),
        pipeline="p",
        stage_name=stage,
        stage_index=index,
        seconds=seconds,
        timestamp=ts,
    )


def reporter_of(stages, **options):
    """A reporter whose telemetry holds a run span of *stages* stages, as a run's does."""
    telemetry = Telemetry()
    telemetry.tracer.start_span("run:p", stages=stages)
    return ProgressReporter(telemetry, **options)


def fan_plan(n_map_items=6):
    def fan(payload, ctx):
        ctx.backend.map(lambda i: i * 2, list(range(n_map_items)))
        return payload

    return StagePlan.build("p", [
        PipelineStage("fan", S.INGEST, fan),
        PipelineStage("double", S.TRANSFORM, lambda p, ctx: p * 2),
    ])


class TestEventFolding:
    def test_stage_transitions(self):
        reporter = ProgressReporter()
        reporter.on_event(event("run-started", ts=100.0))
        reporter.on_event(event("stage-started", stage="a", index=0))
        snap = reporter.snapshot()
        assert snap.status == "running"
        assert snap.stage == "a"
        assert snap.stages_done == 0
        reporter.on_event(event("stage-completed", stage="a", index=0, seconds=2.0))
        reporter.on_event(event("stage-started", stage="b", index=1))
        snap = reporter.snapshot()
        assert snap.stages_done == 1
        assert snap.stage == "b"
        reporter.on_event(event("stage-completed", stage="b", index=1, seconds=1.0))
        reporter.on_event(event("run-completed", ts=103.0))
        snap = reporter.snapshot()
        assert snap.status == "completed"
        assert snap.stages_done == 2
        assert snap.elapsed_s == pytest.approx(3.0)
        assert snap.eta_s is None

    def test_failed_run(self):
        reporter = ProgressReporter()
        reporter.on_event(event("run-started", ts=1.0))
        reporter.on_event(event("stage-started", stage="a", index=0))
        reporter.on_event(event("run-failed", ts=2.0))
        assert reporter.snapshot().status == "failed"

    def test_elapsed_uses_injected_clock_while_running(self):
        now = [100.0]
        reporter = ProgressReporter(clock=lambda: now[0])
        reporter.on_event(event("run-started", ts=100.0))
        now[0] = 107.5
        assert reporter.snapshot().elapsed_s == pytest.approx(7.5)


class TestEta:
    def test_extrapolates_from_completed_stages(self):
        now = [0.0]
        reporter = reporter_of(4, clock=lambda: now[0])
        reporter.on_event(event("run-started", ts=0.0))
        reporter.on_event(event("stage-completed", stage="a", seconds=2.0))
        reporter.on_event(event("stage-completed", stage="b", seconds=2.0))
        now[0] = 4.0
        snap = reporter.snapshot()
        # 2 of 4 stages in 4s -> 2 remaining at 2s each
        assert snap.eta_s == pytest.approx(4.0)
        assert snap.fraction == pytest.approx(0.5)

    def test_no_eta_before_any_signal(self):
        reporter = ProgressReporter()
        reporter.on_event(event("run-started", ts=0.0))
        assert reporter.snapshot().eta_s is None


class TestBackendParityTaskCounts:
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_tasks_done_matches_logical_totals(self, backend):
        telemetry = Telemetry()
        reporter = ProgressReporter(telemetry)
        run = PipelineRunner(
            fan_plan(), backend=backend, telemetry=telemetry,
            on_event=reporter.on_event,
        ).run(np.ones(4))
        assert run.results[-1].items == 4
        snap = reporter.snapshot()
        logical = sum(
            float(row.get("value") or 0.0)
            for row in telemetry.metrics.snapshot()
            if row.get("name") == "backend_tasks_total"
        )
        assert snap.tasks_done == int(logical)
        assert snap.status == "completed"
        assert snap.stages_done == 2

    def test_identical_counts_across_backends(self):
        counts = {}
        for backend in BACKEND_NAMES:
            telemetry = Telemetry()
            reporter = ProgressReporter(telemetry)
            PipelineRunner(
                fan_plan(), backend=backend, telemetry=telemetry,
                on_event=reporter.on_event,
            ).run(np.ones(4))
            counts[backend] = reporter.snapshot().tasks_done
        assert len(set(counts.values())) == 1, counts

    def test_stages_total_read_from_run_span(self):
        telemetry = Telemetry()
        reporter = ProgressReporter(telemetry)
        PipelineRunner(
            fan_plan(), telemetry=telemetry, on_event=reporter.on_event
        ).run(np.ones(4))
        snap = reporter.snapshot()
        assert snap.stages_total == 2
        assert snap.fraction == pytest.approx(1.0)


class TestRender:
    def test_render_line(self):
        reporter = reporter_of(3)
        reporter.on_event(event("run-started", ts=0.0))
        reporter.on_event(event("stage-started", stage="fan", index=0))
        line = reporter.snapshot().render()
        assert "[0/3]" in line
        assert "fan" in line
        assert "tasks=0" in line

    def test_snapshot_to_dict(self):
        reporter = reporter_of(2)
        reporter.on_event(event("run-started", ts=0.0))
        d = reporter.snapshot().to_dict()
        assert d["status"] == "running"
        assert d["stages_total"] == 2


class TestTicker:
    def test_ticker_emits_progress_lines(self):
        reporter = reporter_of(1, clock=lambda: 0.0)
        reporter.on_event(event("run-started", ts=0.0))
        stream = io.StringIO()
        with ProgressTicker(reporter, stream=stream):
            reporter.on_event(event("stage-completed", stage="a", seconds=1.0))
            reporter.on_event(event("run-completed", ts=1.0))
        out = stream.getvalue()
        assert "progress:" in out
        assert "completed" in out

    def test_stop_is_idempotent(self):
        reporter = ProgressReporter()
        ticker = ProgressTicker(reporter, stream=io.StringIO())
        ticker.start()
        ticker.stop()
        ticker.stop()
