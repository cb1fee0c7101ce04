"""Runner telemetry: span trees, failure paths, clock injection, parity."""

import numpy as np
import pytest

from repro.core.dataset import Dataset, DatasetMetadata, FieldSpec, Schema
from repro.core.levels import DataProcessingStage
from repro.core.plan import PipelineError, PipelineStage, StagePlan, fingerprint_payload
from repro.core.runner import PipelineRunner
from repro.obs import Telemetry
from repro.obs.tracing import SpanStatus, Tracer

S = DataProcessingStage

BACKEND_NAMES = ["serial", "threaded", "simspmd"]


class FakeClock:
    def __init__(self, start=1000.0, step=1.0):
        self.now = start
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


def make_dataset(n=24, seed=3):
    rng = np.random.default_rng(seed)
    return Dataset(
        {"x": rng.normal(size=n), "y": rng.normal(size=n)},
        Schema([
            FieldSpec("x", np.dtype(np.float64)),
            FieldSpec("y", np.dtype(np.float64)),
        ]),
        DatasetMetadata(name="telemetry-test", domain="test"),
    )


def backend_plan(tmp_path, n_map_items=6):
    """A plan exercising all three backend operations (map/stats/shard_write)."""

    def fan(ds, ctx):
        ctx.backend.map(lambda i: i * 2, list(range(n_map_items)))
        return ds

    def summarize(ds, ctx):
        ctx.backend.stats(np.stack([ds["x"], ds["y"]], axis=1))
        return ds

    def shard(ds, ctx):
        n = ds.n_samples
        splits = {"train": np.arange(0, n - 8), "val": np.arange(n - 8, n)}
        ctx.backend.shard_write(ds, tmp_path / "shards", splits, shards_per_split=2)
        return ds

    return StagePlan.build("obs-test", [
        PipelineStage("fan", S.INGEST, fan),
        PipelineStage("summarize", S.PREPROCESS, summarize),
        PipelineStage("shard", S.SHARD, shard),
    ])


def simple_plan(name="p"):
    return StagePlan.build(name, [
        PipelineStage("a", S.INGEST, lambda p, ctx: p * 2),
        PipelineStage("b", S.TRANSFORM, lambda p, ctx: p + 1),
    ])


class TestSpanTree:
    def test_run_root_and_stage_children(self):
        telemetry = Telemetry()
        runner = PipelineRunner(simple_plan(), telemetry=telemetry)
        run = runner.run(np.ones(4))
        spans = telemetry.tracer.spans()
        (root,) = [s for s in spans if s.name == "run:p"]
        assert root.parent_id is None
        assert root.status is SpanStatus.OK
        assert root.attributes["stages"] == 2
        stage_spans = [s for s in spans if s.name.startswith("stage:")]
        assert [s.name for s in stage_spans] == ["stage:a", "stage:b"]
        for span in stage_spans:
            assert span.parent_id == root.span_id
            assert span.status is SpanStatus.OK
            assert span.duration_s > 0
            assert span.attributes["items"] == 4
            assert span.attributes["bytes"] > 0
            assert span.attributes["items_per_s"] > 0
            assert "cpu_s" in span.attributes
            assert "max_rss_bytes" in span.attributes
        assert run.results[-1].items == 4
        assert run.results[-1].nbytes > 0

    def test_stage_metrics_recorded(self):
        telemetry = Telemetry()
        PipelineRunner(simple_plan(), telemetry=telemetry).run(np.ones(4))
        metrics = telemetry.metrics
        for stage in ("a", "b"):
            hist = metrics.get("stage_seconds", pipeline="p", stage=stage)
            assert hist.count == 1
            assert hist.sum > 0
            assert metrics.value("stage_items_total", pipeline="p", stage=stage) == 4
            assert metrics.value("stage_bytes_total", pipeline="p", stage=stage) > 0
        assert metrics.value("runs_total", pipeline="p", status="ok") == 1

    def test_backend_ops_are_grandchild_spans(self, tmp_path):
        telemetry = Telemetry()
        runner = PipelineRunner(
            backend_plan(tmp_path), backend="threaded", telemetry=telemetry
        )
        runner.run(make_dataset())
        tracer = telemetry.tracer
        (map_span,) = tracer.find("backend.map:fan")
        (stage_span,) = tracer.find("stage:fan")
        assert map_span.parent_id == stage_span.span_id
        assert map_span.attributes["tasks"] == 6
        task_spans = tracer.find("backend.task")
        map_tasks = [s for s in task_spans if s.parent_id == map_span.span_id]
        assert len(map_tasks) == 6
        assert all(s.status is SpanStatus.OK for s in map_tasks)
        (stats_span,) = tracer.find("backend.stats:summarize")
        assert stats_span.parent_id == tracer.find("stage:summarize")[0].span_id
        (shard_span,) = tracer.find("backend.shard_write:shard")
        assert shard_span.attributes["shards"] == shard_span.attributes["tasks"] == 4

    def test_untelemetered_run_records_nothing_and_still_works(self):
        run = PipelineRunner(simple_plan()).run(np.ones(4))
        assert run.context.telemetry is None
        assert run.context.current_span is None
        assert len(run.results) == 2


class TestFailurePaths:
    def test_stage_failure_closes_spans_with_error(self):
        def boom(payload, ctx):
            raise ValueError("bad data")

        plan = StagePlan.build("p", [
            PipelineStage("ok", S.INGEST, lambda p, ctx: p * 2),
            PipelineStage("boom", S.TRANSFORM, boom),
        ])
        telemetry = Telemetry()
        with pytest.raises(PipelineError):
            PipelineRunner(plan, telemetry=telemetry).run(np.ones(2))
        tracer = telemetry.tracer
        (root,) = tracer.find("run:p")
        (ok_span,) = tracer.find("stage:ok")
        (boom_span,) = tracer.find("stage:boom")
        assert ok_span.status is SpanStatus.OK
        assert boom_span.status is SpanStatus.ERROR
        assert "ValueError: bad data" in boom_span.attributes["error"]
        assert root.status is SpanStatus.ERROR
        assert root.ended and boom_span.ended
        assert telemetry.metrics.value("runs_total", pipeline="p", status="error") == 1

    def test_no_dangling_current_span_after_failure(self):
        plan = StagePlan.build("p", [
            PipelineStage("boom", S.INGEST, lambda p, ctx: 1 / 0),
        ])
        telemetry = Telemetry()
        runner = PipelineRunner(plan, telemetry=telemetry)
        with pytest.raises(PipelineError) as info:
            runner.run(np.ones(2))
        assert info.value.stage_name == "boom"
        assert all(s.ended for s in telemetry.tracer.spans())


class TestProvenanceLinking:
    def test_records_carry_span_and_trace_ids(self):
        telemetry = Telemetry()
        runner = PipelineRunner(simple_plan(), telemetry=telemetry)
        run = runner.run(np.ones(4))
        span_ids = {s.span_id for s in telemetry.tracer.spans()}
        trace_id = telemetry.tracer.trace_id
        for result in run.results:
            record = run.context.lineage.record_for(result.output_fingerprint)
            assert record is not None
            assert record.annotations["span_id"] in span_ids
            assert record.annotations["trace_id"] == trace_id
            (stage_span,) = telemetry.tracer.find(f"stage:{result.stage_name}")
            assert record.annotations["span_id"] == stage_span.span_id

    def test_untraced_records_have_no_span_ids(self):
        run = PipelineRunner(simple_plan()).run(np.ones(4))
        record = run.context.lineage.record_for(run.results[0].output_fingerprint)
        assert "span_id" not in record.annotations


class TestClockInjection:
    def test_injected_clock_pins_event_timestamps(self):
        clock = FakeClock(start=500.0, step=1.0)
        runner = PipelineRunner(simple_plan(), clock=clock)
        run = runner.run(np.ones(2))
        stamps = [e.timestamp for e in run.events]
        # run-started, 2x(stage-started, stage-completed), run-completed
        assert stamps == [500.0, 501.0, 502.0, 503.0, 504.0, 505.0]

    def test_telemetry_tracer_accepts_injected_clock(self):
        clock = FakeClock(start=7.0, step=0.0)
        telemetry = Telemetry(tracer=Tracer(clock=clock))
        PipelineRunner(simple_plan(), telemetry=telemetry).run(np.ones(2))
        assert all(s.start == 7.0 for s in telemetry.tracer.spans())


class TestRunSummary:
    def test_to_summary_contents(self):
        run = PipelineRunner(simple_plan()).run(np.ones(4))
        summary = run.to_summary()
        assert list(summary) == ["a", "b"]
        for row in summary.values():
            assert row["status"] == "ok"
            assert row["items"] == 4
            assert row["bytes"] > 0
            assert row["seconds"] > 0
            assert row["items_per_s"] > 0
            assert len(row["fingerprint"]) == 12
        table = run.summary_table()
        assert "(total)" in table
        assert "serial" in table
        assert "items/s" in table


class TestBackendParity:
    """Serial, threaded, and simspmd runs record identical logical work."""

    def _run(self, backend_name, tmp_path):
        telemetry = Telemetry()
        runner = PipelineRunner(
            backend_plan(tmp_path), backend=backend_name, telemetry=telemetry
        )
        run = runner.run(make_dataset())
        return run, telemetry

    def _work_counts(self, telemetry, backend_name):
        counts = {}
        for op, stage in (
            ("map", "fan"),
            ("stats", "summarize"),
            ("shard_write", "shard"),
        ):
            counts[op] = telemetry.metrics.value(
                "backend_tasks_total",
                pipeline="obs-test",
                stage=stage,
                backend=backend_name,
                op=op,
            )
        counts["map_spans"] = len(telemetry.tracer.find("backend.task"))
        return counts

    def test_all_backends_record_identical_task_counts(self, tmp_path):
        observed = {}
        fingerprints = {}
        for name in BACKEND_NAMES:
            run, telemetry = self._run(name, tmp_path / name)
            observed[name] = self._work_counts(telemetry, name)
            fingerprints[name] = fingerprint_payload(run.payload)
        reference = observed["serial"]
        assert reference["map"] == 6
        assert reference["stats"] > 0
        assert reference["shard_write"] == 4
        assert reference["map_spans"] == 6
        for name in BACKEND_NAMES[1:]:
            assert observed[name] == reference, name
        # telemetry parity rides on top of the existing bitwise parity
        assert len(set(fingerprints.values())) == 1

    def test_stage_item_counts_agree_across_backends(self, tmp_path):
        values = {}
        for name in BACKEND_NAMES:
            _, telemetry = self._run(name, tmp_path / name)
            values[name] = [
                telemetry.metrics.value(
                    "stage_items_total", pipeline="obs-test", stage=stage
                )
                for stage in ("fan", "summarize", "shard")
            ]
        assert values["serial"] == values["threaded"] == values["simspmd"]
