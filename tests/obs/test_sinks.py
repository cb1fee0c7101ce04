"""Sinks: schema envelope, JSONL round-trips, in-memory capture."""

import json

import pytest

from repro.obs import InMemorySink, JsonlTelemetrySink, Telemetry
from repro.obs.sinks import (
    EVENTS_NAME,
    METRICS_NAME,
    SCHEMA_VERSION,
    SPANS_NAME,
    envelope,
    read_jsonl,
    read_trace,
    write_jsonl,
)


class TestEnvelope:
    def test_schema_version_and_type(self):
        rec = envelope("span", {"name": "x"})
        assert rec["schema"] == SCHEMA_VERSION
        assert rec["type"] == "span"
        assert rec["name"] == "x"


class TestJsonlIO:
    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "out.jsonl"
        rows = [{"a": 1}, {"b": [1, 2]}]
        assert write_jsonl(path, rows) == 2
        assert read_jsonl(path) == rows

    def test_append_mode(self, tmp_path):
        path = tmp_path / "out.jsonl"
        write_jsonl(path, [{"a": 1}])
        write_jsonl(path, [{"a": 2}], append=True)
        assert read_jsonl(path) == [{"a": 1}, {"a": 2}]

    def test_torn_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "out.jsonl"
        path.write_text('{"a": 1}\n\n{"b": 2}\n{"torn": ')
        assert read_jsonl(path) == [{"a": 1}, {"b": 2}]

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_jsonl(tmp_path / "absent.jsonl") == []

    def test_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "nested" / "dir" / "out.jsonl"
        write_jsonl(path, [{"a": 1}])
        assert path.exists()


class TestInMemorySink:
    def test_captures_by_type(self):
        sink = InMemorySink()
        sink.emit_span({"name": "s"})
        sink.emit_metric({"name": "m"})
        sink.emit(envelope("event", {"kind": "e"}))
        assert [r["name"] for r in sink.spans] == ["s"]
        assert [r["name"] for r in sink.metrics] == ["m"]
        assert len(sink.events) == 1
        assert all(r["schema"] == SCHEMA_VERSION for r in sink.records)
        sink.close()
        assert sink.closed


class TestJsonlSink:
    def test_writes_three_files(self, tmp_path):
        sink = JsonlTelemetrySink(tmp_path / "trace")
        sink.emit_span({"name": "s", "duration_s": 0.5})
        sink.emit_metric({"name": "m", "kind": "counter"})
        sink.emit(envelope("event", {"kind": "started"}))
        sink.close()
        trace_dir = tmp_path / "trace"
        assert (trace_dir / SPANS_NAME).exists()
        assert (trace_dir / METRICS_NAME).exists()
        assert (trace_dir / EVENTS_NAME).exists()
        trace = read_trace(trace_dir)
        assert [r["name"] for r in trace["spans"]] == ["s"]
        assert [r["name"] for r in trace["metrics"]] == ["m"]
        assert len(trace["events"]) == 1

    def test_rejects_unknown_record_type(self, tmp_path):
        sink = JsonlTelemetrySink(tmp_path)
        with pytest.raises(ValueError):
            sink.emit({"schema": SCHEMA_VERSION, "type": "bogus"})

    def test_lines_are_valid_json_with_envelope(self, tmp_path):
        sink = JsonlTelemetrySink(tmp_path)
        sink.emit_span({"name": "s"})
        sink.close()
        lines = (tmp_path / SPANS_NAME).read_text().strip().splitlines()
        row = json.loads(lines[0])
        assert row["schema"] == SCHEMA_VERSION
        assert row["type"] == "span"


class TestTornWriterTolerance:
    """A writer dying mid-record must never poison later reads."""

    CASES = [
        (SPANS_NAME, "span", "spans"),
        (METRICS_NAME, "metric", "metrics"),
        (EVENTS_NAME, "event", "events"),
    ]

    @pytest.mark.parametrize("filename,record_type,key", CASES)
    def test_torn_final_record_of_each_type(
        self, tmp_path, filename, record_type, key
    ):
        trace_dir = tmp_path / "trace"
        sink = JsonlTelemetrySink(trace_dir)
        emit = {
            "span": sink.emit_span,
            "metric": sink.emit_metric,
            "event": lambda event: sink.emit(envelope("event", event)),
        }[record_type]
        emit({"name": "good-1"})
        emit({"name": "good-2"})
        sink.close()
        # simulate the writer dying mid-append: half a record, no newline
        with open(trace_dir / filename, "a", encoding="utf-8") as fh:
            fh.write('{"schema": 1, "type": "%s", "name": "to' % record_type)
        trace = read_trace(trace_dir)
        assert [r["name"] for r in trace[key]] == ["good-1", "good-2"]

    @pytest.mark.parametrize("filename,record_type,key", CASES)
    def test_torn_record_mid_file_skipped(
        self, tmp_path, filename, record_type, key
    ):
        trace_dir = tmp_path / "trace"
        trace_dir.mkdir()
        good = json.dumps(envelope(record_type, {"name": "good"}))
        (trace_dir / filename).write_text(
            '{"schema": 1, "type": "%s", "na\n' % record_type + good + "\n"
        )
        trace = read_trace(trace_dir)
        assert [r["name"] for r in trace[key]] == ["good"]

    def test_concurrent_append_round_trip(self, tmp_path):
        import threading

        path = tmp_path / "out.jsonl"
        n_threads, n_batches, batch = 8, 10, 5

        def append(thread_id):
            for b in range(n_batches):
                rows = [
                    {"t": thread_id, "b": b, "i": i} for i in range(batch)
                ]
                write_jsonl(path, rows, append=True)

        threads = [
            threading.Thread(target=append, args=(t,)) for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        rows = read_jsonl(path)
        assert len(rows) == n_threads * n_batches * batch
        seen = {(r["t"], r["b"], r["i"]) for r in rows}
        assert len(seen) == n_threads * n_batches * batch


class TestTelemetryExport:
    def test_export_covers_spans_metrics_events(self, tmp_path):
        telemetry = Telemetry()
        with telemetry.tracer.span("work"):
            telemetry.metrics.counter("done").inc()
        sink = JsonlTelemetrySink(tmp_path / "trace")
        sink.emit(envelope("event", {"kind": "x"}))  # a run's events share the sink
        telemetry.export(sink)
        trace = read_trace(tmp_path / "trace")
        assert trace["spans"][0]["name"] == "work"
        assert trace["metrics"][0]["name"] == "done"
        assert trace["events"][0]["kind"] == "x"

    def test_export_to_memory_sink(self):
        telemetry = Telemetry()
        with telemetry.tracer.span("a"):
            pass
        sink = InMemorySink()
        telemetry.export(sink)
        assert len(sink.spans) == 1
