"""Spans: nesting, ids, failure status, clock injection, thread safety."""

import threading

import pytest

from repro.obs.tracing import Span, SpanStatus, Tracer


class FakeClock:
    """Deterministic monotonic clock: every read advances by `step`."""

    def __init__(self, start=1000.0, step=1.0):
        self.now = start
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


class TestSpanLifecycle:
    def test_context_manager_nests_under_ambient_span(self):
        tracer = Tracer(trace_id="t-test")
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
            assert tracer.current_span is outer
        assert tracer.current_span is None
        assert outer.parent_id is None
        assert outer.status is SpanStatus.OK
        assert inner.status is SpanStatus.OK

    def test_span_ids_are_unique_counters(self):
        tracer = Tracer()
        with tracer.span("a"), tracer.span("b"), tracer.span("c"):
            pass
        ids = [s.span_id for s in tracer.spans()]
        assert len(set(ids)) == 3
        assert ids == sorted(ids)
        assert all(i.startswith("s") for i in ids)

    def test_all_spans_share_the_trace_id(self):
        tracer = Tracer(trace_id="t-fixed")
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        assert {s.trace_id for s in tracer.spans()} == {"t-fixed"}

    def test_explicit_parent_overrides_ambient(self):
        tracer = Tracer()
        root = tracer.start_span("root")
        tracer.end_span(root)
        with tracer.span("detached", parent=root) as sp:
            assert sp.parent_id == root.span_id

    def test_attributes_recorded_and_extended(self):
        tracer = Tracer()
        with tracer.span("s", items=3) as sp:
            sp.set_attribute("bytes", 24)
            sp.set_attributes(status_note="fine", items=4)
        assert sp.attributes == {"items": 4, "bytes": 24, "status_note": "fine"}

    def test_end_span_idempotent_and_error_sticky(self):
        tracer = Tracer()
        sp = tracer.start_span("s")
        tracer.end_span(sp, status=SpanStatus.ERROR, error="boom")
        first_end = sp.end
        tracer.end_span(sp)  # must not flip status back to OK or move end
        assert sp.status is SpanStatus.ERROR
        assert sp.end == first_end
        assert sp.attributes["error"] == "boom"


class TestFailurePaths:
    def test_exception_marks_span_error_and_reraises(self):
        tracer = Tracer()
        with pytest.raises(ValueError, match="kaput"):
            with tracer.span("failing"):
                raise ValueError("kaput")
        (span,) = tracer.spans()
        assert span.status is SpanStatus.ERROR
        assert span.ended
        assert "kaput" in span.attributes["error"]

    def test_inner_failure_propagates_through_outer_span(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("deep failure")
        outer, inner = tracer.spans()
        assert inner.status is SpanStatus.ERROR
        assert outer.status is SpanStatus.ERROR
        assert outer.ended and inner.ended
        assert tracer.current_span is None


class TestDeterminism:
    def test_injected_clocks_pin_timestamps_and_durations(self):
        clock = FakeClock(start=100.0, step=10.0)
        perf = FakeClock(start=0.0, step=2.0)
        tracer = Tracer(trace_id="t-pinned", clock=clock, perf=perf)
        with tracer.span("a"):
            pass
        (span,) = tracer.spans()
        assert span.start == 100.0
        assert span.end == 110.0
        assert span.duration_s == 2.0
        assert span.to_dict()["start"] == 100.0

    def test_to_dict_schema_fields(self):
        tracer = Tracer(trace_id="t-x")
        with tracer.span("a", k="v"):
            pass
        row = tracer.spans()[0].to_dict()
        assert set(row) == {
            "name", "span_id", "trace_id", "parent_id",
            "start", "end", "duration_s", "status", "attributes", "events",
        }
        assert row["status"] == "ok"
        assert row["attributes"] == {"k": "v"}
        assert row["events"] == []

    def test_span_events_serialise_in_order(self):
        tracer = Tracer(trace_id="t-e")
        with tracer.span("a") as sp:
            sp.add_event("retry", attempt=1, delay_s=0.05)
            sp.add_event("fault_injected", kind="transient", site="map#0[3]")
        row = tracer.spans()[0].to_dict()
        assert [e["name"] for e in row["events"]] == ["retry", "fault_injected"]
        assert row["events"][0]["attempt"] == 1


class TestThreadSafety:
    def test_concurrent_span_creation_under_one_parent(self):
        tracer = Tracer()
        root = tracer.start_span("root")
        n_threads, per_thread = 8, 25

        def worker():
            for _ in range(per_thread):
                with tracer.span("task", parent=root):
                    pass

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        tracer.end_span(root)
        tasks = tracer.find("task")
        assert len(tasks) == n_threads * per_thread
        assert len({s.span_id for s in tasks}) == len(tasks)
        assert all(s.parent_id == root.span_id for s in tasks)


class TestHelpers:
    def test_find_children_and_len(self):
        tracer = Tracer()
        with tracer.span("parent") as parent:
            with tracer.span("child"):
                pass
            with tracer.span("child"):
                pass
        assert len(tracer) == 3
        assert [s.parent_id for s in tracer.find("child")] == [parent.span_id] * 2
        assert all(s.ended for s in tracer.spans())

    def test_span_dataclass_defaults(self):
        span = Span(name="n", span_id="s1", trace_id="t", parent_id=None, start=0.0)
        assert not span.ended
        assert span.status is SpanStatus.RUNNING
