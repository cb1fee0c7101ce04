"""Hierarchical spans: who ran, under whom, for how long, with what result.

A :class:`Span` is one timed unit of pipeline work — a run, a stage, a
backend operation, or a single fanned-out task — carrying a stable id,
its parent's id, wall-clock start/end, a monotonic duration, a terminal
:class:`SpanStatus`, and free-form attributes (item counts, byte sizes,
backend names).  A :class:`Tracer` hands out spans and collects them
thread-safely, so threaded backend workers can open task spans
concurrently under one stage span.

Determinism: span ids are small counters (``s000001``) allocated under a
lock, never memory addresses, and both clocks are injectable — tests pin
wall time and durations by passing fake ``clock``/``perf`` callables.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import enum
import threading
import time
import uuid
from typing import Callable, Dict, Iterator, List, Optional, Union

__all__ = ["SpanStatus", "Span", "Tracer"]


class SpanStatus(enum.Enum):
    """Terminal state of a span (``RUNNING`` until ended)."""

    RUNNING = "running"
    OK = "ok"
    ERROR = "error"


@dataclasses.dataclass
class Span:
    """One timed, attributed unit of work inside a trace tree."""

    name: str
    span_id: str
    trace_id: str
    parent_id: Optional[str]
    #: wall-clock start/end (tracer ``clock``; seconds since epoch by default)
    start: float
    end: Optional[float] = None
    #: monotonic elapsed seconds (tracer ``perf``), set when the span ends
    duration_s: float = 0.0
    status: SpanStatus = SpanStatus.RUNNING
    attributes: Dict[str, object] = dataclasses.field(default_factory=dict)
    #: point-in-time occurrences inside the span (retries, injected faults)
    events: List[Dict[str, object]] = dataclasses.field(default_factory=list)
    #: perf-clock reading at start (implementation detail of duration_s)
    perf_start: float = dataclasses.field(default=0.0, repr=False)

    def set_attribute(self, key: str, value: object) -> None:
        self.attributes[key] = value

    def set_attributes(self, **attributes: object) -> None:
        self.attributes.update(attributes)

    def add_event(self, name: str, **attributes: object) -> Dict[str, object]:
        """Record a named point-in-time event (``retry``, ``fault_injected``).

        Events are ordered occurrences *within* a span, not child spans:
        a stage span that retried twice carries two ``retry`` events with
        their attempt numbers and backoff delays.
        """
        event: Dict[str, object] = {"name": name, **attributes}
        self.events.append(event)
        return event

    @property
    def ended(self) -> bool:
        return self.end is not None

    def to_dict(self) -> Dict[str, object]:
        """Stable serialisation (the sink schema for ``type: span``)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "duration_s": self.duration_s,
            "status": self.status.value,
            "attributes": dict(self.attributes),
            "events": [dict(e) for e in self.events],
        }


#: ambient current span for the context-manager API (does not cross threads;
#: backend workers receive their parent span explicitly instead)
_CURRENT_SPAN: contextvars.ContextVar[Optional[Span]] = contextvars.ContextVar(
    "repro-obs-current-span", default=None
)


class Tracer:
    """Creates spans and collects them thread-safely in start order.

    Two usage styles:

    * ``with tracer.span("stage:regrid") as sp: ...`` — the context
      manager nests under the ambient current span, closes the span with
      ``OK`` on normal exit and ``ERROR`` (with the exception text) when
      the body raises, re-raising either way;
    * ``sp = tracer.start_span(...); tracer.end_span(sp, ...)`` — for
      spans whose lifetime does not match a lexical block (the runner's
      run/stage spans around the failure-handling control flow).
    """

    def __init__(
        self,
        *,
        trace_id: Optional[str] = None,
        clock: Callable[[], float] = time.time,
        perf: Callable[[], float] = time.perf_counter,
    ):
        self.trace_id = trace_id or f"t-{uuid.uuid4().hex[:16]}"
        self._clock = clock
        self._perf = perf
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._next_id = 1

    # -- span lifecycle ----------------------------------------------------------
    def start_span(
        self,
        name: str,
        *,
        parent: Union[Span, str, None] = None,
        **attributes: object,
    ) -> Span:
        """Open (and collect) a new span; ``parent`` defaults to the ambient span."""
        if parent is None:
            parent = _CURRENT_SPAN.get()
        parent_id = parent.span_id if isinstance(parent, Span) else parent
        with self._lock:
            span_id = f"s{self._next_id:06d}"
            self._next_id += 1
            span = Span(
                name=name,
                span_id=span_id,
                trace_id=self.trace_id,
                parent_id=parent_id,
                start=self._clock(),
                attributes=dict(attributes),
                perf_start=self._perf(),
            )
            self._spans.append(span)
        return span

    def end_span(
        self,
        span: Span,
        *,
        status: SpanStatus = SpanStatus.OK,
        error: str = "",
    ) -> Span:
        """Close a span; a span already marked ``ERROR`` keeps that status."""
        if span.ended:
            return span
        span.end = self._clock()
        span.duration_s = max(self._perf() - span.perf_start, 0.0)
        if span.status is SpanStatus.RUNNING:
            span.status = status
        if error:
            span.attributes.setdefault("error", error)
        return span

    @contextlib.contextmanager
    def span(
        self,
        name: str,
        *,
        parent: Union[Span, str, None] = None,
        **attributes: object,
    ) -> Iterator[Span]:
        sp = self.start_span(name, parent=parent, **attributes)
        token = _CURRENT_SPAN.set(sp)
        try:
            yield sp
        except BaseException as exc:
            self.end_span(sp, status=SpanStatus.ERROR, error=f"{type(exc).__name__}: {exc}")
            raise
        else:
            self.end_span(sp)
        finally:
            _CURRENT_SPAN.reset(token)

    # -- introspection -----------------------------------------------------------
    @property
    def current_span(self) -> Optional[Span]:
        """The ambient span of the *calling* thread/context (None outside one)."""
        return _CURRENT_SPAN.get()

    def spans(self) -> List[Span]:
        """Snapshot of every span started so far, in start order."""
        with self._lock:
            return list(self._spans)

    def find(self, name: str) -> List[Span]:
        """All spans with exactly this name, in start order."""
        return [s for s in self.spans() if s.name == name]

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)
