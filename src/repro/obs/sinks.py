"""Telemetry sinks: JSONL span/metric/event streams with a stable schema.

Every record a sink emits is a flat JSON object wrapped in the same
envelope::

    {"schema": 1, "type": "span" | "metric" | "event", ...payload...}

``schema`` is the telemetry schema version (bump on breaking changes to
the payload shape), and ``type`` discriminates the three record kinds so
one combined stream stays self-describing.  Two sinks ship:

* :class:`JsonlTelemetrySink` — one ``spans.jsonl`` / ``metrics.jsonl``
  / ``events.jsonl`` file per record type under a trace directory (the
  layout ``run --workdir DIR --trace`` gives DIR, which the ``telemetry``
  CLI reads back);
* :class:`InMemorySink` — collects records in lists for tests.

:func:`write_jsonl` writes with — and :func:`read_jsonl` *is* — the one
JSONL codec of :mod:`repro.durability.atomic` (sorted keys, torn lines
skipped on read), so telemetry files and the durable stores share a
line format by construction.
"""

from __future__ import annotations

import abc
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Union

from repro.durability.atomic import jsonl_line, read_jsonl

__all__ = [
    "SCHEMA_VERSION",
    "SPANS_NAME",
    "METRICS_NAME",
    "EVENTS_NAME",
    "TelemetrySink",
    "InMemorySink",
    "JsonlTelemetrySink",
    "write_jsonl",
    "read_jsonl",
    "read_trace",
    "envelope",
]

#: version of the record envelope + payload shapes written by the sinks
SCHEMA_VERSION = 1

SPANS_NAME = "spans.jsonl"
METRICS_NAME = "metrics.jsonl"
EVENTS_NAME = "events.jsonl"


def envelope(record_type: str, payload: Mapping[str, object]) -> Dict[str, object]:
    """Wrap a payload in the versioned, typed telemetry envelope."""
    out: Dict[str, object] = {"schema": SCHEMA_VERSION, "type": record_type}
    out.update(payload)
    return out


def write_jsonl(
    path: Union[str, Path], records: Iterable[Mapping[str, object]], *, append: bool = False
) -> int:
    """Write records one-JSON-object-per-line; returns the record count."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    n = 0
    with open(path, "ab" if append else "wb") as fh:
        for record in records:
            fh.write(jsonl_line(record))
            n += 1
    return n


class TelemetrySink(abc.ABC):
    """Destination for telemetry records (spans, metrics, events)."""

    @abc.abstractmethod
    def emit(self, record: Mapping[str, object]) -> None:
        """Accept one enveloped record (``schema`` + ``type`` present)."""

    def emit_span(self, span: Mapping[str, object]) -> None:
        self.emit(envelope("span", span))

    def emit_metric(self, metric: Mapping[str, object]) -> None:
        self.emit(envelope("metric", metric))

    def close(self) -> None:
        """Flush/finalise; safe to call more than once."""


class InMemorySink(TelemetrySink):
    """Collects enveloped records in memory (the test double)."""

    def __init__(self) -> None:
        self.records: List[Dict[str, object]] = []
        self.closed = False

    def emit(self, record: Mapping[str, object]) -> None:
        self.records.append(dict(record))

    def of_type(self, record_type: str) -> List[Dict[str, object]]:
        return [r for r in self.records if r.get("type") == record_type]

    @property
    def spans(self) -> List[Dict[str, object]]:
        return self.of_type("span")

    @property
    def metrics(self) -> List[Dict[str, object]]:
        return self.of_type("metric")

    @property
    def events(self) -> List[Dict[str, object]]:
        return self.of_type("event")

    def close(self) -> None:
        self.closed = True


class JsonlTelemetrySink(TelemetrySink):
    """Writes records to per-type JSONL files under a trace directory.

    Records buffer in memory and flush to disk on :meth:`close` (and on
    every :meth:`flush`), so a sink can be handed out before the trace
    directory needs to exist.  Files are appended to, never truncated:
    several runs can share one trace directory.
    """

    _FILES = {"span": SPANS_NAME, "metric": METRICS_NAME, "event": EVENTS_NAME}

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        self._pending: Dict[str, List[Dict[str, object]]] = {
            kind: [] for kind in self._FILES
        }

    def path_for(self, record_type: str) -> Path:
        return self.directory / self._FILES[record_type]

    def emit(self, record: Mapping[str, object]) -> None:
        record_type = str(record.get("type", ""))
        if record_type not in self._FILES:
            raise ValueError(
                f"unknown telemetry record type {record_type!r}; "
                f"expected one of {sorted(self._FILES)}"
            )
        self._pending[record_type].append(dict(record))

    def flush(self) -> None:
        for record_type, records in self._pending.items():
            if records:
                write_jsonl(self.path_for(record_type), records, append=True)
                records.clear()

    def close(self) -> None:
        self.flush()


def read_trace(directory: Union[str, Path]) -> Dict[str, List[Dict[str, object]]]:
    """Load a ``JsonlTelemetrySink`` trace directory back into memory."""
    directory = Path(directory)
    return {
        "spans": read_jsonl(directory / SPANS_NAME),
        "metrics": read_jsonl(directory / METRICS_NAME),
        "events": read_jsonl(directory / EVENTS_NAME),
    }
