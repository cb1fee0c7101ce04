"""Outside-in tracing: span list, self-time arithmetic, OS-call interposition.

Everything here observes the program from the benchmark's side of the
boundary — event stamps taken with the benchmark's own clock and wrappers
around ``os.fsync`` / ``os.replace`` in this process — so no source under
``src/`` needs a hook.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from workloads import STAGES

Span = Dict[str, Any]


class SpanRecorder:
    """An append-only span list; a span's id is its index."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: List[Span] = []

    def add(self, name: str, start: float, end: float, parent: Optional[int], rep: int) -> int:
        self.spans.append(
            {"id": len(self.spans), "name": name, "start": start, "end": end,
             "parent": parent, "workload": self.workload, "rep": rep}
        )
        return len(self.spans) - 1


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its child spans cover.

    Children are clipped to the parent's interval and overlapping
    children are merged, so time is never subtracted twice.
    """
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span["start"]
        for child in sorted(children.get(span["id"], ()), key=lambda c: c["start"]):
            start = max(child["start"], cursor)
            end = min(child["end"], span["end"])
            if end > start:
                covered += end - start
                cursor = end
        out[span["id"]] = (span["end"] - span["start"]) - covered
    return out


class OsTap:
    """Counts and times ``os.fsync`` / ``os.replace`` while installed.

    Sees this process only: forked workers inherit the wrappers but
    their counts die with them, which is why the counts are exact on the
    serial workloads and parent-side only on ``climate_process``.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._originals: Dict[str, Callable[..., Any]] = {}
        #: (name, start, end) of every intercepted call, in call order
        self.calls: List[tuple] = []

    def _wrap(self, name: str) -> None:
        original = getattr(os, name)
        self._originals[name] = original

        def tapped(*args: Any, **kwargs: Any) -> Any:
            start = self._clock()
            try:
                return original(*args, **kwargs)
            finally:
                self.calls.append((name, start, self._clock()))

        setattr(os, name, tapped)

    def __enter__(self) -> "OsTap":
        for name in ("fsync", "replace"):
            self._wrap(name)
        return self

    def __exit__(self, *exc: object) -> None:
        for name, original in self._originals.items():
            setattr(os, name, original)
        self._originals.clear()


class StageStamper:
    """``on_event=`` hook: stamps run/stage transitions with our clock.

    It also keeps the event's public ``seconds`` field: stage-completed
    is emitted after the runner has fingerprinted, sized, gated and
    checkpointed the stage's output, so the stamped window holds the
    stage *and* its bookkeeping, and ``seconds`` — the time inside the
    stage function — is what separates the two.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.stamps: List[tuple] = []

    def __call__(self, event: Any) -> None:
        self.stamps.append((event.kind.value, event.stage_index, self._clock(), event.seconds))


def record_rep(
    recorder: SpanRecorder, rep: int, start: float, end: float, stamps: Sequence[tuple]
) -> Dict[str, float]:
    """Turn one traced rep's event stamps into spans; returns its stage metrics.

    The tree is rep > run > stage window > stage function.  The stage
    function's span has the duration the event reports, placed at the
    start of its window; the window's self time is the runner's work on
    that stage's output, the run span's self time what happens between
    stages, and their sum is ``core.runner.overhead_s``.  What follows
    the run span inside the rep is the archetype's assessment and
    challenge detection.
    """
    at = {(kind, index): (t, seconds) for kind, index, t, seconds in stamps}
    run_start = at.get(("run-started", None), (start, 0.0))[0]
    run_end = at.get(("run-completed", None), (end, 0.0))[0]
    first = len(recorder.spans)
    rep_id = recorder.add("rep", start, end, None, rep)
    run_id = recorder.add("core.runner.run", run_start, run_end, rep_id, rep)
    recorder.add("domains.post_run", run_end, end, rep_id, rep)
    metrics: Dict[str, float] = {}
    windows = []
    for index, stage in enumerate(STAGES):
        opened, closed = at.get(("stage-started", index)), at.get(("stage-completed", index))
        if opened is not None and closed is not None:
            window = recorder.add(f"core.runner.stage.{stage}", opened[0], closed[0], run_id, rep)
            recorder.add(f"domains.{stage}", opened[0], min(opened[0] + closed[1], closed[0]), window, rep)
            windows.append(window)
            metrics[f"domains.{stage}_s"] = closed[1]
    own = self_times(recorder.spans[first:])
    overhead = own[run_id] + sum(own[window] for window in windows)
    metrics["core.runner.overhead_s"] = overhead
    metrics["core.runner.overhead_share"] = overhead / (end - start)
    metrics["domains.post_run_s"] = end - run_end
    return metrics


def record_os_calls(recorder: SpanRecorder, rep: int, calls: Sequence[tuple]) -> Dict[str, float]:
    """Attach one rep's tapped OS calls to the innermost span holding each."""
    layer_spans = [sp for sp in recorder.spans if sp["rep"] == rep]
    for name, s, e in calls:
        holders = [sp for sp in layer_spans if sp["start"] <= s and e <= sp["end"]]
        parent = min(holders, key=lambda sp: sp["end"] - sp["start"])["id"] if holders else None
        recorder.add(f"os.{name}", s, e, parent, rep)
    fsyncs = [e - s for name, s, e in calls if name == "fsync"]
    return {
        "durability.fsync_count": len(fsyncs),
        "durability.fsync_s": sum(fsyncs),
        "durability.replace_count": len(calls) - len(fsyncs),
    }
