"""Resource profiling: RSS/CPU sampling plus payload size and throughput.

Two halves:

* **process resources** — :func:`sample_resources` reads CPU time and
  peak RSS from :mod:`resource` (``getrusage``) when available, falling
  back to :func:`os.times` on platforms without it; a
  :class:`ResourceProfiler` brackets a stage and reports the delta;
* **stage IO** — :func:`payload_nbytes` and :func:`payload_items`
  estimate the byte size and logical item count of an arbitrary pipeline
  payload (datasets, arrays, containers of either), from which
  :func:`throughput` derives items/sec and bytes/sec for span attributes
  and metrics.  Both are re-exported from :mod:`repro.core.payload`, the
  one payload walker (it also produces the content fingerprint, so the
  runner gets hash, size and count from a single pass).

Sizes are *content* estimates (array buffers, encoded strings), not
``sys.getsizeof`` object overhead — the number a data engineer means by
"this stage produced 80 MB".
"""

from __future__ import annotations

import dataclasses
import os
import sys
import time
from typing import Optional

try:  # pragma: no cover - platform gate
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX fallback
    _resource = None  # type: ignore[assignment]

from repro.core.payload import payload_items, payload_nbytes

__all__ = [
    "ResourceSample",
    "ResourceDelta",
    "ResourceProfiler",
    "sample_resources",
    "payload_nbytes",
    "payload_items",
    "throughput",
]


@dataclasses.dataclass(frozen=True)
class ResourceSample:
    """One instantaneous reading of process resource usage."""

    wall_s: float
    cpu_user_s: float
    cpu_system_s: float
    max_rss_bytes: int

    @property
    def cpu_s(self) -> float:
        return self.cpu_user_s + self.cpu_system_s


@dataclasses.dataclass(frozen=True)
class ResourceDelta:
    """Resource usage between two samples (a stage's footprint)."""

    wall_s: float
    cpu_user_s: float
    cpu_system_s: float
    #: growth of the process peak RSS across the interval (0 when the
    #: stage fit inside memory already allocated)
    max_rss_growth_bytes: int
    #: absolute peak RSS at the end of the interval
    max_rss_bytes: int

    @property
    def cpu_s(self) -> float:
        return self.cpu_user_s + self.cpu_system_s

    @property
    def cpu_fraction(self) -> float:
        """CPU seconds per wall second (>1 means parallel speedup)."""
        return self.cpu_s / self.wall_s if self.wall_s > 0 else 0.0


def _maxrss_bytes(ru_maxrss: int) -> int:
    # getrusage reports kilobytes on Linux, bytes on macOS
    return int(ru_maxrss) if sys.platform == "darwin" else int(ru_maxrss) * 1024


def sample_resources() -> ResourceSample:
    """Read the current process's CPU time and peak RSS."""
    if _resource is not None:
        ru = _resource.getrusage(_resource.RUSAGE_SELF)
        return ResourceSample(
            wall_s=time.perf_counter(),
            cpu_user_s=float(ru.ru_utime),
            cpu_system_s=float(ru.ru_stime),
            max_rss_bytes=_maxrss_bytes(ru.ru_maxrss),
        )
    times = os.times()  # pragma: no cover - non-POSIX fallback
    return ResourceSample(  # pragma: no cover
        wall_s=time.perf_counter(),
        cpu_user_s=float(times.user),
        cpu_system_s=float(times.system),
        max_rss_bytes=0,
    )


class ResourceProfiler:
    """Brackets a unit of work: ``start()`` ... ``stop() -> ResourceDelta``."""

    def __init__(self) -> None:
        self._start: Optional[ResourceSample] = None

    def start(self) -> "ResourceProfiler":
        self._start = sample_resources()
        return self

    def stop(self) -> ResourceDelta:
        if self._start is None:
            raise RuntimeError("ResourceProfiler.stop() before start()")
        begin, end = self._start, sample_resources()
        self._start = None
        return ResourceDelta(
            wall_s=max(end.wall_s - begin.wall_s, 0.0),
            cpu_user_s=max(end.cpu_user_s - begin.cpu_user_s, 0.0),
            cpu_system_s=max(end.cpu_system_s - begin.cpu_system_s, 0.0),
            max_rss_growth_bytes=max(end.max_rss_bytes - begin.max_rss_bytes, 0),
            max_rss_bytes=end.max_rss_bytes,
        )


def throughput(amount: float, seconds: float) -> float:
    """Items (or bytes) per second; 0 when no time elapsed."""
    return amount / seconds if seconds > 0 else 0.0
