"""Temporal alignment: resampling, multi-rate fusion, and windowing.

The fusion archetype's defining preprocessing problem (Section 3.2):
diagnostics sample at different rates on different clocks, and must be
aligned onto a common time base, then sliced into fixed windows before
they can become training tensors.  Everything operates on explicit
``(times, values)`` pairs — irregular sampling is the norm, not an error.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "AlignError",
    "Signal",
    "resample",
    "align_signals",
    "common_time_base",
    "sliding_windows",
    "window_series",
]


class AlignError(ValueError):
    """Non-monotonic time bases, empty overlap, bad window parameters."""


@dataclasses.dataclass
class Signal:
    """One irregularly-sampled channel."""

    name: str
    times: np.ndarray
    values: np.ndarray
    units: Optional[str] = None

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.times.ndim != 1 or self.values.ndim != 1:
            raise AlignError(f"signal {self.name!r}: times/values must be 1-D")
        if self.times.size != self.values.size:
            raise AlignError(f"signal {self.name!r}: times/values length mismatch")
        if self.times.size > 1 and np.any(np.diff(self.times) <= 0):
            raise AlignError(f"signal {self.name!r}: times must strictly increase")

    @property
    def t_start(self) -> float:
        return float(self.times[0]) if self.times.size else float("nan")

    @property
    def t_end(self) -> float:
        return float(self.times[-1]) if self.times.size else float("nan")

    def mean_rate(self) -> float:
        """Average samples per unit time."""
        if self.times.size < 2:
            return 0.0
        return (self.times.size - 1) / (self.t_end - self.t_start)


def resample(signal: Signal, new_times: np.ndarray) -> np.ndarray:
    """Sample *signal* at *new_times* by linear interpolation.  Queries
    outside the signal's support clamp to the end values."""
    new_times = np.asarray(new_times, dtype=np.float64)
    if signal.times.size == 0:
        raise AlignError(f"cannot resample empty signal {signal.name!r}")
    return np.interp(new_times, signal.times, signal.values)


def common_time_base(
    signals: Sequence[Signal], dt: Optional[float] = None
) -> np.ndarray:
    """Uniform time base over the overlap of all signals.

    The default *dt* matches the fastest channel's mean rate, so no
    information-bearing channel is downsampled by alignment.
    """
    if not signals:
        raise AlignError("need at least one signal")
    t0 = max(s.t_start for s in signals)
    t1 = min(s.t_end for s in signals)
    if not t1 > t0:
        raise AlignError(f"signals share no time overlap ([{t0}, {t1}])")
    if dt is None:
        fastest = max(s.mean_rate() for s in signals)
        if fastest <= 0:
            raise AlignError("cannot infer dt from single-sample signals")
        dt = 1.0 / fastest
    if dt <= 0:
        raise AlignError("dt must be positive")
    n = int(np.floor((t1 - t0) / dt)) + 1
    return t0 + dt * np.arange(n)


def align_signals(
    signals: Sequence[Signal],
    dt: Optional[float] = None,
) -> Tuple[np.ndarray, np.ndarray, List[str]]:
    """Align channels onto a common base by linear interpolation.

    Returns ``(times, matrix, names)`` with ``matrix`` of shape
    ``(T, n_channels)`` in input order.
    """
    base = common_time_base(signals, dt)
    matrix = np.stack([resample(s, base) for s in signals], axis=1)
    return base, matrix, [s.name for s in signals]


def sliding_windows(
    values: np.ndarray, window: int, stride: Optional[int] = None
) -> np.ndarray:
    """Cut ``(T, C)`` or ``(T,)`` data into windows ``(n_windows, window, C)``.

    Uses stride tricks for the view, then copies once — no per-window
    Python loop.  ``stride`` defaults to ``window`` (non-overlapping).
    """
    values = np.asarray(values)
    if values.ndim == 1:
        values = values[:, None]
    if values.ndim != 2:
        raise AlignError("expected (T,) or (T, C) data")
    stride = window if stride is None else stride
    if window < 1 or stride < 1:
        raise AlignError("window and stride must be >= 1")
    t = values.shape[0]
    if t < window:
        return np.empty((0, window, values.shape[1]), dtype=values.dtype)
    n_windows = (t - window) // stride + 1
    view = np.lib.stride_tricks.sliding_window_view(values, window, axis=0)
    # view shape: (t - window + 1, C, window) -> select strided starts
    selected = view[::stride][:n_windows]
    return np.ascontiguousarray(selected.transpose(0, 2, 1))


def window_series(
    times: np.ndarray,
    matrix: np.ndarray,
    window: int,
    stride: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Window an aligned series; also returns each window's start time."""
    times = np.asarray(times, dtype=np.float64)
    matrix = np.asarray(matrix)
    if times.size != matrix.shape[0]:
        raise AlignError("times/matrix length mismatch")
    windows = sliding_windows(matrix, window, stride)
    stride = window if stride is None else stride
    starts = times[: windows.shape[0] * stride : stride][: windows.shape[0]]
    return starts, windows
