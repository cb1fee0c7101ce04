"""Mergeable streaming statistics for parallel normalization.

Normalizing "each variable with computed mean and standard deviation"
(Section 3.1) over a dataset too large for one node requires statistics
that can be computed locally per rank and *merged exactly*.  This module
implements:

* :class:`RunningMoments` — count/mean/M2 (Welford's algorithm), with
  Chan et al.'s pairwise merge.  Vectorized: a single accumulator tracks a
  whole vector of features at once.
* :class:`MinMax` — mergeable extrema.
* :class:`StreamingHistogram` — fixed-bin mergeable histogram, for
  quantile estimation and datasheet plots.
* :class:`FeatureStats` — the bundle of all three that pipelines pass
  around, with (de)serialization for transport over SimComm.

The exactness property (merge of partials == whole-array stats, to
floating-point tolerance) is the subject of the SCALE-STATS benchmark and
hypothesis property tests.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = ["RunningMoments", "MinMax", "StreamingHistogram", "FeatureStats"]


class RunningMoments:
    """Vectorized Welford accumulator over feature axis ``shape``.

    ``update`` consumes a batch of shape ``(n, *shape)``; ``merge`` combines
    two accumulators exactly (Chan's parallel formula).
    """

    def __init__(self, shape: Tuple[int, ...] = ()):
        self.shape = tuple(shape)
        self.count = 0
        self.mean = np.zeros(self.shape, dtype=np.float64)
        self.m2 = np.zeros(self.shape, dtype=np.float64)

    def update(self, batch: np.ndarray) -> "RunningMoments":
        """Fold a batch (leading axis = samples) into the accumulator."""
        batch = np.asarray(batch, dtype=np.float64)
        if batch.shape[1:] != self.shape:
            raise ValueError(
                f"batch feature shape {batch.shape[1:]} != accumulator {self.shape}"
            )
        n_b = batch.shape[0]
        if n_b == 0:
            return self
        # batch moments in one vectorized pass
        mean_b = batch.mean(axis=0)
        m2_b = ((batch - mean_b) ** 2).sum(axis=0)
        self._combine(n_b, mean_b, m2_b)
        return self

    def merge(self, other: "RunningMoments") -> "RunningMoments":
        """Exact in-place merge of another accumulator (Chan et al.)."""
        if other.shape != self.shape:
            raise ValueError("cannot merge accumulators of different shapes")
        self._combine(other.count, other.mean, other.m2)
        return self

    def _combine(self, n_b: int, mean_b: np.ndarray, m2_b: np.ndarray) -> None:
        if n_b == 0:
            return
        n_a = self.count
        n = n_a + n_b
        delta = mean_b - self.mean
        self.mean = self.mean + delta * (n_b / n)
        self.m2 = self.m2 + m2_b + delta**2 * (n_a * n_b / n)
        self.count = n

    # -- results -----------------------------------------------------------------
    @property
    def variance(self) -> np.ndarray:
        """Population variance (ddof=0); zeros when empty."""
        if self.count == 0:
            return np.zeros(self.shape)
        return self.m2 / self.count

    @property
    def std(self) -> np.ndarray:
        return np.sqrt(self.variance)

    def copy(self) -> "RunningMoments":
        out = RunningMoments(self.shape)
        out.count = self.count
        out.mean = self.mean.copy()
        out.m2 = self.m2.copy()
        return out

    # -- transport ----------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "shape": list(self.shape),
            "count": self.count,
            "mean": self.mean.tolist(),
            "m2": self.m2.tolist(),
        }

    @classmethod
    def from_dict(cls, blob: Dict[str, object]) -> "RunningMoments":
        out = cls(tuple(blob["shape"]))  # type: ignore[arg-type]
        out.count = int(blob["count"])  # type: ignore[arg-type]
        out.mean = np.asarray(blob["mean"], dtype=np.float64).reshape(out.shape)
        out.m2 = np.asarray(blob["m2"], dtype=np.float64).reshape(out.shape)
        return out


class MinMax:
    """Mergeable per-feature extrema."""

    def __init__(self, shape: Tuple[int, ...] = ()):
        self.shape = tuple(shape)
        self.count = 0
        self.min = np.full(self.shape, np.inf)
        self.max = np.full(self.shape, -np.inf)

    def update(self, batch: np.ndarray) -> "MinMax":
        batch = np.asarray(batch, dtype=np.float64)
        if batch.shape[1:] != self.shape:
            raise ValueError("batch feature shape mismatch")
        if batch.shape[0]:
            np.minimum(self.min, batch.min(axis=0), out=self.min)
            np.maximum(self.max, batch.max(axis=0), out=self.max)
            self.count += batch.shape[0]
        return self

    def merge(self, other: "MinMax") -> "MinMax":
        if other.shape != self.shape:
            raise ValueError("shape mismatch")
        np.minimum(self.min, other.min, out=self.min)
        np.maximum(self.max, other.max, out=self.max)
        self.count += other.count
        return self

    @property
    def range(self) -> np.ndarray:
        span = self.max - self.min
        return np.where(np.isfinite(span), span, 0.0)


class StreamingHistogram:
    """Fixed-bin histogram over a known value range; exactly mergeable."""

    def __init__(self, lo: float, hi: float, n_bins: int = 64):
        if not hi > lo:
            raise ValueError(f"need hi > lo, got [{lo}, {hi}]")
        if n_bins < 1:
            raise ValueError("n_bins must be >= 1")
        self.lo = float(lo)
        self.hi = float(hi)
        self.n_bins = int(n_bins)
        self.counts = np.zeros(n_bins, dtype=np.int64)
        self.underflow = 0
        self.overflow = 0

    def update(self, values: np.ndarray) -> "StreamingHistogram":
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size == 0:
            return self
        below = values < self.lo
        above = values >= self.hi
        self.underflow += int(below.sum())
        self.overflow += int(above.sum())
        inside = values[~below & ~above]
        if inside.size:
            bins = ((inside - self.lo) / (self.hi - self.lo) * self.n_bins).astype(int)
            np.clip(bins, 0, self.n_bins - 1, out=bins)
            np.add.at(self.counts, bins, 1)
        return self

    def merge(self, other: "StreamingHistogram") -> "StreamingHistogram":
        if (other.lo, other.hi, other.n_bins) != (self.lo, self.hi, self.n_bins):
            raise ValueError("histograms must share binning to merge")
        self.counts += other.counts
        self.underflow += other.underflow
        self.overflow += other.overflow
        return self

    @property
    def total(self) -> int:
        return int(self.counts.sum()) + self.underflow + self.overflow

    def quantile(self, q: float) -> float:
        """Approximate quantile from bin counts (linear within a bin)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        total = self.total
        if total == 0:
            return float("nan")
        target = q * total
        acc = self.underflow
        if target <= acc:
            return self.lo
        edges = np.linspace(self.lo, self.hi, self.n_bins + 1)
        for i, c in enumerate(self.counts):
            if acc + c >= target and c > 0:
                frac = (target - acc) / c
                return float(edges[i] + frac * (edges[i + 1] - edges[i]))
            acc += c
        return self.hi


@dataclasses.dataclass
class FeatureStats:
    """The normalization bundle a pipeline computes once per variable."""

    moments: RunningMoments
    extrema: MinMax
    histogram: Optional[StreamingHistogram] = None

    @classmethod
    def empty(
        cls,
        shape: Tuple[int, ...] = (),
        histogram_range: Optional[Tuple[float, float]] = None,
    ) -> "FeatureStats":
        hist = StreamingHistogram(*histogram_range) if histogram_range is not None else None
        return cls(RunningMoments(shape), MinMax(shape), hist)

    @classmethod
    def from_array(cls, array: np.ndarray) -> "FeatureStats":
        array = np.asarray(array, dtype=np.float64)
        out = cls.empty(tuple(array.shape[1:]))
        out.update(array)
        return out

    def update(self, batch: np.ndarray) -> "FeatureStats":
        self.moments.update(batch)
        self.extrema.update(batch)
        if self.histogram is not None:
            self.histogram.update(np.asarray(batch))
        return self

    def merge(self, other: "FeatureStats") -> "FeatureStats":
        self.moments.merge(other.moments)
        self.extrema.merge(other.extrema)
        if self.histogram is not None and other.histogram is not None:
            self.histogram.merge(other.histogram)
        return self

    @property
    def count(self) -> int:
        return self.moments.count

    @property
    def mean(self) -> np.ndarray:
        return self.moments.mean

    @property
    def std(self) -> np.ndarray:
        return self.moments.std
