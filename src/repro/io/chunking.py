"""Chunk-grid math and shard-size planning.

Sharding for scalable ingestion (the fifth processing stage) is mostly
arithmetic: how to cut an ``n_samples``-long dataset into shards that are
(a) large enough to amortize per-file and per-request overhead, and
(b) numerous and even enough that parallel readers stay balanced.
This module provides that arithmetic as pure functions so formats,
benchmarks, and the parallel-FS simulator all agree on layouts.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, List, Sequence, Tuple

__all__ = [
    "ChunkPlan",
    "plan_shards_by_count",
    "plan_shards_by_bytes",
    "read_balance",
]


@dataclasses.dataclass(frozen=True)
class ChunkPlan:
    """A partition of ``n_samples`` rows into contiguous shards.

    ``boundaries`` holds shard start offsets plus the final end, so shard
    *i* covers ``[boundaries[i], boundaries[i+1])``.
    """

    n_samples: int
    boundaries: Tuple[int, ...]

    def __post_init__(self) -> None:
        b = self.boundaries
        if len(b) < 2 or b[0] != 0 or b[-1] != self.n_samples:
            raise ValueError(f"invalid boundaries {b} for n={self.n_samples}")
        if any(b[i] > b[i + 1] for i in range(len(b) - 1)):
            raise ValueError("boundaries must be non-decreasing")

    @property
    def n_shards(self) -> int:
        return len(self.boundaries) - 1

    @property
    def sizes(self) -> List[int]:
        return [
            self.boundaries[i + 1] - self.boundaries[i]
            for i in range(self.n_shards)
        ]

    def shard_slice(self, index: int) -> slice:
        return slice(self.boundaries[index], self.boundaries[index + 1])

    def __iter__(self) -> Iterator[slice]:
        for i in range(self.n_shards):
            yield self.shard_slice(i)

    def imbalance(self) -> float:
        """Max/mean shard size ratio; 1.0 is perfectly balanced."""
        sizes = [s for s in self.sizes if True]
        if not sizes or self.n_samples == 0:
            return 1.0
        mean = self.n_samples / self.n_shards
        return max(sizes) / mean if mean else 1.0


def plan_shards_by_count(n_samples: int, n_shards: int) -> ChunkPlan:
    """Split *n_samples* into *n_shards* near-equal contiguous shards.

    Sizes differ by at most one sample (the remainder spreads over the
    first shards), the canonical balanced block distribution.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    if n_samples < 0:
        raise ValueError("n_samples must be >= 0")
    base, rem = divmod(n_samples, n_shards)
    boundaries = [0]
    for i in range(n_shards):
        boundaries.append(boundaries[-1] + base + (1 if i < rem else 0))
    return ChunkPlan(n_samples=n_samples, boundaries=tuple(boundaries))


def plan_shards_by_bytes(
    n_samples: int, bytes_per_sample: int, target_shard_bytes: int
) -> ChunkPlan:
    """Choose a shard count so each shard is close to *target_shard_bytes*.

    This is the "shard size" knob of DESIGN.md ablation 2.  At least one
    shard is always produced.
    """
    if bytes_per_sample <= 0:
        raise ValueError("bytes_per_sample must be positive")
    if target_shard_bytes <= 0:
        raise ValueError("target_shard_bytes must be positive")
    total = n_samples * bytes_per_sample
    n_shards = max(1, round(total / target_shard_bytes))
    n_shards = min(n_shards, max(1, n_samples))
    return plan_shards_by_count(n_samples, n_shards)


def read_balance(shard_bytes: Sequence[int], n_readers: int) -> float:
    """Parallel-read efficiency of a shard layout for *n_readers*.

    Shards are assigned greedily (largest-first) to the least-loaded
    reader; returns ``mean_load / max_load`` in (0, 1], where 1.0 means
    every reader finishes simultaneously.  Used by the shard-size ablation
    to show why giant shards hurt parallel ingestion.
    """
    if n_readers < 1:
        raise ValueError("n_readers must be >= 1")
    loads = [0] * n_readers
    for size in sorted((int(b) for b in shard_bytes), reverse=True):
        loads[loads.index(min(loads))] += size
    peak = max(loads)
    if peak == 0:
        return 1.0
    return (sum(loads) / n_readers) / peak
