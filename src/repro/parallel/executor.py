"""High-level parallel execution drivers built on SimComm.

Pipelines shouldn't hand-roll SPMD boilerplate.  This module provides the
two patterns the archetype pipelines actually use:

* :func:`parallel_map` — embarrassingly parallel map over items, each
  rank a contiguous block, results concatenated in item order.
* :func:`distributed_stats` — the canonical "partition, accumulate local
  moments, allreduce-merge" pattern for normalization statistics.
"""

from __future__ import annotations

from typing import Any, Callable, List, Sequence

import numpy as np

from repro.parallel.comm import SimComm, run_spmd
from repro.parallel.partition import block_partition
from repro.parallel.stats import FeatureStats

__all__ = [
    "parallel_map",
    "distributed_stats",
]


def parallel_map(
    fn: Callable[[Any], Any], items: Sequence[Any], n_ranks: int = 4
) -> List[Any]:
    """Apply *fn* to every item across *n_ranks* SPMD workers, each rank a
    contiguous block of the items.  Results come back in item order.
    """
    assignments = block_partition(len(items), n_ranks)

    def worker(comm: SimComm) -> List[Any]:
        my = assignments[comm.rank]
        local = [(int(i), fn(items[int(i)])) for i in my.indices]
        gathered = comm.gather(local)
        if comm.rank != 0:
            return []
        flat = [pair for part in gathered for pair in part]
        flat.sort(key=lambda pair: pair[0])
        return [value for _, value in flat]

    return run_spmd(n_ranks, worker)[0]


def distributed_stats(data: np.ndarray, n_ranks: int = 4) -> FeatureStats:
    """Compute exact feature statistics with per-rank partials + merge,
    each rank a contiguous block of the rows.

    Equivalent to ``FeatureStats.from_array(data)`` but exercising the
    partition/accumulate/allreduce path every rank of a real HPC job would
    take.  Exactness is asserted by tests and the SCALE-STATS bench.
    """
    data = np.asarray(data, dtype=np.float64)
    assignments = block_partition(data.shape[0], n_ranks)

    def worker(comm: SimComm) -> FeatureStats:
        my = assignments[comm.rank]
        local = FeatureStats.empty(tuple(data.shape[1:]))
        if my.indices.size:
            local.update(data[my.indices])
        merged = comm.allreduce(local, op=lambda a, b: a.merge(b))
        return merged

    return run_spmd(n_ranks, worker)[0]

