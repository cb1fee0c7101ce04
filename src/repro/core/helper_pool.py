"""The one way this package starts helper threads.

Three loops hand bulk bytes to a small pool while their caller walks on
in order: the shard writer's pack-ahead (:class:`repro.io.shards.BlockPacker`
compresses column blocks), the shard reader's decode-ahead
(:class:`repro.io.shards.ShardSet` reads, checks and inflates the next
shards) and the payload walker's digest-ahead
(:func:`repro.core.payload.walk_payload` hashes sibling arrays).  All do
work that releases the GIL — ``zlib``, file reads and ``hashlib`` — and all
size and start their pool here.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import os
from typing import Iterator, List, Sequence

__all__ = ["helper_threads", "helper_pool"]


def _usable_cpus() -> List[int]:
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API off Linux
        return list(range(os.cpu_count() or 1))


def _start_apart(order: Iterator[int], cpus: Sequence[int]) -> None:
    """Pool-thread initializer: start the i-th thread on the i-th usable
    CPU, then hand it straight back to the scheduler.

    Measured on a 2-vCPU VM: woken next to their creator, both compress
    threads stayed on its core for whole runs (wall == cpu, the other core
    idle — the guest does not wake a task onto a halted vCPU); started
    apart they stay apart.  Nothing is left pinned.
    """
    try:
        os.sched_setaffinity(0, {cpus[next(order) % len(cpus)]})
        os.sched_setaffinity(0, cpus)
    except (AttributeError, OSError):  # pragma: no cover - placement is best effort
        pass


def helper_threads() -> int:
    """Threads a helper pool gets: two, or the one CPU there is."""
    return min(2, len(_usable_cpus()))


def helper_pool(name: str, threads: int) -> concurrent.futures.ThreadPoolExecutor:
    """A pool of *threads* threads named *name*, each started on its own
    usable CPU.  The caller shuts it down before it returns."""
    return concurrent.futures.ThreadPoolExecutor(
        threads,
        thread_name_prefix=name,
        initializer=_start_apart,
        initargs=(itertools.count(), _usable_cpus()),
    )
