"""The one way this package starts helper threads.

Three loops hand bulk bytes to a small pool while their caller walks on
in order: the shard writer's pack-ahead (:class:`repro.io.shards.BlockPacker`
compresses column blocks), the block readers' decode-ahead
(:func:`decode_ahead` — ``read_netcdf``, ``read_shard`` and
:class:`repro.io.shards.ShardSet` read, check and decode the next blocks)
and the payload walker's digest-ahead
(:func:`repro.core.payload.walk_payload` hashes sibling arrays).  A fourth
user, the runner's write-behind, lands a stage's checkpoint commit while
the next stage runs.  All do work that releases the GIL — ``zlib``, file
reads, ``hashlib`` and ``fsync`` — and all size and start their pool here.
"""

from __future__ import annotations

import collections
import concurrent.futures
import itertools
import os
from typing import Callable, Deque, Iterator, List, Optional, Sequence, TypeVar

__all__ = ["helper_threads", "helper_pool", "behind", "decode_ahead"]

T = TypeVar("T")


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


def behind(
    pool: Optional[concurrent.futures.ThreadPoolExecutor], job: Callable[[], T]
) -> concurrent.futures.Future:
    """*job* on *pool*, or — with no pool (a 1-CPU host) — run now, inline;
    either way its result or its ``Exception`` is the returned future's."""
    if pool is not None:
        return pool.submit(job)
    done: concurrent.futures.Future = concurrent.futures.Future()
    try:
        done.set_result(job())
    except Exception as exc:
        done.set_exception(exc)
    return done


def decode_ahead(
    name: str, count: int, plan: Callable[[int], Callable[[], T]]
) -> Iterator[T]:
    """Decode-ahead: yield ``plan(k)()`` for each ``k in range(count)``, in order.

    ``plan(k)`` runs on the calling thread — everything job *k* allocates
    is allocated there — and returns the job, which runs on a pool of
    ``min(2, usable CPUs)`` threads named *name*, at most that many jobs in
    flight ahead of the caller.  With nothing to overlap — a 1-CPU host, or
    one job — each job is planned and run inline, threadless, when it is
    taken.  An error in job *k*, planned or run, on either thread, is
    raised when job *k* is taken, after jobs ``0..k-1`` were yielded.  The
    pool lives for one call (or one generator, finished, closed or
    abandoned) and no thread outlives it.
    """
    threads = helper_threads() if count > 1 else 1
    pool = helper_pool(name, threads) if threads > 1 else None
    pending: Deque[concurrent.futures.Future] = collections.deque()
    try:
        for k in range(count):
            for ahead in range(k + len(pending), min(k + threads, count)):
                pending.append(_submit(pool, plan, ahead))
            yield pending.popleft().result()
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)


def _submit(
    pool: Optional[concurrent.futures.ThreadPoolExecutor],
    plan: Callable[[int], Callable[[], T]],
    k: int,
) -> concurrent.futures.Future:
    try:
        job = plan(k)
    except Exception as exc:
        # like a pool thread's, a calling-thread error is raised where its
        # job is taken
        done: concurrent.futures.Future = concurrent.futures.Future()
        done.set_exception(exc)
        return done
    return behind(pool, job)
