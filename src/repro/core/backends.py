"""Pluggable execution backends: the *how* of pipeline execution.

The plan layer (:mod:`repro.core.plan`) describes what runs; an
:class:`ExecutionBackend` decides how the data-parallel inner work of a
stage executes.  Stages reach their backend through ``ctx.backend`` and
speak one small protocol — :meth:`~ExecutionBackend.map`,
:meth:`~ExecutionBackend.stats`, :meth:`~ExecutionBackend.shard_write` —
so the same stage code runs serially, over a thread pool, over the
simulated SPMD world, or over supervised worker processes without
modification.  Four implementations ship:

* :class:`SerialBackend` — everything inline, one partition at a time
  (the reference semantics every other backend must reproduce);
* :class:`ThreadedBackend` — a thread pool over the same partitions,
  suited to NumPy-heavy work that releases the GIL;
* :class:`SimSPMDBackend` — the SPMD drivers of
  :mod:`repro.parallel.executor` (rank-per-partition over SimComm), the
  code path a real MPI port would take;
* :class:`~repro.workers.backend.ProcessBackend` — a supervised pool of
  forked worker processes (:mod:`repro.workers`), the only backend that
  survives worker death and enforces deadlines preemptively.

**Numeric reproducibility contract.**  Statistics are always computed
over the same logical *block partition* and partials are merged in
partition order, whichever backend runs them.  Execution strategy
therefore never changes the numbers: Serial, Threaded, SimSPMD, and
Process produce bitwise-identical statistics, payloads, and shard files
for the same plan and input.  Backend parity is enforced by tests.

**Task-level fault tolerance.**  Every backend runs its fanned-out map
tasks through :meth:`~ExecutionBackend.run_task`; when a
:class:`~repro.faults.retry.RetryPolicy` is attached (the runner does
this when retries are enabled), each task is retried in place on
transient faults.  Because :meth:`map` returns results in input order,
a retried partition re-enters the merge at its original position — the
bitwise-parity contract survives retries by construction.

**One decoration point.**  A backend implements only the hook-free
:meth:`~ExecutionBackend.fan_out`; the public ops on the base class call
the run's :attr:`~ExecutionBackend.hooks` around it.  A run installs
``(recorder, injector)``, in that order: the telemetry
:class:`~repro.obs.instrument.RunRecorder` counts and spans each op, then
the :class:`~repro.faults.inject.FaultInjector` numbers it and injects its
faults.  ``stats`` and ``shard_write`` fan out through the primitive, so
their inner tasks are neither numbered nor spanned.
"""

from __future__ import annotations

import abc
import contextlib
import functools
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import MappingProxyType
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.retry import Clock, RetryPolicy, RetryStats
    from repro.workers.drain import DrainController

from repro.core.dataset import Dataset
from repro.io.compression import get_codec
from repro.io.shards import (
    BlockPacker,
    ShardManifest,
    commit_manifest,
    shard_table,
    write_table_entry,
)
from repro.parallel.executor import distributed_stats, parallel_map
from repro.parallel.partition import block_partition
from repro.parallel.stats import FeatureStats

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ThreadedBackend",
    "SimSPMDBackend",
    "BACKENDS",
    "batch_slices",
    "get_backend",
]

#: canonical partition count for statistics — shared by every backend so
#: merge order (and therefore floating-point results) never depends on
#: which backend executed the reduction
DEFAULT_STATS_PARTITIONS = 4


def batch_slices(n_items: int, batch_size: int) -> List[slice]:
    """Deterministic contiguous batching: ``[0:b], [b:2b], ...``.

    The partition depends only on ``(n_items, batch_size)`` — never on
    the backend, its width, or scheduling — so batched fan-outs stay
    bitwise reproducible across executors.  The final slice may be short.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    return [
        slice(start, min(start + batch_size, n_items))
        for start in range(0, n_items, batch_size)
    ]


class ExecutionBackend(abc.ABC):
    """The protocol every backend implements (stages see it as ``ctx.backend``)."""

    #: registry name; also used in run events and evidence details
    name: str = "abstract"

    #: capability flags — what the backend can *guarantee*, surfaced in
    #: the CLI's ``backends`` listing and branched on by the runner:
    #: can a blown stage deadline preempt (kill) a running task, and
    #: does a dying worker get recovered instead of failing the stage?
    preemptive_timeout: bool = False
    survives_worker_crash: bool = False

    #: does :meth:`fan_out` run its items one after another, in order, on
    #: the calling thread?  Then :meth:`shard_write` has idle cores to compress
    #: column blocks on ahead of the writer; a backend that already fans
    #: shards out packs inline (a pool inside each worker only adds
    #: contention, and a forked worker inherits no threads)
    packs_ahead: bool = False

    #: the run's decorations (module docstring), installed by the runner for
    #: one run and cleared after it; an empty slot is the bare hot path
    hooks: Tuple[Any, ...] = ()

    #: the supervision surface only ``ProcessBackend`` acts on, declared here
    #: because the runner and the recorder read it on every backend: a
    #: run-scoped stop flag checked between task grants, the per-lease
    #: deadline (s) a preemptive backend kills at, and its crash / counter /
    #: heartbeat tallies
    drain: Optional["DrainController"] = None
    lease_timeout: Optional[float] = None
    crash_events: Sequence[Any] = ()
    worker_counters: Mapping[str, int] = MappingProxyType({})
    heartbeat_gap_max: float = 0.0

    #: task-level retry configuration, attached by the runner (or by
    #: :meth:`configure_retry`); ``None`` disables task retries
    task_retry: Optional["RetryPolicy"] = None
    #: clock task retries sleep on (``None`` = real time)
    task_clock: Optional["Clock"] = None
    #: thread-safe tally task retries are recorded into (``None`` = untallied)
    task_retry_stats: Optional["RetryStats"] = None

    @property
    def width(self) -> int:
        """Degree of parallelism the backend runs at (1 for serial)."""
        return 1

    def configure_retry(
        self,
        policy: Optional["RetryPolicy"],
        *,
        clock: Optional["Clock"] = None,
        stats: Optional["RetryStats"] = None,
    ) -> "ExecutionBackend":
        """Attach (or clear) a task-level retry policy; returns self."""
        self.task_retry = policy
        self.task_clock = clock
        self.task_retry_stats = stats
        return self

    def run_task(self, fn: Callable[[Any], Any]) -> Callable[[Any], Any]:
        """Wrap a map task with this backend's task-level retry (if any).

        The wrapped callable retries transient faults in place, so the
        caller's result ordering — and therefore merge order — is
        untouched.  Permanent faults propagate immediately.
        """
        policy = self.task_retry
        if policy is None:
            return fn
        # lazy import: the repro.faults package imports this module
        from repro.faults.retry import call_with_retry

        clock = self.task_clock
        stats = self.task_retry_stats

        def resilient(item: Any) -> Any:
            def on_retry(attempt: int, exc: BaseException, delay: float) -> None:
                if stats is not None:
                    stats.record(type(exc).__name__)
                # inside a supervised worker, `stats` is a forked copy the
                # parent never sees; replay the retry over the pipe so the
                # run's task-retry accounting stays backend-independent
                from repro.workers.ipc import emit_task_event

                emit_task_event("task-retry", {"error_type": type(exc).__name__})

            return call_with_retry(
                lambda: fn(item),
                policy=policy,
                clock=clock,
                key=f"{self.name}:task",
                on_retry=on_retry,
            ).value

        return resilient

    @abc.abstractmethod
    def fan_out(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        """The hook-free primitive under every op: apply ``run_task(fn)``
        to every item, results in input order."""

    @contextlib.contextmanager
    def _hooked(self, op: str, tasks: int, **facts: Any) -> Iterator[List[Any]]:
        """Enter each hook's ``backend_op(self, op, tasks, **facts)``, the first
        outermost, and yield what each yields (``map``: a ``wrap(task, indexed)``)."""
        with contextlib.ExitStack() as stack:
            yield [stack.enter_context(h.backend_op(self, op, tasks, **facts)) for h in self.hooks]

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        """Apply *fn* to every item; results return in input order.

        *fn* must be pure with respect to the items — backends may run
        calls concurrently and in any schedule.
        """
        return self._map(fn, items)

    def _map(self, fn: Callable[[Any], Any], items: Sequence[Any], **facts: Any) -> List[Any]:
        if not self.hooks:
            # untraced and fault-free: the task itself, unwrapped
            return self.fan_out(fn, items)
        items = list(items)

        def task(indexed: Tuple[int, Any]) -> Any:
            return fn(indexed[1])

        with self._hooked("map", len(items), **facts) as wraps:
            for wrap in wraps:
                # a later hook's wrap encloses an earlier one's: the
                # injector's fault point runs outside the recorder's span
                task = functools.partial(wrap, task)
            return self.fan_out(task, list(enumerate(items)))

    def map_batches(
        self,
        fn: Callable[[Sequence[Any]], Sequence[Any]],
        items: Sequence[Any],
        *,
        batch_size: Optional[int] = None,
        record_fn: Optional[Callable[[Any], Any]] = None,
    ) -> List[Any]:
        """Apply a chunk-wise *fn* over deterministic contiguous batches.

        ``fn(chunk) -> results`` receives a list of consecutive items and
        must return one result per item, in order.  Batches are cut by
        :func:`batch_slices` — a pure function of ``(len(items),
        batch_size)`` — and fanned out through :meth:`map`, so results
        (and therefore downstream shard bytes) are identical to the
        per-record path on every backend.

        With no ``batch_size`` (the unbatched/fixed-plan case) the call
        degrades to plain per-record ``map`` using ``record_fn`` (or
        ``fn`` on singleton chunks), keeping existing telemetry and task
        accounting untouched for unbatched stages.
        """
        items = list(items)
        if not batch_size:
            if record_fn is not None:
                return self.map(record_fn, items)
            return self.map(lambda item: list(fn([item]))[0], items)
        slices = batch_slices(len(items), int(batch_size))
        chunks = [items[s] for s in slices]
        out: List[Any] = []
        # the hooks see the slice grid: batching telemetry is logical too
        for s, results in zip(slices, self._map(fn, chunks, batches=slices)):
            results = list(results)
            expected = s.stop - s.start
            if len(results) != expected:
                raise ValueError(
                    f"batched task returned {len(results)} result(s) for a "
                    f"batch of {expected} item(s); map_batches requires one "
                    "result per item, in order"
                )
            out.extend(results)
        return out

    def stats(
        self, data: np.ndarray, *, partitions: int = DEFAULT_STATS_PARTITIONS
    ) -> FeatureStats:
        """Exact feature statistics via partition / accumulate / merge.

        The sample axis is block-partitioned into *partitions* chunks,
        a :class:`FeatureStats` partial accumulates per chunk, and the
        partials merge in partition order (Chan's exact formula).  The
        partition grid is fixed by the caller, not the backend, so the
        result is bitwise identical across backends.
        """
        with self._hooked("stats", partitions, rows=len(data)):
            return self.reduce_stats(data, partitions)

    def reduce_stats(self, data: np.ndarray, partitions: int) -> FeatureStats:
        """The hook-free reduction under :meth:`stats`."""
        data = np.asarray(data, dtype=np.float64)
        assignments = block_partition(data.shape[0], partitions, None)
        shape = tuple(data.shape[1:])

        def partial(assignment: Any) -> FeatureStats:
            local = FeatureStats.empty(shape)
            if assignment.indices.size:
                local.update(data[assignment.indices])
            return local

        partials = self.fan_out(partial, assignments)
        acc = partials[0]
        for part in partials[1:]:
            acc.merge(part)
        return acc

    def shard_write(
        self,
        dataset: Dataset,
        directory: Union[str, Path],
        splits: Dict[str, np.ndarray],
        *,
        shards_per_split: int = 4,
        codec_name: str = "raw",
        codec_level: Optional[int] = None,
        certificate: Optional[Mapping[str, Any]] = None,
        schedule: Optional[Mapping[str, Any]] = None,
    ) -> ShardManifest:
        """Export *dataset* as a shard set, parallelising over shard files.

        Each entry of the shard table is written independently through
        :meth:`fan_out`; the manifest is assembled in deterministic
        split/index order afterwards, so shard contents and accounting
        match across backends byte for byte.  Where :meth:`fan_out` walks
        the table in order on this thread (:attr:`packs_ahead`), column
        blocks are compressed ahead of the writer on the packer's threads,
        which live no longer than this call.
        """
        directory = Path(directory)
        table = shard_table(splits, shards_per_split)
        with self._hooked(
            "shard_write", len(table), codec=codec_name, table=table, directory=directory
        ):
            directory.mkdir(parents=True, exist_ok=True)
            codec = get_codec(codec_name, codec_level)
            with BlockPacker(
                dataset, dataset.schema.names, table, codec, ahead=self.packs_ahead
            ) as packer:
                written = self.fan_out(
                    lambda index: write_table_entry(packer, directory, index),
                    range(len(table)),
                )
            return commit_manifest(
                dataset, directory, splits, written, codec_name=codec_name,
                certificate=certificate, schedule=schedule,
            )

    @classmethod
    def capabilities(cls) -> Dict[str, bool]:
        """The capability flags as a dict (for listings and reports)."""
        return {
            "preemptive_timeout": bool(cls.preemptive_timeout),
            "survives_worker_crash": bool(cls.survives_worker_crash),
        }

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r} width={self.width}>"


class SerialBackend(ExecutionBackend):
    """Reference backend: every operation inline, one item at a time."""

    name = "serial"
    packs_ahead = True

    def fan_out(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        task = self.run_task(fn)
        return [task(item) for item in items]


class ThreadedBackend(ExecutionBackend):
    """Thread-pool backend: partitionable work fans out over ``workers`` threads.

    Best when stage internals are NumPy-heavy (array slicing, codec
    compression, file writes) and release the GIL.  Results are collected
    in submission order, so outputs are independent of thread scheduling.
    """

    name = "threaded"

    def __init__(self, workers: int = 4):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)

    @property
    def width(self) -> int:
        return self.workers

    def fan_out(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        items = list(items)
        if not items:
            return []
        task = self.run_task(fn)
        with ThreadPoolExecutor(max_workers=min(self.workers, len(items))) as pool:
            return list(pool.map(task, items))


class SimSPMDBackend(ExecutionBackend):
    """SPMD backend over the in-process MPI-like :class:`SimComm` world.

    Wraps the drivers of :mod:`repro.parallel.executor` — ``parallel_map``
    for fan-out (shard export included: the inherited
    :meth:`~ExecutionBackend.shard_write` writes rank-parallel through it
    and gathers to rank 0) and ``distributed_stats`` for the
    partition/allreduce statistics pattern — behind the common backend
    protocol, so pipelines exercise the exact communication pattern a
    leadership-facility MPI port would use.
    """

    name = "simspmd"

    def __init__(self, n_ranks: int = 4):
        if n_ranks < 1:
            raise ValueError(f"n_ranks must be >= 1, got {n_ranks}")
        self.n_ranks = int(n_ranks)

    @property
    def width(self) -> int:
        return self.n_ranks

    def fan_out(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        items = list(items)
        if not items:
            return []
        return parallel_map(self.run_task(fn), items, n_ranks=self.n_ranks)

    def reduce_stats(self, data: np.ndarray, partitions: int) -> FeatureStats:
        # world size == partition count: rank-order allreduce merge is then
        # the same left fold over the same block partition as the base
        # implementation, keeping results bitwise identical
        return distributed_stats(data, n_ranks=partitions)


#: name -> backend class; extend by registering new classes here or by
#: passing instances directly wherever a backend is accepted
BACKENDS: Dict[str, Type[ExecutionBackend]] = {
    SerialBackend.name: SerialBackend,
    ThreadedBackend.name: ThreadedBackend,
    SimSPMDBackend.name: SimSPMDBackend,
}


def get_backend(
    spec: Union[str, ExecutionBackend, None] = None, **options: Any
) -> ExecutionBackend:
    """Resolve a backend from a name, an instance, or ``None`` (serial).

    ``options`` are forwarded to the backend constructor when resolving
    by name (e.g. ``get_backend("threaded", workers=8)``).
    """
    if spec is None:
        return SerialBackend()
    if isinstance(spec, ExecutionBackend):
        if options:
            raise ValueError("backend options only apply when resolving by name")
        return spec
    try:
        cls = BACKENDS[spec]
    except KeyError:
        raise ValueError(
            f"unknown backend {spec!r}; choose from {sorted(BACKENDS)}"
        ) from None
    return cls(**options)


# the supervised multi-process backend lives in its own package (it
# builds on this module); a guarded import at the end of the body makes
# registration safe under either import order, and quietly skips
# platforms without the fork start method
try:  # pragma: no cover - exercised on every POSIX import
    from repro.workers.backend import ProcessBackend  # noqa: E402,F401
except Exception:  # pragma: no cover - non-POSIX / broken interpreter
    pass
