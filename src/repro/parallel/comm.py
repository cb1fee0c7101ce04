"""SimComm: an MPI-like communicator executed in-process.

Leadership-facility pipelines are SPMD programs over MPI.  This module
reproduces the mpi4py programming model — ranks, point-to-point
``send``/``recv``, and the collectives the readiness pipelines use
(``bcast``, ``gather``, ``reduce``, ``allreduce``) — on top of per-pair
message queues and threads, so the *identical code paths* a real MPI port
would take are exercised deterministically on a single node.

Semantics follow mpi4py's lowercase (object) API: collectives are
implemented on top of point-to-point messaging rooted at rank 0, so
message/byte accounting (:class:`CommStats`) reflects a real flat
implementation and can be compared against the tree schedules in
:mod:`repro.parallel.reducers`.

Use :func:`run_spmd` to launch an SPMD function across a world::

    def main(comm):
        local = chunks[comm.rank].sum()
        return comm.allreduce(local)

    results = run_spmd(4, main)
"""

from __future__ import annotations

import dataclasses
import queue
import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.payload import payload_nbytes

__all__ = ["SimComm", "SimWorld", "CommStats", "run_spmd", "CommError", "PeerFailedError"]


class CommError(RuntimeError):
    """Misuse of the communicator (bad rank, root mismatch, etc.)."""


class PeerFailedError(CommError):
    """This rank was waiting on a world in which another rank has failed.

    Collateral damage: :func:`run_spmd` reports the failing rank's own
    exception in preference to it.
    """


#: queued on every channel of a failed world so blocked receivers wake
_WORLD_FAILED = object()


@dataclasses.dataclass
class CommStats:
    """Per-rank traffic accounting (messages sent and payload bytes)."""

    messages_sent: int = 0
    bytes_sent: int = 0

    def account(self, payload: Any) -> None:
        self.messages_sent += 1
        self.bytes_sent += payload_nbytes(payload)


class SimWorld:
    """Shared state for one communicator world of ``size`` ranks."""

    def __init__(self, size: int):
        if size < 1:
            raise CommError(f"world size must be >= 1, got {size}")
        self.size = size
        # one queue per (src, dst, tag-agnostic) channel; tags filtered at recv
        self._queues: Dict[Tuple[int, int], "queue.Queue[Any]"] = {
            (src, dst): queue.Queue() for src in range(size) for dst in range(size)
        }
        self._stashes: List[List[Tuple[int, int, Any]]] = [[] for _ in range(size)]

    def fail(self) -> None:
        """A rank died: release every peer blocked in a ``recv``.

        Without this a peer waiting on the dead rank discovers the failure
        only by sitting out :attr:`SimComm.TIMEOUT`.
        """
        for channel in self._queues.values():
            channel.put(_WORLD_FAILED)

    def comm(self, rank: int) -> "SimComm":
        if not 0 <= rank < self.size:
            raise CommError(f"rank {rank} out of range for size {self.size}")
        return SimComm(self, rank)


class SimComm:
    """One rank's handle on a :class:`SimWorld`."""

    #: wildcard tag for :meth:`recv`
    ANY_TAG = -1
    #: default per-receive timeout (seconds); generous but prevents deadlock
    #: from hanging the test suite forever
    TIMEOUT = 60.0

    def __init__(self, world: SimWorld, rank: int):
        self._world = world
        self.rank = rank
        self.size = world.size
        self.stats = CommStats()

    # -- point-to-point ------------------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Send a Python object to *dest* (asynchronous, buffered)."""
        if not 0 <= dest < self.size:
            raise CommError(f"dest {dest} out of range")
        self.stats.account(obj)
        self._world._queues[(self.rank, dest)].put((tag, obj))

    def recv(self, source: int, tag: int = ANY_TAG) -> Any:
        """Receive the next object from *source* (matching *tag* if given)."""
        if not 0 <= source < self.size:
            raise CommError(f"source {source} out of range")
        stash = self._world._stashes[self.rank]
        for i, (s, t, obj) in enumerate(stash):
            if s == source and (tag == self.ANY_TAG or t == tag):
                stash.pop(i)
                return obj
        channel = self._world._queues[(source, self.rank)]
        while True:
            try:
                message = channel.get(timeout=self.TIMEOUT)
            except queue.Empty:
                raise CommError(
                    f"rank {self.rank} timed out receiving from {source} (tag={tag})"
                ) from None
            if message is _WORLD_FAILED:
                # left in place: a later receive on this channel must not wait
                channel.put(_WORLD_FAILED)
                raise PeerFailedError(
                    f"rank {self.rank} stopped receiving from {source} (tag={tag}): "
                    "another rank failed"
                )
            t, obj = message
            if tag == self.ANY_TAG or t == tag:
                return obj
            stash.append((source, t, obj))

    # -- collectives -----------------------------------------------------------------
    def bcast(self, obj: Any = None) -> Any:
        """Broadcast *obj* from rank 0 to every rank; returns the object."""
        tag = -1001
        if self.rank == 0:
            for dest in range(1, self.size):
                self.send(obj, dest, tag)
            return obj
        return self.recv(0, tag)

    def gather(self, sendobj: Any) -> Optional[List[Any]]:
        """Gather one item per rank at rank 0 (rank order); others get None."""
        tag = -1003
        if self.rank == 0:
            out: List[Any] = [sendobj]
            for src in range(1, self.size):
                out.append(self.recv(src, tag))
            return out
        self.send(sendobj, 0, tag)
        return None

    def reduce(
        self, sendobj: Any, op: Callable[[Any, Any], Any] = lambda a, b: a + b
    ) -> Any:
        """Reduce with a binary *op* at rank 0; associative ops only."""
        gathered = self.gather(sendobj)
        if self.rank != 0:
            return None
        assert gathered is not None
        acc = gathered[0]
        for item in gathered[1:]:
            acc = op(acc, item)
        return acc

    def allreduce(
        self, sendobj: Any, op: Callable[[Any, Any], Any] = lambda a, b: a + b
    ) -> Any:
        """Reduce at rank 0, then broadcast the result to all."""
        reduced = self.reduce(sendobj, op=op)
        return self.bcast(reduced)

    def __repr__(self) -> str:
        return f"SimComm(rank={self.rank}, size={self.size})"


def run_spmd(size: int, fn: Callable[[SimComm], Any]) -> List[Any]:
    """Run ``fn(comm)`` on every rank of a fresh world.

    Returns the per-rank return values in rank order.  The first exception
    raised by any rank is re-raised in the caller after all threads have
    been joined (each gets 120 s), so failures surface instead of deadlocking.
    """
    world = SimWorld(size)
    results: List[Any] = [None] * size
    errors: List[Tuple[int, BaseException]] = []

    def runner(rank: int) -> None:
        try:
            results[rank] = fn(world.comm(rank))
        except BaseException as exc:  # noqa: BLE001 - propagated to caller
            errors.append((rank, exc))
            world.fail()

    threads = [
        threading.Thread(target=runner, args=(rank,), daemon=True)
        for rank in range(size)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
    alive = [t for t in threads if t.is_alive()]
    if alive and not errors:
        raise CommError(f"{len(alive)} rank(s) did not finish within 120.0s")
    if errors:
        # an interrupted receive is collateral damage from some rank's real
        # failure — surface the root cause, not the echo
        def priority(entry: Tuple[int, BaseException]) -> Tuple[int, int]:
            rank, exc = entry
            collateral = isinstance(exc, PeerFailedError)
            return (1 if collateral else 0, rank)

        _, exc = sorted(errors, key=priority)[0]
        raise exc
    return results
