"""Striped parallel-filesystem model (Lustre-like).

Scaling experiments in the paper's setting run against Lustre/GPFS: files
are striped over object storage targets (OSTs), aggregate bandwidth grows
with stripe count until OST contention saturates it.  This module models
exactly that arithmetic so I/O-scaling benches produce curves with the
right *shape* (linear region, contention knee, saturation plateau)
without real hardware.

The model is analytic and deterministic:

* An :class:`OST` has a bandwidth (bytes/s) and per-request latency.
* A :class:`FileStripe` spreads a file round-robin over ``stripe_count``
  OSTs in ``stripe_size`` units.
* :meth:`ParallelFileSystem.simulate_io` takes a set of concurrent
  transfers and computes each one's completion time under fair-share
  bandwidth at every OST: an OST serving *k* active streams gives each
  ``bandwidth / k``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence


__all__ = ["OST", "FileStripe", "Transfer", "TransferResult", "ParallelFileSystem"]


@dataclasses.dataclass(frozen=True)
class OST:
    """One object storage target."""

    index: int
    bandwidth: float  # bytes per second
    latency: float = 0.5e-3  # seconds per request


@dataclasses.dataclass(frozen=True)
class FileStripe:
    """Striping layout of one file."""

    stripe_count: int
    stripe_size: int  # bytes per stripe unit
    offset_ost: int = 0  # first OST index (round-robin start)

    def ost_bytes(self, nbytes: int, n_osts: int) -> Dict[int, int]:
        """Bytes of an *nbytes* file landing on each OST index."""
        if self.stripe_count < 1 or self.stripe_size < 1:
            raise ValueError("stripe_count and stripe_size must be >= 1")
        count = min(self.stripe_count, n_osts)
        n_units = -(-nbytes // self.stripe_size) if nbytes else 0
        per_slot: Dict[int, int] = {}
        if n_units:
            full, extra = divmod(n_units, count)
            tail = nbytes - (n_units - 1) * self.stripe_size  # last unit's size
            last_slot = (n_units - 1) % count
            for slot in range(min(count, n_units)):
                units_here = full + (1 if slot < extra else 0)
                size = units_here * self.stripe_size
                if slot == last_slot:
                    size -= self.stripe_size - tail
                if size:
                    per_slot[slot] = size
        # stripe slot j lives on OST (offset_ost + j) % n_osts
        return {
            (self.offset_ost + slot) % n_osts: size
            for slot, size in per_slot.items()
        }


@dataclasses.dataclass(frozen=True)
class Transfer:
    """One client writing/reading one file's worth of bytes."""

    client: int
    nbytes: int
    stripe: FileStripe


@dataclasses.dataclass(frozen=True)
class TransferResult:
    client: int
    nbytes: int
    seconds: float

    @property
    def bandwidth(self) -> float:
        return self.nbytes / self.seconds if self.seconds > 0 else 0.0


class ParallelFileSystem:
    """A pool of OSTs with fair-share contention."""

    def __init__(self, n_osts: int = 8, ost_bandwidth: float = 2e9):
        if n_osts < 1:
            raise ValueError("n_osts must be >= 1")
        self.osts = [OST(i, ost_bandwidth) for i in range(n_osts)]

    @property
    def n_osts(self) -> int:
        return len(self.osts)

    def default_stripe(self, offset: int = 0) -> FileStripe:
        """A file striped over every OST, starting at OST *offset*."""
        return FileStripe(
            stripe_count=self.n_osts,
            stripe_size=1 << 20,
            offset_ost=offset % self.n_osts,
        )

    # -- the core model -----------------------------------------------------------
    def simulate_io(self, transfers: Sequence[Transfer]) -> List[TransferResult]:
        """Completion time of each concurrent transfer under fair sharing.

        Model: every transfer splits into per-OST demands.  All transfers
        start together; each OST divides its bandwidth equally among the
        transfers demanding it.  A transfer finishes when its slowest OST
        portion finishes (collective-write semantics).  Progressive
        departure is modelled in rounds: when the fastest remaining
        transfer completes, shares are recomputed.
        """
        demands: List[Dict[int, float]] = []
        for tr in transfers:
            per_ost = tr.stripe.ost_bytes(tr.nbytes, self.n_osts)
            demands.append({ost: float(b) for ost, b in per_ost.items()})
        remaining = [d.copy() for d in demands]
        active = {i for i, d in enumerate(remaining) if sum(d.values()) > 0}
        finish = [0.0] * len(transfers)
        now = 0.0
        # request-latency charge: one latency per stripe-unit request batch
        for i, tr in enumerate(transfers):
            n_requests = max(1, len(demands[i]))
            finish[i] += self.osts[0].latency * n_requests
        guard = 0
        while active:
            guard += 1
            if guard > 10 * len(transfers) + 100:
                raise RuntimeError("filesystem model failed to converge")
            # per-OST active stream counts
            streams: Dict[int, int] = {}
            for i in active:
                for ost in remaining[i]:
                    if remaining[i][ost] > 0:
                        streams[ost] = streams.get(ost, 0) + 1
            # per-transfer current rate = bottleneck over its OSTs
            rates: Dict[int, float] = {}
            for i in active:
                per_ost_rates = []
                for ost, nbytes in remaining[i].items():
                    if nbytes <= 0:
                        continue
                    share = self.osts[ost].bandwidth / streams[ost]
                    per_ost_rates.append((ost, share))
                if not per_ost_rates:
                    rates[i] = float("inf")
                    continue
                # collective transfer: all portions proceed in parallel, each
                # at its OST share; the transfer's finish is driven by the
                # portion with the largest remaining/share time.
                rates[i] = max(remaining[i][ost] / share for ost, share in per_ost_rates)
            # advance to the earliest completion among active transfers
            dt = min(rates.values())
            if dt == float("inf"):
                for i in list(active):
                    finish[i] += now
                    active.discard(i)
                break
            now += dt
            done = []
            for i in list(active):
                # progress each portion by share * dt
                for ost in list(remaining[i]):
                    if remaining[i][ost] <= 0:
                        continue
                    share = self.osts[ost].bandwidth / streams[ost]
                    remaining[i][ost] = max(0.0, remaining[i][ost] - share * dt)
                if sum(remaining[i].values()) <= 1e-6:
                    finish[i] += now
                    done.append(i)
            for i in done:
                active.discard(i)
            if not done:
                # numerical safety: force the minimal-time transfer done
                j = min(active, key=lambda i: rates[i])
                finish[j] += now
                active.discard(j)
        return [
            TransferResult(client=tr.client, nbytes=tr.nbytes, seconds=finish[i])
            for i, tr in enumerate(transfers)
        ]

    # -- convenience wrappers --------------------------------------------------------
    def collective_write_time(self, n_clients: int, bytes_per_client: int) -> float:
        """Makespan of *n_clients* each writing their own file, striped over
        every OST.

        Files are offset round-robin so client *i* starts on OST ``i % n``,
        the standard load-spreading layout.
        """
        transfers = [
            Transfer(
                client=i,
                nbytes=bytes_per_client,
                stripe=self.default_stripe(offset=i),
            )
            for i in range(n_clients)
        ]
        results = self.simulate_io(transfers)
        return max(r.seconds for r in results) if results else 0.0
