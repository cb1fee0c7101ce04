"""Pipeline scaling simulator: readiness pipelines at N ranks.

Answers the question the paper's Section 2.2 raises — *does this pipeline
keep up at leadership scale?* — with an analytic performance model.  A
pipeline pass over a dataset decomposes into three cost components per
rank count P:

* **compute** — perfectly parallel transform work:
  ``bytes / (rate * P)``.
* **communication** — the statistics allreduce (alpha-beta tree model,
  ``log2 P`` rounds) plus any fixed per-stage collective rounds.
* **I/O** — reading sources and writing shards through the striped
  filesystem model, which contends and saturates.

The model deliberately produces the canonical strong-scaling shape: linear
speedup while compute dominates, a knee where filesystem contention takes
over, and an Amdahl plateau set by serial fractions.  Tests assert those
*shape* properties (monotone regions, knee within the sweep, plateau
level), not absolute seconds.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Optional, Sequence

from repro.parallel.cluster import ClusterSpec

__all__ = [
    "WorkloadSpec",
    "ScalingPoint",
    "ScalingCurve",
    "PipelineScalingModel",
]


def _ceil_div(nbytes: float, parts: int) -> int:
    """Bytes per participant, rounded *up* so no workload bytes vanish.

    Floor division dropped up to ``parts - 1`` bytes per client and read
    as zero bytes whenever the payload was smaller than the participant
    count, silently underestimating small-workload I/O.
    """
    return int(math.ceil(float(nbytes) / parts)) if nbytes > 0 else 0


@dataclasses.dataclass(frozen=True)
class WorkloadSpec:
    """One pipeline pass to be scaled.

    Attributes
    ----------
    name:
        Workload label (e.g. ``"climate-regrid-normalize-shard"``).
    input_bytes:
        Bytes read from source formats.
    output_bytes:
        Bytes written as shards (post compression).
    compute_passes:
        How many times each input byte flows through a transform
        (regrid + normalize = 2 passes, etc.).
    stats_vector_bytes:
        Size of the per-rank statistics message in the allreduce.
    serial_fraction:
        Fraction of total work that cannot parallelize (manifest writes,
        metadata merges) — the Amdahl term.
    """

    name: str
    input_bytes: float
    output_bytes: float
    compute_passes: float = 2.0
    stats_vector_bytes: float = 64 * 1024
    serial_fraction: float = 1e-4


@dataclasses.dataclass(frozen=True)
class ScalingPoint:
    """Model output at one rank count."""

    ranks: int
    compute_seconds: float
    comm_seconds: float
    io_seconds: float
    serial_seconds: float

    @property
    def total_seconds(self) -> float:
        return (
            self.compute_seconds
            + self.comm_seconds
            + self.io_seconds
            + self.serial_seconds
        )

    def throughput(self, total_bytes: float) -> float:
        return total_bytes / self.total_seconds if self.total_seconds > 0 else 0.0


@dataclasses.dataclass
class ScalingCurve:
    """A strong-scaling sweep with convenience analytics."""

    workload: WorkloadSpec
    cluster_name: str
    points: List[ScalingPoint]

    def speedup(self) -> List[float]:
        base = self.points[0].total_seconds
        return [base / p.total_seconds for p in self.points]

    def efficiency(self) -> List[float]:
        base_ranks = self.points[0].ranks
        return [
            s * base_ranks / p.ranks
            for s, p in zip(self.speedup(), self.points)
        ]

    def knee_ranks(self) -> Optional[int]:
        """First rank count whose parallel efficiency drops below 50 %."""
        for eff, point in zip(self.efficiency(), self.points):
            if eff < 0.5:
                return point.ranks
        return None

    def io_dominated_from(self) -> Optional[int]:
        """First rank count where I/O exceeds compute time (the crossover)."""
        for point in self.points:
            if point.io_seconds > point.compute_seconds:
                return point.ranks
        return None


class PipelineScalingModel:
    """Evaluate a workload's strong scaling on a cluster model."""

    def __init__(self, cluster: ClusterSpec):
        cluster.validate()
        self.cluster = cluster

    def evaluate(self, workload: WorkloadSpec, ranks: int) -> ScalingPoint:
        if ranks < 1:
            raise ValueError("ranks must be >= 1")
        if ranks > self.cluster.max_ranks:
            raise ValueError(
                f"{ranks} ranks exceeds cluster capacity {self.cluster.max_ranks}"
            )
        total_compute_bytes = workload.input_bytes * workload.compute_passes
        parallel_bytes = total_compute_bytes * (1.0 - workload.serial_fraction)
        compute = parallel_bytes / (self.cluster.preprocess_rate * ranks)
        serial = (
            total_compute_bytes
            * workload.serial_fraction
            / self.cluster.preprocess_rate
        )
        # allreduce: binary tree, log2(P) rounds of (alpha + bytes * beta)
        rounds = max(1, math.ceil(math.log2(max(ranks, 2))))
        beta = 1.0 / self.cluster.nic_bandwidth
        comm = rounds * (
            self.cluster.interconnect_latency + workload.stats_vector_bytes * beta
        )
        # I/O: read input + write output, each a collective transfer with
        # fair-share contention on the filesystem model. One "client" per
        # node (node-level aggregation), like collective MPI-IO.
        nodes = max(1, math.ceil(ranks / self.cluster.ranks_per_node))
        fs = self.cluster.filesystem
        read_time = fs.collective_write_time(
            n_clients=nodes,
            bytes_per_client=_ceil_div(workload.input_bytes, nodes),
        )
        write_time = fs.collective_write_time(
            n_clients=nodes,
            bytes_per_client=_ceil_div(workload.output_bytes, nodes),
        )
        # NIC ceiling per node
        nic_floor = (workload.input_bytes + workload.output_bytes) / (
            nodes * self.cluster.nic_bandwidth
        )
        io = max(read_time + write_time, nic_floor)
        return ScalingPoint(
            ranks=ranks,
            compute_seconds=compute,
            comm_seconds=comm,
            io_seconds=io,
            serial_seconds=serial,
        )

    def sweep(
        self, workload: WorkloadSpec, rank_counts: Sequence[int]
    ) -> ScalingCurve:
        points = [self.evaluate(workload, r) for r in sorted(rank_counts)]
        return ScalingCurve(
            workload=workload, cluster_name=self.cluster.name, points=points
        )
