"""Cluster specification for the scaling simulator.

A minimal description of a leadership-class machine: nodes with a compute
rate for preprocessing work, a NIC bandwidth per node, an interconnect
latency, and an attached :class:`~repro.parallel.filesystem.ParallelFileSystem`.
Presets approximate the published architecture of real systems *in shape*
(relative compute-to-I/O balance), which is all the qualitative scaling
claims require.
"""

from __future__ import annotations

import dataclasses

from repro.parallel.filesystem import ParallelFileSystem

__all__ = ["ClusterSpec", "commodity_cluster", "leadership_system"]


@dataclasses.dataclass
class ClusterSpec:
    """A machine model for pipeline scaling estimates.

    Attributes
    ----------
    name:
        Display name.
    n_nodes:
        Number of compute nodes available.
    ranks_per_node:
        SPMD ranks launched per node.
    preprocess_rate:
        Bytes/second of preprocessing work one rank sustains (regridding,
        normalization, encoding are all bandwidth-bound transforms).
    nic_bandwidth:
        Bytes/second per node into the interconnect/filesystem.
    interconnect_latency:
        Per-message latency (the alpha of the alpha-beta model).
    filesystem:
        The attached striped filesystem model.
    """

    name: str
    n_nodes: int
    ranks_per_node: int
    preprocess_rate: float
    nic_bandwidth: float
    interconnect_latency: float
    filesystem: ParallelFileSystem

    @property
    def max_ranks(self) -> int:
        return self.n_nodes * self.ranks_per_node

    def validate(self) -> None:
        if self.n_nodes < 1 or self.ranks_per_node < 1:
            raise ValueError("n_nodes and ranks_per_node must be >= 1")
        if min(self.preprocess_rate, self.nic_bandwidth) <= 0:
            raise ValueError("rates must be positive")
        if self.interconnect_latency < 0:
            raise ValueError("latency must be non-negative")


def commodity_cluster(n_nodes: int = 16) -> ClusterSpec:
    """A small institutional cluster with a modest parallel filesystem."""
    return ClusterSpec(
        name=f"commodity-{n_nodes}",
        n_nodes=n_nodes,
        ranks_per_node=16,
        preprocess_rate=400e6,
        nic_bandwidth=12.5e9,  # 100 Gb/s
        interconnect_latency=2e-6,
        filesystem=ParallelFileSystem(n_osts=16, ost_bandwidth=3e9),
    )


def leadership_system() -> ClusterSpec:
    """A 512-node leadership-scale system: wide filesystem, fast NICs."""
    return ClusterSpec(
        name="leadership-512",
        n_nodes=512,
        ranks_per_node=56,
        preprocess_rate=600e6,
        nic_bandwidth=25e9,  # 200 Gb/s
        interconnect_latency=1.5e-6,
        filesystem=ParallelFileSystem(n_osts=450, ost_bandwidth=5e9),
    )
