"""HPC execution substrates: SPMD communicator, partitioning, mergeable
statistics, reduction schedules, and the filesystem/cluster scaling models.
"""

from repro.parallel.comm import CommError, SimComm, SimWorld, run_spmd
from repro.parallel.executor import distributed_stats, parallel_map
from repro.parallel.partition import (
    balanced_partition,
    block_partition,
    cyclic_partition,
    partition_imbalance,
)
from repro.parallel.stats import FeatureStats, MinMax, RunningMoments, StreamingHistogram
from repro.parallel.filesystem import FileStripe, ParallelFileSystem, Transfer
from repro.parallel.cluster import (
    ClusterSpec,
    commodity_cluster,
    leadership_system,
)
from repro.parallel.simulate import (
    PipelineScalingModel,
    ScalingCurve,
    ScalingPoint,
    WorkloadSpec,
)

__all__ = [
    "CommError",
    "SimComm",
    "SimWorld",
    "run_spmd",
    "distributed_stats",
    "parallel_map",
    "balanced_partition",
    "block_partition",
    "cyclic_partition",
    "partition_imbalance",
    "FeatureStats",
    "MinMax",
    "RunningMoments",
    "StreamingHistogram",
    "FileStripe",
    "ParallelFileSystem",
    "Transfer",
    "ClusterSpec",
    "commodity_cluster",
    "leadership_system",
    "PipelineScalingModel",
    "ScalingCurve",
    "ScalingPoint",
    "WorkloadSpec",
]
