"""SCALE-IO — the high-throughput parallel I/O claim (Sections 1, 2.2).

Paper artifact: "Efficient training at this scale requires high-throughput,
parallel file I/O" (the ClimaX 10 TB example).  Two measurements:

1. **real parallel shard writes** — `SimSPMDBackend.shard_write` at 1..8
   ranks on this machine (threads share one disk, so this shows the
   code path, not scaling);
2. **modelled strong scaling** — the striped-filesystem model sweeps rank
   counts on commodity vs leadership clusters, reproducing the canonical
   shape: near-linear region, contention knee, saturation plateau, and
   the crossover where I/O overtakes compute.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.backends import SimSPMDBackend
from repro.core.dataset import Dataset
from repro.core.report import format_bytes, format_seconds, render_table
from repro.parallel.cluster import commodity_cluster, leadership_system
from repro.parallel.simulate import PipelineScalingModel, WorkloadSpec


def make_dataset(n=4000, width=64, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset.from_arrays({
        "features": rng.normal(size=(n, width)).astype(np.float32),
        "label": rng.integers(0, 10, n),
    })


def parallel_write(dataset, tmp_path, ranks):
    splits = {"train": np.arange(dataset.n_samples)}
    return SimSPMDBackend(n_ranks=ranks).shard_write(
        dataset, tmp_path / f"r{ranks}", splits, shards_per_split=8,
    )


def test_parallel_shard_write_path(benchmark, tmp_path, write_report):
    dataset = make_dataset()
    manifest = benchmark.pedantic(
        parallel_write, args=(dataset, tmp_path, 4), rounds=1, iterations=1
    )
    rows = []
    for ranks in (1, 2, 4, 8):
        import time

        start = time.perf_counter()
        m = parallel_write(dataset, tmp_path / f"sweep{ranks}", ranks)
        elapsed = time.perf_counter() - start
        total = sum(s.nbytes for shards in m.splits.values() for s in shards)
        rows.append((ranks, format_bytes(total), format_seconds(elapsed),
                     f"{total / elapsed / 1e6:.0f} MB/s"))
    report = (
        "Parallel shard-write code path (threads, one physical disk):\n\n"
        + render_table(["ranks", "bytes", "wall", "throughput"], rows,
                       align_right=[True, True, True, True])
    )
    write_report("SCALEIO_write_path", report)
    assert manifest.n_shards == 8


def test_modelled_strong_scaling(benchmark, write_report):
    workload = WorkloadSpec(
        name="climax-like-prep",
        input_bytes=10e12,  # the paper's 10 TB example
        output_bytes=4e12,
        compute_passes=2.0,
    )
    rank_counts = [1, 4, 16, 64, 256, 1024, 4096]

    def sweep():
        out = {}
        for cluster in (commodity_cluster(128), leadership_system()):
            model = PipelineScalingModel(cluster)
            counts = [r for r in rank_counts if r <= cluster.max_ranks]
            out[cluster.name] = model.sweep(workload, counts)
        return out

    curves = benchmark.pedantic(sweep, rounds=1, iterations=1)
    sections = ["Modelled strong scaling of a 10 TB preprocessing pass:\n"]
    for name, curve in curves.items():
        rows = [
            (p.ranks, format_seconds(p.total_seconds),
             format_seconds(p.compute_seconds), format_seconds(p.io_seconds),
             f"{s:.1f}x", f"{e:.0%}")
            for p, s, e in zip(curve.points, curve.speedup(), curve.efficiency())
        ]
        sections.append(f"\n[{name}]")
        sections.append(render_table(
            ["ranks", "total", "compute", "I/O", "speedup", "efficiency"],
            rows, align_right=[True] * 6,
        ))
        crossover = curve.io_dominated_from()
        knee = curve.knee_ranks()
        sections.append(
            f"I/O overtakes compute at {crossover or '>max'} ranks; "
            f"efficiency < 50% from {knee or '>max'} ranks"
        )
    report = "\n".join(sections)
    write_report("SCALEIO_modelled_scaling", report)
    commodity = curves["commodity-128"]
    leadership = curves["leadership-512"]
    # qualitative shape: commodity hits the I/O wall before leadership
    c_cross = commodity.io_dominated_from() or 10**9
    l_cross = leadership.io_dominated_from() or 10**9
    assert c_cross <= l_cross
    # and the leadership machine is faster in absolute terms at scale
    assert (
        leadership.points[-1].total_seconds < commodity.points[-1].total_seconds
    )
