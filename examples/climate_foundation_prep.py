#!/usr/bin/env python
"""ClimaX-style climate data preparation (the Section 3.1 workflow).

Generates a synthetic multi-model CMIP-like archive plus a packed GRIB-like
reanalysis, runs the full climate archetype
(``download -> regrid -> normalize -> stack -> shard``), and then answers
the facility-scale question the paper raises: how does this pipeline scale
to the 10 TB ClimaX workload on a leadership machine?

Run:  python examples/climate_foundation_prep.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.core.matrix import MaturityMatrix
from repro.core.report import format_seconds, render_table, section
from repro.domains.climate import ClimateArchetype, ClimateSourceConfig
from repro.io.shards import ShardSet
from repro.parallel.cluster import leadership_system
from repro.parallel.simulate import PipelineScalingModel, WorkloadSpec


def main() -> None:
    work_dir = Path(tempfile.mkdtemp(prefix="drai-climate-"))

    print(section("1. synthesize + prepare a multi-model archive"))
    archetype = ClimateArchetype(
        seed=0,
        config=ClimateSourceConfig(n_models=3, n_timesteps=36, seed=0),
        target_resolution=(16, 32),
    )
    result = archetype.run(work_dir)
    print(f"pattern          : {archetype.pattern_string()}")
    print(f"readiness level  : {result.readiness_level} / 5")
    print(result.run.stage_table())

    print(section("2. what the challenge detectors found"))
    for challenge in result.detected_challenges:
        print(f"  - {challenge}")

    print(section("3. the AI-ready artifact"))
    ds = result.dataset
    print(ds)
    print(f"tensor per sample: {ds.schema['tas'].shape} x "
          f"{len([f for f in ds.schema.feature_names])} variables")
    shard_set = ShardSet(work_dir / "shards")
    shard_set.verify()
    rows = [
        (split, shard_set.manifest.split_samples(split),
         len(shard_set.manifest.splits[split]))
        for split in shard_set.splits
    ]
    print(render_table(["split", "samples", "shards"], rows))
    # forecast target sanity: persistence error > 0 (there is signal to learn)
    train = shard_set.load_split("train")
    persistence_rmse = float(np.sqrt(((train["tas_next"] - train["tas"]) ** 2).mean()))
    print(f"persistence RMSE (normalized units): {persistence_rmse:.3f}")

    print(section("4. maturity matrix position"))
    print(MaturityMatrix.from_assessment(result.assessment).render_compact())

    print(section("5. scale-up: the 10 TB question (modelled)"))
    model = PipelineScalingModel(leadership_system())
    workload = WorkloadSpec(
        name="climax-10tb",
        input_bytes=10e12,
        output_bytes=4e12,
        compute_passes=2.0,
    )
    curve = model.sweep(workload, [1, 16, 128, 1024, 8192])
    rows = [
        (p.ranks, format_seconds(p.total_seconds), f"{s:.0f}x", f"{e:.0%}")
        for p, s, e in zip(curve.points, curve.speedup(), curve.efficiency())
    ]
    print(render_table(["ranks", "wall time", "speedup", "efficiency"], rows,
                       align_right=[True] * 4))
    crossover = curve.io_dominated_from()
    print(f"\nI/O overtakes compute at {crossover or '>8192'} ranks — "
          "the parallel-I/O requirement of Section 2.2, quantified.")


if __name__ == "__main__":
    main()
