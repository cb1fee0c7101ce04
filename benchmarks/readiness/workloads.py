"""Workload, metric and size definitions of the readiness benchmark.

Pure data: nothing here imports ``repro``.  ``BENCHMARK.json`` at the
repo root carries the names, units, directions and bounds the driver
gates on (its schema admits nothing else); the input sizes, rep counts
and expected record counts the issue wanted beside them live here, and
``tests/test_harness.py`` asserts the two files agree.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Tuple

#: seed used when ``--seed`` is not given; record counts below are for it
DEFAULT_SEED = 0

#: never more than this many workers (the box has two cores)
MAX_WORKERS = 2

#: untimed repetitions before the first timed one, counted into setup_s
WARMUP_REPS = 1

#: epochs of ``load_split`` over every split in one ``shard_readback`` rep
READ_EPOCHS = 25


@dataclasses.dataclass(frozen=True)
class Workload:
    """One closed-loop, one-client workload of the benchmark."""

    name: str
    #: ``archetype`` (one rep = one ``DomainArchetype.run``) or ``reader``
    kind: str
    #: domain whose source is synthesized in set-up
    domain: str
    #: overrides of the domain's source config (the input size)
    source: Dict[str, Any]
    #: timed repetitions of the fixed-count mode (odd, so the median is a rep)
    reps: int
    #: output records at ``DEFAULT_SEED`` (other seeds check rep-to-rep equality)
    records: int
    why: str
    #: keyword arguments of ``adapter.run_config``; empty is the bare serial run
    options: Dict[str, Any] = dataclasses.field(default_factory=dict)


_DURABLE_INPUT = {"n_timesteps": 480, "base_resolution": (16, 32)}
_ALL_ON = {"telemetry": True, "gates": True, "checkpoint": True}
_PROCESS = {"backend": "process", "workers": MAX_WORKERS}

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "climate_ingest", "archetype", "climate",
            {"n_timesteps": 240, "base_resolution": (32, 64)},
            reps=11, records=717,
            why="NetCDF/GRIB decode is ~85% of stage time; engine changes must read no change",
        ),
        Workload(
            "fusion_shardwrite", "archetype", "fusion", {"n_shots": 200},
            reps=13, records=2316,
            why="shard packing, TFRecord export and atomic commits are the largest stage",
        ),
        Workload(
            "bio_secure", "archetype", "bio", {"n_subjects": 3000},
            reps=11, records=3000,
            why="~80% is enclave sealing; isolates governance, bypasses I/O and engine changes",
        ),
        Workload(
            "materials_records", "archetype", "materials", {"n_structures": 750},
            reps=9, records=955,
            why="many small dict records; runner fingerprint/sizing bookkeeping is most of the wall",
        ),
        Workload(
            "climate_durable", "archetype", "climate", _DURABLE_INPUT,
            reps=11, records=1437, options=_ALL_ON,
            why="production config: checkpoints + journal + fsync, quarantine gates, telemetry all on",
        ),
        Workload(
            "climate_process", "archetype", "climate", _DURABLE_INPUT,
            reps=15, records=1437, options={**_PROCESS, "batch_size": 64},
            why="same plan on 2 fork workers; dispatch and pickle-pipe IPC are the difference",
        ),
        Workload(
            "shard_readback", "reader", "fusion", {"n_shots": 200},
            reps=11, records=2316 * READ_EPOCHS,
            why="training-side reader of the shards workload 2 writes; catches write-path trade-offs",
        ),
    )
}

#: input of the ablation ladder: workload 5's, or a quarter of it when time-boxed
ABLATION_SOURCE = {"full": _DURABLE_INPUT, "quick": {**_DURABLE_INPUT, "n_timesteps": 120}}
ABLATION_REPS = 5
#: every rung runs the identical plan on that input; only the options differ
ABLATION_RUNGS: Dict[str, Dict[str, Any]] = {
    "bare": {},
    "telemetry": {"telemetry": True},
    "gates": {"gates": True},
    "checkpoint": {"checkpoint": True},
    "all_on": _ALL_ON,
    "threaded": {"backend": "threaded", "workers": MAX_WORKERS},
    "process": _PROCESS,
    "batch": {"batch_size": 64},
}

#: (name, unit, better) of every end-to-end metric, in print order
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("records_per_s", "1/s", "higher"),
    ("input_mb_per_s", "MB/s", "higher"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: canonical stage of each of an archetype plan's five stage indices
STAGES = ("ingest", "preprocess", "transform", "structure", "shard")

#: (name, unit, better) of every per-layer metric, grouped by how it is measured
STAGE_METRICS: Tuple[Tuple[str, str, str], ...] = (
    *((f"domains.{stage}_s", "s", "lower") for stage in STAGES),
    ("core.runner.overhead_s", "s", "lower"),
    ("core.runner.overhead_share", "ratio", "lower"),
    ("domains.post_run_s", "s", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
)
OS_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("durability.fsync_count", "count", "lower"),
    ("durability.fsync_s", "s", "lower"),
    ("durability.replace_count", "count", "lower"),
    ("io.bytes_written", "bytes", "lower"),
    ("io.files_written", "count", "lower"),
)
ABLATION_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("ablation.bare_s", "s", "lower"),
    ("obs.telemetry_cost_s", "s", "lower"),
    ("gates.cost_s", "s", "lower"),
    ("durability.checkpoint_cost_s", "s", "lower"),
    ("ablation.residual_s", "s", "lower"),
    ("core.backends.threaded_ratio", "ratio", "lower"),
    ("workers.process_ratio", "ratio", "lower"),
    ("core.backends.batch_ratio", "ratio", "lower"),
)
PROBE_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("io.shards.write_mb_per_s", "MB/s", "higher"),
    ("io.shards.write_zlib_mb_per_s", "MB/s", "higher"),
    ("io.shards.read_mb_per_s", "MB/s", "higher"),
    ("io.netcdf.read_mb_per_s", "MB/s", "higher"),
    ("durability.commit_ms", "ms", "lower"),
    ("durability.commit_p95_ms", "ms", "lower"),
    ("durability.append_ms", "ms", "lower"),
    ("core.backends.dispatch_us.serial", "us", "lower"),
    ("core.backends.dispatch_us.threaded", "us", "lower"),
    ("workers.dispatch_us", "us", "lower"),
    ("workers.ipc_mb_per_s", "MB/s", "higher"),
    ("core.plan.fingerprint_mb_per_s", "MB/s", "higher"),
    ("core.plan.fingerprint_us_per_record", "us", "lower"),
    ("obs.resources.payload_nbytes_us_per_record", "us", "lower"),
    ("obs.span_us", "us", "lower"),
    ("gates.check_us_per_record", "us", "lower"),
    ("transforms.regrid_fields_per_s", "1/s", "higher"),
    ("transforms.normalize_mb_per_s", "MB/s", "higher"),
    ("transforms.encode_tokens_per_s", "1/s", "higher"),
    ("governance.seal_mb_per_s", "MB/s", "higher"),
)
PER_LAYER = STAGE_METRICS + OS_METRICS + ABLATION_METRICS + PROBE_METRICS

#: work per direct probe: the issue's sizes, and an eighth-scale set for
#: time-boxed runs (rates are per byte / per record, so they stay comparable)
PROBE_SIZES: Dict[str, Dict[str, int]] = {
    "full": {
        "shard_mib": 32, "commits": 200, "dispatch_tasks": 2000, "ipc_tasks": 64,
        "fingerprint_mib": 64, "records": 10_000, "spans": 20_000,
        "regrid_fields": 640, "normalize_rows": 200_000, "encode_tokens": 200_000,
        "seal_mib": 8,
    },
    "quick": {
        "shard_mib": 8, "commits": 50, "dispatch_tasks": 500, "ipc_tasks": 16,
        "fingerprint_mib": 16, "records": 2_000, "spans": 5_000,
        "regrid_fields": 64, "normalize_rows": 50_000, "encode_tokens": 50_000,
        "seal_mib": 1,
    },
}
