"""Record and check the repo's performance baselines.

Two machine-readable baselines live at the repo root, committed next to
the code they measure so every PR carries its own perf trajectory:

- ``BENCH_fig1.json`` — wall time of the Figure-1 end-to-end pipeline
  (``bench_fig1_pipeline.run_figure1_steps``), with per-stage seconds
  read back from the engine's own ``stage_seconds`` histogram;
- ``BENCH_sharding.json`` — the rank-parallel shard-write path
  (``SimSPMDBackend.shard_write``) at 1..8 ranks plus the modelled
  10 TB strong-scaling sweep (knee and I/O-crossover rank counts per
  cluster).

Usage::

    PYTHONPATH=src python benchmarks/record_baseline.py emit
    PYTHONPATH=src python benchmarks/record_baseline.py check [--tolerance 0.25]

``emit`` re-measures and rewrites both JSON files.  ``check`` re-measures
and exits non-zero if the fig1 wall time regressed more than
``--tolerance`` (default 25%) against the committed baseline — this is
the CI bench-regression gate, priced through the same robust
:func:`repro.obs.history.regression_limit` codepath the cross-run
``telemetry diff`` uses.  The fig1 baseline also records the telemetry
overhead (instrumented vs bare wall time of the identical plan) and a
``batching`` section — per-record vs batched walls for each vectorized
hot transform (both paths gated in check mode) plus the streaming shard
writer's peak-buffer fraction.  Wall timings take
the best of ``--repeats`` runs to damp scheduler noise; the modelled
sweep is deterministic and compared exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(REPO_ROOT / "src"))

import bench_fig1_pipeline as fig1  # noqa: E402
import bench_sharding_scaling as sharding  # noqa: E402

SCHEMA_VERSION = 1
FIG1_BASELINE = REPO_ROOT / "BENCH_fig1.json"
SHARDING_BASELINE = REPO_ROOT / "BENCH_sharding.json"


def _best_of(fn, repeats: int):
    """(best wall seconds, result of the fastest run)."""
    best, result = float("inf"), None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        out = fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best, result = elapsed, out
    return best, result


def measure_fig1(repeats: int) -> dict:
    def run():
        with tempfile.TemporaryDirectory() as tmp:
            return fig1.run_figure1_steps(Path(tmp), seed=0)

    wall, (_rows, _labeled, run_result, telemetry) = _best_of(run, repeats)
    stages = {}
    for result in run_result.results:
        hist = telemetry.metrics.get(
            "stage_seconds",
            pipeline=run_result.pipeline_name,
            stage=result.stage_name,
        )
        stages[result.stage_name] = round(hist.sum, 6)
    return {
        "schema": SCHEMA_VERSION,
        "bench": "fig1",
        "pipeline": run_result.pipeline_name,
        "n_stages": len(run_result.results),
        "wall_seconds": round(wall, 6),
        "stage_seconds": stages,
        "telemetry_overhead": measure_telemetry_overhead(repeats),
        "backend_walls": measure_backend_walls(repeats),
        "batching": measure_batching(repeats),
    }


def measure_backend_walls(repeats: int) -> dict:
    """The same fig1 plan on the serial and supervised process backends.

    Puts the process backend's supervision cost (fork per fan-out, pickled
    results over pipes, heartbeat traffic) on the perf trajectory next to
    the serial reference.  Informational — the regression gate prices only
    the fig1 wall — but a sudden jump in the ratio flags an IPC or
    supervision regression before it hurts a chaos campaign.
    """
    from repro.core.backends import get_backend
    from repro.core.runner import PipelineRunner

    walls = {}
    for name, options in (("serial", {}), ("process", {"workers": 2})):
        try:
            backend = get_backend(name, **options)
        except (RuntimeError, ValueError):
            continue  # e.g. process backend on a fork-less platform

        def run():
            with tempfile.TemporaryDirectory() as tmp:
                runner = PipelineRunner(
                    fig1.build_figure1_plan(Path(tmp), seed=0), backend=backend
                )
                return runner.run(fig1.make_raw_dataset(0))

        wall, _ = _best_of(run, repeats)
        walls[name] = {"wall_seconds": round(wall, 6), "width": backend.width}
    if "serial" in walls and "process" in walls:
        serial_s = walls["serial"]["wall_seconds"]
        if serial_s > 0:
            walls["process"]["vs_serial_ratio"] = round(
                walls["process"]["wall_seconds"] / serial_s, 4
            )
    return walls


def measure_batching(repeats: int) -> dict:
    """Per-record vs batched walls for the vectorized hot transforms.

    Each transform runs the same work both ways: the per-record path is
    what a ``map(fn, records)`` fan-out pays (one Python-level call per
    record; for regrid, one weight construction per field), the batched
    path is what ``map_batches`` hands a chunk function (one vectorized
    call; for regrid, one ``Regridder`` amortized over the chunk).  Both
    paths are bitwise identical by contract, so the only thing on trial
    here is speed — the check gate prices *each* path against its
    committed wall, catching a regression in either.  The shard-write
    entry records the streaming writer's peak buffered bytes as a
    fraction of the shard, the bounded-RSS evidence.
    """
    import numpy as np

    from repro.io.shards import last_write_peak_buffer, write_shard
    from repro.transforms.encode import Vocabulary
    from repro.transforms.regrid import RegularGrid, Regridder, regrid

    rng = np.random.default_rng(0)
    transforms = {}

    def record(name, per_record_fn, batched_fn):
        per_s, _ = _best_of(per_record_fn, repeats)
        batched_s, _ = _best_of(batched_fn, repeats)
        transforms[name] = {
            "per_record_seconds": round(per_s, 6),
            "batched_seconds": round(batched_s, 6),
            "speedup": round(per_s / batched_s, 2) if batched_s > 0 else 0.0,
        }

    vocab = Vocabulary([f"tok{i:03d}" for i in range(64)])
    column = np.asarray(vocab.values)[rng.integers(0, 64, size=20_000)]
    values = column.tolist()
    record(
        "encode",
        lambda: [int(vocab.encode(np.asarray([v]))[0]) for v in values],
        lambda: vocab.encode(column),
    )

    rows = [rng.normal(size=64) for _ in range(20_000)]
    stacked = np.stack(rows)
    mean, std = stacked.mean(axis=0), stacked.std(axis=0)
    record(
        "normalize",
        lambda: [(row - mean) / std for row in rows],
        lambda: (stacked - mean) / std,
    )

    source = RegularGrid.global_grid(24, 48)
    target = RegularGrid.global_grid(32, 64)
    fields = [rng.normal(size=(24, 48)) for _ in range(64)]

    def regrid_batched():
        regridder = Regridder(source, target, "conservative")
        return [regridder(field) for field in fields]

    record(
        "regrid",
        lambda: [regrid(f, source, target, "conservative") for f in fields],
        regrid_batched,
    )

    columns = {f"c{i}": rng.normal(size=(512, 64)) for i in range(8)}
    with tempfile.TemporaryDirectory() as tmp:
        info = write_shard(columns, Path(tmp) / "probe.rps")
        peak = last_write_peak_buffer()
    shard_write = {
        "shard_bytes": info.nbytes,
        "peak_buffer_bytes": peak,
        "buffer_fraction": round(peak / info.nbytes, 4) if info.nbytes else 0.0,
    }
    return {"transforms": transforms, "shard_write": shard_write}


def measure_telemetry_overhead(repeats: int) -> dict:
    """Instrumented vs bare wall time of the same fig1 pipeline.

    The analytics layer's own cost, put on the perf trajectory: the
    instrumented run carries a full Telemetry (spans, metrics, resource
    profiles); the bare run is the identical plan with no collector.
    """
    from repro.core.runner import PipelineRunner

    def bare():
        with tempfile.TemporaryDirectory() as tmp:
            runner = PipelineRunner(fig1.build_figure1_plan(Path(tmp), seed=0))
            return runner.run(fig1.make_raw_dataset(0))

    def instrumented():
        with tempfile.TemporaryDirectory() as tmp:
            return fig1.run_figure1_steps(Path(tmp), seed=0)

    bare_s, _ = _best_of(bare, repeats)
    instrumented_s, _ = _best_of(instrumented, repeats)
    return {
        "bare_seconds": round(bare_s, 6),
        "instrumented_seconds": round(instrumented_s, 6),
        "overhead_seconds": round(instrumented_s - bare_s, 6),
        "overhead_ratio": round(instrumented_s / bare_s, 4) if bare_s > 0 else 0.0,
    }


def measure_sharding(repeats: int) -> dict:
    dataset = sharding.make_dataset()
    write_path = {}
    for ranks in (1, 2, 4, 8):
        def write():
            with tempfile.TemporaryDirectory() as tmp:
                return sharding.parallel_write(dataset, Path(tmp), ranks)

        wall, manifest = _best_of(write, repeats)
        total = sum(
            s.nbytes for shards in manifest.splits.values() for s in shards
        )
        write_path[str(ranks)] = {
            "wall_seconds": round(wall, 6),
            "bytes": total,
            "mb_per_s": round(total / wall / 1e6, 1),
        }

    return {
        "schema": SCHEMA_VERSION,
        "bench": "sharding",
        "dataset": {"n": dataset.n_samples, "width": 64},
        "write_path": write_path,
        # deterministic analytic sweep: qualitative shape markers
        "modelled": _modelled_curves(),
    }


def _modelled_curves() -> dict:
    workload = sharding.WorkloadSpec(
        name="climax-like-prep",
        input_bytes=10e12,
        output_bytes=4e12,
        compute_passes=2.0,
    )
    rank_counts = [1, 4, 16, 64, 256, 1024, 4096]
    out = {}
    for cluster in (
        sharding.commodity_cluster(128),
        sharding.leadership_system(512),
    ):
        model = sharding.PipelineScalingModel(cluster)
        counts = [r for r in rank_counts if r <= cluster.max_ranks]
        curve = model.sweep(workload, counts)
        out[cluster.name] = {
            "ranks": [p.ranks for p in curve.points],
            "total_seconds": [round(p.total_seconds, 3) for p in curve.points],
            "io_dominated_from": curve.io_dominated_from(),
            "knee_ranks": curve.knee_ranks(),
        }
    return out


def cmd_emit(args) -> int:
    fig1_doc = measure_fig1(args.repeats)
    sharding_doc = measure_sharding(args.repeats)
    FIG1_BASELINE.write_text(json.dumps(fig1_doc, indent=2, sort_keys=True) + "\n")
    SHARDING_BASELINE.write_text(
        json.dumps(sharding_doc, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {FIG1_BASELINE.name}: wall {fig1_doc['wall_seconds']:.3f}s "
          f"over {fig1_doc['n_stages']} stages")
    print(f"wrote {SHARDING_BASELINE.name}: "
          + ", ".join(
              f"{r} ranks {v['wall_seconds']:.3f}s"
              for r, v in sharding_doc["write_path"].items()
          ))
    return 0


def cmd_check(args) -> int:
    if not FIG1_BASELINE.exists():
        print(f"no committed baseline at {FIG1_BASELINE}; run emit first")
        return 2
    baseline = json.loads(FIG1_BASELINE.read_text())
    if baseline.get("schema") != SCHEMA_VERSION:
        print(f"baseline schema {baseline.get('schema')!r} != {SCHEMA_VERSION}")
        return 2
    current = measure_fig1(args.repeats)
    ref, now = baseline["wall_seconds"], current["wall_seconds"]
    # the shared robust comparison codepath (repro.obs.history): with a
    # single committed sample the MAD term vanishes and the rule is a
    # ratio gate with an absolute noise floor — sub-100ms walls jitter
    # far more than 25% run to run, so tiny baselines get slack too
    from repro.obs.history import regression_limit

    _, limit = regression_limit(
        [ref], rel_floor=args.tolerance, abs_floor=args.noise_floor
    )
    print(f"fig1 wall: baseline {ref:.3f}s, current {now:.3f}s "
          f"(limit {limit:.3f}s = max({args.tolerance:.0%}, "
          f"{args.noise_floor:.2f}s floor))")
    status = 0
    if now > limit:
        print(f"FAIL: fig1 wall time regressed beyond {args.tolerance:.0%}")
        status = 1
    overhead = current.get("telemetry_overhead") or {}
    if overhead:
        print(f"telemetry overhead: bare {overhead['bare_seconds']:.3f}s, "
              f"instrumented {overhead['instrumented_seconds']:.3f}s "
              f"({overhead['overhead_ratio']:.2f}x)")

    # batching: gate BOTH paths per transform — a regression in the
    # batched path loses the speedup, a regression in the per-record
    # path hurts every stage that never opted into batching
    committed_batching = (baseline.get("batching") or {}).get("transforms", {})
    current_batching = (current.get("batching") or {}).get("transforms", {})
    for name, ref_walls in sorted(committed_batching.items()):
        now_walls = current_batching.get(name)
        if now_walls is None:
            print(f"FAIL: batching transform {name!r} missing from current run")
            status = 1
            continue
        for path in ("per_record_seconds", "batched_seconds"):
            _, path_limit = regression_limit(
                [ref_walls[path]], rel_floor=args.tolerance,
                abs_floor=args.noise_floor,
            )
            verdict = "ok"
            if now_walls[path] > path_limit:
                verdict = "FAIL"
                status = 1
            print(f"batching {name}/{path.removesuffix('_seconds')}: "
                  f"baseline {ref_walls[path]:.3f}s, "
                  f"current {now_walls[path]:.3f}s "
                  f"(limit {path_limit:.3f}s) {verdict}")
        print(f"batching {name}: speedup {now_walls['speedup']:.1f}x "
              f"(baseline {ref_walls['speedup']:.1f}x)")

    # the modelled sweep is analytic — any drift is a real model change
    if SHARDING_BASELINE.exists():
        committed = json.loads(SHARDING_BASELINE.read_text())["modelled"]
        fresh = _modelled_curves()
        if committed != fresh:
            print("FAIL: modelled strong-scaling curves drifted from baseline "
                  "(re-run emit if the model change is intentional)")
            status = 1
        else:
            print("modelled scaling curves match the committed baseline")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("emit", cmd_emit), ("check", cmd_check)):
        p = sub.add_parser(name)
        p.add_argument("--repeats", type=int, default=3,
                       help="wall timings take the best of N runs")
        p.add_argument("--tolerance", type=float, default=0.25,
                       help="allowed fractional regression (check mode)")
        p.add_argument("--noise-floor", type=float, default=0.25,
                       help="absolute slack in seconds added to the limit")
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
