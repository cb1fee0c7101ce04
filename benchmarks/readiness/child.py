"""One workload, measured in a fresh process (spawned by ``run.py``).

A fresh process per workload makes ``setup_s`` (imports, source
synthesis, warm-up) and ``peak_rss_mb`` belong to that workload alone.
The result goes to ``--result`` as one JSON document; ``run.py`` turns
it into metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from spans import OsTap, SpanRecorder, StageStamper, record_os_calls, record_rep
from workloads import (
    ABLATION_REPS,
    ABLATION_RUNGS,
    ABLATION_SOURCE,
    DEFAULT_SEED,
    PROBE_SIZES,
    READ_EPOCHS,
    WARMUP_REPS,
    WORKLOADS,
    Workload,
)

#: a time-boxed run measures at least this many reps, whatever the box
MIN_TIMED_REPS = 3

#: shares of ``--seconds`` a time-boxed traced run spends on the ablation ladder
ABLATION_SHARE = 0.5

Rep = Dict[str, Any]
clock = time.perf_counter


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    usage = [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    return sum(u.ru_utime + u.ru_stime for u in usage)


def tree_size(root: Path) -> Tuple[int, int]:
    sizes = [p.stat().st_size for p in root.rglob("*") if p.is_file()]
    return sum(sizes), len(sizes)


def tree_digest(root: Path) -> str:
    """sha256 over sorted relative paths + bytes of a shard directory.

    ``written_by_ranks`` is dropped from the manifest: one writer versus
    N is the one legitimate difference between backends.
    """
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest.get("metadata", {}).pop("written_by_ranks", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        digest.update(str(path.relative_to(root)).encode())
        digest.update(data)
    return digest.hexdigest()


def fs_type(path: Path) -> str:
    """Filesystem type holding *path* (fsync is free on tmpfs, so it matters)."""
    target = str(path.resolve())
    best = ("", "unknown")
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return best[1]
    for line in mounts:
        _, mount, kind = line.split()[:3]
        if (target == mount or target.startswith(mount.rstrip("/") + "/")) and len(mount) > len(best[0]):
            best = (mount, kind)
    return best[1]


def timed(call: Callable[[Any], Any], recorder: Optional[SpanRecorder], index: int) -> Rep:
    """Time one ``call(on_event)``; with a *recorder* the rep is traced."""
    stamper = StageStamper(clock) if recorder is not None else None
    tap = OsTap(clock) if recorder is not None else contextlib.nullcontext()
    cpu0 = cpu_seconds()
    with tap:
        start = clock()
        value = call(stamper)
        end = clock()
    rep: Rep = {"wall_s": end - start, "cpu_s": cpu_seconds() - cpu0, "traced": recorder is not None,
                "value": value, "layer": {}}
    if recorder is not None:
        if stamper.stamps:
            rep["layer"].update(record_rep(recorder, index, start, end, stamper.stamps))
        else:
            recorder.add("rep", start, end, None, index)
        rep["layer"].update(record_os_calls(recorder, index, tap.calls))
    return rep


def archetype_rep(adapter: Any, w: Workload, seed: int, manifest: Dict[str, Any], root: Path,
                  options: Dict[str, Any], keep: bool = False,
                  ) -> Callable[[int, Optional[SpanRecorder]], Rep]:
    """A rep function: one ``DomainArchetype.run`` into a fresh work dir,
    then — outside the timed region — verification and (unless *keep*)
    removal of the dir."""

    def rep(index: int, recorder: Optional[SpanRecorder]) -> Rep:
        work = root / f"rep{index}"
        try:
            config = adapter.run_config(work, **options)
            subject = adapter.archetype(w.domain, seed, manifest)
            out = timed(lambda on_event: subject.run(work, on_event=on_event, **config), recorder, index)
            del out["value"]
            out["records"] = adapter.verify_shards(work / "shards")
            out["digest"] = tree_digest(work / "shards")
            out["layer"]["io.bytes_written"], out["layer"]["io.files_written"] = tree_size(work)
            return out
        finally:
            if not keep:
                shutil.rmtree(work, ignore_errors=True)

    return rep


def reader_rep(adapter: Any, shard_dir: Path) -> Callable[[int, Optional[SpanRecorder]], Rep]:
    def rep(index: int, recorder: Optional[SpanRecorder]) -> Rep:
        out = timed(lambda on_event: adapter.read_pass(shard_dir, READ_EPOCHS), recorder, index)
        out["records"], loaded = out.pop("value")
        out["digest"] = adapter.datasets_digest(loaded) + tree_digest(shard_dir)
        return out

    return rep


def measure(
    rep_fn: Callable[[int, Optional[SpanRecorder]], Rep],
    reference: Rep,
    *,
    reps: int,
    seconds: Optional[float],
    recorder: Optional[SpanRecorder],
) -> List[Rep]:
    """The closed loop: the next rep starts when the previous one is verified.

    Runs *reps* reps, or — time-boxed — until *seconds* have passed (at
    least ``MIN_TIMED_REPS``, at most *reps*).  With a *recorder*, reps
    are traced in the pattern T U U T, so the run prices tracing itself;
    a plain T U T U would pair tracing with the fast half of the
    two-rep rhythm that ``climate_durable`` has on the sizing VM.  A rep
    that raises or whose output differs from *reference* is recorded as
    failed, never dropped.
    """
    out: List[Rep] = []
    deadline = None if seconds is None else clock() + seconds
    for index in range(reps):
        if deadline is not None and index >= MIN_TIMED_REPS and clock() >= deadline:
            break
        try:
            rep = rep_fn(index, recorder if index % 4 in (0, 3) else None)
            for key in ("records", "digest"):
                if rep[key] != reference[key]:
                    raise AssertionError(f"{key} {rep[key]!r} != reference {reference[key]!r}")
            rep["ok"] = True
        except Exception as exc:  # boundary: a failed rep is a data point, not a crash
            rep = {"ok": False, "error": f"{type(exc).__name__}: {exc}", "traced": False, "layer": {}}
        rep.pop("digest", None)
        out.append(rep)
    return out


def median_layer(reps: List[Rep]) -> Dict[str, float]:
    """Per-layer metrics of a run: the median over the reps that carry each."""
    names = sorted({name for rep in reps for name in rep["layer"]})
    return {
        name: statistics.median(rep["layer"][name] for rep in reps if name in rep["layer"])
        for name in names
    }


def trace_overhead(reps: List[Rep]) -> Optional[float]:
    traced = [r["wall_s"] for r in reps if r["ok"] and r["traced"]]
    plain = [r["wall_s"] for r in reps if r["ok"] and not r["traced"]]
    if not traced or not plain:
        return None
    return statistics.median(traced) / statistics.median(plain)


def run_reps(adapter: Any, w: Workload, args: argparse.Namespace, root: Path,
             recorder: Optional[SpanRecorder], loop: bool = True) -> Dict[str, Any]:
    """Set-up, warm-up and (if *loop*) the timed loop of one workload."""
    source = root / "source"
    manifest = adapter.synthesize(w.domain, args.seed, source, w.source)
    input_bytes, _ = tree_size(source)
    setup_layer: Dict[str, float] = {}
    if w.kind == "reader":
        # the reader's input is the writer's output: run the writer once (traced
        # when tracing, so this workload's stage metrics are that run's)
        setup_layer = archetype_rep(adapter, w, args.seed, manifest, root, {}, keep=True)(-1, recorder)["layer"]
        shard_dir = root / "rep-1" / "shards"
        input_bytes = tree_size(shard_dir)[0] * (READ_EPOCHS + 1)
        rep_fn = reader_rep(adapter, shard_dir)
    else:
        rep_fn = archetype_rep(adapter, w, args.seed, manifest, root, w.options)
    reference = None
    if w.options.get("backend"):
        # parity contract: a parallel backend must reproduce the serial bytes
        reference = archetype_rep(adapter, w, args.seed, manifest, root, {})(-2, None)
    for index in range(WARMUP_REPS):
        warm = rep_fn(-3 - index, None)
        reference = reference or warm
        if (warm["records"], warm["digest"]) != (reference["records"], reference["digest"]):
            raise AssertionError(f"warm-up output differs from the reference: {warm} vs {reference}")
    if args.seed == DEFAULT_SEED and reference["records"] != w.records:
        raise AssertionError(f"{w.name}: {reference['records']} records, expected {w.records}")
    setup_s = time.time() - args.t0
    reps = measure(rep_fn, reference, reps=w.reps if loop else 0, seconds=args.seconds, recorder=recorder)
    multiprocessing.active_children()  # reaps finished workers before RSS is read
    usage = [resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    layer = {**setup_layer, **median_layer([r for r in reps if r["ok"]])}
    overhead = trace_overhead(reps)
    if overhead is not None:
        layer["bench.trace_overhead_ratio"] = overhead
    return {
        "setup_s": setup_s,
        "input_bytes": input_bytes,
        "peak_rss_mb": max(usage) * 1024 / 1e6,
        "reps": reps,
        "layer": layer,
    }


def run_ablation(adapter: Any, seed: int, root: Path, seconds: Optional[float]) -> Dict[str, float]:
    """Ablation on one identical plan and input: each rung's cost is
    median(rung) - median(bare); rungs are interleaved so drift hits all alike."""
    mode = "full" if seconds is None else "quick"
    manifest = adapter.synthesize("climate", seed, root / "ablation-source", ABLATION_SOURCE[mode])
    walls: Dict[str, List[float]] = {name: [] for name in ABLATION_RUNGS}
    records = set()

    def run_rung(name: str) -> float:
        work = root / f"ablation-{name}"
        try:
            config = adapter.run_config(work, **ABLATION_RUNGS[name])
            subject = adapter.archetype("climate", seed, manifest)
            start = clock()
            subject.run(work, **config)
            wall = clock() - start
            records.add(adapter.verify_shards(work / "shards"))
            return wall
        finally:
            shutil.rmtree(work, ignore_errors=True)

    run_rung("bare")  # discarded: the first run on a new input is cold
    deadline = None if seconds is None else clock() + seconds
    for sweep in range(ABLATION_REPS):
        if deadline is not None and sweep >= 1 and clock() >= deadline:
            break
        # back and forth, so no rung always follows the same neighbour: a run that
        # writes checkpoints leaves the page cache in a state the next run pays for
        for name in list(ABLATION_RUNGS)[:: 1 if sweep % 2 == 0 else -1]:
            walls[name].append(run_rung(name))
    if len(records) != 1:
        raise AssertionError(f"ablation rungs disagree on record count: {sorted(records)}")
    shutil.rmtree(root / "ablation-source")
    med = {name: statistics.median(values) for name, values in walls.items()}
    costs = {key: med[key] - med["bare"] for key in ("telemetry", "gates", "checkpoint")}
    return {
        "ablation.bare_s": med["bare"],
        "obs.telemetry_cost_s": costs["telemetry"],
        "gates.cost_s": costs["gates"],
        "durability.checkpoint_cost_s": costs["checkpoint"],
        "ablation.residual_s": med["all_on"] - med["bare"] - sum(costs.values()),
        "core.backends.threaded_ratio": med["threaded"] / med["bare"],
        "workers.process_ratio": med["process"] / med["bare"],
        "core.backends.batch_ratio": med["batch"] / med["bare"],
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="needed by the reps and setup sections")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--sections", default="reps",
                        help="comma list of reps | setup (set-up only, no timed loop) | ablation | probes")
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--t0", type=float, default=time.time())
    args = parser.parse_args(argv)

    import adapter  # inside setup_s: the repro import is ~1.3 s of every run
    import numpy

    sections = args.sections.split(",")
    if args.workload is None and {"reps", "setup"} & set(sections):
        parser.error("--workload is required by the reps and setup sections")
    root = args.workdir
    root.mkdir(parents=True)
    recorder = SpanRecorder(args.workload or "layers") if args.trace else None
    result: Dict[str, Any] = {
        "workload": args.workload, "seed": args.seed, "trace": bool(args.trace), "layer": {},
        "env": {
            "fs_type": fs_type(root), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
        },
    }
    try:
        if "reps" in sections or "setup" in sections:
            out = run_reps(adapter, WORKLOADS[args.workload], args, root, recorder, loop="reps" in sections)
            result["layer"].update(out.pop("layer"))
            result.update(out)
        if "ablation" in sections:
            budget = None if args.seconds is None else args.seconds * ABLATION_SHARE
            result["layer"].update(run_ablation(adapter, args.seed, root, budget))
        if "probes" in sections:
            sizes = PROBE_SIZES["full" if args.seconds is None else "quick"]
            result["layer"].update(adapter.probe_layers(root / "probes", args.seed, sizes))
    finally:
        # a 280 MB source must not leak, whatever happened above
        shutil.rmtree(root, ignore_errors=True)
    result["spans"] = recorder.spans if recorder is not None else []
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
