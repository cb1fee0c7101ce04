#!/usr/bin/env python3
"""Raw-input-to-committed-shards benchmark of the four domain archetypes.

Two ways to run it::

    # the whole benchmark: fixed rep counts, every metric, a report file
    python benchmarks/readiness/run.py [--seed N] [--workload NAME ...] \\
        [--trace] [--out report.json] [--selfcheck]

    # one time-boxed run, as the benchmark driver calls it
    python3 benchmarks/readiness/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs in a fresh child process (``child.py``) with BLAS
threads pinned to one.  End-to-end metrics always come from an untraced
run; ``--trace`` adds a separate traced run for the per-layer metrics.
When exactly one workload ran, the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
non-zero when any rep failed or its output did not verify.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    DEFAULT_SEED,
    END_TO_END,
    OS_METRICS,
    PER_LAYER,
    STAGE_METRICS,
    WORKLOADS,
)

#: the driver allows a run 180 s; a child that hangs is killed before that
CHILD_TIMEOUT_S = 170

#: pinned in every child.  One BLAS thread: two oversubscribe the 2-core box
#: (serial regrid 0.26 s vs 0.05 s).  glibc malloc keeps what it frees: handing
#: big arrays back to the kernel makes every rep re-fault them, and on the
#: sizing VM that fault cost alternates 0.7 s / 1.7 s per climate_ingest rep at
#: identical fault counts — noise larger than any bound, and not the program's.
#: A fixed hash seed keeps dict and set layouts the same from child to child.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_MAX_": "0",
    "MALLOC_TRIM_THRESHOLD_": str(2**34),
    "PYTHONHASHSEED": "0",
}

#: set-ups per workload in a run that is not time-boxed (``setup_s`` is their median)
SETUP_SAMPLES = 3

Metric = Dict[str, Any]
BETTER = {name: better for name, _, better in END_TO_END}


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def bounds() -> Dict[str, float]:
    """Regression bound of each end-to-end metric, from ``BENCHMARK.json``."""
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def run_child(
    workdir_root: Path,
    *,
    workload: Optional[str],
    seed: int,
    seconds: Optional[float],
    trace: bool,
    sections: str,
) -> Optional[Dict[str, Any]]:
    """Run ``child.py`` to completion; ``None`` when it died without a result."""
    tag = f"{workload or 'layers'}-{os.getpid()}-{time.monotonic_ns()}"
    result_path = workdir_root / f"{tag}.json"
    workdir_root.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, **CHILD_ENV}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    command = [
        sys.executable, str(HERE / "child.py"), "--seed", str(seed), "--trace", str(int(trace)),
        "--sections", sections, "--workdir", str(workdir_root / tag),
        "--result", str(result_path), "--t0", repr(time.time()),
    ]
    if workload is not None:
        command += ["--workload", workload]
    if seconds is not None:
        command += ["--seconds", repr(seconds)]
    # own session, so a timeout can take the child's fork workers down with it
    child = subprocess.Popen(command, env=env, stdout=sys.stderr, start_new_session=True)
    try:
        child.wait(timeout=CHILD_TIMEOUT_S if seconds is not None else None)
    except BaseException:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        shutil.rmtree(workdir_root / tag, ignore_errors=True)
        raise
    try:
        return json.loads(result_path.read_text()) if child.returncode == 0 else None
    finally:
        result_path.unlink(missing_ok=True)


def summarize(result: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """End-to-end metrics of one untraced child result.

    A per-rep metric's value is its **best** verified rep (fastest, or
    highest rate), with ``n``, the median and the quartiles beside it; a
    per-run metric (set-up time, peak RSS) is the median of its samples.  On the
    sizing VM neighbours and the hypervisor only ever add time — whole
    reps run 1.3x slow for minutes — so the best rep is the observation
    least disturbed, and run-to-run it spreads half as much as the median
    does.  A child that died counts as one failed rep.
    """
    if result is None:
        return {"attempted": 1, "failed": 1, "failed_fraction": 1.0, "metrics": {}}
    reps = result["reps"]
    good = [r for r in reps if r["ok"]]
    failed = len(reps) - len(good)
    out = {"attempted": len(reps), "failed": failed, "failed_fraction": failed / len(reps),
           "errors": [r["error"] for r in reps if not r["ok"]], "metrics": {}}
    if not good:
        return out
    per_rep = {
        "wall_s": [r["wall_s"] for r in good],
        "records_per_s": [r["records"] / r["wall_s"] for r in good],
        "input_mb_per_s": [result["input_bytes"] / 1e6 / r["wall_s"] for r in good],
        "cpu_s": [r["cpu_s"] for r in good],
    }
    per_run = {"setup_s": result.get("setup_samples", [result["setup_s"]]),
               "peak_rss_mb": [result["peak_rss_mb"]]}
    for name, unit, better in END_TO_END:
        values = per_rep.get(name) or per_run[name]
        q1, q2, q3 = quartiles(values)
        best = min(values) if better == "lower" else max(values)
        out["metrics"][name] = {"value": best if name in per_rep else q2, "unit": unit, "n": len(values),
                                "median": q2, "q1": q1, "q3": q3}
    return out


def layer_metrics(result: Optional[Dict[str, Any]]) -> Dict[str, Metric]:
    """Per-layer metrics a traced child measured, with their units."""
    layer = result["layer"] if result else {}
    return {name: {"value": layer[name], "unit": unit} for name, unit, _ in PER_LAYER if name in layer}


def print_end_to_end(workload: str, summary: Dict[str, Any], limits: Dict[str, float]) -> None:
    print(f"\n{workload}: {summary['attempted']} reps, failed_fraction "
          f"{summary['failed_fraction']:.3f} (bound: 0)")
    for error in summary.get("errors", []):
        print(f"  FAILED rep: {error}")
    for name, m in summary["metrics"].items():
        iqr = (m["q3"] - m["q1"]) / m["median"] if m["median"] else 0.0
        print(f"  {name:<16}{m['value']:>12.4f} {m['unit']:<5} n={m['n']:<3} median={m['median']:.4f} "
              f"q1={m['q1']:.4f} q3={m['q3']:.4f} iqr/median={iqr:6.2%}  bound {limits[name]:.0%}")


def print_layers(title: str, metrics: Dict[str, Metric], wall_s: Optional[float]) -> None:
    print(f"\n{title}: per-layer metrics (traced run)")
    shares = {n for n, unit, _ in STAGE_METRICS + OS_METRICS if unit == "s"}
    for name, m in metrics.items():
        share = f"  {m['value'] / wall_s:6.1%} of wall_s" if wall_s and name in shares else ""
        print(f"  {name:<46}{m['value']:>16.4f} {m['unit']:<6}{share}")


def driver_line(summary: Dict[str, Any], metrics: Dict[str, Metric]) -> str:
    return json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    })


def run_set(args: argparse.Namespace, names: Sequence[str]) -> Dict[str, Dict[str, Any]]:
    """One untraced pass over *names*: the end-to-end numbers.

    A run that is not time-boxed sets each workload up ``SETUP_SAMPLES``
    times (the extra children stop before the timed loop), because one
    set-up is one sample of a 3-8 s interval on a machine that drifts.
    """
    out = {}
    for name in names:
        def child(sections: str) -> Optional[Dict[str, Any]]:
            return run_child(args.workdir_root, workload=name, seed=args.seed,
                             seconds=args.seconds, trace=False, sections=sections)

        result = child("reps")
        if result is not None and args.seconds is None:
            extra = [child("setup") for _ in range(SETUP_SAMPLES - 1)]
            result["setup_samples"] = [result["setup_s"]] + [e["setup_s"] for e in extra if e]
        out[name] = {"summary": summarize(result), "result": result}
    return out


def worse_by(name: str, first: float, second: float) -> float:
    """How much *second* is worse than *first*, as a share of *first*."""
    change = (second - first) / first
    return change if BETTER[name] == "lower" else -change


def selfcheck(args: argparse.Namespace, names: Sequence[str], limits: Dict[str, float]) -> int:
    """Two sets back to back on the same code must agree within the bounds."""
    first, second = run_set(args, names), run_set(args, names)
    status = 0
    for name in names:
        a, b = first[name]["summary"], second[name]["summary"]
        print(f"\n{name}: failed_fraction {a['failed_fraction']:.3f} / {b['failed_fraction']:.3f}")
        if a["failed"] or b["failed"]:
            status = 1
            continue
        for metric, limit in limits.items():
            va, vb = a["metrics"][metric], b["metrics"][metric]
            diff = max(worse_by(metric, va["value"], vb["value"]), worse_by(metric, vb["value"], va["value"]))
            verdict = "ok" if diff <= limit else "EXCEEDS"
            status |= diff > limit
            print(f"  {metric:<16}{va['value']:>12.4f} vs {vb['value']:>12.4f} {va['unit']:<5} "
                  f"diff {diff:6.2%}  bound {limit:.0%}  {verdict}")
    return int(status)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="run only this workload (repeatable); default: all seven")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="archetype / source-config seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="time-box each workload's timed loop instead of fixed rep counts")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                        help="also make the traced run that yields the per-layer metrics")
    parser.add_argument("--out", type=Path, help="write the full report (reps, metrics, span list) here")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run two sets back to back and compare them against the bounds")
    parser.add_argument("--workdir-root", type=Path, default=REPO / ".bench_work",
                        help="where work dirs go; must be a real filesystem (fsync is free on tmpfs)")
    args = parser.parse_args(argv)
    names = args.workload or list(WORKLOADS)
    limits = bounds()
    try:
        if args.selfcheck:
            return selfcheck(args, names, limits)
        driver_mode = args.seconds is not None and len(names) == 1
        report: Dict[str, Any] = {"seed": args.seed, "workloads": {}, "spans": []}
        status = 0
        # the driver's traced call wants per-layer metrics only: skip the untraced pass
        untraced = {} if driver_mode and args.trace else run_set(args, names)
        for name, entry in untraced.items():
            print_end_to_end(name, entry["summary"], limits)
            status |= entry["summary"]["failed"] > 0
            report["workloads"][name] = {"end_to_end": entry["summary"], **{
                key: (entry["result"] or {}).get(key) for key in ("env", "reps")}}
            last = (entry["summary"], entry["summary"]["metrics"])
        if args.trace:
            shared: Dict[str, Metric] = {}
            if not driver_mode:
                layers = run_child(args.workdir_root, workload=None, seed=args.seed, seconds=args.seconds,
                                   trace=True, sections="ablation,probes")
                shared = layer_metrics(layers)
                status |= layers is None
                print_layers("all workloads", shared, None)
            for name in names:
                traced = run_child(args.workdir_root, workload=name, seed=args.seed, seconds=args.seconds,
                                   trace=True, sections="reps,ablation,probes" if driver_mode else "reps")
                summary, own = summarize(traced), layer_metrics(traced)
                metrics = {**shared, **own}
                status |= summary["failed"] > 0
                print_layers(name, own, summary["metrics"].get("wall_s", {}).get("median"))
                report["workloads"].setdefault(name, {}).update(
                    per_layer=metrics, traced_reps=traced["reps"] if traced else None)
                report["spans"] += traced["spans"] if traced else []
                last = (summary, metrics)
        if args.out:
            args.out.write_text(json.dumps(report, indent=1))
        if len(names) == 1:
            wanted = PER_LAYER if args.trace else END_TO_END
            missing = [n for n, _, _ in wanted if n not in last[1]]
            if missing:
                print(f"no result: metrics missing {missing}", file=sys.stderr)
                return 1
            print(driver_line(last[0], {n: last[1][n] for n, _, _ in wanted}))
        return int(status)
    finally:
        # only ever holds this benchmark's work dirs; gone means nothing leaked
        if args.workdir_root.is_dir() and not any(args.workdir_root.iterdir()):
            args.workdir_root.rmdir()


if __name__ == "__main__":
    sys.exit(main())
