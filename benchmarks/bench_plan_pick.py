"""PLAN — does ``--plan auto`` run what this host measures fastest?

Not a paper artifact: the planner is this reproduction's own automated
readiness decision, and *Automated Data Readiness* (PAPERS.md) asks that
such a decision rest on evidence.  For the four archetypes at the
readiness harness's source sizes (``benchmarks/readiness/workloads.py``)
plus the ``climate_durable`` input, the bench

1. checks that a cold (empty) ledger plans the ``--plan fixed``
   default (serial, width 1, per-record);
2. feeds one ledger with ``FEED_ROUNDS`` alternating rounds of fixed runs
   of serial, threaded x2, simspmd x2 and process x2;
3. runs ``MEASURE_ROUNDS`` more rounds of those four plus ``--plan
   auto`` against the same ledger (every run keeps appending its row),
   each round starting one configuration later than the last;
4. asserts that every configuration auto picked measures within
   ``TOLERANCE`` of the best fixed configuration: the median wall of its
   fixed runs over all rounds against the lowest such median.

Auto's own median wall is reported beside them.  It samples the same
configuration as the fixed runs of its pick, so its distance from them
is the host's run-to-run noise, which on a shared 2-vCPU VM is wider
than the tolerance.

Runs are bare (no telemetry, gates or checkpoints), start from a source
synthesized once per input, and are timed end to end around
``DomainArchetype.run``.  ``SEED`` is one no earlier measurement of this
repository used.
"""

from __future__ import annotations

import gc
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List

from repro.core.report import render_table
from repro.sched import FIXED_DEFAULT, CandidateConfig, build_backend

sys.path.insert(0, str(Path(__file__).parent / "readiness"))
from adapter import archetype, synthesize  # noqa: E402
from workloads import MAX_WORKERS, WORKLOADS  # noqa: E402

SEED = 181
FEED_ROUNDS = 3
MEASURE_ROUNDS = 9
TOLERANCE = 0.10

#: the fixed configurations fed to the ledger, all per-record
FIXED = tuple(
    CandidateConfig(backend, width, 0)
    for backend, width in (("serial", 1), ("threaded", MAX_WORKERS),
                           ("simspmd", MAX_WORKERS), ("process", MAX_WORKERS))
)

#: the harness workloads whose inputs the bench plans for
INPUTS = ("climate_ingest", "fusion_shardwrite", "bio_secure", "materials_records",
          "climate_durable")


def _timed_run(subject, work: Path, **options) -> tuple:
    gc.collect()  # a collection owed by the previous run must not land in this one
    start = time.perf_counter()
    result = subject.run(work, **options)
    wall = time.perf_counter() - start
    shutil.rmtree(work, ignore_errors=True)
    return wall, result


def plan_pick(root: Path, name: str) -> Dict[str, object]:
    """Feed, then measure fixed configs against auto on one input."""
    w = WORKLOADS[name]
    manifest = synthesize(w.domain, SEED, root / name / "source", w.source)
    subject = archetype(w.domain, SEED, manifest)
    store = root / name / "store"
    cold = subject.run(root / name / "cold", plan_mode="auto", ledger=root / name / "empty")
    shutil.rmtree(root / name / "cold")
    walls: Dict[str, List[float]] = {config.label(): [] for config in FIXED}
    walls["auto"] = []
    picks: List[str] = []
    for round_index in range(FEED_ROUNDS + MEASURE_ROUNDS):
        # None is the auto run; each round starts one arm later than the last
        arms = list(FIXED) + [None] * (round_index >= FEED_ROUNDS)
        shift = round_index % len(arms)
        for config in arms[shift:] + arms[:shift]:
            if config is None:
                wall, result = _timed_run(subject, root / name / "run",
                                          ledger=store, plan_mode="auto")
                picks.append(result.schedule.chosen.label())
            else:
                wall, _ = _timed_run(subject, root / name / "run", ledger=store,
                                     backend=build_backend(config))
            walls[config.label() if config else "auto"].append(wall)
    shutil.rmtree(root / name, ignore_errors=True)
    medians = {label: statistics.median(values) for label, values in walls.items()}
    best = min((config.label() for config in FIXED), key=medians.__getitem__)
    return {
        "cold": (cold.schedule.mode, cold.schedule.chosen),
        "medians": medians,
        "quartiles": {label: statistics.quantiles(values, n=4) for label, values in walls.items()},
        "best": best,
        "picks": picks,
        "pick_ratio": max(medians[pick] for pick in picks) / medians[best],
        "auto_ratio": medians["auto"] / medians[best],
    }


def run_all(root: Path) -> Dict[str, Dict[str, object]]:
    return {name: plan_pick(root, name) for name in INPUTS}


def test_plan_pick(benchmark, tmp_path, write_report):
    results = benchmark.pedantic(run_all, args=(tmp_path,), rounds=1, iterations=1)
    labels = [config.label() for config in FIXED] + ["auto"]
    rows = []
    for name, r in results.items():
        medians, quartiles = r["medians"], r["quartiles"]
        rows.append((
            name,
            *(f"{medians[label]:.3f} ({quartiles[label][0]:.3f}-{quartiles[label][2]:.3f})"
              for label in labels),
            r["best"],
            ", ".join(f"{pick} x{r['picks'].count(pick)}" for pick in sorted(set(r["picks"]))),
            f"{r['pick_ratio']:.3f}",
            f"{r['auto_ratio']:.3f}",
        ))
    report = (
        f"--plan auto against the fixed configurations it chooses from (seed {SEED}).\n"
        f"Fixed cells: median wall in s (quartiles) of {FEED_ROUNDS + MEASURE_ROUNDS} end-to-end "
        f"DomainArchetype.run calls;\nauto: {MEASURE_ROUNDS} runs, one per round after the "
        f"first {FEED_ROUNDS}.  'pick / best' is the fixed median of\nthe slowest config auto "
        "picked over the lowest fixed median; 'auto / best' uses auto's own runs.\n\n"
        + render_table(
            ["input", *labels, "best fixed", "auto picked", "pick / best", "auto / best"],
            rows,
        )
        + "\n\ncold ledger: "
        + "; ".join(f"{name} {r['cold'][0]} {r['cold'][1].label()}" for name, r in results.items())
        + f"\nauto's picks within {TOLERANCE:.0%} of the best fixed median on "
        f"{sum(r['pick_ratio'] <= 1.0 + TOLERANCE for r in results.values())}/{len(results)}"
        f" inputs; auto's own runs on "
        f"{sum(r['auto_ratio'] <= 1.0 + TOLERANCE for r in results.values())}/{len(results)}\n"
    )
    write_report("PLAN_pick", report)
    for name, r in results.items():
        assert r["cold"] == ("fallback", FIXED_DEFAULT), name
        assert r["pick_ratio"] <= 1.0 + TOLERANCE, (name, r["picks"], r["medians"])
