"""Command-line interface: the facility-operator surface of the framework.

Section 4 positions the framework as "a pragmatic tool for evaluating
technical readiness"; this CLI is that tool::

    python -m repro matrix                    # render Table 2
    python -m repro archetypes                # render Table 1 (registry)
    python -m repro templates [DOMAIN]        # preprocessing templates
    python -m repro run DOMAIN --workdir DIR  # run an archetype end-to-end
    python -m repro plan explain DOMAIN       # what --plan auto would run, and why
    python -m repro backends                  # list execution backends
    python -m repro inspect SHARD_DIR         # verify + describe a shard set
    python -m repro telemetry summary WORKDIR # slowest spans of a traced run
    python -m repro telemetry critical-path WORKDIR  # what set the wall time
    python -m repro telemetry diff WORKDIR --store-dir STORE
    python -m repro telemetry export WORKDIR --chrome trace.json
    python -m repro runs list STORE           # browse the ledger of runs
    python -m repro crosswalk LEVEL           # NOAA/METRIC crosswalks
    python -m repro quarantine list STORE     # records a gate split out
    python -m repro quarantine re-drive STORE --domain D --output OUT

``run`` drives the layered engine: ``--backend`` picks the execution
backend (serial, threaded, simspmd, process — all bitwise-equivalent)
and ``--workers N`` its parallel width.  The supervised ``process``
backend runs tasks in real worker processes under leases and heartbeats:
crashed workers are respawned and their tasks re-queued, a task that
kills workers repeatedly is dead-lettered as poison, ``--stage-timeout``
is enforced *preemptively* (the overrunning worker is killed), and
SIGINT/SIGTERM drains the run gracefully to a resumable checkpoint
(``--inject-faults 'seed=7,kill-rate=0.05'`` rehearses all of it).
``--workdir`` is the run directory: beside ``source/`` and ``shards/``
it always holds the run's ``events.jsonl``, ``--checkpoint`` adds
per-stage checkpoints and the run journal under ``ckpt/`` (``--resume``
restarts an interrupted run from its last completed stage), and
``--trace`` adds the run's spans and metrics, so the directory is also
the trace the ``telemetry`` commands read.  ``--store-dir`` holds the
stores that span runs: the ledger, the quarantine and the dead letters.
Fault tolerance rides the same command:
``--retries N`` retries stages/tasks on transient faults with
deterministic seeded backoff (ingest and shard stages retry even
without it), ``--stage-timeout`` sets a per-stage deadline budget, a
stage whose attempts are spent fails the run, and ``--inject-faults
'seed=7,rate=0.05,torn-shards=1'`` runs the whole engine under seeded
chaos — the standing demonstration that retried, fault-ridden runs
produce bitwise-identical shards.  Data readiness gates ride it too:
``--gates quarantine`` enforces the domain's declared stage contracts,
splitting violating records into the store's quarantine while survivors
ship (``--inject-bad-records N`` seeds deliberately corrupt sources to
catch).  Each finished run appends its row to the store's
``ledger.jsonl`` (stage seconds under the backend, width and
batch size that ran them), and ``run --plan auto`` runs the
configuration with the lowest summed per-stage medians the ledger holds
for this pipeline, host and source size (the ``fixed`` default when
nothing is measured); ``plan explain`` prints the same choice and its
measured table without running anything.
``quarantine list/show/re-drive`` reads a
quarantine back and replays it through the current contracts, promoting
records that now pass.  ``telemetry`` reads a trace directory back:
``summary`` tables the slowest stages, ``critical-path`` prints the span
chain that determined the wall time plus per-stage rollups (skew,
stragglers, p50/p95/p99), ``diff`` compares per-stage engine seconds
against the ledger's other runs under the run's own store key
with a robust median+MAD threshold, and ``export`` writes combined JSONL
(``--jsonl``), Chrome/Perfetto ``trace_event`` JSON (``--chrome``), or
Prometheus text exposition (``--prom``).  ``run --progress`` streams
live progress (stage, tasks done, ETA) to stderr while the run executes,
and ``runs list/show`` browses the ledger.

Everything the CLI prints is produced by the same public API the examples
use; the CLI adds no behaviour of its own.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.core.assessment import ReadinessAssessment
from repro.core.backends import BACKENDS
from repro.core.crosswalk import crosswalk_report
from repro.core.levels import DataReadinessLevel
from repro.core.matrix import MaturityMatrix
from repro.core.registry import default_registry
from repro.core.report import format_bytes, render_table, section
from repro.core.templates import builtin_template, registered_templates

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DRAI: Data Readiness for Scientific AI at Scale",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    matrix = sub.add_parser("matrix", help="render the Table 2 maturity matrix")
    matrix.set_defaults(handler=_cmd_matrix)

    archetypes = sub.add_parser("archetypes", help="render the Table 1 archetype registry")
    archetypes.set_defaults(handler=_cmd_archetypes)

    templates = sub.add_parser("templates", help="render preprocessing templates")
    templates.set_defaults(handler=_cmd_templates)
    templates.add_argument("domain", nargs="?", default=None,
                           help="one domain (default: list all)")

    run = sub.add_parser("run", help="run a domain archetype end-to-end")
    run.set_defaults(handler=_cmd_run)
    run.add_argument("domain", choices=["climate", "fusion", "bio", "materials"])
    run.add_argument("--workdir", required=True, type=Path,
                     help="the run directory: source/ and shards/, ckpt/ with "
                          "--checkpoint, and the run's events.jsonl (plus "
                          "spans.jsonl and metrics.jsonl with --trace)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--backend", choices=sorted(BACKENDS), default=None,
                     help="execution backend for data-parallel stage internals "
                          "(default: serial; not with --plan auto)")
    run.add_argument("--workers", type=int, default=None, metavar="N",
                     help="parallel width for the chosen --backend (threaded/"
                          "process worker count, simspmd rank count); "
                          "requires --backend")
    run.add_argument("--plan", choices=["fixed", "auto"], default="fixed",
                     dest="plan_mode",
                     help="'auto' runs the backend x workers x batch "
                          "configuration the --store-dir ledger measured "
                          "fastest for this pipeline, host and source size "
                          "(serial when nothing is measured); the decision "
                          "record is embedded in events, spans, and the "
                          "shard manifest")
    run.add_argument("--store-dir", type=Path, default=None,
                     help="the stores that span runs: this run's row goes to "
                          "ledger.jsonl (which --plan auto and 'runs' read), "
                          "its gate-quarantined records to quarantine.jsonl "
                          "+ records/, its dead letters to dead-letters.jsonl")
    run.add_argument("--checkpoint", action="store_true",
                     help="persist per-stage checkpoints and the run journal "
                          "under WORKDIR/ckpt")
    run.add_argument("--resume", action="store_true",
                     help="resume from the last completed checkpointed stage "
                          "(implies --checkpoint)")
    run.add_argument("--recover", action="store_true",
                     help="scan WORKDIR/ckpt before running: replay the "
                          "write-ahead run journal, discard uncommitted partial "
                          "artifacts, heal a torn journal tail, then resume "
                          "from the last journal-committed stage (implies "
                          "--resume)")
    run.add_argument("--events", action="store_true",
                     help="print the structured run-event log after the run")
    run.add_argument("--trace", action="store_true",
                     help="collect telemetry (spans, metrics, resource profiles) "
                          "and write it beside the run's events in WORKDIR")
    run.add_argument("--progress", action="store_true",
                     help="stream live progress (stage, tasks done, ETA) to "
                          "stderr while the run executes")
    run.add_argument("--retries", type=int, default=None, metavar="N",
                     help="retry stages/tasks up to N times on transient faults "
                          "(deterministic seeded backoff)")
    run.add_argument("--stage-timeout", type=float, default=None, metavar="SECONDS",
                     help="per-stage deadline budget; a stage that overruns it fails")
    run.add_argument("--inject-faults", default=None, metavar="SPEC",
                     help="run under seeded chaos, e.g. "
                          "'seed=7,rate=0.05,torn-shards=1,corrupt-checkpoint=2'; "
                          "disk faults ('enospc=checkpoint:2', 'eio=shard:1', "
                          "'torn-rename=manifest:0', 'lost-write=journal:1') hit "
                          "the Nth (0-based) durable write at one site, and "
                          "'crash-at=stage:N:pre|post' (+'crash-kill=1' for a "
                          "real SIGKILL) stops the driver before stage N or "
                          "after it ran; combine with --retries "
                          "or 'run --recover' to watch the run self-heal")
    run.add_argument("--gates", choices=["fail", "quarantine", "warn"], default=None,
                     help="enforce the domain's declared data contracts at stage "
                          "boundaries: fail aborts on violation, quarantine splits "
                          "violating records out and continues degraded, warn only "
                          "records verdicts")
    run.add_argument("--batch-size", type=int, default=None, metavar="N",
                     help="records per batch for stages that declare the batch "
                          "capability (bitwise identical to the per-record "
                          "path; default: per-record; not with --plan auto)")
    run.add_argument("--inject-bad-records", type=int, default=None, metavar="N",
                     help="synthesize N deliberately corrupt source records "
                          "(climate: poisoned models, fusion: poisoned shots) so "
                          "--gates has something to catch")

    backends = sub.add_parser("backends", help="list the available execution backends")
    backends.set_defaults(handler=_cmd_backends)

    plan = sub.add_parser(
        "plan", help="measured planning: inspect what 'run --plan auto' would do"
    )
    plan_sub = plan.add_subparsers(dest="plan_command", required=True)
    explain = plan_sub.add_parser(
        "explain",
        help="show the store key, the measured configurations and the pick",
    )
    explain.set_defaults(handler=_cmd_plan_explain)
    explain.add_argument("domain", choices=["climate", "fusion", "bio", "materials"])
    explain.add_argument("--workdir", type=Path, default=None,
                         help="where the synthesized source goes (default: a "
                              "temporary directory)")
    explain.add_argument("--seed", type=int, default=0)
    explain.add_argument("--store-dir", type=Path, default=None,
                         help="choose from the runs in this store's ledger")
    explain.add_argument("--top", type=int, default=None,
                         help="show only the N best candidates")

    quarantine = sub.add_parser(
        "quarantine", help="inspect and re-drive gate-quarantined records"
    )
    quarantine_sub = quarantine.add_subparsers(dest="quarantine_command", required=True)
    q_list = quarantine_sub.add_parser("list", help="list quarantined records")
    q_list.set_defaults(handler=_cmd_quarantine_list)
    q_list.add_argument("directory", type=Path)
    q_show = quarantine_sub.add_parser(
        "show", help="show one quarantined record by fingerprint (prefix ok)"
    )
    q_show.set_defaults(handler=_cmd_quarantine_show)
    q_show.add_argument("directory", type=Path)
    q_show.add_argument("fingerprint")
    q_redrive = quarantine_sub.add_parser(
        "re-drive", help="replay quarantined records through the current contracts"
    )
    q_redrive.set_defaults(handler=_cmd_quarantine_redrive)
    q_redrive.add_argument("directory", type=Path)
    q_redrive.add_argument("--domain", required=True,
                           choices=["climate", "fusion", "bio", "materials"],
                           help="domain whose contract registry to re-drive against")
    q_redrive.add_argument("--output", required=True, type=Path,
                           help="where promoted shards and the re-drive report go")
    q_redrive.add_argument("--codec", default="raw",
                           help="codec for the promoted supplemental shard")
    q_redrive.add_argument("--consume", action="store_true",
                           help="remove promoted records from the quarantine "
                                "after their outputs commit (crash-idempotent: "
                                "safe to re-run after an interruption)")

    telemetry = sub.add_parser(
        "telemetry", help="inspect the trace a run --workdir DIR --trace wrote"
    )
    telemetry_sub = telemetry.add_subparsers(dest="telemetry_command", required=True)
    summary = telemetry_sub.add_parser(
        "summary", help="table the slowest spans of a trace"
    )
    summary.set_defaults(handler=_cmd_telemetry_summary)
    summary.add_argument("trace_dir", type=Path)
    summary.add_argument("--top", type=int, default=15,
                         help="show the N slowest span groups (default 15)")
    export = telemetry_sub.add_parser(
        "export",
        help="export a trace: combined JSONL, Chrome/Perfetto, or Prometheus",
    )
    export.set_defaults(handler=_cmd_telemetry_export)
    export.add_argument("trace_dir", type=Path)
    export.add_argument("--jsonl", type=Path, default=None, metavar="PATH",
                        help="merge spans, metrics, and events into one JSONL "
                             "stream at PATH")
    export.add_argument("--chrome", type=Path, default=None, metavar="PATH",
                        help="write Chrome/Perfetto trace_event JSON to PATH "
                             "(open in chrome://tracing or ui.perfetto.dev)")
    export.add_argument("--prom", type=Path, default=None, metavar="PATH",
                        help="write the final metrics snapshot in Prometheus "
                             "text exposition format to PATH")
    crit = telemetry_sub.add_parser(
        "critical-path",
        help="the span chain that determined the run's wall time, plus "
             "per-stage rollups with skew and straggler detection",
    )
    crit.set_defaults(handler=_cmd_telemetry_critical_path)
    crit.add_argument("trace_dir", type=Path)
    crit.add_argument("--json", action="store_true", dest="as_json",
                      help="emit the full TraceReport as deterministic JSON")
    diff = telemetry_sub.add_parser(
        "diff",
        help="compare a run's per-stage seconds against the ledger "
             "(robust median+MAD threshold)",
    )
    diff.set_defaults(handler=_cmd_telemetry_diff)
    diff.add_argument("trace_dir", type=Path)
    diff.add_argument("--store-dir", type=Path, required=True, metavar="DIR",
                      help="diff against the other runs with the same store "
                           "key (pipeline, CPUs, source size bucket) in this "
                           "store's ledger; the run itself must be filed there")
    diff.add_argument("--last", type=int, default=10, metavar="N",
                      help="use at most the N most recent ledger runs "
                           "(default 10)")
    diff.add_argument("--json", action="store_true", dest="as_json",
                      help="emit the diff as deterministic JSON")
    diff.add_argument("--fail-on-regress", action="store_true",
                      help="exit 3 when any stage regressed (CI gate mode)")

    runs = sub.add_parser(
        "runs", help="browse the ledger of finished runs (run --store-dir)"
    )
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)
    runs_list = runs_sub.add_parser("list", help="list the ledger's runs")
    runs_list.set_defaults(handler=_cmd_runs_list)
    runs_list.add_argument("store_dir", type=Path)
    runs_list.add_argument("--pipeline", default=None,
                           help="only runs of this pipeline")
    show_help = (
        "show one ledger row by run id (prefix ok); peak_rss_bytes is the "
        "filing process's lifetime ru_maxrss, so a process that ran several "
        "runs carries the largest peak so far"
    )
    runs_show = runs_sub.add_parser("show", help=show_help, description=show_help)
    runs_show.set_defaults(handler=_cmd_runs_show)
    runs_show.add_argument("store_dir", type=Path)
    runs_show.add_argument("run_id")

    inspect = sub.add_parser("inspect", help="verify and describe a shard set")
    inspect.set_defaults(handler=_cmd_inspect)
    inspect.add_argument("directory", type=Path)

    crosswalk = sub.add_parser(
        "crosswalk", help="map a DRAI level to NOAA/METRIC maturity models"
    )
    crosswalk.set_defaults(handler=_cmd_crosswalk)
    crosswalk.add_argument("level", type=int, choices=[1, 2, 3, 4, 5])

    return parser


def _cmd_matrix(args: argparse.Namespace) -> int:
    print(MaturityMatrix.conceptual().render_text(cell_width=20))
    return 0


def _cmd_archetypes(args: argparse.Namespace) -> int:
    registry = default_registry()
    rows = [
        (
            entry.domain,
            entry.pattern_string(),
            ", ".join(entry.architectures),
            "; ".join(entry.challenges),
        )
        for entry in registry
    ]
    print(render_table(["domain", "pattern", "architectures", "challenges"], rows))
    print(f"\ncross-cutting challenges: {', '.join(registry.shared_challenges())}")
    return 0


def _cmd_templates(args: argparse.Namespace) -> int:
    if args.domain is None:
        print("registered templates:", ", ".join(registered_templates()))
        return 0
    print(builtin_template(args.domain).render_markdown())
    return 0


def _archetype(domain: str, seed: int):
    """The named domain's archetype, seeded with *seed*."""
    from repro.domains import all_archetypes

    return next(a for a in all_archetypes(seed) if a.domain == domain)


def _cmd_run(args: argparse.Namespace) -> int:
    """``repro run``: every flag is read off *args*, where
    :func:`build_parser` declared it."""
    domain, seed, backend = args.domain, args.seed, args.backend
    workdir, store_dir = args.workdir, args.store_dir
    from repro.core.plan import PipelineError
    from repro.domains.base import CHECKPOINT_DIR, SHARDS_DIR
    from repro.durability.checkpoint import CheckpointError
    from repro.durability.fsfaults import SimulatedCrash
    from repro.faults import FaultInjector, FaultSpec, RetryPolicy
    from repro.obs import Telemetry

    retry_policy = None
    if args.retries is not None:
        if args.retries < 0:
            print("error: --retries must be >= 0", file=sys.stderr)
            return 2
        # N retries = N+1 attempts; seeded so backoff is reproducible
        retry_policy = RetryPolicy(max_attempts=args.retries + 1, seed=seed)
    injector = None
    if args.inject_faults is not None:
        try:
            injector = FaultInjector(FaultSpec.parse(args.inject_faults))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    source_params = None
    if args.inject_bad_records is not None:
        if args.inject_bad_records < 1:
            print("error: --inject-bad-records must be >= 1", file=sys.stderr)
            return 2
        corrupt_knobs = {
            "climate": "n_corrupt_models",
            "fusion": "n_corrupt_shots",
        }
        if domain not in corrupt_knobs:
            print(f"error: --inject-bad-records is not supported for {domain} "
                  f"(supported: {', '.join(sorted(corrupt_knobs))})",
                  file=sys.stderr)
            return 2
        source_params = {corrupt_knobs[domain]: args.inject_bad_records}
    if args.batch_size is not None and args.batch_size < 1:
        print("error: --batch-size must be >= 1", file=sys.stderr)
        return 2
    if backend is None and args.workers is not None:
        print("error: --workers requires --backend", file=sys.stderr)
        return 2
    if args.plan_mode == "auto" and (backend is not None or args.batch_size is not None):
        # the manifest must name the config that ran, so auto takes no override
        print("error: --plan auto picks the backend, width and batch size itself; "
              "drop --backend/--workers/--batch-size or use --plan fixed",
              file=sys.stderr)
        return 2
    if backend is None and args.plan_mode != "auto":
        backend = "serial"
    if args.workers is not None:
        if args.workers < 1:
            print("error: --workers must be >= 1", file=sys.stderr)
            return 2
        from repro.sched import WIDTH_ARGUMENT, CandidateConfig, build_backend

        if backend not in WIDTH_ARGUMENT:
            print(f"error: --workers is not supported for the {backend} backend",
                  file=sys.stderr)
            return 2
        try:
            backend = build_backend(CandidateConfig(backend, args.workers, args.batch_size or 0))
        except (RuntimeError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.stage_timeout is not None and backend is not None:
        backend_cls = (
            BACKENDS.get(backend) if isinstance(backend, str) else type(backend)
        )
        if backend_cls is not None and not backend_cls.preemptive_timeout:
            print(f"warning: --stage-timeout on the {backend_cls.name} backend is enforced "
                  "post-hoc only (a hung task is not killed); use --backend "
                  "process for preemptive enforcement", file=sys.stderr)
    checkpointed = args.checkpoint or args.resume or args.recover
    checkpoint_dir = workdir / CHECKPOINT_DIR if checkpointed else None
    # --progress needs telemetry even without --trace
    telemetry = Telemetry() if args.trace or args.progress else None
    recovery_report = None
    if args.recover:
        from repro.durability import recover_run

        recovery_report = recover_run(
            checkpoint_dir,
            shards_dir=workdir / SHARDS_DIR,
            telemetry=telemetry,
        )
        print(recovery_report.summary())
    archetype = _archetype(domain, seed)
    if backend is None:
        how = "auto-planned"
    elif isinstance(backend, str):
        how = backend
    else:
        how = f"{backend.name} (width {backend.width})"
    print(f"running {domain} archetype ({archetype.pattern_string()}) "
          f"on the {how} backend ...")

    reporter = None
    ticker = None
    if args.progress:
        from repro.obs import ProgressReporter, ProgressTicker

        reporter = ProgressReporter(telemetry)
        ticker = ProgressTicker(reporter).start()
    from repro.workers import DrainController, DrainInterrupt

    drain = DrainController()
    uninstall = drain.install()
    failure: Optional[BaseException] = None
    try:
        result = archetype.run(
            workdir,
            source_params=source_params,
            backend=backend,
            checkpoint_dir=checkpoint_dir,
            resume=args.resume or args.recover,
            on_event=reporter.on_event if reporter is not None else None,
            telemetry=telemetry,
            retry_policy=retry_policy,
            stage_timeout=args.stage_timeout,
            fault_injector=injector,
            gates=args.gates,
            quarantine_dir=store_dir,
            plan_mode=args.plan_mode,
            ledger=store_dir,
            drain=drain,
            batch_size=args.batch_size,
            recovery_report=recovery_report,
        )
    except SimulatedCrash as exc:
        # the in-process flavour of crash-at (crash-kill=1 SIGKILLs for
        # real): exit like a killed driver, which writes nothing more
        print(f"\n{exc}", file=sys.stderr)
        if checkpointed:
            print(f"recover with: --workdir {workdir} --recover", file=sys.stderr)
        return 137
    except (CheckpointError, DrainInterrupt, PipelineError) as exc:
        failure = exc
    finally:
        uninstall()
        if ticker is not None:
            ticker.stop()
    # a run that ended early carries its records on the exception
    records = result.run if failure is None else failure
    _write_run_records(args, records, telemetry, partial=failure is not None)
    if failure is not None:
        return _report_failure(failure, workdir if checkpointed else None)
    run = result.run
    if result.schedule is not None:
        decision = result.schedule
        print(section("schedule decision"))
        print(decision.summary())
        if decision.candidates:
            print()
            print(decision.render_table(top=5))
        predicted, actual, error, _ = decision.prediction_error(run.results)
        if predicted > 0:
            print(f"\npredicted {predicted:.4f} s, actual {actual:.4f} s "
                  f"(prediction error {error:.0%})")
    if store_dir is not None:
        from repro.sched import LEDGER_NAME

        print(f"run filed in {store_dir / LEDGER_NAME}")
    if run.quarantined:
        for q in run.quarantined:
            print(f"quarantined corrupt checkpoint for stage {q.stage_name!r} "
                  f"({q.reason})")
    if run.resumed_from is not None:
        skipped = run.resumed_from + 1
        print(f"resumed from checkpoint: {skipped} stage(s) restored, not re-run")
    print(run.summary_table())
    unenforceable = [
        e for e in run.events if e.kind.value == "timeout-unenforceable"
    ]
    if (injector is not None or run.total_retries or len(run.dead_letters)
            or unenforceable):
        print(section("fault tolerance"))
        if injector is not None:
            print(injector.describe())
            unfired = injector.unfired()
            if unfired:
                print(f"scheduled but never fired: {', '.join(unfired)}")
        print(f"retries spent: {run.total_retries} "
              f"(stage-level + task-level, across all stages)")
        for event in unenforceable:
            print(f"note: {event.detail}")
        if len(run.dead_letters):
            print("\ndead letters:")
            print(run.dead_letters.render())
    if run.worker_counters or run.worker_crashes:
        print(section("worker supervision"))
        print(", ".join(f"{k}={v}" for k, v in sorted(run.worker_counters.items()))
              or "no supervision activity")
        for crash in run.worker_crashes:
            print(f"  {crash.describe()}")
    if args.gates is not None:
        print(section("data readiness gates"))
        print(f"policy: {args.gates}")
        for report in run.gate_reports:
            print(f"  {report.summary()}")
        if run.records_quarantined:
            where = store_dir if store_dir is not None else "(in-memory)"
            print(f"{run.records_quarantined} record(s) quarantined -> {where}")
    if run.records_quarantined:
        shed = [r.stage_name for r in run.results if r.records_quarantined]
        print(f"\nWARNING: run completed DEGRADED — stage(s) "
              f"{', '.join(shed)} shed {run.records_quarantined} "
              f"record(s) into quarantine; survivors shipped")
    if args.events:
        print(section("run events"))
        print(run.event_log())
    print(section("assessment"))
    print(f"Data Readiness Level: {result.readiness_level} / 5")
    print(MaturityMatrix.from_assessment(result.assessment).render_compact())
    print(section("detected challenges"))
    for challenge in result.detected_challenges:
        print(f"  - {challenge}")
    if result.manifest is not None:
        print(section("shards"))
        rows = [
            (split, result.manifest.split_samples(split),
             len(result.manifest.splits[split]))
            for split in sorted(result.manifest.splits)
        ]
        print(render_table(["split", "samples", "shards"], rows))
    return 0


def _write_run_records(args: argparse.Namespace, records, telemetry, *, partial: bool) -> None:
    """The one write of a run's records, whichever way it ended: its events
    (with ``--trace`` also its spans and metrics) are appended under the
    workdir, its dead letters in the store.  *records* is the finished
    :class:`~repro.core.runner.PipelineRun` or the exception that ended the
    run early, which the runner gives the same two attributes."""
    from repro.obs import JsonlTelemetrySink
    from repro.obs.sinks import EVENTS_NAME, envelope, write_jsonl

    lines = (envelope("event", e.to_dict()) for e in getattr(records, "events", []))
    write_jsonl(args.workdir / EVENTS_NAME, lines, append=True)
    if args.trace:
        telemetry.export(JsonlTelemetrySink(args.workdir))
        print(f"{'partial ' if partial else ''}trace written to {args.workdir} "
              f"({len(telemetry.tracer)} spans, {len(telemetry.metrics)} metrics)",
              file=sys.stderr if partial else sys.stdout)
    dead_letters = getattr(records, "dead_letters", None)
    if args.store_dir is not None and dead_letters:
        from repro.faults import DEAD_LETTER_NAME

        path = dead_letters.save(args.store_dir / DEAD_LETTER_NAME)
        print(f"{len(dead_letters)} dead letter(s) appended to {path}")


def _report_failure(exc: BaseException, resume_dir: Optional[Path]) -> int:
    """Explain a run that ended early; the exit code is 130 for a drain
    (resumable from *resume_dir*, when the run was checkpointed) and 1
    for a failure."""
    from repro.workers import DrainInterrupt

    stage = getattr(exc, "stage_name", None)
    if not isinstance(exc, DrainInterrupt):
        where = f" (stage {stage!r})" if stage else ""
        print(f"error{where}: {exc}", file=sys.stderr)
        gate_report = getattr(exc, "gate_report", None)
        if gate_report is not None:
            print(f"gate verdict: {gate_report.summary()}", file=sys.stderr)
        return 1
    where = f" before stage {stage!r}" if stage else ""
    print(f"\nrun interrupted by drain{where}: {exc}", file=sys.stderr)
    counters = getattr(exc, "worker_counters", None)
    if counters:
        print("worker supervision: "
              + ", ".join(f"{k}={v}" for k, v in sorted(counters.items())),
              file=sys.stderr)
    if resume_dir is not None:
        print(f"resume with: --workdir {resume_dir} --resume", file=sys.stderr)
    return 130


def _cmd_plan_explain(args: argparse.Namespace) -> int:
    import contextlib
    import tempfile

    from repro.domains.base import SHARDS_DIR, SOURCE_DIR
    from repro.sched import Ledger, choose_config, store_key

    with contextlib.ExitStack() as stack:
        workdir = args.workdir or Path(
            stack.enter_context(tempfile.TemporaryDirectory(prefix="repro-plan-"))
        )
        source_dir = workdir / SOURCE_DIR
        source_dir.mkdir(parents=True, exist_ok=True)
        archetype = _archetype(args.domain, args.seed)
        source_manifest = archetype.synthesize_source(source_dir)
        plan = archetype.build_pipeline(workdir / SHARDS_DIR).plan
        key = store_key(plan.name, source_manifest)
    ledger = None
    if args.store_dir is not None:
        ledger = Ledger(args.store_dir)
        print(f"ledger: {len(ledger.rows())} run(s) in {ledger.path}")
    print(f"store key: {key.label()}")
    decision = choose_config(key, plan.stage_names, ledger)
    print(section("measured configurations"))
    print(decision.render_table(top=args.top))
    print(f"\n{decision.summary()}")
    print(f"decision hash: {decision.content_hash()[:16]}")
    return 0


def _cmd_quarantine_list(args: argparse.Namespace) -> int:
    from repro.gates import QuarantineStore

    store = QuarantineStore(args.directory)
    print(store.render())
    return 0


def _cmd_quarantine_show(args: argparse.Namespace) -> int:
    import json as _json

    from repro.gates import QuarantineStore

    fingerprint = args.fingerprint
    store = QuarantineStore(args.directory)
    matches = [
        e
        for e in store.entries()
        if str(e.get("record_fingerprint", "")).startswith(fingerprint)
    ]
    if not matches:
        print(f"error: no quarantine entry matches {fingerprint!r}", file=sys.stderr)
        return 1
    if len(matches) > 1:
        names = ", ".join(str(e["record_fingerprint"])[:16] for e in matches)
        print(f"error: ambiguous fingerprint prefix ({names})", file=sys.stderr)
        return 1
    entry = matches[0]
    print(_json.dumps(entry, indent=2, sort_keys=True))
    try:
        record = store.load_record(str(entry["record_fingerprint"]))
    except (FileNotFoundError, ValueError) as exc:
        print(f"(record payload unavailable: {exc})", file=sys.stderr)
        return 0
    print(f"\nrecord payload: {type(record).__name__}")
    print(f"  {record!r:.500}")
    return 0


def _cmd_quarantine_redrive(args: argparse.Namespace) -> int:
    from repro.gates import QuarantineStore, contracts_for_domain, redrive

    directory, domain, output, consume = args.directory, args.domain, args.output, args.consume
    store = QuarantineStore(directory)
    if not len(store):
        print(f"error: quarantine under {directory} is empty", file=sys.stderr)
        return 1
    contracts = contracts_for_domain(domain)
    if not contracts:
        print(f"error: domain {domain!r} declares no contracts", file=sys.stderr)
        return 1
    report = redrive(store, contracts, output, codec_name=args.codec, consume=consume)
    print(report.summary())
    if consume and report.promoted:
        print(f"{len(report.promoted)} promoted record(s) consumed "
              f"from the quarantine")
    if report.shard_path:
        print(f"promoted records shipped as supplemental shard: {report.shard_path}")
    if report.requarantined:
        print(f"re-quarantined entries written to {Path(output) / 'requarantined.jsonl'}")
    print(f"re-drive report: {Path(output) / 'report.json'}")
    return 0


def _check_trace_dir(trace_dir: Path) -> bool:
    """Whether *trace_dir* exists; if not, print a one-line friendly error."""
    if Path(trace_dir).is_dir():
        return True
    print(f"error: trace directory {trace_dir} does not exist "
          f"(produce one with: repro run DOMAIN --workdir {trace_dir} --trace)",
          file=sys.stderr)
    return False


def _cmd_telemetry_summary(args: argparse.Namespace) -> int:
    from repro.obs import read_trace

    trace_dir = args.trace_dir
    if not _check_trace_dir(trace_dir):
        return 1
    trace = read_trace(trace_dir)
    spans = trace["spans"]
    if not spans:
        print(f"error: no spans found under {trace_dir}", file=sys.stderr)
        return 1
    # aggregate spans by name: the slowest groups are the optimisation targets
    groups: dict = {}
    for span in spans:
        g = groups.setdefault(
            str(span.get("name", "?")),
            {"count": 0, "total": 0.0, "max": 0.0, "errors": 0, "items": 0},
        )
        duration = float(span.get("duration_s") or 0.0)
        g["count"] += 1
        g["total"] += duration
        g["max"] = max(g["max"], duration)
        g["errors"] += 1 if span.get("status") == "error" else 0
        attrs = span.get("attributes") or {}
        if isinstance(attrs, dict) and isinstance(attrs.get("items"), (int, float)):
            g["items"] += int(attrs["items"])
    ranked = sorted(groups.items(), key=lambda kv: kv[1]["total"], reverse=True)
    rows = [
        (
            name,
            g["count"],
            f"{g['total']:.4f}",
            f"{g['total'] / g['count']:.4f}",
            f"{g['max']:.4f}",
            g["items"] or "",
            g["errors"] or "",
        )
        for name, g in ranked[: max(args.top, 1)]
    ]
    traces = sorted({str(s.get("trace_id", "")) for s in spans})
    print(f"{len(spans)} spans across {len(traces)} trace(s); "
          f"slowest span groups by cumulative time:\n")
    print(render_table(
        ["span", "count", "total s", "mean s", "max s", "items", "errors"],
        rows,
        align_right=[False, True, True, True, True, True, True],
    ))
    fault_counter_names = (
        "stage_retries_total",
        "task_retries_total",
        "faults_injected_total",
        "dead_letters_total",
        "stages_degraded_total",
        "checkpoints_quarantined_total",
    )
    fault_rows = [
        (
            str(m.get("name")),
            ", ".join(f"{k}={v}" for k, v in sorted((m.get("labels") or {}).items())),
            int(float(m.get("value") or 0)),
        )
        for m in trace["metrics"]
        if m.get("name") in fault_counter_names and float(m.get("value") or 0) > 0
    ]
    if fault_rows:
        print("\nfault tolerance counters:")
        print(render_table(
            ["counter", "labels", "value"],
            sorted(fault_rows),
            align_right=[False, False, True],
        ))
    if len(trace["metrics"]) or len(trace["events"]):
        print(f"\ntrace also holds {len(trace['metrics'])} metric snapshots "
              f"and {len(trace['events'])} run events "
              f"(merge with: repro telemetry export {trace_dir} --jsonl OUT)")
    return 0


def _cmd_telemetry_export(args: argparse.Namespace) -> int:
    from repro.obs import read_trace, write_chrome_trace, write_prometheus_text
    from repro.obs.sinks import write_jsonl

    trace_dir = args.trace_dir
    out_path, chrome_path, prom_path = args.jsonl, args.chrome, args.prom
    if out_path is None and chrome_path is None and prom_path is None:
        print("error: pick at least one of --jsonl, --chrome, --prom",
              file=sys.stderr)
        return 2
    if not _check_trace_dir(trace_dir):
        return 1
    trace = read_trace(trace_dir)
    combined = trace["spans"] + trace["metrics"] + trace["events"]
    if not combined:
        print(f"error: no telemetry records found under {trace_dir}", file=sys.stderr)
        return 1
    if out_path is not None:
        n = write_jsonl(out_path, combined)
        print(f"{n} records ({len(trace['spans'])} spans, "
              f"{len(trace['metrics'])} metrics, "
              f"{len(trace['events'])} events) written to {out_path}")
    if chrome_path is not None:
        write_chrome_trace(trace, chrome_path)
        print(f"Chrome/Perfetto trace ({len(trace['spans'])} spans) "
              f"written to {chrome_path}")
    if prom_path is not None:
        write_prometheus_text(trace, prom_path)
        print(f"Prometheus exposition ({len(trace['metrics'])} series) "
              f"written to {prom_path}")
    return 0


def _cmd_telemetry_critical_path(args: argparse.Namespace) -> int:
    from repro.obs import analyze_trace

    trace_dir = args.trace_dir
    if not _check_trace_dir(trace_dir):
        return 1
    try:
        report = analyze_trace(trace_dir)
    except ValueError:
        print(f"error: no spans found under {trace_dir}", file=sys.stderr)
        return 1
    if args.as_json:
        print(report.to_json(), end="")
        return 0
    print(f"pipeline {report.pipeline!r} on the {report.backend or '?'} backend: "
          f"{report.status}, {report.total_wall_s:.4f} s wall, "
          f"{report.n_spans} spans, {report.n_tasks} backend tasks")
    print(section("critical path"))
    print(report.render_critical_path())
    print(section("stage rollups"))
    print(report.render_stages())
    slow = [s for s in report.stages if s.stragglers]
    if slow:
        names = ", ".join(f"{s.stage} ({s.stragglers})" for s in slow)
        print(f"\nstraggler tasks detected: {names}")
    return 0


def _cmd_telemetry_diff(args: argparse.Namespace) -> int:
    import json as _json

    from repro.obs import analyze_trace, diff_stage_seconds
    from repro.obs import read_trace, trace_stage_seconds
    from repro.sched import Ledger

    trace_dir, store_dir = args.trace_dir, args.store_dir
    if not _check_trace_dir(trace_dir):
        return 1
    trace = read_trace(trace_dir)
    try:
        pipeline = analyze_trace(trace).pipeline
    except ValueError:
        print(f"error: no spans found under {trace_dir}", file=sys.stderr)
        return 1
    current = trace_stage_seconds(trace["metrics"])
    # the run's own row (the same engine seconds) names its store key;
    # it is never its own history
    rows = Ledger(store_dir).rows(pipeline)
    own = next((r for r in rows if r.stage_seconds() == current), None)
    if own is None:
        print(f"error: the run under {trace_dir} has no row in the ledger "
              f"under {store_dir}", file=sys.stderr)
        return 1
    history = [
        r.stage_seconds() for r in rows
        if r.key == own.key and r.stage_seconds() != current
    ][-max(args.last, 1):]
    if not history:
        print(f"error: no other runs of {own.key.label()} in the ledger "
              f"under {store_dir}", file=sys.stderr)
        return 1
    diff = diff_stage_seconds(
        current, history, pipeline=pipeline, baseline_label=f"ledger:{store_dir}"
    )
    if args.as_json:
        print(_json.dumps(diff.to_dict(), indent=2, sort_keys=True))
    else:
        print(diff.summary())
        print()
        print(diff.render_table())
    if args.fail_on_regress and diff.regressed:
        return 3
    return 0


def _cmd_runs_list(args: argparse.Namespace) -> int:
    from repro.sched import Ledger

    ledger, pipeline = Ledger(args.store_dir), args.pipeline
    rows = ledger.rows(pipeline)
    if not rows:
        what = f"{pipeline!r} runs" if pipeline else "runs"
        print(f"error: no {what} in {ledger.path}", file=sys.stderr)
        return 1
    table = [
        (
            r.run_id[:16],
            r.key.pipeline,
            r.config.label(),
            r.status,
            f"{sum(r.stage_seconds().values()):.4f}",
            len(r.stages),
        )
        for r in rows
    ]
    print(render_table(
        ["run id", "pipeline", "config", "status", "stage s", "stages"],
        table,
        align_right=[False, False, False, False, True, True],
    ))
    print(f"\n{len(rows)} run(s); inspect one with: "
          f"repro runs show {args.store_dir} RUN_ID")
    return 0


def _cmd_runs_show(args: argparse.Namespace) -> int:
    import json as _json

    from repro.sched import Ledger

    try:
        row = Ledger(args.store_dir).get(args.run_id)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 1
    print(_json.dumps(row.to_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_backends(args: argparse.Namespace) -> int:
    rows = []
    for name in sorted(BACKENDS):
        cls = BACKENDS[name]
        caps = cls.capabilities()
        try:
            width = cls().width
        except (RuntimeError, ValueError):
            width = "-"  # e.g. process backend on a fork-less platform
        rows.append((
            name,
            width,
            "yes" if caps["preemptive_timeout"] else "no",
            "yes" if caps["survives_worker_crash"] else "no",
            (cls.__doc__ or "").splitlines()[0],
        ))
    print(render_table(
        ["backend", "default width", "preemptive timeout",
         "survives worker crash", "description"],
        rows,
    ))
    print("\nall backends produce bitwise-identical payloads, statistics, "
          "and shard files for the same plan and input.")
    print("'preemptive timeout': a blown --stage-timeout kills the running "
          "task; otherwise the budget is enforced only after the stage "
          "returns.")
    print("'survives worker crash': a dying worker is respawned and its "
          "task re-queued instead of failing the stage.")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.io.shards import ShardError, ShardSet

    try:
        shard_set = ShardSet(args.directory)
    except ShardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    manifest = shard_set.manifest
    print(f"dataset : {manifest.dataset_name}")
    print(f"codec   : {manifest.codec}")
    print(f"samples : {manifest.n_samples} across {manifest.n_shards} shards")
    rows = [
        (
            split,
            manifest.split_samples(split),
            len(shards),
            format_bytes(sum(s.nbytes for s in shards)),
        )
        for split, shards in sorted(manifest.splits.items())
    ]
    print(render_table(["split", "samples", "shards", "bytes"], rows))
    print("\nschema:")
    for spec in manifest.schema:
        print(f"  {spec.name:<20} {str(spec.dtype):<10} {spec.shape or 'scalar'} "
              f"[{spec.role.value}]")
    try:
        shard_set.verify()
        print("\nchecksums: OK")
        return 0
    except ShardError as exc:
        print(f"\nchecksums: FAILED ({exc})", file=sys.stderr)
        return 1


def _cmd_crosswalk(args: argparse.Namespace) -> int:
    from repro.core.assessment import StageAssessment
    from repro.core.levels import DataProcessingStage

    level = DataReadinessLevel(args.level)
    # build a minimal assessment whose overall equals the requested level
    stages = {
        stage: StageAssessment(
            stage=stage, level=level, satisfied=[], missing_for_next=[],
            notes=[],
        )
        for stage in DataProcessingStage
    }
    assessment = ReadinessAssessment(stages=stages, overall=level)
    print(crosswalk_report(assessment))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Parse *argv* and run the subcommand's handler (``set_defaults`` in
    :func:`build_parser` binds one to every leaf parser)."""
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
