"""The run layer: execute a :class:`StagePlan` with capture, events, resume.

Running a plan threads a payload through its stages while a
:class:`PipelineContext` accumulates the three cross-cutting artifacts the
paper says current practice lacks — readiness evidence, provenance
(the input's content hash, then one derivation id per stage output), and
a hash-chained audit trail.  :class:`PipelineRunner` is an
explicit lifecycle (open -> per stage: gate-in, execute-with-policy,
gate-out, commit -> finish) that publishes every moment once — as a typed
:class:`RunEvent`, an audit entry, and telemetry — and owns the execution
backend, the per-stage error policy (:mod:`repro.faults`), the data gates
(:mod:`repro.gates`) and checkpointed resume (snapshots and the write-ahead
journal, both behind :class:`repro.durability.checkpoint.RunCheckpointer`).
DESIGN.md, "Engine architecture", walks through the phases.

Stage functions stay pure data transforms; capture is the engine's job.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import enum
import time
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.backends import ExecutionBackend, SerialBackend, get_backend
from repro.core.evidence import EvidenceKind, ReadinessEvidence
from repro.core.helper_pool import behind, helper_pool, helper_threads
from repro.durability.checkpoint import (
    CheckpointError,
    QuarantinedCheckpoint,
    RunCheckpoint,
    RunCheckpointer,
)
from repro.durability.fsfaults import activate
from repro.core.levels import DataProcessingStage
from repro.core.payload import commit_pass, fingerprint_payload
from repro.core.plan import PipelineError, PipelineStage, StagePlan, derivation_id
from repro.core.report import format_bytes, render_table
from repro.faults.deadletter import DeadLetterLog, DeadLetterRecord
from repro.faults.errors import FaultKind, StageTimeoutError, classify_fault
from repro.faults.inject import FaultInjector
from repro.faults.retry import (
    Clock,
    Deadline,
    RetryPolicy,
    RetryStats,
    SystemClock,
    call_with_retry,
)
from repro.gates.contracts import GatePolicy
from repro.gates.gate import GateReport, GateViolation, apply_contract
from repro.gates.quarantine import QuarantineStore
from repro.governance.audit import AuditLog
from repro.obs import Telemetry
from repro.obs.instrument import NullRecorder, RunRecorder
from repro.obs.tracing import Span
from repro.provenance.graph import LineageGraph
from repro.provenance.record import ProvenanceRecord
from repro.provenance.store import ProvenanceStore
from repro.workers.drain import DrainController, DrainInterrupt


if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.durability.recover import RecoveryReport
    from repro.sched.decision import ScheduleDecision, StoreKey

__all__ = [
    "Pipeline",
    "PipelineContext",
    "StageResult",
    "PipelineRun",
    "RunEventKind",
    "RunEvent",
    "PipelineRunner",
]


class PipelineContext:
    """Mutable carrier of evidence, lineage, audit, artifacts, and backend."""

    def __init__(
        self,
        *,
        provenance_store: Optional[ProvenanceStore] = None,
        agent: str = "pipeline",
    ):
        self.evidence = ReadinessEvidence()
        self.lineage = LineageGraph()
        self.audit = AuditLog()
        self.provenance_store = provenance_store
        self.agent = agent
        #: how data-parallel stage internals execute; a PipelineRunner
        #: overwrites this with its own backend at run start
        self.backend: ExecutionBackend = SerialBackend()
        #: side outputs stages want to expose (fitted normalizers, manifests)
        self.artifacts: Dict[str, Any] = {}
        #: set by a telemetered PipelineRunner: the run's Telemetry and the
        #: span of the stage currently executing (None when untraced)
        self.telemetry: Optional[Telemetry] = None
        self.current_span: Optional[Span] = None
        #: gate verdicts accumulated by a gated run, in evaluation order
        self.gate_reports: List[GateReport] = []
        #: the measured decision this run executes under (set by a
        #: PipelineRunner from plan.schedule; None for fixed-config runs)
        self.schedule_decision: Optional["ScheduleDecision"] = None
        #: records-per-batch for the *currently executing* stage: set by a
        #: PipelineRunner before each stage.fn call (None when the stage
        #: did not declare ``batch=True`` or no batch size is configured).
        #: Stages forward it to ``ctx.backend.map_batches(...)``
        self.stage_batch_size: Optional[int] = None

    def schedule_record(self) -> Optional[Dict[str, Any]]:
        """The run's schedule decision as a manifest-embeddable dict.

        None for fixed-config runs, so shard stages can attach it
        unconditionally (``schedule=ctx.schedule_record()``) without
        changing unscheduled manifests by a byte — the same contract as
        :meth:`readiness_certificate`.
        """
        if self.schedule_decision is None:
            return None
        return self.schedule_decision.to_dict()

    def readiness_certificate(self) -> Optional[Dict[str, Any]]:
        """The readiness certificate of the gates evaluated so far.

        None outside a gated run, so shard stages can attach it
        unconditionally (``certificate=ctx.readiness_certificate()``)
        without changing ungated manifests by a byte.
        """
        from repro.gates.certificate import build_certificate

        return build_certificate(self.gate_reports)

    def annotate_span(
        self, **attributes: object
    ) -> None:
        """Attach domain attributes to the executing stage's span.

        A no-op outside a telemetered run, so stages can annotate
        unconditionally (``ctx.annotate_span(patches_regridded=n)``).
        """
        if self.current_span is not None:
            self.current_span.set_attributes(**attributes)

    def record(
        self, kind: EvidenceKind, detail: str = "", *, recorded_by: str = "", **metrics: float
    ) -> None:
        """Record readiness evidence (the stage-facing API)."""
        self.evidence.record(
            kind, detail, recorded_by=recorded_by or self.agent, **metrics
        )

    def add_artifact(self, name: str, value: Any) -> None:
        self.artifacts[name] = value

    def _capture(
        self,
        stage_name: str,
        inputs: Sequence[str],
        output: str,
        params: Optional[Mapping[str, object]],
        annotations: Mapping[str, object],
    ) -> ProvenanceRecord:
        record = ProvenanceRecord.create(
            activity=stage_name,
            inputs=inputs,
            output=output,
            params=params,
            agent=self.agent,
            annotations=annotations,
        )
        self.lineage.add(record)
        if self.provenance_store is not None:
            self.provenance_store.append(record)
        return record


@dataclasses.dataclass(frozen=True)
class StageResult:
    """Execution accounting for one stage."""

    stage_name: str
    processing_stage: DataProcessingStage
    seconds: float
    input_fingerprint: str
    output_fingerprint: str
    evidence_recorded: int
    #: True when the stage was restored from a checkpoint, not executed
    restored: bool = False
    #: logical item count of the stage's output payload (0 when restored)
    items: int = 0
    #: approximate content size of the stage's output payload in bytes
    nbytes: int = 0
    #: stage-level execution attempts (1 = no retries)
    attempts: int = 1
    #: task-level retries spent inside the backend fan-out for this stage
    task_retries: int = 0
    #: True when a data gate quarantined records at one of its boundaries
    degraded: bool = False
    #: records a data gate split out at this stage's boundaries
    records_quarantined: int = 0


class RunEventKind(enum.Enum):
    """What happened, for structured run logs."""

    RUN_STARTED = "run-started"
    RUN_SCHEDULED = "run-scheduled"
    STAGE_STARTED = "stage-started"
    STAGE_COMPLETED = "stage-completed"
    STAGE_FAILED = "stage-failed"
    STAGE_SKIPPED = "stage-skipped"
    STAGE_RETRIED = "stage-retried"
    STAGE_DEGRADED = "stage-degraded"
    CHECKPOINT_QUARANTINED = "checkpoint-quarantined"
    GATE_PASSED = "gate-passed"
    GATE_WARNED = "gate-warned"
    RECORDS_QUARANTINED = "records-quarantined"
    GATE_FAILED = "gate-failed"
    RUN_COMPLETED = "run-completed"
    RUN_FAILED = "run-failed"
    #: a drain (SIGINT/SIGTERM or programmatic) stopped the run at a
    #: checkpoint-consistent point; resume picks up where it left off
    RUN_INTERRUPTED = "run-interrupted"
    #: the recovery scanner repaired this checkpoint directory before
    #: the run started (journal replayed, uncommitted partials discarded)
    RUN_RECOVERED = "run-recovered"
    #: a stage deadline is configured but the backend cannot preempt a
    #: running task — the budget is enforced post-hoc only
    TIMEOUT_UNENFORCEABLE = "timeout-unenforceable"


@dataclasses.dataclass(frozen=True)
class RunEvent:
    """One structured run/stage transition with timing and fingerprint."""

    kind: RunEventKind
    pipeline: str
    stage_name: Optional[str] = None
    stage_index: Optional[int] = None
    seconds: float = 0.0
    fingerprint: str = ""
    detail: str = ""
    #: wall-clock time of the transition, stamped by the runner's injected
    #: clock source (not a default_factory, so tests can pin timestamps)
    timestamp: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind.value,
            "pipeline": self.pipeline,
            "stage_name": self.stage_name,
            "stage_index": self.stage_index,
            "seconds": self.seconds,
            "fingerprint": self.fingerprint,
            "detail": self.detail,
            "timestamp": self.timestamp,
        }


@dataclasses.dataclass
class PipelineRun:
    """The outcome of one pipeline execution."""

    pipeline_name: str
    payload: Any
    context: PipelineContext
    results: List[StageResult]
    events: List[RunEvent] = dataclasses.field(default_factory=list)
    #: index of the checkpointed stage the run resumed after (None = fresh)
    resumed_from: Optional[int] = None
    backend_name: str = "serial"
    #: work the run could not complete (the stage that failed it)
    dead_letters: DeadLetterLog = dataclasses.field(default_factory=DeadLetterLog)
    #: checkpoints resume had to quarantine before finding a verifiable one
    quarantined: List[QuarantinedCheckpoint] = dataclasses.field(default_factory=list)
    #: data-gate verdicts, one per contract evaluation, in order
    gate_reports: List[GateReport] = dataclasses.field(default_factory=list)
    #: worker crash/hang/lease-expiry events, when the backend supervises
    #: worker processes (empty for in-process backends)
    worker_crashes: List[Any] = dataclasses.field(default_factory=list)
    #: cumulative supervision counters (worker_restarts, tasks_requeued,
    #: leases_expired, poison_tasks, heartbeats) from a supervised backend
    worker_counters: Dict[str, int] = dataclasses.field(default_factory=dict)

    @property
    def records_quarantined(self) -> int:
        """Records data gates split out across the run."""
        return sum(r.records_quarantined for r in self.results)

    @property
    def total_seconds(self) -> float:
        return sum(r.seconds for r in self.results)

    @property
    def degraded(self) -> bool:
        """True when a data gate quarantined records at any stage."""
        return any(r.degraded for r in self.results)

    @property
    def total_retries(self) -> int:
        """Stage-level plus task-level retries spent across the run."""
        return sum(r.attempts - 1 + r.task_retries for r in self.results)

    def seconds_by_processing_stage(self) -> Dict[DataProcessingStage, float]:
        out: Dict[DataProcessingStage, float] = {}
        for result in self.results:
            out[result.processing_stage] = (
                out.get(result.processing_stage, 0.0) + result.seconds
            )
        return out

    def stage_table(self) -> str:
        """Aligned text table of per-stage timing and hashes."""
        lines = [
            f"{'stage':<28} {'canonical':<12} {'seconds':>9}  output",
        ]
        for r in self.results:
            note = " (restored)" if r.restored else ""
            lines.append(
                f"{r.stage_name:<28} {r.processing_stage.label:<12} "
                f"{r.seconds:>9.4f}  {r.output_fingerprint[:12]}{note}"
            )
        return "\n".join(lines)

    def event_log(self) -> str:
        """One line per run event (kind, stage, timing, fingerprint)."""
        lines = []
        for e in self.events:
            stage = e.stage_name or "-"
            lines.append(
                f"{e.kind.value:<16} {stage:<28} {e.seconds:>9.4f}  "
                f"{e.fingerprint[:12] or '-':<12}  {e.detail}"
            )
        return "\n".join(lines)

    def to_summary(self) -> Dict[str, Dict[str, object]]:
        """Stage name -> duration, items, bytes, status (the run summary)."""
        summary: Dict[str, Dict[str, object]] = {}
        for r in self.results:
            if r.degraded:
                status = "degraded"
            elif r.restored:
                status = "restored"
            else:
                status = "ok"
            summary[r.stage_name] = {
                "canonical": r.processing_stage.label,
                "seconds": r.seconds,
                "items": r.items,
                "bytes": r.nbytes,
                "items_per_s": (r.items / r.seconds) if r.seconds > 0 else 0.0,
                "status": status,
                "retries": r.attempts - 1 + r.task_retries,
                "fingerprint": r.output_fingerprint[:12],
            }
        return summary

    def _stage_quantiles(self, name: str) -> Optional[Tuple[float, float]]:
        """(p50, p95) of a stage's ``stage_seconds`` histogram, if telemetered."""
        telemetry = self.context.telemetry if self.context is not None else None
        if telemetry is None:
            return None
        hist = telemetry.metrics.get(
            "stage_seconds", pipeline=self.pipeline_name, stage=name
        )
        if hist is None or getattr(hist, "kind", "") != "histogram":
            return None
        return hist.quantile(0.50), hist.quantile(0.95)

    def summary_table(self) -> str:
        """Aligned text table of :meth:`to_summary` plus a totals row.

        Telemetered runs grow p50/p95 columns, estimated from the
        per-stage ``stage_seconds`` histograms (retried stages observe
        more than once, so the quantiles expose retry-timing spread).
        """
        summary = self.to_summary()
        quantiles = {name: self._stage_quantiles(name) for name in summary}
        with_quantiles = any(q is not None for q in quantiles.values())
        rows = []
        for name, row in summary.items():
            cells = [
                name,
                row["canonical"],
                f"{row['seconds']:.4f}",
            ]
            if with_quantiles:
                q = quantiles[name]
                cells.append(f"{q[0]:.4f}" if q is not None else "")
                cells.append(f"{q[1]:.4f}" if q is not None else "")
            cells.extend(
                [
                    row["items"],
                    format_bytes(float(row["bytes"])),
                    f"{row['items_per_s']:.1f}",
                    row["retries"],
                    row["status"],
                ]
            )
            rows.append(tuple(cells))
        total = [
            "(total)",
            "",
            f"{self.total_seconds:.4f}",
        ]
        if with_quantiles:
            total.extend(["", ""])
        total.extend(
            [
                "",
                "",
                "",
                self.total_retries,
                "degraded" if self.degraded else self.backend_name,
            ]
        )
        rows.append(tuple(total))
        headers = ["stage", "canonical", "seconds"]
        align = [False, False, True]
        if with_quantiles:
            headers.extend(["p50 s", "p95 s"])
            align.extend([True, True])
        headers.extend(["items", "bytes", "items/s", "retries", "status"])
        align.extend([True, True, True, True, False])
        return render_table(headers, rows, align_right=align)


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------

K = RunEventKind

#: gate verdict -> the event a non-failing verdict publishes
_GATE_EVENTS = {
    "pass": K.GATE_PASSED,
    "warn": K.GATE_WARNED,
    "quarantine": K.RECORDS_QUARANTINED,
}


def _gated(report: GateReport, input_id: str) -> str:
    """The identity of what a gate let through of the payload *input_id*."""
    shed = sorted(v.fingerprint for v in report.violations)
    return derivation_id("gate", report.contract_hash, shed, input_id)


def _classify_stage_fault(error: BaseException) -> FaultKind:
    """A blown stage budget is final — whether the deadline expired
    post-hoc or a preemptive backend killed the lease — although
    :class:`StageTimeoutError` is transient by taxonomy."""
    if isinstance(error, StageTimeoutError):
        return FaultKind.PERMANENT
    return classify_fault(error)


@dataclasses.dataclass
class _RunState:
    """What one ``run()`` call accumulates, threaded through the lifecycle."""

    context: PipelineContext
    #: telemetry's subscriber (a no-op stand-in for untraced runs)
    recorder: NullRecorder
    quarantine: QuarantineStore
    #: the payload flowing between stages, and its id (DESIGN, "Stage identity")
    payload: Any
    fingerprint: str = ""
    #: first stage to execute (> 0 after a restore)
    start_index: int = 0
    events: List[RunEvent] = dataclasses.field(default_factory=list)
    results: List[StageResult] = dataclasses.field(default_factory=list)
    dead_letters: DeadLetterLog = dataclasses.field(default_factory=DeadLetterLog)
    quarantined: List[QuarantinedCheckpoint] = dataclasses.field(default_factory=list)
    task_stats: RetryStats = dataclasses.field(default_factory=RetryStats)
    #: where the ledger files this run's row
    store_key: Optional["StoreKey"] = None
    #: the one thread checkpoint commits land on, started by the first
    #: commit; ``False`` on a 1-CPU host, where they land inline
    committer: Any = None
    #: the commit in flight — its future, stage and index — until it lands
    landing: Optional[Tuple[concurrent.futures.Future, PipelineStage, int]] = None


@dataclasses.dataclass
class _StageFrame:
    """One stage's trip through gate-in, execute, gate-out, commit."""

    stage: PipelineStage
    index: int
    policy: Optional[RetryPolicy]
    evidence_before: int
    attempts: int = 0
    #: seconds inside ``stage.fn`` across every attempt
    elapsed: float = 0.0
    task_retries: int = 0
    records_quarantined: int = 0
    #: the payload the stage was handed; an output that *is* it keeps its id
    source: Any = None

    def result(self, st: _RunState, output_fingerprint: str, **extra: Any) -> StageResult:
        return StageResult(
            stage_name=self.stage.name,
            processing_stage=self.stage.processing_stage,
            seconds=self.elapsed,
            input_fingerprint=st.fingerprint,
            output_fingerprint=output_fingerprint,
            evidence_recorded=len(st.context.evidence) - self.evidence_before,
            attempts=self.attempts,
            task_retries=self.task_retries,
            records_quarantined=self.records_quarantined,
            **extra,
        )


class PipelineRunner:
    """Drives a :class:`StagePlan` through a backend with capture and resume.

    A run is an explicit lifecycle over one :class:`_RunState`::

        open -> per stage: gate-in -> execute-with-policy -> gate-out -> commit -> finish

    Every lifecycle moment goes through :meth:`_publish`, which fans out to
    the event log / ``on_event``, the audit trail and the telemetry
    recorder; every way a run can end badly goes through :meth:`_fail`.
    """

    def __init__(
        self,
        plan: StagePlan,
        *,
        backend: Union[str, ExecutionBackend, None] = None,
        checkpoint_dir: Union[str, Path, None] = None,
        on_event: Optional[Callable[[RunEvent], None]] = None,
        telemetry: Optional[Telemetry] = None,
        clock: Callable[[], float] = time.time,
        retry_policy: Optional[RetryPolicy] = None,
        stage_timeout: Optional[float] = None,
        fault_injector: Optional[FaultInjector] = None,
        fault_clock: Optional[Clock] = None,
        gates: Union[GatePolicy, str, None] = None,
        quarantine_dir: Union[str, Path, None] = None,
        ledger: Union[str, Path, None] = None,
        drain: Optional[DrainController] = None,
        batch_size: Optional[int] = None,
        recovery_report: Optional["RecoveryReport"] = None,
    ):
        """The run options, declared once: ``Pipeline.run`` and
        ``DomainArchetype.run`` forward ``**runner_options`` here.

        ``backend`` (a name or instance) selects how stage internals fan
        out.  ``checkpoint_dir`` snapshots every completed stage and
        journals its commit there, so ``run(resume=True)`` restarts after
        the last journal-committed stage whose snapshot still verifies.
        ``on_event`` receives every :class:`RunEvent` as it happens,
        ``telemetry`` attaches a
        :class:`~repro.obs.Telemetry` collector (spans, metrics, resource
        profiles), and ``clock`` stamps event timestamps (inject a fake to
        pin them).  ``retry_policy`` and ``stage_timeout`` are the run's
        fault budget: the backoff schedule and each stage's deadline in
        seconds.  A stage retries iff it declares ``retry`` or the run has
        a retry policy; once its attempts are spent the run fails.
        ``fault_injector`` runs the engine under seeded chaos, and
        ``fault_clock`` is what backoff sleeps and deadlines run on
        (virtual in tests).  ``gates`` (``"fail"`` / ``"quarantine"`` /
        ``"warn"``) turns the stages' contracts on, shedding records into
        ``quarantine_dir`` (in memory without one).
        ``ledger`` is a store directory whose ``ledger.jsonl`` gains one
        row when the run finishes: every executed stage's seconds and
        items, filed under the backend, width and batch size that ran
        them (see :mod:`repro.sched.ledger`).  ``drain`` is a cooperative stop
        flag: once it trips, the run stops at the next
        checkpoint-consistent point (a stage boundary, or mid-stage on a
        draining backend) with a
        :class:`~repro.workers.drain.DrainInterrupt`.  ``batch_size`` is
        records per batch for ``batch=True`` stages; ``None`` or ``0``
        keeps the per-record path (bitwise identical either way).
        ``recovery_report``, from a pre-run recovery scan, opens the run
        with a ``RUN_RECOVERED`` event.
        """
        if batch_size is not None and batch_size < 0:
            raise ValueError(f"batch_size must be >= 0, got {batch_size}")
        self.plan = plan
        self.backend = get_backend(backend)
        self.checkpointer = (
            RunCheckpointer(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self.fault_injector = fault_injector
        self.recovery_report = recovery_report
        self.on_event = on_event
        self.telemetry = telemetry
        self.clock = clock
        self.retry_policy = retry_policy
        self.stage_timeout = stage_timeout
        if fault_clock is None:
            fault_clock = fault_injector.clock if fault_injector is not None else SystemClock()
        self.fault_clock = fault_clock
        self.gate_policy = GatePolicy.coerce(gates) if gates is not None else None
        self.quarantine_dir = quarantine_dir
        self.ledger = ledger
        self.drain = drain
        self.batch_size = batch_size

    def _stage_policy(self, stage: PipelineStage) -> Optional[RetryPolicy]:
        """The retry policy one stage runs under (None: it fails at once)."""
        if stage.retry or self.retry_policy is not None:
            return self.retry_policy or RetryPolicy()
        return None

    def _batch_records(self) -> int:
        """Records per batch the plan's ``batch=True`` stages run with
        (0 = per-record, also when no stage declares the capability)."""
        if not any(stage.batch for stage in self.plan.stages):
            return 0
        return int(self.batch_size or 0)

    # -- the two funnels: publish and fail ---------------------------------------
    def _publish(
        self,
        st: _RunState,
        kind: RunEventKind,
        stage_name: Optional[str] = None,
        stage_index: Optional[int] = None,
        *,
        seconds: float = 0.0,
        fingerprint: str = "",
        detail: str = "",
        audit: Optional[Mapping[str, object]] = None,
        action: str = "",
        **facts: Any,
    ) -> None:
        """The one publish point: a lifecycle moment reaches every record.

        The :class:`RunEvent` goes to the run's event log and ``on_event``;
        with ``audit`` (the entry's detail fields) the moment is also
        written to the audit trail as ``action`` (default: the event kind)
        on the stage, or on the pipeline for run-level moments; ``facts``
        are what the telemetry recorder needs beyond the event itself.
        """
        event = RunEvent(
            kind=kind,
            pipeline=self.plan.name,
            stage_name=stage_name,
            stage_index=stage_index,
            seconds=seconds,
            fingerprint=fingerprint,
            detail=detail,
            timestamp=self.clock(),
        )
        st.events.append(event)
        if self.on_event is not None:
            self.on_event(event)
        if audit is not None:
            st.context.audit.record(
                st.context.agent, action or kind.value, stage_name or self.plan.name, **audit
            )
        st.recorder.record(event, **facts)

    def _fail(
        self,
        st: _RunState,
        error: BaseException,
        stage: Optional[PipelineStage] = None,
        index: Optional[int] = None,
        *,
        detail: str,
        span_error: str,
        kind: RunEventKind = K.RUN_FAILED,
        audit: Optional[Mapping[str, object]] = None,
    ) -> BaseException:
        """The one abort path: publish the terminal event, dress the error.

        Gate, stage, drain and restore failures all end here, so every
        ``RUN_STARTED`` is followed by exactly one terminal event and the
        raised exception always carries the run's records.  Returns *error*
        for the caller to ``raise`` (keeping its ``from`` clause) — unless
        the commit still in flight failed: the run then fails with that,
        the earlier stage's failure, as it would have before this stage ran.
        """
        self._land(st)
        self._publish(
            st, kind, stage.name if stage else None, index, detail=detail, audit=audit,
            error=span_error,
        )
        error.events = st.events  # type: ignore[attr-defined]
        error.dead_letters = st.dead_letters  # type: ignore[attr-defined]
        error.worker_crashes = list(self.backend.crash_events)  # type: ignore[attr-defined]
        error.worker_counters = dict(self.backend.worker_counters)  # type: ignore[attr-defined]
        return error

    def _interrupted(
        self, st: _RunState, exc: DrainInterrupt, stage: PipelineStage, index: int
    ) -> BaseException:
        """A drain stopped the run; the last completed stage's checkpoint
        lands (``_fail`` joins it) before the run ends, so ``--resume``
        continues bitwise-faithfully."""
        detail = str(exc) or "drain requested"
        exc.stage_name = stage.name
        exc.stage_index = index
        return self._fail(
            st, exc, stage, index, detail=detail, span_error="run interrupted (drain)",
            kind=K.RUN_INTERRUPTED, audit={"detail": detail},
        )

    # -- execution ---------------------------------------------------------------
    def run(
        self,
        payload: Any,
        context: Optional[PipelineContext] = None,
        *,
        resume: bool = False,
    ) -> PipelineRun:
        """Execute the plan; provenance is captured per payload transition.

        With ``resume=True`` (requires ``checkpoint_dir``) the run restarts
        after the last journal-committed stage that *verifies*: its
        snapshot must hash to the committed digest and its payload to the
        recorded content digest; corrupt or mismatched snapshots are
        quarantined (renamed to ``*.quarantined``, reported as
        ``CHECKPOINT_QUARANTINED`` events), and the surviving prefix is
        replayed as ``STAGE_SKIPPED`` events instead of being re-executed.

        The whole run executes with the fault injector (if any) installed
        as the process-global tap on the atomic-commit primitives, so every
        artifact store — checkpoints, manifests, journal, provenance,
        quarantine — is under injection.  What the run installs on its
        backend is cleared when it ends, so a reused backend starts clean.
        """
        with activate(self.fault_injector):
            st: Optional[_RunState] = None
            try:
                st = self._open(payload, context, resume)
                for index in range(st.start_index, len(self.plan.stages)):
                    self._run_stage(st, index)
                return self._finish(st)
            finally:
                if st is not None:
                    self._settle(st)
                backend = self.backend
                backend.hooks = ()
                backend.drain = backend.lease_timeout = None
                backend.configure_retry(None)

    # -- open --------------------------------------------------------------------
    def _open(
        self, payload: Any, context: Optional[PipelineContext], resume: bool
    ) -> _RunState:
        """Load the checkpoint, install the run on its backend, write the
        run-start records, restore (or root the lineage), begin the journal."""
        context = context or PipelineContext(agent=self.plan.name)
        context.telemetry = self.telemetry
        context.schedule_decision = self.plan.schedule
        checkpoint: Optional[RunCheckpoint] = None
        quarantined: List[QuarantinedCheckpoint] = []
        if resume:
            if self.checkpointer is None:
                raise PipelineError("resume requested but the runner has no checkpointer")
            checkpoint, quarantined = self.checkpointer.load_verified(self.plan)
        base = self.backend
        # the one traced-or-not decision: a traced run's recorder is also its
        # first backend hook, so its op span encloses the injector's faults
        recorder, hooks = NullRecorder(), ()
        if self.telemetry is not None:
            recorder = RunRecorder(self.telemetry, self.plan.name, base, self.fault_injector)
            hooks = (recorder,)
        if self.fault_injector is not None:
            hooks += (self.fault_injector,)
        st = _RunState(
            context=context,
            recorder=recorder,
            quarantine=QuarantineStore(self.quarantine_dir),
            payload=payload,
            quarantined=quarantined,
        )
        if self.ledger is not None:
            from repro.sched.ledger import store_key

            st.store_key = store_key(self.plan.name, payload)
        base.configure_retry(None, clock=self.fault_clock, stats=st.task_stats)
        # draining backends check the flag between task grants, so a
        # signal stops the run mid-stage, not just at boundaries
        base.drain = self.drain
        base.hooks = hooks
        context.backend = base
        self._announce(st, checkpoint)
        if checkpoint is not None:
            try:
                self._restore(st, checkpoint)
            except CheckpointError as exc:
                raise self._fail(st, exc, detail=str(exc), span_error=str(exc))
        else:
            st.fingerprint = fp = fingerprint_payload(payload)
            lineage = context.lineage
            if lineage.record_for(fp) is None and fp not in lineage.entities:
                # register the raw payload as a lineage root
                context._capture(f"{self.plan.name}:source", [], fp, None, {"role": "source"})
        if self.checkpointer is not None:
            # write-ahead: the journal names the run before any stage
            # mutates disk, so recovery can always tell which run the
            # on-disk state belongs to
            try:
                self.checkpointer.journal.begin(
                    pipeline=self.plan.name,
                    plan_fingerprint=self.plan.fingerprint(),
                    backend=base.name,
                    payload_fingerprint=st.fingerprint,
                    resume_index=st.start_index,
                )
            except OSError as exc:
                raise self._append_failed(st, "run begin", exc) from exc
            recorder.count("journal_records_total", kind="run-begin")
        return st

    def _announce(self, st: _RunState, checkpoint: Optional[RunCheckpoint]) -> None:
        """The run-start records: started, recovered, scheduled, quarantined."""
        base, decision = self.backend, self.plan.schedule
        resuming = f" resume-after={checkpoint.stage_name}" if checkpoint else ""
        self._publish(
            st, K.RUN_STARTED, detail=f"backend={base.name}{resuming}",
            audit={"backend": base.name}, stages=len(self.plan.stages), decision=decision,
        )
        if self.recovery_report is not None:
            self._publish(st, K.RUN_RECOVERED, detail=self.recovery_report.summary())
        if self.stage_timeout is not None and not base.preemptive_timeout:
            # make the limit of cooperative deadlines explicit, not silently weaker
            self._publish(
                st,
                K.TIMEOUT_UNENFORCEABLE,
                detail=(
                    f"backend {base.name!r} cannot preempt a running stage; "
                    "deadlines are enforced post-hoc only (a hung task is "
                    "not killed) — use --backend process for preemptive "
                    "enforcement"
                ),
            )
        if decision is not None:
            self._publish(
                st, K.RUN_SCHEDULED, fingerprint=decision.content_hash(),
                detail=decision.summary(),
                audit={"mode": decision.mode, "config": decision.chosen.label()},
            )
        for q in st.quarantined:
            self._publish(
                st, K.CHECKPOINT_QUARANTINED, q.stage_name, q.stage_index,
                detail=q.reason, audit={"reason": q.reason},
            )

    def _restore(self, st: _RunState, checkpoint: RunCheckpoint) -> None:
        """Replay the completed prefix from a checkpoint into this run."""
        context = st.context
        context.artifacts.update(checkpoint.artifacts)
        if len(context.evidence) == 0 and len(checkpoint.evidence) > 0:
            context.evidence = checkpoint.evidence
        if not context.gate_reports:
            context.gate_reports = list(checkpoint.gate_reports)
        if context.provenance_store is not None:
            # rebuild lineage continuity for the skipped prefix and require
            # the restored payload to be a known entity in the stored chain
            context.lineage.extend(context.provenance_store.load())
            if checkpoint.fingerprint not in context.lineage.entities:
                raise CheckpointError(
                    f"restored payload {checkpoint.fingerprint[:12]} is not an "
                    "entity in the attached provenance store; refusing to resume"
                )
        for index in range(checkpoint.stage_index + 1):
            row = checkpoint.completed.get(index)
            if row is None:
                raise CheckpointError(f"the journal has no commit for stage index {index}")
            stage = self.plan.stages[index]
            fingerprint = str(row["output_fingerprint"])
            shed = sum(
                r.records_quarantined for r in context.gate_reports if r.stage_index == index
            )
            st.results.append(
                StageResult(
                    stage_name=stage.name,
                    processing_stage=stage.processing_stage,
                    seconds=0.0,
                    input_fingerprint=str(row["input_fingerprint"]),
                    output_fingerprint=fingerprint,
                    evidence_recorded=0,
                    restored=True,
                    degraded=bool(shed),
                    records_quarantined=shed,
                )
            )
            self._publish(
                st, K.STAGE_SKIPPED, stage.name, index, fingerprint=fingerprint,
                detail="restored from checkpoint", audit={"output": fingerprint[:12]},
            )
        st.payload = checkpoint.payload
        commit_pass(st.payload)  # restored is committed: frozen too
        st.fingerprint = checkpoint.fingerprint
        st.start_index = checkpoint.stage_index + 1

    # -- one stage ---------------------------------------------------------------
    def _run_stage(self, st: _RunState, index: int) -> None:
        """gate-in -> execute-with-policy -> gate-out -> commit."""
        stage, injector = self.plan.stages[index], self.fault_injector
        if self.drain is not None and self.drain.requested:
            # boundary drain: this stage never starts
            exc = DrainInterrupt(
                f"drain requested before stage {stage.name!r} "
                "(previous checkpoint is the resume point)"
            )
            raise self._interrupted(st, exc, stage, index)
        if injector is not None:
            # pre-stage crash point: nothing of this stage exists yet
            injector.maybe_crash(index, "pre")
        policy = self._stage_policy(stage)
        frame = _StageFrame(stage, index, policy, len(st.context.evidence))
        st.context.stage_batch_size = (self.batch_size or None) if stage.batch else None
        self.backend.task_retry = policy
        # preemptive deadline: a supervising backend SIGKILLs a worker
        # whose lease outlives the stage budget
        self.backend.lease_timeout = self.stage_timeout
        self._publish(
            st, K.STAGE_STARTED, stage.name, index, fingerprint=st.fingerprint, stage=stage
        )
        st.context.current_span = st.recorder.stage_span
        try:
            self._gate_in(st, frame)
            frame.source = st.payload
            try:
                self._execute(st, frame)
            except DrainInterrupt as exc:
                # mid-stage drain from a draining backend: stop here —
                # never retried, never dead-lettered
                raise self._interrupted(st, exc, stage, index)
            except Exception as error:
                raise self._give_up(st, frame, error) from error
            output_report = self._gate(st, frame, "output")
        finally:
            st.context.current_span = None
        self._commit(st, frame, output_report)
        if injector is not None:
            # the stage ran; its commit may be in flight (_settle waits it out)
            injector.maybe_crash(index, "post")

    def _gate(
        self, st: _RunState, frame: _StageFrame, boundary: str
    ) -> Optional[GateReport]:
        """Enforce one boundary's contract on ``st.payload``; survivors stay.

        A ``fail`` verdict fails the run like a stage failure does, and the
        raised :class:`PipelineError` also carries the :class:`GateReport`.
        """
        stage, index = frame.stage, frame.index
        contract = stage.input_contract if boundary == "input" else stage.output_contract
        if self.gate_policy is None or contract is None:
            return None
        try:
            outcome = apply_contract(
                contract,
                st.payload,
                policy=self.gate_policy,
                pipeline=self.plan.name,
                stage=stage.name,
                stage_index=index,
                boundary=boundary,
            )
        except GateViolation as exc:
            detail = str(exc)
            st.context.gate_reports.append(exc.report)
            self._publish(
                st, K.GATE_FAILED, stage.name, index, detail=detail,
                audit={"error": detail}, report=exc.report,
            )
            error = PipelineError(detail, stage_name=stage.name, stage_index=index)
            error.gate_report = exc.report  # type: ignore[attr-defined]
            raise self._fail(
                st, error, stage, index, detail=detail,
                span_error=f"gate failed at stage {stage.name!r}",
            ) from exc
        report = outcome.report
        st.context.gate_reports.append(report)
        for entry, record in outcome.quarantined:
            st.quarantine.add(entry, record)
        self._publish(
            st, _GATE_EVENTS[report.verdict], stage.name, index, detail=report.summary(),
            audit={"contract": report.contract, "boundary": report.boundary},
            action=f"gate-{report.verdict}", report=report,
        )
        st.payload = outcome.payload
        frame.records_quarantined += report.records_quarantined
        return report

    def _gate_in(self, st: _RunState, frame: _StageFrame) -> None:
        """The input gate; a payload it thinned becomes a lineage entity."""
        report = self._gate(st, frame, "input")
        if report is None or not report.records_quarantined:
            return
        gated_id = _gated(report, st.fingerprint)
        annotations = {
            "processing_stage": frame.stage.processing_stage.name,
            "role": "gate",
            "gate_contract": report.contract_hash,
            "gate_verdict": report.verdict,
            **st.recorder.span_annotations(),
        }
        st.context._capture(
            f"{frame.stage.name}:gate", [st.fingerprint], gated_id, None, annotations
        )
        st.fingerprint = gated_id

    def _execute(self, st: _RunState, frame: _StageFrame) -> None:
        """Run ``stage.fn`` under the stage's error policy, through the one
        retry loop.

        Returns once an attempt succeeds (``st.payload`` is then the
        stage's output); raises the error that exhausted the policy.  A
        :class:`DrainInterrupt` is never retried (it classifies permanent).
        """
        stage, timeout = frame.stage, self.stage_timeout
        policy = frame.policy or RetryPolicy(max_attempts=1)
        deadline = Deadline(timeout, clock=self.fault_clock) if timeout is not None else None
        task_before = st.task_stats.retries

        def on_retry(attempt: int, error: BaseException, delay: float) -> None:
            described = f"{type(error).__name__}: {error}"
            self._publish(
                st, K.STAGE_RETRIED, stage.name, frame.index, seconds=frame.elapsed,
                detail=(
                    f"attempt {attempt}/{policy.max_attempts} failed "
                    f"({described}); retrying in {delay:.3f}s"
                ),
                audit={"attempt": attempt, "error": str(error)},
                attempt=attempt, error=described, delay_s=delay,
            )

        try:
            call_with_retry(
                lambda: self._attempt(st, frame, deadline),
                policy=policy,
                clock=self.fault_clock,
                key=f"{self.plan.name}:{stage.name}",
                classify=_classify_stage_fault,
                on_retry=on_retry,
                deadline=deadline,
            )
        finally:
            frame.task_retries = st.task_stats.retries - task_before
            st.recorder.count("task_retries_total", frame.task_retries, stage=stage.name)

    def _attempt(self, st: _RunState, frame: _StageFrame, deadline: Optional[Deadline]) -> None:
        """One call of ``stage.fn``: its output becomes ``st.payload``, or
        it raises — the stage's own error, or a timeout."""
        frame.attempts += 1
        started = time.perf_counter()
        try:
            candidate = frame.stage.fn(st.payload, st.context)
        finally:
            frame.elapsed += time.perf_counter() - started
        if deadline is not None and deadline.expired():
            # cooperative (post-hoc) budget enforcement: the stage
            # finished, but blew its deadline on the fault clock
            raise StageTimeoutError(
                f"stage {frame.stage.name!r} exceeded its {self.stage_timeout:g}s budget "
                f"({deadline.elapsed():.3f}s elapsed)"
            )
        st.payload = candidate

    def _give_up(self, st: _RunState, frame: _StageFrame, error: BaseException) -> BaseException:
        """Dead-letter the stage: it failed, and so does the run."""
        stage, index = frame.stage, frame.index
        st.dead_letters.append(
            DeadLetterRecord(
                pipeline=self.plan.name,
                stage_name=stage.name,
                stage_index=index,
                attempts=frame.attempts,
                error_type=type(error).__name__,
                error=str(error),
                fault_kind=classify_fault(error),
                input_fingerprint=st.fingerprint,
                timestamp=self.clock(),
            )
        )
        st.recorder.count("dead_letters_total", stage=stage.name)
        described = f"{type(error).__name__}: {error}"
        self._publish(
            st, K.STAGE_FAILED, stage.name, index, seconds=frame.elapsed,
            detail=f"{described} (after {frame.attempts} attempts)",
            audit={"error": str(error)}, error=described,
        )
        failure = PipelineError(
            f"stage {stage.name!r} failed: {error}", stage_name=stage.name, stage_index=index
        )
        return self._fail(
            st, failure, stage, index, detail=str(error),
            span_error=f"stage {stage.name!r} failed",
        )

    def _commit(
        self, st: _RunState, frame: _StageFrame, output_report: Optional[GateReport]
    ) -> None:
        """Record the completed stage everywhere, then commit it: the
        previous stage's commit lands first, this one's is captured here and
        lands behind the next stage (see :meth:`_land`)."""
        stage, index = frame.stage, frame.index
        self._land(st)
        # the output is named by its derivation, not hashed: a stage that
        # hands its input on hands it on under the input's id
        out_bytes, out_items = commit_pass(st.payload)
        out_fp = st.fingerprint if st.payload is frame.source else self.plan.derive(
            index, st.fingerprint
        )
        frame.source = None  # the input may go before the snapshot is written
        if output_report is not None and output_report.records_quarantined:
            out_fp = _gated(output_report, out_fp)
        self._publish(
            st, K.STAGE_COMPLETED, stage.name, index, seconds=frame.elapsed, fingerprint=out_fp,
            audit={"seconds": frame.elapsed, "output": out_fp[:12]},
            items=out_items, nbytes=out_bytes,
            attempts=frame.attempts, task_retries=frame.task_retries,
        )
        if out_fp != st.fingerprint:
            # a pure observer (validation, evidence-only) makes no new entity
            annotations: Dict[str, object] = {
                "processing_stage": stage.processing_stage.name,
                **st.recorder.span_annotations(),
            }
            if output_report is not None:
                annotations["gate_contract"] = output_report.contract_hash
                annotations["gate_verdict"] = output_report.verdict
            st.context._capture(stage.name, [st.fingerprint], out_fp, stage.params, annotations)
        st.results.append(
            frame.result(
                st, out_fp, items=out_items, nbytes=out_bytes,
                degraded=bool(frame.records_quarantined),
            )
        )
        if frame.records_quarantined:
            # quarantine reuses the degraded machinery: the stage
            # completed, but not with all of its records
            self._publish(
                st, K.STAGE_DEGRADED, stage.name, index, fingerprint=out_fp,
                detail=f"{frame.records_quarantined} record(s) quarantined",
            )
        if self.checkpointer is not None:
            try:
                land = self.checkpointer.commit(
                    index, stage.name, st.fingerprint, out_fp, st.payload, st.context
                )
            except Exception as exc:
                raise self._commit_failed(st, stage, index, exc) from exc
            if st.committer is None:
                threads = helper_threads()
                st.committer = helper_pool("checkpoint-commit", 1) if threads > 1 else False
            st.landing = (behind(st.committer or None, land), stage, index)
            if not st.committer:
                self._land(st)  # a 1-CPU host: the commit already ran, inline
        st.fingerprint = out_fp

    def _commit_failed(
        self, st: _RunState, stage: PipelineStage, index: int, exc: Exception
    ) -> BaseException:
        """A full disk, a torn journal append, an artifact that does not
        pickle: the stage ran but is not committed."""
        detail = f"checkpoint commit failed for stage {stage.name!r}: {exc}"
        failure = PipelineError(detail, stage_name=stage.name, stage_index=index)
        return self._fail(st, failure, stage, index, detail=detail, span_error=detail)

    def _land(self, st: _RunState) -> None:
        """Join the commit in flight; the stage it commits counts as
        committed from here on.

        The one join, made before the next commit is captured, before the
        run commits, in :meth:`_fail` and — on a 1-CPU host — right after
        the commit is captured.  A commit that failed on the helper thread
        fails the run here, from its own stage.
        """
        landing, st.landing = st.landing, None
        if landing is None:
            return
        future, stage, index = landing
        try:
            future.result()
        except Exception as exc:
            raise self._commit_failed(st, stage, index, exc) from exc
        st.recorder.count("journal_records_total", kind="stage-commit")

    def _settle(self, st: _RunState) -> None:
        """Whatever way the run ends, no commit outlives it.  Only a run
        already ending on another error gets here with one in flight; that
        error stands, and the stage of a commit that failed stays
        uncommitted."""
        if st.landing is not None:
            st.landing[0].exception()
            st.landing = None
        if st.committer:
            st.committer.shutdown(wait=True)

    def _append_failed(self, st: _RunState, what: str, exc: OSError) -> BaseException:
        """A run-level durable append failed — the journal's run begin or
        run commit, the ledger row: the run fails, with its records."""
        detail = f"{what} failed: {exc}"
        return self._fail(st, PipelineError(detail), detail=detail, span_error=detail)

    # -- finish ------------------------------------------------------------------
    def _file_ledger_row(self, st: _RunState) -> None:
        """What ran here becomes a candidate for the next ``--plan auto``."""
        from repro.obs.resources import sample_resources
        from repro.sched.decision import CandidateConfig
        from repro.sched.ledger import Ledger, LedgerRow

        decision, certificate = self.plan.schedule, st.context.readiness_certificate()
        Ledger(self.ledger).append(LedgerRow(
            key=st.store_key,
            config=CandidateConfig(self.backend.name, self.backend.width, self._batch_records()),
            status="degraded" if any(r.degraded for r in st.results) else "ok",
            # restored and degraded stages carry no execution signal
            stages=tuple(
                (r.stage_name, r.seconds, r.items)
                for r in st.results if not r.restored and not r.degraded
            ),
            output_fingerprint=st.fingerprint,
            schedule_hash=decision.content_hash() if decision is not None else "",
            certificate=str(certificate["status"]) if certificate is not None else "",
            peak_rss_bytes=sample_resources().max_rss_bytes,
        ))

    def _finish(self, st: _RunState) -> PipelineRun:
        decision, results = self.plan.schedule, st.results
        # every stage is committed before the ledger files the run
        self._land(st)
        if self.ledger is not None:
            try:
                self._file_ledger_row(st)
            except OSError as exc:
                # before commit_run: the journal leaves the run open, so a
                # resume restores every stage and files the row again
                raise self._append_failed(st, "ledger append", exc) from exc
        if self.checkpointer is not None:
            try:
                self.checkpointer.journal.commit_run(output_fingerprint=st.fingerprint)
            except OSError as exc:
                # every stage is committed: a resume restores them all and
                # commits the run again
                raise self._append_failed(st, "run commit", exc) from exc
            st.recorder.count("journal_records_total", kind="run-commit")
        degraded = ", ".join(r.stage_name for r in results if r.degraded)
        self._publish(
            st, K.RUN_COMPLETED, seconds=sum(r.seconds for r in results),
            fingerprint=st.fingerprint, detail=f"degraded stages: {degraded}" if degraded else "",
            audit={"output": st.fingerprint[:12]},
            results=results, restored=st.start_index, decision=decision,
        )
        return PipelineRun(
            pipeline_name=self.plan.name,
            payload=st.payload,
            context=st.context,
            results=results,
            events=st.events,
            resumed_from=st.start_index - 1 if st.start_index else None,
            backend_name=self.backend.name,
            dead_letters=st.dead_letters,
            quarantined=st.quarantined,
            gate_reports=list(st.context.gate_reports),
            worker_crashes=list(self.backend.crash_events),
            worker_counters=dict(self.backend.worker_counters),
        )


class Pipeline:
    """A named, validated :class:`StagePlan` with a ``run`` method.

    ``Pipeline(name, stages).run(payload)`` behaves as the historical
    serial engine did; :meth:`run` takes every :class:`PipelineRunner`
    option by keyword.
    """

    def __init__(self, name: str, stages: Sequence[PipelineStage]):
        self.plan = StagePlan.build(name, stages)

    @property
    def name(self) -> str:
        return self.plan.name

    @property
    def stages(self) -> List[PipelineStage]:
        return list(self.plan.stages)

    @property
    def stage_names(self) -> List[str]:
        return self.plan.stage_names

    def describe(self) -> str:
        return self.plan.describe()

    def run(
        self,
        payload: Any,
        context: Optional[PipelineContext] = None,
        *,
        resume: bool = False,
        **runner_options: Any,
    ) -> PipelineRun:
        """Execute all stages through ``PipelineRunner(plan, **runner_options)``."""
        return PipelineRunner(self.plan, **runner_options).run(payload, context, resume=resume)
