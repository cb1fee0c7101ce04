"""The run layer: execute a :class:`StagePlan` with capture, events, resume.

Running a plan threads a payload through its stages while a
:class:`PipelineContext` accumulates the three cross-cutting artifacts the
paper says current practice lacks — readiness evidence, content-hashed
provenance, and a hash-chained audit trail.  On top of that capture (which
predates this module), the runner adds:

* **structured run events** — every run/stage transition (started,
  completed, failed, skipped) emits a typed :class:`RunEvent` with
  timings and fingerprints, collected on the :class:`PipelineRun` and
  optionally streamed to an ``on_event`` callback;
* **pluggable execution** — the runner owns an
  :class:`~repro.core.backends.ExecutionBackend` and installs it as
  ``context.backend`` so stage internals fan out through it;
* **checkpointed resume** — with a :class:`RunCheckpointer` attached,
  every completed stage persists its payload snapshot and fingerprint;
  a failed run restarts from the last completed stage after verifying
  the restored payload against its stored fingerprint (and, when a
  :class:`~repro.provenance.store.ProvenanceStore` is attached, against
  the stored lineage);
* **telemetry** — with a :class:`~repro.obs.Telemetry` attached, the
  runner opens a run-root span, one child span per stage (duration,
  item/byte throughput, CPU/RSS deltas), wraps the backend in an
  :class:`~repro.obs.instrument.InstrumentedBackend` so backend
  operations and fanned-out tasks appear as grandchild spans with
  logical work counters, records stage-duration histograms, and links
  every provenance record to the span that produced it;
* **fault tolerance** — stages execute under a per-stage
  :class:`~repro.faults.errors.OnError` policy with a
  :class:`~repro.faults.retry.RetryPolicy` (deterministic seeded
  backoff on an injectable clock) and an optional deadline budget;
  transient faults retry, exhausted or permanent failures either abort
  (``fail``), or dead-letter the stage and continue degraded
  (``skip-degraded``).  A :class:`~repro.faults.inject.FaultInjector`
  can be attached to run the whole engine under seeded chaos, and
  resume quarantines corrupt checkpoints instead of crashing on them.

Stage functions stay pure data transforms; capture is the engine's job.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
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

from repro.core.backends import ExecutionBackend, get_backend
from repro.core.evidence import EvidenceKind, ReadinessEvidence
from repro.durability.atomic import (
    atomic_write_bytes,
    atomic_write_text,
    sha256_path,
)
from repro.durability.fsfaults import activate as activate_disk_faults
from repro.durability.journal import JOURNAL_NAME, RunJournal
from repro.core.levels import DataProcessingStage
from repro.core.payload import fingerprint_payload, walk_payload
from repro.core.plan import PipelineError, PipelineStage, StagePlan
from repro.core.report import format_bytes, render_table
from repro.faults.deadletter import DeadLetterLog, DeadLetterRecord
from repro.faults.errors import OnError, StageTimeoutError, classify_fault, is_transient
from repro.faults.inject import FaultInjector
from repro.faults.retry import Clock, Deadline, RetryPolicy, RetryStats, SystemClock
from repro.gates.contracts import GatePolicy
from repro.gates.gate import GateReport, GateViolation, apply_contract
from repro.gates.quarantine import QuarantineStore
from repro.governance.audit import AuditLog
from repro.obs import Telemetry, throughput
from repro.obs.instrument import InstrumentedBackend
from repro.obs.resources import ResourceProfiler
from repro.obs.tracing import Span, SpanStatus
from repro.provenance.graph import LineageGraph
from repro.provenance.record import ProvenanceRecord
from repro.provenance.store import ProvenanceStore
from repro.workers.drain import DrainController, DrainInterrupt


def _sha256_text(text: str) -> str:
    import hashlib

    return hashlib.sha256(text.encode("utf-8")).hexdigest()

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sched.calibrate import CalibrationStore
    from repro.sched.decision import ScheduleDecision

import enum

__all__ = [
    "PipelineContext",
    "StageResult",
    "PipelineRun",
    "RunEventKind",
    "RunEvent",
    "CheckpointError",
    "RunCheckpoint",
    "QuarantinedCheckpoint",
    "RunCheckpointer",
    "PipelineRunner",
]


class PipelineContext:
    """Mutable carrier of evidence, lineage, audit, artifacts, and backend."""

    def __init__(
        self,
        *,
        evidence: Optional[ReadinessEvidence] = None,
        lineage: Optional[LineageGraph] = None,
        audit: Optional[AuditLog] = None,
        provenance_store: Optional[ProvenanceStore] = None,
        agent: str = "pipeline",
        backend: Union[str, ExecutionBackend, None] = None,
    ):
        self.evidence = evidence if evidence is not None else ReadinessEvidence()
        self.lineage = lineage if lineage is not None else LineageGraph()
        self.audit = audit if audit is not None else AuditLog()
        self.provenance_store = provenance_store
        self.agent = agent
        #: how data-parallel stage internals execute; a PipelineRunner
        #: overwrites this with its own backend at run start
        self.backend: ExecutionBackend = get_backend(backend)
        #: side outputs stages want to expose (fitted normalizers, manifests)
        self.artifacts: Dict[str, Any] = {}
        #: set by a telemetered PipelineRunner: the run's Telemetry and the
        #: span of the stage currently executing (None when untraced)
        self.telemetry: Optional[Telemetry] = None
        self.current_span: Optional[Span] = None
        #: gate verdicts accumulated by a gated run, in evaluation order
        self.gate_reports: List[GateReport] = []
        #: the cost-model decision this run executes under (set by a
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
    #: True when the stage exhausted its error policy and was skipped
    #: under ``on_error="skip-degraded"`` — its payload passed through —
    #: or when a data gate quarantined records at one of its boundaries
    degraded: bool = False
    #: the final error message for a degraded stage (empty otherwise)
    error: str = ""
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
    #: work the run could not complete (failed or degraded stages)
    dead_letters: DeadLetterLog = dataclasses.field(default_factory=DeadLetterLog)
    #: checkpoints resume had to quarantine before finding a verifiable one
    quarantined: List["QuarantinedCheckpoint"] = dataclasses.field(
        default_factory=list
    )
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
        """True when any stage was skipped under ``skip-degraded``."""
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
# checkpointing
# ---------------------------------------------------------------------------


class CheckpointError(RuntimeError):
    """A stored checkpoint is unusable (wrong plan, corrupt or stale payload)."""


@dataclasses.dataclass
class RunCheckpoint:
    """The restorable state of the last completed stage."""

    stage_index: int
    stage_name: str
    fingerprint: str
    payload: Any
    artifacts: Dict[str, Any]
    evidence: ReadinessEvidence
    #: the full completed-stage table: index -> {stage, fingerprints}
    completed: Dict[int, Dict[str, str]]


@dataclasses.dataclass(frozen=True)
class QuarantinedCheckpoint:
    """One checkpoint resume rejected and set aside instead of restoring.

    The on-disk pickle (if any) is renamed to ``*.quarantined`` so it
    stays available for post-mortem without ever being restored again.
    """

    stage_index: int
    stage_name: str
    reason: str
    #: where the rejected payload snapshot was moved ("" if it was missing)
    quarantined_path: str = ""


class RunCheckpointer:
    """Persists per-stage payload snapshots so a failed run can resume.

    Layout under ``directory``: one ``stage-NNN.pkl`` pickle per completed
    stage (payload + artifacts + evidence) and a ``run-state.json`` table
    of completed stages with their payload fingerprints, guarded by the
    plan fingerprint.  Both payload snapshots and state writes are atomic
    (write-then-rename), so a crash mid-save leaves the previous
    checkpoint intact, never a torn file under the real name.  A restored
    payload is re-fingerprinted before use — :meth:`load` rejects a
    checkpoint that does not hash to its recorded fingerprint, while
    :meth:`load_verified` quarantines it and falls back to the newest
    earlier checkpoint that still verifies.
    """

    STATE_NAME = "run-state.json"

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    @property
    def state_path(self) -> Path:
        return self.directory / self.STATE_NAME

    def _payload_path(self, index: int) -> Path:
        return self.directory / f"stage-{index:03d}.pkl"

    def _load_state(self) -> Optional[Dict[str, Any]]:
        if not self.state_path.exists():
            return None
        try:
            return json.loads(self.state_path.read_text())
        except json.JSONDecodeError:
            return None

    def save(
        self,
        plan: StagePlan,
        index: int,
        stage: PipelineStage,
        input_fingerprint: str,
        output_fingerprint: str,
        payload: Any,
        context: PipelineContext,
    ) -> None:
        """Snapshot one completed stage (payload, artifacts, evidence)."""
        blob = {
            "payload": payload,
            "artifacts": dict(context.artifacts),
            "evidence": context.evidence,
        }
        # atomic + durable: fsynced temp, rename, directory fsync — a
        # crash mid-pickle leaves stage-NNN.pkl.tmp behind, never a torn
        # snapshot under the restorable name, and a committed snapshot
        # survives power loss
        atomic_write_bytes(
            self._payload_path(index), pickle.dumps(blob), site="checkpoint"
        )
        state = self._load_state()
        if state is None or state.get("plan_fingerprint") != plan.fingerprint():
            state = {"completed": []}
        # a (re)run reaching stage k invalidates any stale later checkpoints
        completed = {
            int(row["index"]): row
            for row in state["completed"]
            if int(row["index"]) < index
        }
        completed[index] = {
            "index": index,
            "stage": stage.name,
            "input_fingerprint": input_fingerprint,
            "fingerprint": output_fingerprint,
        }
        self._write_state(plan, completed)

    def _write_state(
        self, plan: StagePlan, completed: Dict[int, Dict[str, Any]]
    ) -> None:
        """Atomically rewrite the completed-stage table (drop it if empty)."""
        if not completed:
            if self.state_path.exists():
                self.state_path.unlink()
            return
        state = {
            "pipeline": plan.name,
            "plan_fingerprint": plan.fingerprint(),
            "completed": [completed[i] for i in sorted(completed)],
        }
        atomic_write_text(
            self.state_path,
            json.dumps(state, indent=2, sort_keys=True),
            site="run-state",
        )

    def load(self, plan: StagePlan) -> Optional[RunCheckpoint]:
        """Restore the latest checkpoint for *plan* (None if nothing stored).

        Raises :class:`CheckpointError` when a checkpoint exists but is
        unusable: written by a structurally different plan, missing its
        payload snapshot, or failing fingerprint verification.
        """
        state = self._load_state()
        if state is None or not state.get("completed"):
            return None
        if state.get("plan_fingerprint") != plan.fingerprint():
            raise CheckpointError(
                f"checkpoint in {self.directory} was written by a different "
                f"plan than {plan.name!r}; refusing to resume"
            )
        completed = {int(row["index"]): row for row in state["completed"]}
        last_index = max(completed)
        last = completed[last_index]
        path = self._payload_path(last_index)
        if not path.exists():
            raise CheckpointError(f"missing checkpoint payload {path.name}")
        with open(path, "rb") as fh:
            blob = pickle.load(fh)
        payload = blob["payload"]
        actual = fingerprint_payload(payload)
        if actual != last["fingerprint"]:
            raise CheckpointError(
                f"checkpoint for stage {last['stage']!r} failed fingerprint "
                f"verification: stored {last['fingerprint'][:12]}, restored "
                f"payload hashes to {actual[:12]}"
            )
        return RunCheckpoint(
            stage_index=last_index,
            stage_name=str(last["stage"]),
            fingerprint=str(last["fingerprint"]),
            payload=payload,
            artifacts=dict(blob.get("artifacts", {})),
            evidence=blob.get("evidence") or ReadinessEvidence(),
            completed=completed,
        )

    def _try_restore(self, row: Dict[str, Any], path: Path):
        """Restore one snapshot; returns ``(blob, reason)`` — one is None."""
        if not path.exists():
            return None, "payload snapshot is missing"
        try:
            with open(path, "rb") as fh:
                blob = pickle.load(fh)
            payload = blob["payload"]
        except Exception as exc:  # torn pickle, missing key, unpicklable
            return None, f"payload snapshot is unreadable ({type(exc).__name__}: {exc})"
        actual = fingerprint_payload(payload)
        if actual != row["fingerprint"]:
            return None, (
                f"fingerprint mismatch: stored {str(row['fingerprint'])[:12]}, "
                f"restored payload hashes to {actual[:12]}"
            )
        return blob, None

    def load_verified(
        self, plan: StagePlan
    ) -> Tuple[Optional[RunCheckpoint], List[QuarantinedCheckpoint]]:
        """Restore the newest checkpoint that survives verification.

        Resume hardening: where :meth:`load` raises on the first corrupt
        or fingerprint-mismatched snapshot, this walks the completed
        stages newest-first, renames every unusable snapshot to
        ``*.quarantined`` (preserved for post-mortem, never restored),
        rewrites the state table to the surviving prefix, and returns the
        last *verifiable* checkpoint plus the quarantine report.  With no
        survivor the run starts fresh — ``(None, [quarantined...])``.

        Still raises :class:`CheckpointError` for a plan-fingerprint
        mismatch: that is a caller error, not storage corruption.
        """
        state = self._load_state()
        if state is None or not state.get("completed"):
            return None, []
        if state.get("plan_fingerprint") != plan.fingerprint():
            raise CheckpointError(
                f"checkpoint in {self.directory} was written by a different "
                f"plan than {plan.name!r}; refusing to resume"
            )
        completed = {int(row["index"]): row for row in state["completed"]}
        quarantined: List[QuarantinedCheckpoint] = []
        for index in sorted(completed, reverse=True):
            row = completed[index]
            path = self._payload_path(index)
            blob, reason = self._try_restore(row, path)
            if blob is None:
                qpath = ""
                if path.exists():
                    qpath = str(path) + ".quarantined"
                    os.replace(path, qpath)
                quarantined.append(
                    QuarantinedCheckpoint(
                        stage_index=index,
                        stage_name=str(row["stage"]),
                        reason=str(reason),
                        quarantined_path=qpath,
                    )
                )
                continue
            survivors = {i: r for i, r in completed.items() if i <= index}
            if quarantined:
                self._write_state(plan, survivors)
            return (
                RunCheckpoint(
                    stage_index=index,
                    stage_name=str(row["stage"]),
                    fingerprint=str(row["fingerprint"]),
                    payload=blob["payload"],
                    artifacts=dict(blob.get("artifacts", {})),
                    evidence=blob.get("evidence") or ReadinessEvidence(),
                    completed=survivors,
                ),
                quarantined,
            )
        self._write_state(plan, {})
        return None, quarantined

    def clear(self) -> None:
        """Drop all stored state (fresh-start escape hatch)."""
        for path in self.directory.glob("stage-*.pkl"):
            path.unlink()
        if self.state_path.exists():
            self.state_path.unlink()


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------


class PipelineRunner:
    """Drives a :class:`StagePlan` through a backend with capture and resume."""

    def __init__(
        self,
        plan: StagePlan,
        *,
        backend: Union[str, ExecutionBackend, None] = None,
        checkpoint_dir: Union[str, Path, None] = None,
        checkpointer: Optional[RunCheckpointer] = None,
        on_event: Optional[Callable[[RunEvent], None]] = None,
        telemetry: Optional[Telemetry] = None,
        clock: Callable[[], float] = time.time,
        retry_policy: Optional[RetryPolicy] = None,
        on_error: Union[OnError, str, None] = None,
        stage_timeout: Optional[float] = None,
        fault_injector: Optional[FaultInjector] = None,
        fault_clock: Optional[Clock] = None,
        gates: Union[GatePolicy, str, None] = None,
        quarantine_dir: Union[str, Path, None] = None,
        quarantine_store: Optional[QuarantineStore] = None,
        calibration_store: Optional["CalibrationStore"] = None,
        drain: Optional[DrainController] = None,
        batch_size: Optional[int] = None,
        journal: Optional[RunJournal] = None,
        recovery_report: Optional[object] = None,
    ):
        self.plan = plan
        self.backend = get_backend(backend)
        if checkpointer is None and checkpoint_dir is not None:
            checkpointer = RunCheckpointer(checkpoint_dir)
        self.fault_injector = fault_injector
        if fault_injector is not None and checkpointer is not None:
            checkpointer = fault_injector.wrap_checkpointer(checkpointer)
        self.checkpointer = checkpointer
        #: write-ahead run journal; auto-created beside the checkpoints so
        #: every checkpointed flow (including drain) journals for free
        if journal is None and checkpointer is not None:
            journal = RunJournal(Path(checkpointer.directory) / JOURNAL_NAME)
        self.journal = journal
        #: RecoveryReport from a pre-run `repro run --recover` scan; when
        #: set, the run opens with a RUN_RECOVERED event carrying its story
        self.recovery_report = recovery_report
        self.on_event = on_event
        self.telemetry = telemetry
        #: wall-clock source stamped onto every RunEvent; inject a fake
        #: (monotonic) clock to pin timestamps and test event ordering
        self.clock = clock
        #: run-wide retry default; stages override via PipelineStage.retry
        self.retry_policy = retry_policy
        #: run-wide error policy; None defers to per-stage policies, then
        #: to RETRY iff a retry policy is set, else FAIL
        self.on_error = OnError.coerce(on_error) if on_error is not None else None
        #: run-wide per-stage deadline budget (seconds on the fault clock)
        self.stage_timeout = stage_timeout
        #: clock that retry backoff sleeps and deadline budgets run on —
        #: virtual in tests so retries never wall-sleep
        if fault_clock is None:
            fault_clock = (
                fault_injector.clock if fault_injector is not None else SystemClock()
            )
        self.fault_clock = fault_clock
        #: data-gate verdict policy; None disables gating entirely —
        #: stage contracts are dormant until a policy turns them on
        self.gate_policy = GatePolicy.coerce(gates) if gates is not None else None
        if quarantine_store is None and quarantine_dir is not None:
            quarantine_store = QuarantineStore(quarantine_dir)
        self.quarantine_store = quarantine_store
        #: where a scheduled run's predicted-vs-actual stage seconds are
        #: recorded (see :mod:`repro.sched.calibrate`); None = no feedback
        self.calibration_store = calibration_store
        #: cooperative stop flag (SIGINT/SIGTERM or programmatic): when it
        #: trips, the run stops at the next checkpoint-consistent point —
        #: a stage boundary, or mid-stage on drain-capable backends — and
        #: raises :class:`~repro.workers.drain.DrainInterrupt`
        self.drain = drain
        #: records per batch for stages that declared ``batch=True``; an
        #: explicit value wins over the schedule decision's
        #: ``batch_records``, and ``None`` with no schedule leaves those
        #: stages on the per-record path (bitwise identical either way)
        self.batch_size = batch_size

    def _stage_policy(
        self, stage: PipelineStage
    ) -> Tuple[OnError, Optional[RetryPolicy], Optional[float]]:
        """Resolve the effective (on_error, retry, timeout) for one stage."""
        mode = stage.on_error or self.on_error
        if mode is None:
            mode = OnError.RETRY if self.retry_policy is not None else OnError.FAIL
        policy: Optional[RetryPolicy] = None
        if mode is not OnError.FAIL:
            policy = stage.retry or self.retry_policy or RetryPolicy()
        timeout = stage.timeout if stage.timeout is not None else self.stage_timeout
        return mode, policy, timeout

    def _stage_batch(
        self, stage: PipelineStage, decision: Optional["ScheduleDecision"]
    ) -> Optional[int]:
        """Effective records-per-batch for one stage (None = per-record).

        Only stages that declared the ``batch`` capability batch at all;
        for those, an explicit runner ``batch_size`` wins, then the
        schedule decision's ``batch_records`` (the chooser's sweep already
        prices batch candidates), else the per-record path.
        """
        if not stage.batch:
            return None
        if self.batch_size is not None:
            return int(self.batch_size) or None
        if decision is not None:
            chosen = getattr(decision.chosen, "batch_records", None)
            if chosen:
                return int(chosen)
        return None

    # -- events ------------------------------------------------------------------
    def _emit(self, events: List[RunEvent], kind: RunEventKind, **kw: Any) -> RunEvent:
        kw.setdefault("timestamp", self.clock())
        event = RunEvent(kind=kind, pipeline=self.plan.name, **kw)
        events.append(event)
        if self.on_event is not None:
            self.on_event(event)
        return event

    # -- resume ------------------------------------------------------------------
    def _restore(
        self,
        checkpoint: RunCheckpoint,
        context: PipelineContext,
        events: List[RunEvent],
        results: List[StageResult],
    ) -> None:
        """Replay the completed prefix from a checkpoint into this run."""
        context.artifacts.update(checkpoint.artifacts)
        if len(context.evidence) == 0 and len(checkpoint.evidence) > 0:
            context.evidence = checkpoint.evidence
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
                raise CheckpointError(
                    f"checkpoint state has no record for stage index {index}"
                )
            stage = self.plan.stages[index]
            results.append(
                StageResult(
                    stage_name=stage.name,
                    processing_stage=stage.processing_stage,
                    seconds=0.0,
                    input_fingerprint=str(row["input_fingerprint"]),
                    output_fingerprint=str(row["fingerprint"]),
                    evidence_recorded=0,
                    restored=True,
                )
            )
            self._emit(
                events,
                RunEventKind.STAGE_SKIPPED,
                stage_name=stage.name,
                stage_index=index,
                fingerprint=str(row["fingerprint"]),
                detail="restored from checkpoint",
            )
            context.audit.record(
                context.agent,
                "stage-skipped",
                stage.name,
                output=str(row["fingerprint"])[:12],
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

        With ``resume=True`` (requires a checkpointer) the run restarts
        after the last *verifiable* completed stage: stored payload
        snapshots are verified against their recorded fingerprints,
        corrupt or mismatched snapshots are quarantined (renamed to
        ``*.quarantined``, reported as ``CHECKPOINT_QUARANTINED``
        events), and the surviving prefix is replayed as
        ``STAGE_SKIPPED`` events instead of being re-executed.

        The whole run executes with the fault injector's disk-fault
        schedule (if any) installed as the process-global tap on the
        atomic-commit primitives, so every artifact store — checkpoints,
        manifests, journal, provenance, quarantine — is under injection.
        """
        disk_injector = getattr(self.fault_injector, "disk_injector", None)
        with activate_disk_faults(disk_injector):
            return self._run_impl(payload, context, resume=resume)

    def _run_impl(
        self,
        payload: Any,
        context: Optional[PipelineContext] = None,
        *,
        resume: bool = False,
    ) -> PipelineRun:
        context = context or PipelineContext(agent=self.plan.name)
        telemetry = self.telemetry
        context.telemetry = telemetry
        decision = self.plan.schedule
        context.schedule_decision = decision
        events: List[RunEvent] = []
        results: List[StageResult] = []
        dead_letters = DeadLetterLog()
        # explicit None test: an empty QuarantineStore is falsy (len == 0)
        quarantine = (
            self.quarantine_store
            if self.quarantine_store is not None
            else QuarantineStore(None)
        )
        gate_policy = self.gate_policy
        injector = self.fault_injector
        task_stats = RetryStats()

        checkpoint: Optional[RunCheckpoint] = None
        quarantined: List[QuarantinedCheckpoint] = []
        if resume:
            if self.checkpointer is None:
                raise PipelineError(
                    "resume requested but the runner has no checkpointer"
                )
            loader = getattr(self.checkpointer, "load_verified", None)
            if loader is not None:
                checkpoint, quarantined = loader(self.plan)
            else:  # minimal checkpointer protocol: strict load only
                checkpoint = self.checkpointer.load(self.plan)

        base = self.backend
        base.configure_retry(None, clock=self.fault_clock, stats=task_stats)
        #: does the backend supervise worker processes (crash recovery,
        #: leases, heartbeats)?  drives the worker-metric flush below
        supervised = getattr(base, "survives_worker_crash", False)
        if self.drain is not None and hasattr(base, "drain"):
            # drain-capable backends check the flag between task grants,
            # so a signal stops the run mid-stage, not just at boundaries
            base.drain = self.drain
        backend: ExecutionBackend = base
        if injector is not None:
            backend = injector.wrap_backend(backend)
        instrumented: Optional[InstrumentedBackend] = None
        run_span: Optional[Span] = None
        if telemetry is not None:
            instrumented = InstrumentedBackend(
                backend, telemetry, pipeline=self.plan.name
            )
            backend = instrumented
            run_span = telemetry.tracer.start_span(
                f"run:{self.plan.name}",
                parent=None,
                pipeline=self.plan.name,
                backend=self.backend.name,
                stages=len(self.plan.stages),
            )
            if decision is not None:
                run_span.set_attributes(
                    schedule_mode=decision.mode,
                    schedule_config=decision.chosen.label(),
                    schedule_predicted_s=decision.predicted_seconds,
                    schedule_candidates=len(decision.candidates),
                    schedule_cluster=decision.cluster,
                    schedule_hash=decision.content_hash()[:12],
                )
        context.backend = backend

        self._emit(
            events,
            RunEventKind.RUN_STARTED,
            detail=f"backend={self.backend.name}"
            + (f" resume-after={checkpoint.stage_name}" if checkpoint else ""),
        )
        context.audit.record(
            context.agent, "run-started", self.plan.name, backend=self.backend.name
        )
        if self.recovery_report is not None:
            summary = getattr(self.recovery_report, "summary", None)
            self._emit(
                events,
                RunEventKind.RUN_RECOVERED,
                detail=summary() if callable(summary) else str(self.recovery_report),
            )
            if telemetry is not None:
                telemetry.metrics.counter(
                    "runs_recovered_total", pipeline=self.plan.name
                ).inc()
        any_timeout = self.stage_timeout is not None or any(
            s.timeout is not None for s in self.plan.stages
        )
        if any_timeout and not getattr(base, "preemptive_timeout", False):
            # satellite of the supervision work: make the limitation of
            # cooperative deadlines explicit instead of silently weaker
            self._emit(
                events,
                RunEventKind.TIMEOUT_UNENFORCEABLE,
                detail=(
                    f"backend {base.name!r} cannot preempt a running stage; "
                    "deadlines are enforced post-hoc only (a hung task is "
                    "not killed) — use --backend process for preemptive "
                    "enforcement"
                ),
            )
        if decision is not None:
            self._emit(
                events,
                RunEventKind.RUN_SCHEDULED,
                fingerprint=decision.content_hash(),
                detail=decision.summary(),
            )
            context.audit.record(
                context.agent,
                "run-scheduled",
                self.plan.name,
                mode=decision.mode,
                config=decision.chosen.label(),
            )
        for q in quarantined:
            self._emit(
                events,
                RunEventKind.CHECKPOINT_QUARANTINED,
                stage_name=q.stage_name,
                stage_index=q.stage_index,
                detail=q.reason,
            )
            context.audit.record(
                context.agent,
                "checkpoint-quarantined",
                q.stage_name,
                reason=q.reason,
            )
            if telemetry is not None:
                telemetry.metrics.counter(
                    "checkpoints_quarantined_total", pipeline=self.plan.name
                ).inc()

        start_index = 0
        resumed_from: Optional[int] = None
        current = payload
        if checkpoint is not None:
            try:
                self._restore(checkpoint, context, events, results)
            except CheckpointError as exc:
                if telemetry is not None:
                    telemetry.tracer.end_span(
                        run_span, status=SpanStatus.ERROR, error=str(exc)
                    )
                raise
            current = checkpoint.payload
            prev_fp = checkpoint.fingerprint
            start_index = checkpoint.stage_index + 1
            resumed_from = checkpoint.stage_index
        else:
            prev_fp = fingerprint_payload(current)
            if (
                context.lineage.record_for(prev_fp) is None
                and prev_fp not in context.lineage.entities
            ):
                # register the raw payload as a lineage root
                context._capture(
                    f"{self.plan.name}:source", [], prev_fp, None, {"role": "source"}
                )

        journal = self.journal

        def _journal_count(kind: str) -> None:
            if telemetry is not None:
                telemetry.metrics.counter(
                    "journal_records_total", pipeline=self.plan.name, kind=kind
                ).inc()

        if journal is not None:
            # write-ahead: the journal names the run before any stage
            # mutates disk, so recovery can always tell which run the
            # on-disk state belongs to
            journal.begin(
                pipeline=self.plan.name,
                plan_fingerprint=self.plan.fingerprint(),
                backend=self.backend.name,
                payload_fingerprint=prev_fp,
                resume_index=start_index,
            )
            _journal_count("run-begin")

        def _flush_injected(mark: int, span: Optional[Span]) -> None:
            """Surface this stage's realised injections as span events/counters."""
            if injector is None:
                return
            for fault in injector.log[mark:]:
                if span is not None:
                    span.add_event(
                        "fault_injected",
                        kind=fault.kind,
                        site=fault.site,
                        attempt=fault.attempt,
                        detail=fault.detail,
                    )
                if telemetry is not None:
                    telemetry.metrics.counter(
                        "faults_injected_total",
                        pipeline=self.plan.name,
                        kind=fault.kind,
                    ).inc()

        _WORKER_METRICS = {
            "worker_restarts": "worker_restarts_total",
            "leases_expired": "leases_expired_total",
            "tasks_requeued": "tasks_requeued_total",
            "poison_tasks": "poison_tasks_total",
        }

        def _flush_workers(
            mark: int,
            before: Dict[str, int],
            span: Optional[Span],
            stage_name: str,
        ) -> None:
            """Surface this stage's worker crashes as span events/counters."""
            if not supervised:
                return
            for crash in base.crash_events[mark:]:
                if span is not None:
                    span.add_event(
                        "worker_crash",
                        worker=crash.worker_id,
                        reason=crash.reason,
                        task=crash.task_id,
                        attempt=crash.attempt,
                        requeued=crash.requeued,
                    )
            if telemetry is not None:
                for key, metric in _WORKER_METRICS.items():
                    delta = base.worker_counters.get(key, 0) - before.get(key, 0)
                    if delta:
                        telemetry.metrics.counter(
                            metric, pipeline=self.plan.name, stage=stage_name
                        ).inc(delta)
                telemetry.metrics.gauge(
                    "worker_heartbeat_gap_seconds", pipeline=self.plan.name
                ).set(base.heartbeat_gap_max)

        def _interrupt(
            exc: DrainInterrupt,
            stage_name: Optional[str],
            stage_index: Optional[int],
            stage_span: Optional[Span],
        ) -> None:
            """Wind the run down after a drain: spans, metrics, audit, raise.

            The last completed stage's checkpoint is already on disk (saves
            are atomic), so ``--resume`` continues bitwise-faithfully.
            """
            detail = str(exc) or "drain requested"
            if telemetry is not None:
                if stage_span is not None:
                    telemetry.tracer.end_span(
                        stage_span, status=SpanStatus.ERROR, error=detail
                    )
                telemetry.tracer.end_span(
                    run_span, status=SpanStatus.ERROR, error="run interrupted (drain)"
                )
                telemetry.metrics.counter(
                    "runs_total", pipeline=self.plan.name, status="interrupted"
                ).inc()
            context.current_span = None
            context.audit.record(
                context.agent,
                "run-interrupted",
                stage_name or self.plan.name,
                detail=detail,
            )
            self._emit(
                events,
                RunEventKind.RUN_INTERRUPTED,
                stage_name=stage_name,
                stage_index=stage_index,
                detail=detail,
            )
            exc.stage_name = stage_name
            exc.stage_index = stage_index
            exc.events = events  # type: ignore[attr-defined]
            exc.dead_letters = dead_letters  # type: ignore[attr-defined]
            exc.worker_crashes = (  # type: ignore[attr-defined]
                list(base.crash_events) if supervised else []
            )
            exc.worker_counters = (  # type: ignore[attr-defined]
                dict(base.worker_counters) if supervised else {}
            )
            raise exc

        def _record_gate(report: GateReport, stage: PipelineStage, span) -> None:
            """Flow one gate verdict into telemetry, audit, and the event log."""
            context.gate_reports.append(report)
            if telemetry is not None:
                telemetry.metrics.counter(
                    "gate_checks_total",
                    pipeline=self.plan.name,
                    stage=report.stage,
                    boundary=report.boundary,
                    verdict=report.verdict,
                ).inc()
                if report.records_quarantined:
                    telemetry.metrics.counter(
                        "records_quarantined_total",
                        pipeline=self.plan.name,
                        stage=report.stage,
                    ).inc(report.records_quarantined)
            if span is not None:
                span.add_event(
                    "gate",
                    boundary=report.boundary,
                    contract=report.contract,
                    contract_hash=report.contract_hash[:12],
                    verdict=report.verdict,
                    records_checked=report.records_checked,
                    records_quarantined=report.records_quarantined,
                )
            if report.verdict != "fail":
                context.audit.record(
                    context.agent,
                    f"gate-{report.verdict}",
                    stage.name,
                    contract=report.contract,
                    boundary=report.boundary,
                )

        def _gate(
            boundary: str,
            stage: PipelineStage,
            index: int,
            stage_span,
            payload_value: Any,
        ) -> Tuple[Any, Optional[GateReport]]:
            """Enforce one boundary's contract; returns the surviving payload.

            A ``fail`` verdict tears the run down exactly like a stage
            failure: spans end in ERROR, ``runs_total{status=error}``
            ticks, GATE_FAILED/RUN_FAILED fire, and the raised
            :class:`PipelineError` carries the event log, dead letters,
            and the failing :class:`GateReport`.
            """
            contract = (
                stage.input_contract if boundary == "input" else stage.output_contract
            )
            if gate_policy is None or contract is None:
                return payload_value, None
            try:
                outcome = apply_contract(
                    contract,
                    payload_value,
                    policy=gate_policy,
                    pipeline=self.plan.name,
                    stage=stage.name,
                    stage_index=index,
                    boundary=boundary,
                )
            except GateViolation as exc:
                report = exc.report
                _record_gate(report, stage, stage_span)
                error_detail = str(exc)
                if telemetry is not None:
                    telemetry.tracer.end_span(
                        stage_span, status=SpanStatus.ERROR, error=error_detail
                    )
                    telemetry.tracer.end_span(
                        run_span,
                        status=SpanStatus.ERROR,
                        error=f"gate failed at stage {stage.name!r}",
                    )
                    telemetry.metrics.counter(
                        "runs_total", pipeline=self.plan.name, status="error"
                    ).inc()
                context.current_span = None
                context.audit.record(
                    context.agent, "gate-failed", stage.name, error=error_detail
                )
                self._emit(
                    events,
                    RunEventKind.GATE_FAILED,
                    stage_name=stage.name,
                    stage_index=index,
                    detail=error_detail,
                )
                self._emit(
                    events,
                    RunEventKind.RUN_FAILED,
                    stage_name=stage.name,
                    stage_index=index,
                    detail=error_detail,
                )
                error = PipelineError(
                    error_detail, stage_name=stage.name, stage_index=index
                )
                error.events = events  # type: ignore[attr-defined]
                error.dead_letters = dead_letters  # type: ignore[attr-defined]
                error.gate_report = report  # type: ignore[attr-defined]
                raise error from exc
            report = outcome.report
            _record_gate(report, stage, stage_span)
            for entry, record in outcome.quarantined:
                quarantine.add(entry, record)
            if report.verdict == "quarantine":
                self._emit(
                    events,
                    RunEventKind.RECORDS_QUARANTINED,
                    stage_name=stage.name,
                    stage_index=index,
                    detail=report.summary(),
                )
            elif report.verdict == "warn":
                self._emit(
                    events,
                    RunEventKind.GATE_WARNED,
                    stage_name=stage.name,
                    stage_index=index,
                    detail=report.summary(),
                )
            else:
                self._emit(
                    events,
                    RunEventKind.GATE_PASSED,
                    stage_name=stage.name,
                    stage_index=index,
                    detail=report.summary(),
                )
            return outcome.payload, report

        for index in range(start_index, len(self.plan.stages)):
            stage = self.plan.stages[index]
            if self.drain is not None and self.drain.requested:
                # boundary drain: the previous stage's checkpoint is the
                # resume point; this stage never starts
                _interrupt(
                    DrainInterrupt(
                        f"drain requested before stage {stage.name!r} "
                        "(previous checkpoint is the resume point)"
                    ),
                    stage.name,
                    index,
                    None,
                )
            if injector is not None:
                # pre-stage crash point: the previous stage's commit is
                # the last journal record; nothing of this stage exists
                injector.maybe_crash(index, "pre")
            mode, policy, timeout = self._stage_policy(stage)
            context.stage_batch_size = self._stage_batch(stage, decision)
            base.task_retry = policy
            if hasattr(base, "lease_timeout"):
                # preemptive deadline: the supervisor SIGKILLs a worker
                # whose lease outlives the stage budget
                base.lease_timeout = timeout
            evidence_before = len(context.evidence)
            self._emit(
                events,
                RunEventKind.STAGE_STARTED,
                stage_name=stage.name,
                stage_index=index,
                fingerprint=prev_fp,
            )
            stage_span: Optional[Span] = None
            profiler: Optional[ResourceProfiler] = None
            if telemetry is not None:
                stage_span = telemetry.tracer.start_span(
                    f"stage:{stage.name}",
                    parent=run_span,
                    pipeline=self.plan.name,
                    stage=stage.name,
                    index=index,
                    processing_stage=stage.processing_stage.name,
                    parallelism=stage.parallelism.value,
                    backend=self.backend.name,
                )
                instrumented.activate_stage(stage.name, stage_span)
                profiler = ResourceProfiler().start()
            context.current_span = stage_span
            stage_quarantined = 0
            input_report: Optional[GateReport] = None
            if gate_policy is not None and stage.input_contract is not None:
                current, input_report = _gate(
                    "input", stage, index, stage_span, current
                )
                if input_report is not None and input_report.records_quarantined:
                    stage_quarantined += input_report.records_quarantined
                    gated_fp = fingerprint_payload(current)
                    if gated_fp != prev_fp:
                        annotations = {
                            "processing_stage": stage.processing_stage.name,
                            "role": "gate",
                            "gate_contract": input_report.contract_hash,
                            "gate_verdict": input_report.verdict,
                        }
                        if stage_span is not None:
                            annotations["span_id"] = stage_span.span_id
                            annotations["trace_id"] = stage_span.trace_id
                        context._capture(
                            f"{stage.name}:gate", [prev_fp], gated_fp, None, annotations
                        )
                        prev_fp = gated_fp
            deadline = (
                Deadline(timeout, clock=self.fault_clock)
                if timeout is not None
                else None
            )
            retry_key = f"{self.plan.name}:{stage.name}"
            task_before = task_stats.retries
            injected_mark = len(injector.log) if injector is not None else 0
            worker_mark = len(base.crash_events) if supervised else 0
            counters_before = dict(base.worker_counters) if supervised else {}
            attempts = 0
            elapsed = 0.0
            stage_error: Optional[BaseException] = None
            drain_exc: Optional[DrainInterrupt] = None
            while True:
                attempts += 1
                started = time.perf_counter()
                attempt_error: Optional[BaseException] = None
                try:
                    candidate = stage.fn(current, context)
                except DrainInterrupt as exc:
                    # mid-stage drain from a drain-capable backend: stop
                    # here — never retried, never dead-lettered
                    elapsed += time.perf_counter() - started
                    drain_exc = exc
                    break
                except Exception as exc:
                    attempt_error = exc
                elapsed += time.perf_counter() - started
                if (
                    attempt_error is None
                    and deadline is not None
                    and deadline.expired()
                ):
                    # cooperative (post-hoc) budget enforcement: the stage
                    # finished, but blew its deadline on the fault clock
                    attempt_error = StageTimeoutError(
                        f"stage {stage.name!r} exceeded its {timeout:g}s budget "
                        f"({deadline.elapsed():.3f}s elapsed)"
                    )
                if attempt_error is None:
                    current = candidate
                    break
                timed_out = isinstance(attempt_error, StageTimeoutError) or (
                    deadline is not None and deadline.expired()
                )
                retryable = (
                    mode is not OnError.FAIL
                    and policy is not None
                    and attempts < policy.max_attempts
                    and is_transient(attempt_error)
                    and not timed_out
                )
                if not retryable:
                    stage_error = attempt_error
                    break
                delay = policy.delay(attempts, key=retry_key)
                if deadline is not None:
                    delay = min(delay, max(deadline.remaining(), 0.0))
                detail = (
                    f"attempt {attempts}/{policy.max_attempts} failed "
                    f"({type(attempt_error).__name__}: {attempt_error}); "
                    f"retrying in {delay:.3f}s"
                )
                self._emit(
                    events,
                    RunEventKind.STAGE_RETRIED,
                    stage_name=stage.name,
                    stage_index=index,
                    seconds=elapsed,
                    detail=detail,
                )
                context.audit.record(
                    context.agent,
                    "stage-retried",
                    stage.name,
                    attempt=attempts,
                    error=str(attempt_error),
                )
                if stage_span is not None:
                    stage_span.add_event(
                        "retry",
                        attempt=attempts,
                        error=f"{type(attempt_error).__name__}: {attempt_error}",
                        delay_s=delay,
                    )
                if telemetry is not None:
                    telemetry.metrics.counter(
                        "stage_retries_total",
                        pipeline=self.plan.name,
                        stage=stage.name,
                    ).inc()
                self.fault_clock.sleep(delay)
            task_retries = task_stats.retries - task_before
            if telemetry is not None and task_retries:
                telemetry.metrics.counter(
                    "task_retries_total", pipeline=self.plan.name, stage=stage.name
                ).inc(task_retries)
            if drain_exc is not None:
                _flush_injected(injected_mark, stage_span)
                _flush_workers(worker_mark, counters_before, stage_span, stage.name)
                _interrupt(drain_exc, stage.name, index, stage_span)
            if stage_error is not None:
                fault_kind = classify_fault(stage_error)
                record = DeadLetterRecord(
                    pipeline=self.plan.name,
                    stage_name=stage.name,
                    stage_index=index,
                    attempts=attempts,
                    error_type=type(stage_error).__name__,
                    error=str(stage_error),
                    fault_kind=fault_kind,
                    input_fingerprint=prev_fp,
                    action="degraded" if mode is OnError.SKIP_DEGRADED else "failed",
                    timestamp=self.clock(),
                )
                dead_letters.append(record)
                if telemetry is not None:
                    telemetry.metrics.counter(
                        "dead_letters_total",
                        pipeline=self.plan.name,
                        stage=stage.name,
                    ).inc()
                error_detail = f"{type(stage_error).__name__}: {stage_error}"
                if mode is OnError.SKIP_DEGRADED:
                    # pass the stage's input through untouched and press on;
                    # the run completes, flagged degraded, with the failure
                    # dead-lettered for re-driving
                    if telemetry is not None:
                        _flush_injected(injected_mark, stage_span)
                        _flush_workers(
                            worker_mark, counters_before, stage_span, stage.name
                        )
                        stage_span.set_attributes(
                            degraded=True, attempts=attempts, task_retries=task_retries
                        )
                        telemetry.tracer.end_span(
                            stage_span, status=SpanStatus.ERROR, error=error_detail
                        )
                        telemetry.metrics.counter(
                            "stages_degraded_total",
                            pipeline=self.plan.name,
                            stage=stage.name,
                        ).inc()
                    else:
                        _flush_injected(injected_mark, stage_span)
                        _flush_workers(
                            worker_mark, counters_before, stage_span, stage.name
                        )
                    context.current_span = None
                    context.audit.record(
                        context.agent,
                        "stage-degraded",
                        stage.name,
                        attempts=attempts,
                        error=str(stage_error),
                    )
                    self._emit(
                        events,
                        RunEventKind.STAGE_DEGRADED,
                        stage_name=stage.name,
                        stage_index=index,
                        seconds=elapsed,
                        fingerprint=prev_fp,
                        detail=f"{error_detail} (after {attempts} attempts)",
                    )
                    results.append(
                        StageResult(
                            stage_name=stage.name,
                            processing_stage=stage.processing_stage,
                            seconds=elapsed,
                            input_fingerprint=prev_fp,
                            output_fingerprint=prev_fp,
                            evidence_recorded=len(context.evidence)
                            - evidence_before,
                            attempts=attempts,
                            task_retries=task_retries,
                            degraded=True,
                            error=error_detail,
                            records_quarantined=stage_quarantined,
                        )
                    )
                    # no checkpoint for a degraded stage: a resume must
                    # re-attempt it, not restore its passed-through input
                    continue
                if telemetry is not None:
                    _flush_injected(injected_mark, stage_span)
                    _flush_workers(
                        worker_mark, counters_before, stage_span, stage.name
                    )
                    telemetry.tracer.end_span(
                        stage_span,
                        status=SpanStatus.ERROR,
                        error=error_detail,
                    )
                    telemetry.tracer.end_span(
                        run_span,
                        status=SpanStatus.ERROR,
                        error=f"stage {stage.name!r} failed",
                    )
                    telemetry.metrics.counter(
                        "runs_total", pipeline=self.plan.name, status="error"
                    ).inc()
                else:
                    _flush_injected(injected_mark, stage_span)
                    _flush_workers(
                        worker_mark, counters_before, stage_span, stage.name
                    )
                context.current_span = None
                context.audit.record(
                    context.agent, "stage-failed", stage.name, error=str(stage_error)
                )
                self._emit(
                    events,
                    RunEventKind.STAGE_FAILED,
                    stage_name=stage.name,
                    stage_index=index,
                    seconds=elapsed,
                    detail=f"{error_detail} (after {attempts} attempts)",
                )
                self._emit(
                    events,
                    RunEventKind.RUN_FAILED,
                    stage_name=stage.name,
                    stage_index=index,
                    detail=str(stage_error),
                )
                error = PipelineError(
                    f"stage {stage.name!r} failed: {stage_error}",
                    stage_name=stage.name,
                    stage_index=index,
                )
                error.events = events  # type: ignore[attr-defined]
                error.dead_letters = dead_letters  # type: ignore[attr-defined]
                raise error from stage_error
            output_report: Optional[GateReport] = None
            if gate_policy is not None and stage.output_contract is not None:
                current, output_report = _gate(
                    "output", stage, index, stage_span, current
                )
                if output_report is not None:
                    stage_quarantined += output_report.records_quarantined
            context.current_span = None
            out_fp, out_bytes, out_items = walk_payload(current)
            _flush_injected(injected_mark, stage_span)
            _flush_workers(worker_mark, counters_before, stage_span, stage.name)
            if telemetry is not None:
                delta = profiler.stop()
                items_per_s = throughput(out_items, elapsed)
                bytes_per_s = throughput(out_bytes, elapsed)
                stage_span.set_attributes(
                    items=out_items,
                    bytes=out_bytes,
                    items_per_s=items_per_s,
                    bytes_per_s=bytes_per_s,
                    cpu_s=delta.cpu_s,
                    cpu_fraction=delta.cpu_fraction,
                    max_rss_bytes=delta.max_rss_bytes,
                    rss_growth_bytes=delta.max_rss_growth_bytes,
                    output_fingerprint=out_fp[:12],
                    attempts=attempts,
                    task_retries=task_retries,
                )
                telemetry.tracer.end_span(stage_span)
                labels = {"pipeline": self.plan.name, "stage": stage.name}
                metrics = telemetry.metrics
                metrics.histogram("stage_seconds", **labels).observe(elapsed)
                metrics.counter("stage_items_total", **labels).inc(out_items)
                metrics.counter("stage_bytes_total", **labels).inc(out_bytes)
                metrics.gauge("stage_items_per_s", **labels).set(items_per_s)
                metrics.gauge("stage_bytes_per_s", **labels).set(bytes_per_s)
            if out_fp != prev_fp:
                # identical fingerprints mean the stage was a pure observer
                # (validation, evidence-only); no new entity to record
                annotations: Dict[str, object] = {
                    "processing_stage": stage.processing_stage.name,
                }
                if stage_span is not None:
                    annotations["span_id"] = stage_span.span_id
                    annotations["trace_id"] = stage_span.trace_id
                if output_report is not None:
                    annotations["gate_contract"] = output_report.contract_hash
                    annotations["gate_verdict"] = output_report.verdict
                context._capture(
                    stage.name,
                    [prev_fp],
                    out_fp,
                    stage.params,
                    annotations,
                )
            context.audit.record(
                context.agent,
                "stage-completed",
                stage.name,
                seconds=elapsed,
                output=out_fp[:12],
            )
            results.append(
                StageResult(
                    stage_name=stage.name,
                    processing_stage=stage.processing_stage,
                    seconds=elapsed,
                    input_fingerprint=prev_fp,
                    output_fingerprint=out_fp,
                    evidence_recorded=len(context.evidence) - evidence_before,
                    items=out_items,
                    nbytes=out_bytes,
                    attempts=attempts,
                    task_retries=task_retries,
                    degraded=bool(stage_quarantined),
                    records_quarantined=stage_quarantined,
                )
            )
            self._emit(
                events,
                RunEventKind.STAGE_COMPLETED,
                stage_name=stage.name,
                stage_index=index,
                seconds=elapsed,
                fingerprint=out_fp,
            )
            if stage_quarantined:
                # quarantine reuses the degraded machinery: the stage
                # completed, but not with all of its records
                self._emit(
                    events,
                    RunEventKind.STAGE_DEGRADED,
                    stage_name=stage.name,
                    stage_index=index,
                    fingerprint=out_fp,
                    detail=f"{stage_quarantined} record(s) quarantined",
                )
                if telemetry is not None:
                    telemetry.metrics.counter(
                        "stages_degraded_total",
                        pipeline=self.plan.name,
                        stage=stage.name,
                    ).inc()
            if self.checkpointer is not None:
                self.checkpointer.save(
                    self.plan, index, stage, prev_fp, out_fp, current, context
                )
                if journal is not None:
                    # the stage-commit record is written only after the
                    # checkpoint hit disk, carrying content digests so
                    # recovery verifies artifacts instead of trusting them
                    artifacts: Dict[str, str] = {}
                    snapshot = (
                        Path(self.checkpointer.directory) / f"stage-{index:03d}.pkl"
                    )
                    if snapshot.exists():
                        artifacts["checkpoint"] = sha256_path(snapshot)
                    manifest = context.artifacts.get("manifest")
                    if manifest is not None and hasattr(manifest, "to_json"):
                        artifacts["manifest"] = _sha256_text(manifest.to_json())
                    journal.commit_stage(
                        index=index,
                        stage=stage.name,
                        output_fingerprint=out_fp,
                        artifacts=artifacts,
                    )
                    _journal_count("stage-commit")
            if injector is not None:
                # post-stage crash point: the stage is fully committed
                # (checkpoint + journal); recovery must keep it
                injector.maybe_crash(index, "post")
            prev_fp = out_fp

        degraded_stages = [r.stage_name for r in results if r.degraded]
        if decision is not None:
            # close the predict -> run -> calibrate loop: measured stage
            # seconds flow back into the calibration store, and the run's
            # prediction error becomes a first-class metric
            from repro.sched.calibrate import record_outcome

            stage_errors = record_outcome(decision, results, self.calibration_store)
            executed = [r for r in results if not r.restored and not r.degraded]
            predicted_total = sum(
                sec
                for name, sec in decision.predicted_stage_seconds
                if name in {r.stage_name for r in executed}
            )
            actual_total = sum(r.seconds for r in executed)
            run_error = (
                abs(actual_total - predicted_total) / predicted_total
                if predicted_total > 0
                else 0.0
            )
            if telemetry is not None:
                telemetry.metrics.gauge(
                    "schedule_prediction_error", pipeline=self.plan.name
                ).set(run_error)
                for stage_name, err in stage_errors.items():
                    telemetry.metrics.gauge(
                        "schedule_prediction_error",
                        pipeline=self.plan.name,
                        stage=stage_name,
                    ).set(err)
                run_span.set_attributes(
                    schedule_actual_s=actual_total,
                    schedule_prediction_error=run_error,
                )
        if telemetry is not None:
            run_span.set_attributes(
                stages_executed=len(self.plan.stages) - start_index,
                stages_restored=start_index,
                seconds=sum(r.seconds for r in results),
                output_fingerprint=prev_fp[:12],
                degraded=bool(degraded_stages),
                retries=sum(r.attempts - 1 + r.task_retries for r in results),
            )
            telemetry.tracer.end_span(run_span)
            telemetry.metrics.counter(
                "runs_total",
                pipeline=self.plan.name,
                status="degraded" if degraded_stages else "ok",
            ).inc()
        if journal is not None:
            journal.commit_run(output_fingerprint=prev_fp)
            _journal_count("run-commit")
        self._emit(
            events,
            RunEventKind.RUN_COMPLETED,
            seconds=sum(r.seconds for r in results),
            fingerprint=prev_fp,
            detail=(
                f"degraded stages: {', '.join(degraded_stages)}"
                if degraded_stages
                else ""
            ),
        )
        context.audit.record(
            context.agent, "run-completed", self.plan.name, output=prev_fp[:12]
        )
        return PipelineRun(
            pipeline_name=self.plan.name,
            payload=current,
            context=context,
            results=results,
            events=events,
            resumed_from=resumed_from,
            backend_name=self.backend.name,
            dead_letters=dead_letters,
            quarantined=quarantined,
            gate_reports=list(context.gate_reports),
            worker_crashes=list(base.crash_events) if supervised else [],
            worker_counters=dict(base.worker_counters) if supervised else {},
        )
