"""The plan layer: declarative, validated descriptions of pipeline work.

A :class:`StagePlan` is the *what* of a pipeline — an immutable, validated
sequence of :class:`PipelineStage` objects in the canonical
``ingest -> preprocess -> transform -> structure -> shard`` order, each
carrying an advisory :class:`Parallelism` hint that tells execution
backends what kind of intra-stage parallelism the stage can exploit.
Plans carry no execution state: the same plan can be run serially, over a
thread pool, or over the simulated SPMD world (:mod:`repro.core.backends`),
checkpointed and resumed (:mod:`repro.core.runner`), or just rendered for
inspection.

This module also re-exports :func:`fingerprint_payload`, the deterministic
content hash of the run's input and of checkpoint snapshots; it is
computed by the one payload walker in :mod:`repro.core.payload`, which
documents the (frozen) digest format.  Stage outputs are named by
derivation instead (:meth:`StagePlan.derive`, :func:`derivation_id`).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.levels import DataProcessingStage
from repro.core.payload import fingerprint_payload
from repro.faults.errors import OnError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.gates.contracts import StageContract
    from repro.sched.decision import ScheduleDecision

__all__ = [
    "PipelineError",
    "Parallelism",
    "PipelineStage",
    "StagePlan",
    "fingerprint_payload",
]


class PipelineError(RuntimeError):
    """A plan was invalid or a stage failed.

    When raised from a running stage, :attr:`stage_name` and
    :attr:`stage_index` identify the failing stage so callers — and the
    resume logic in :mod:`repro.core.runner` — can branch on them instead
    of parsing the message.  Plan-validation errors leave both ``None``.
    """

    def __init__(
        self,
        message: str,
        *,
        stage_name: Optional[str] = None,
        stage_index: Optional[int] = None,
    ):
        super().__init__(message)
        self.stage_name = stage_name
        self.stage_index = stage_index


class Parallelism(enum.Enum):
    """Advisory hint: the intra-stage parallel pattern a stage can use.

    Backends are free to ignore hints (a serial backend runs everything
    inline), but the hint documents which ``ctx.backend`` operation the
    stage reaches for, and lets schedulers reason about a plan without
    executing it.
    """

    #: inherently sequential; no backend operation used
    NONE = "none"
    #: fans out independent items through :meth:`ExecutionBackend.map`
    MAP = "map"
    #: partition/accumulate/merge via :meth:`ExecutionBackend.stats`
    REDUCE = "reduce"
    #: parallel file export via :meth:`ExecutionBackend.shard_write`
    WRITE = "write"


@dataclasses.dataclass
class PipelineStage:
    """One named stage bound to a canonical processing-stage tag.

    ``fn(payload, context) -> payload`` must not mutate its input payload:
    the runner freezes every array of a committed payload, so a write into
    one fails the stage.  Stages reach
    data-parallel execution through ``context.backend``; ``parallelism``
    declares which backend operation the stage uses.

    ``params`` must hold every value ``fn`` reads besides its payload (a
    seed, a target grid): the output's id is derived from them, never
    from the output's bytes (:meth:`StagePlan.derive`).

    ``on_error`` is what the stage is (see :class:`OnError`): ``RETRY``
    for a stage that retries transient faults even when the run sets no
    retry budget, ``SKIP_DEGRADED`` for an observer — a stage that hands
    its input on — which may be skipped once its retries are spent.
    ``None`` retries iff the run has a retry policy.  The budget itself
    (backoff schedule, deadline) is the run's.  The policy is an
    *execution* concern, deliberately excluded from the plan
    fingerprint: it must not invalidate checkpoints.
    """

    name: str
    processing_stage: DataProcessingStage
    fn: Callable[[Any, Any], Any]
    params: Dict[str, object] = dataclasses.field(default_factory=dict)
    description: str = ""
    parallelism: Parallelism = Parallelism.NONE
    #: failure policy (see OnError); None retries iff the run has a budget
    on_error: Optional[OnError] = None
    #: data contract enforced on the stage's *input* payload (see
    #: :mod:`repro.gates`); None means no input gate
    input_contract: Optional["StageContract"] = None
    #: data contract enforced on the stage's *output* payload
    output_contract: Optional["StageContract"] = None
    #: capability flag: the stage's backend fan-out can consume items in
    #: deterministic contiguous batches (it calls
    #: :meth:`~repro.core.backends.ExecutionBackend.map_batches` with a
    #: chunk-wise fn).  Purely an execution concern — batched and
    #: per-record runs are bitwise identical by contract — so, like the
    #: fault policy, it is excluded from the plan fingerprint
    batch: bool = False


def derivation_id(*parts: object) -> str:
    """sha256 of *parts* as one JSON list: the id of a payload never hashed."""
    encoded = json.dumps(list(parts), sort_keys=True).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


def _stage_entry(s: PipelineStage) -> Dict[str, object]:
    """One stage's entry in the plan fingerprint."""
    row: Dict[str, object] = {
        "name": s.name,
        "stage": s.processing_stage.name,
        "parallelism": s.parallelism.value,
        "params": {k: str(v) for k, v in sorted(s.params.items())},
    }
    # contracts are part of the plan's shape (what the data must
    # satisfy), unlike the gate *policy* (how strictly it is
    # enforced, an execution concern).  Contract-less plans keep
    # their pre-gates fingerprint.
    if s.input_contract is not None:
        row["input_contract"] = s.input_contract.content_hash()
    if s.output_contract is not None:
        row["output_contract"] = s.output_contract.content_hash()
    return row


@dataclasses.dataclass(frozen=True)
class StagePlan:
    """An immutable, validated execution plan: the *what* of a pipeline.

    Construction validates that the plan is non-empty, that stage names
    are unique (resume identifies stages by name), and that canonical
    processing stages never go backwards.  Repeated canonical stages are
    allowed — two transform sub-steps are fine; shard before ingest is
    not.
    """

    name: str
    stages: Tuple[PipelineStage, ...]
    #: the measured decision this plan was scheduled under (see
    #: :mod:`repro.sched`); None for fixed-config runs.  An execution
    #: concern, excluded from the fingerprint: scheduling the same plan
    #: differently must not invalidate its checkpoints
    schedule: Optional["ScheduleDecision"] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "stages", tuple(self.stages))
        if not self.stages:
            raise PipelineError("a pipeline needs at least one stage")
        order = [s.processing_stage for s in self.stages]
        if any(int(b) < int(a) for a, b in zip(order, order[1:])):
            raise PipelineError(
                "stages must be in canonical order "
                "(ingest -> preprocess -> transform -> structure -> shard); "
                f"got {[s.label for s in order]}"
            )
        names = [s.name for s in self.stages]
        if len(set(names)) != len(names):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise PipelineError(f"stage names must be unique; duplicated: {duplicates}")

    @classmethod
    def build(cls, name: str, stages: Sequence[PipelineStage]) -> "StagePlan":
        """Validated construction from any stage sequence."""
        return cls(name=name, stages=tuple(stages))

    def with_schedule(self, decision: Optional["ScheduleDecision"]) -> "StagePlan":
        """The same plan carrying (or shedding) a schedule decision."""
        return dataclasses.replace(self, schedule=decision)

    # -- introspection -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.stages)

    def __iter__(self) -> Iterator[PipelineStage]:
        return iter(self.stages)

    def __getitem__(self, index: int) -> PipelineStage:
        return self.stages[index]

    @property
    def stage_names(self) -> List[str]:
        return [s.name for s in self.stages]

    def index_of(self, stage_name: str) -> int:
        for i, stage in enumerate(self.stages):
            if stage.name == stage_name:
                return i
        raise KeyError(f"plan {self.name!r} has no stage {stage_name!r}")

    def fingerprint(self) -> str:
        """Stable identity of the plan's *shape*: names, tags, hints, params.

        Used to guard resume: a checkpoint written under one plan must not
        seed a run of a structurally different plan.  Stage functions are
        intentionally excluded — rebinding the same logical stage to a
        fresh closure (a new process, a monkeypatched method) must not
        invalidate checkpoints.
        """
        blob = {"pipeline": self.name, "stages": [_stage_entry(s) for s in self.stages]}
        encoded = json.dumps(blob, sort_keys=True).encode("utf-8")
        return hashlib.sha256(encoded).hexdigest()

    def derive(self, index: int, input_id: str) -> str:
        """The id of stage *index*'s output from the input *input_id*
        (DESIGN, "Stage identity").  Equal only for the same input id and
        the same plan entry; the output's content is not read."""
        return derivation_id("derive", _stage_entry(self.stages[index]), input_id)

    def describe(self) -> str:
        """Aligned text table of the plan (stage, canonical tag, hint)."""
        lines = [f"{'#':>2} {'stage':<24} {'canonical':<12} {'parallelism':<12} params"]
        for i, s in enumerate(self.stages):
            lines.append(
                f"{i:>2} {s.name:<24} {s.processing_stage.label:<12} "
                f"{s.parallelism.value:<12} {s.params or ''}"
            )
        return "\n".join(lines)
