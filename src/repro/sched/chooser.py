"""The measured choice: the fastest configuration this host has run.

:func:`choose_config` reads the ledger's rows under one
:class:`~repro.sched.decision.StoreKey`.  A configuration is a candidate
when every stage of the plan was executed by at least one of its runs;
its prediction is the sum of its per-stage median seconds, and the lowest
sum wins (deterministic tie-break on the config tuple).  With nothing
measured the decision is the ``fixed`` default — serial, width 1,
per-record — as mode ``fallback``, so a cold store runs exactly what
``--plan fixed`` runs.

:func:`build_backend` is the single point where a configuration becomes
an :class:`~repro.core.backends.ExecutionBackend` instance.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence

from repro.core.backends import ExecutionBackend, get_backend
from repro.sched.decision import (
    CandidateConfig,
    CandidateEvaluation,
    ScheduleDecision,
    StoreKey,
)
from repro.sched.ledger import Ledger

__all__ = ["FIXED_DEFAULT", "WIDTH_ARGUMENT", "choose_config", "build_backend"]

#: what ``--plan fixed`` runs when nothing is set
FIXED_DEFAULT = CandidateConfig("serial", 1, 0)

#: backend name -> the constructor argument that sets its width
WIDTH_ARGUMENT = {"threaded": "workers", "process": "workers", "simspmd": "n_ranks"}


def choose_config(
    key: StoreKey, stages: Sequence[str], ledger: Optional[Ledger]
) -> ScheduleDecision:
    """Pick the measured-fastest configuration for the plan's *stages*."""
    # config -> stage -> the seconds of every run that executed it
    measured: Dict[CandidateConfig, Dict[str, List[float]]] = {}
    for row in ledger.rows(key.pipeline) if ledger is not None else ():
        if row.key == key:
            by_stage = measured.setdefault(row.config, {})
            for stage, seconds in row.stage_seconds().items():
                by_stage.setdefault(stage, []).append(seconds)
    candidates: List[CandidateEvaluation] = []
    for config, by_stage in measured.items():
        if not all(by_stage.get(stage) for stage in stages):
            continue
        stage_seconds = tuple((stage, statistics.median(by_stage[stage])) for stage in stages)
        candidates.append(
            CandidateEvaluation(
                config=config,
                predicted_seconds=sum(seconds for _, seconds in stage_seconds),
                stage_seconds=stage_seconds,
                runs=min(len(by_stage[stage]) for stage in stages),
            )
        )
    candidates.sort(
        key=lambda c: (
            c.predicted_seconds, c.config.backend, c.config.workers, c.config.batch_records
        )
    )
    if not candidates:
        return ScheduleDecision(
            key=key,
            mode="fallback",
            chosen=FIXED_DEFAULT,
            predicted_seconds=0.0,
            predicted_stage_seconds=(),
            candidates=(),
            reason=f"nothing measured for {key.label()}",
        )
    best = candidates[0]
    return ScheduleDecision(
        key=key,
        mode="auto",
        chosen=best.config,
        predicted_seconds=best.predicted_seconds,
        predicted_stage_seconds=best.stage_seconds,
        candidates=tuple(candidates),
    )


def build_backend(config: CandidateConfig) -> ExecutionBackend:
    """Instantiate *config*'s backend at its width."""
    argument = WIDTH_ARGUMENT.get(config.backend)
    if argument is None:
        return get_backend(config.backend)
    return get_backend(config.backend, **{argument: config.workers})
