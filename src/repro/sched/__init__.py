"""Measured planning: ``--plan auto`` runs the fastest configuration this
host has measured.

The loop:

1. **record** (:mod:`repro.sched.ledger`) — every run given a ledger
   directory appends one :class:`LedgerRow` when it finishes: its
   executed per-stage seconds and items under the configuration that ran
   (backend, width, batch) and a :class:`StoreKey` (the pipeline, the
   host's usable CPU count and the source's size bucket), plus its output
   fingerprint, schedule-decision hash, certificate verdict and peak RSS.
   Fixed runs feed it exactly like auto runs.  ``runs list/show`` and
   ``telemetry diff --store-dir`` read the same rows.
2. **choose** (:mod:`repro.sched.chooser`) — among the configurations
   whose runs executed every stage under the run's key, pick the lowest
   sum of per-stage medians; with nothing measured, run the ``fixed``
   default (serial, width 1, per-record) as mode ``fallback``.
3. **run** — the runner executes exactly the chosen configuration,
   records the :class:`~repro.sched.decision.ScheduleDecision` in run
   events, span attributes and the shard manifest, and emits the
   ``schedule_prediction_error`` metric (measured stage seconds against
   the medians the choice was made on).

The bitwise-parity contract is preserved by construction: every backend,
width and batch size writes the same bytes, so the chooser only decides
how long the run takes.
"""

from repro.sched.chooser import FIXED_DEFAULT, WIDTH_ARGUMENT, build_backend, choose_config
from repro.sched.decision import (
    SCHEDULE_SCHEMA,
    CandidateConfig,
    CandidateEvaluation,
    ScheduleDecision,
    StoreKey,
)
from repro.sched.ledger import LEDGER_NAME, Ledger, LedgerRow, source_nbytes, store_key

__all__ = [
    "CandidateConfig",
    "CandidateEvaluation",
    "FIXED_DEFAULT",
    "LEDGER_NAME",
    "Ledger",
    "LedgerRow",
    "SCHEDULE_SCHEMA",
    "ScheduleDecision",
    "StoreKey",
    "WIDTH_ARGUMENT",
    "build_backend",
    "choose_config",
    "source_nbytes",
    "store_key",
]
