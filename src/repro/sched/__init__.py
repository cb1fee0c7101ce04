"""Measured planning: ``--plan auto`` runs the fastest configuration this
host has measured.

The loop:

1. **record** (:mod:`repro.sched.calibrate`) — every run that carries a
   :class:`CalibrationStore` files its executed per-stage seconds under
   the configuration that ran (backend, width, batch) and a
   :class:`StoreKey`: the pipeline, the host's usable CPU count and the
   source's size bucket.  Fixed runs feed it exactly like auto runs.
2. **choose** (:mod:`repro.sched.chooser`) — among the configurations
   with an observation for every stage under the run's key, pick the
   lowest sum of per-stage medians; with nothing measured, run the
   ``fixed`` default (serial, width 1, per-record) as mode ``fallback``.
3. **run** — the runner executes exactly the chosen configuration,
   records the :class:`~repro.sched.decision.ScheduleDecision` in run
   events, span attributes and the shard manifest, and emits the
   ``schedule_prediction_error`` metric (measured stage seconds against
   the medians the choice was made on).

The bitwise-parity contract is preserved by construction: every backend,
width and batch size writes the same bytes, so the chooser only decides
how long the run takes.
"""

from repro.sched.calibrate import (
    CALIBRATION_NAME,
    CalibrationStore,
    record_outcome,
    source_nbytes,
    store_key,
)
from repro.sched.chooser import FIXED_DEFAULT, build_backend, choose_config
from repro.sched.decision import (
    SCHEDULE_SCHEMA,
    CandidateConfig,
    CandidateEvaluation,
    ScheduleDecision,
    StoreKey,
)

__all__ = [
    "CALIBRATION_NAME",
    "CalibrationStore",
    "CandidateConfig",
    "CandidateEvaluation",
    "FIXED_DEFAULT",
    "SCHEDULE_SCHEMA",
    "ScheduleDecision",
    "StoreKey",
    "build_backend",
    "choose_config",
    "record_outcome",
    "source_nbytes",
    "store_key",
]
