"""Calibration store: persistence, dedupe, and what every run files in it."""

import json

import numpy as np
import pytest

from repro.core.backends import get_backend
from repro.core.levels import DataProcessingStage
from repro.core.plan import Parallelism, PipelineStage, StagePlan
from repro.core.runner import PipelineRunner
from repro.sched import CALIBRATION_NAME, CalibrationStore, CandidateConfig, StoreKey, store_key
from repro.sched.calibrate import record_outcome

KEY = StoreKey("demo", 2, 22)
SERIAL = CandidateConfig("serial", 1, 0)


class _Result:
    def __init__(self, stage_name, seconds, restored=False, degraded=False):
        self.stage_name = stage_name
        self.seconds = seconds
        self.restored = restored
        self.degraded = degraded


def _plan(batch):
    def double(payload, ctx):
        return np.asarray(ctx.backend.map_batches(
            lambda chunk: [2 * x for x in chunk], list(payload),
            batch_size=ctx.stage_batch_size,
        ))

    return StagePlan.build("demo", [
        PipelineStage("ingest", DataProcessingStage.INGEST, lambda p, ctx: p),
        PipelineStage("double", DataProcessingStage.TRANSFORM, double,
                      parallelism=Parallelism.MAP, batch=batch),
    ])


def test_roundtrip_through_disk(tmp_path):
    """A reloaded store holds exactly what was observed, in order."""
    store = CalibrationStore(tmp_path)
    assert store.observe(KEY, SERIAL, "ingest", 2.0)
    assert store.observe(KEY, SERIAL, "ingest", 8.0)
    assert store.observe(KEY, CandidateConfig("threaded", 2, 64), "shard", 1.0)
    reloaded = CalibrationStore(tmp_path)
    assert len(reloaded) == 3
    assert reloaded.measured(KEY) == store.measured(KEY) == {
        SERIAL: {"ingest": [2.0, 8.0]},
        CandidateConfig("threaded", 2, 64): {"shard": [1.0]},
    }


def test_duplicate_observations_are_idempotent(tmp_path):
    store = CalibrationStore(tmp_path)
    assert store.observe(KEY, SERIAL, "ingest", 2.0)
    assert not store.observe(KEY, SERIAL, "ingest", 2.0)
    assert len(store) == 1
    # the JSONL holds exactly one content-addressed entry
    rows = [
        json.loads(line)
        for line in (tmp_path / CALIBRATION_NAME).read_text().splitlines()
    ]
    assert len(rows) == 1
    assert "entry" in rows[0]
    # and no wall-clock timestamps anywhere in the persisted record
    assert not any("time" in k or "stamp" in k for k in rows[0])


def test_unknown_key_has_no_measurements(tmp_path):
    store = CalibrationStore(tmp_path / "never-written")
    assert store.measured(KEY) == {}
    # reading a store creates nothing; the first observation does
    assert not (tmp_path / "never-written").exists()


def test_record_outcome_skips_restored_and_degraded():
    store = CalibrationStore()
    results = [
        _Result("a", 2.0),
        _Result("b", 5.0, restored=True),
        _Result("c", 5.0, degraded=True),
    ]
    assert record_outcome(store, KEY, SERIAL, results) == 1
    assert store.measured(KEY) == {SERIAL: {"a": [2.0]}}


@pytest.mark.parametrize("backend, width", [("serial", 1), ("threaded", 2)])
def test_fixed_runs_feed_the_store_under_the_config_that_ran(backend, width):
    store, payload = CalibrationStore(), np.arange(8.0)
    options = {"workers": width} if width > 1 else {}
    run = PipelineRunner(
        _plan(batch=True), backend=get_backend(backend, **options), batch_size=3,
        calibration_store=store,
    ).run(payload)
    measured = store.measured(store_key("demo", payload))
    ran = CandidateConfig(backend, width, 3)
    assert list(measured) == [ran]
    assert measured[ran] == {r.stage_name: [r.seconds] for r in run.results}


def test_a_plan_without_a_batch_stage_records_batch_0():
    store, payload = CalibrationStore(), np.arange(8.0)
    PipelineRunner(_plan(batch=False), batch_size=3, calibration_store=store).run(payload)
    assert list(store.measured(store_key("demo", payload))) == [SERIAL]
