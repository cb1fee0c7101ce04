"""Calibration through the ledger: persistence, dedupe, and what every run
files in it."""

import json

import numpy as np
import pytest

from repro.core.backends import get_backend
from repro.core.levels import DataProcessingStage
from repro.core.plan import Parallelism, PipelineStage, StagePlan
from repro.core.runner import PipelineRunner
from repro.faults import OnError
from repro.sched import (
    LEDGER_NAME,
    CandidateConfig,
    Ledger,
    LedgerRow,
    StoreKey,
    choose_config,
    store_key,
)

KEY = StoreKey("demo", 2, 22)
SERIAL = CandidateConfig("serial", 1, 0)


def _row(config=SERIAL, key=KEY, **seconds):
    return LedgerRow(key=key, config=config, status="ok",
                     stages=tuple((stage, sec, 1) for stage, sec in seconds.items()))


def _plan(batch, *extra):
    def double(payload, ctx):
        return np.asarray(ctx.backend.map_batches(
            lambda chunk: [2 * x for x in chunk], list(payload),
            batch_size=ctx.stage_batch_size,
        ))

    return StagePlan.build("demo", [
        PipelineStage("ingest", DataProcessingStage.INGEST, lambda p, ctx: p),
        PipelineStage("double", DataProcessingStage.TRANSFORM, double,
                      parallelism=Parallelism.MAP, batch=batch),
        *extra,
    ])


def test_roundtrip_through_disk(tmp_path):
    """A reloaded ledger holds exactly what was appended, in order."""
    rows = [_row(ingest=2.0), _row(ingest=8.0),
            _row(CandidateConfig("threaded", 2, 64), shard=1.0)]
    ledger = Ledger(tmp_path)
    assert [ledger.append(row) for row in rows] == [row.run_id for row in rows]
    assert Ledger(tmp_path).rows() == rows
    assert Ledger(tmp_path).rows("other") == []


def test_duplicate_observations_are_idempotent(tmp_path):
    ledger = Ledger(tmp_path)
    ledger.append(_row(ingest=2.0))
    ledger.append(_row(ingest=2.0))
    assert ledger.rows() == [_row(ingest=2.0)]
    # every line is content-addressed: its id is the sha256 of its body
    lines = [json.loads(line) for line in (tmp_path / LEDGER_NAME).read_text().splitlines()]
    assert {line["id"] for line in lines} == {_row(ingest=2.0).run_id}
    # ... and no wall-clock timestamps anywhere in the persisted row
    assert not any("time" in k or "stamp" in k for k in lines[0])


def test_identical_histories_give_byte_identical_ledgers(tmp_path):
    history = [_row(ingest=2.0), _row(CandidateConfig("process", 2, 0), ingest=1.5)]
    for name in ("a", "b"):
        for row in history:
            Ledger(tmp_path / name).append(row)
    a, b = (tmp_path / name / LEDGER_NAME for name in ("a", "b"))
    assert a.read_bytes() == b.read_bytes()


def test_unknown_key_has_no_measurements(tmp_path):
    ledger = Ledger(tmp_path / "never-written")
    assert ledger.rows() == []
    assert choose_config(KEY, ["ingest"], ledger).mode == "fallback"
    # reading a ledger creates nothing; the first appended row does
    assert not (tmp_path / "never-written").exists()


def test_restored_and_degraded_stages_are_not_filed(tmp_path):
    """Neither carries an execution signal, so neither makes a config a
    candidate."""
    def boom(payload, ctx):
        raise RuntimeError("always")

    payload = np.arange(8.0)
    plan = _plan(False, PipelineStage("boom", DataProcessingStage.STRUCTURE, boom,
                                      on_error=OnError.SKIP_DEGRADED))
    options = {"ledger": tmp_path / "store", "checkpoint_dir": tmp_path / "ckpt"}
    run = PipelineRunner(plan, **options).run(payload)
    assert [r.stage_name for r in run.results if r.degraded] == ["boom"]
    PipelineRunner(plan, **options).run(payload, resume=True)
    degraded, resumed = Ledger(tmp_path / "store").rows()
    assert degraded.status == "degraded"
    assert [stage for stage, _, _ in degraded.stages] == ["ingest", "double"]
    assert resumed.stages == ()  # every stage restored
    decision = choose_config(store_key("demo", payload), plan.stage_names,
                             Ledger(tmp_path / "store"))
    assert decision.mode == "fallback"


@pytest.mark.parametrize("backend, width", [("serial", 1), ("threaded", 2)])
def test_fixed_runs_feed_the_store_under_the_config_that_ran(tmp_path, backend, width):
    payload = np.arange(8.0)
    options = {"workers": width} if width > 1 else {}
    run = PipelineRunner(
        _plan(batch=True), backend=get_backend(backend, **options), batch_size=3,
        ledger=tmp_path,
    ).run(payload)
    (row,) = Ledger(tmp_path).rows()
    assert row.key == store_key("demo", payload)
    assert row.config == CandidateConfig(backend, width, 3)
    assert row.stages == tuple((r.stage_name, r.seconds, r.items) for r in run.results)
    assert (row.status, row.output_fingerprint) == ("ok", run.results[-1].output_fingerprint)
    assert row.peak_rss_bytes > 0


def test_a_plan_without_a_batch_stage_records_batch_0(tmp_path):
    PipelineRunner(_plan(batch=False), batch_size=3, ledger=tmp_path).run(np.arange(8.0))
    assert [row.config for row in Ledger(tmp_path).rows()] == [SERIAL]
