"""End-to-end auto-planning: measure, choose, run what was chosen.

Acceptance contract of the measured planner: an auto-planned run executes
the configuration with the lowest summed per-stage medians measured
under its store key (the fixed default when nothing is), embeds the
decision record in run events / span attributes / the shard manifest,
records the ``schedule_prediction_error`` metric, and files its row in
the ledger.
Planning changes the schedule, never the bytes: the auto run's shards are
the serial reference's of the parity oracle (``tests/parity.py``).
"""

import json
import shutil

import pytest

from repro.core.runner import RunEventKind
from repro.domains import ClimateArchetype, MaterialsArchetype
from repro.domains.materials.synthetic import MaterialsSourceConfig
from repro.io.shards import MANIFEST_NAME, ShardManifest
from repro.obs import Telemetry
from repro.sched import (
    CandidateConfig,
    Ledger,
    LedgerRow,
    ScheduleDecision,
    choose_config,
    store_key,
)
from tests.parity import ARCHETYPES, assert_reference, watch

CLIMATE = {"config": ARCHETYPES["climate"][1]}
MATERIALS = {"config": MaterialsSourceConfig(n_structures=40, seed=21)}
SERIAL = CandidateConfig("serial", 1, 0)
THREADED = CandidateConfig("threaded", 2, 0)


def _climate():
    return ClimateArchetype(seed=21, **CLIMATE)


def _auto_run(tmp_path, name="auto", outputs=None, **kwargs):
    """An auto-planned climate run; *outputs* collects what its stages
    returned (see ``tests.parity.watch``)."""
    archetype = watch(_climate(), {} if outputs is None else outputs)
    return archetype.run(tmp_path / name, plan_mode="auto", **kwargs)


def _warm_store(tmp_path, seconds_by_config):
    """A ledger in which each given config ran every climate stage in the
    given seconds, under the key the climate runs below file under."""
    arch = _climate()
    source = arch.synthesize_source(tmp_path / "key-src")
    plan = arch.build_pipeline(tmp_path / "key-shards").plan
    key = store_key(plan.name, source)
    store = tmp_path / "store"
    for config, seconds in seconds_by_config.items():
        stages = tuple((stage, seconds, 1) for stage in plan.stage_names)
        Ledger(store).append(LedgerRow(key=key, config=config, status="ok", stages=stages))
    return store


def test_auto_run_selects_and_embeds_decision(tmp_path):
    store, outputs = _warm_store(tmp_path, {SERIAL: 0.5, THREADED: 0.2}), {}
    result = _auto_run(tmp_path, ledger=store, outputs=outputs)
    decision = result.schedule
    assert isinstance(decision, ScheduleDecision)
    assert decision.mode == "auto"
    assert decision.pipeline == "climate"
    assert [c.config for c in decision.candidates] == [THREADED, SERIAL]
    # the chosen config is the one that executed
    assert decision.chosen == THREADED
    assert (result.run.backend_name, result.run.context.backend.width) == ("threaded", 2)
    # ... and the manifest carries the full decision record
    embedded = result.manifest.metadata["schedule_decision"]
    assert embedded == decision.to_dict()
    on_disk = json.loads((tmp_path / "auto" / "shards" / MANIFEST_NAME).read_text())
    assert on_disk["metadata"]["schedule_decision"] == decision.to_dict()
    # planning changes the schedule, never the bytes: less the decision,
    # every artifact is the serial reference's
    path = tmp_path / "auto" / "shards" / MANIFEST_NAME
    manifest = ShardManifest.from_json(path.read_text())
    del manifest.metadata["schedule_decision"]
    path.write_text(manifest.to_json())
    assert_reference("climate", result, tmp_path / "auto", outputs)


def test_fixed_run_has_no_decision(tmp_path):
    result = _climate().run(tmp_path / "fixed")
    assert result.schedule is None
    assert "schedule_decision" not in result.manifest.metadata


def test_auto_run_emits_event_span_and_error_metric(tmp_path):
    store = _warm_store(tmp_path, {SERIAL: 0.5})
    telemetry = Telemetry()
    result = _auto_run(tmp_path, telemetry=telemetry, ledger=store)
    decision = result.schedule
    scheduled = [
        e for e in result.run.events if e.kind is RunEventKind.RUN_SCHEDULED
    ]
    assert len(scheduled) == 1
    assert scheduled[0].fingerprint == decision.content_hash()
    run_spans = [s for s in telemetry.tracer.spans() if s.name == "run:climate"]
    assert run_spans
    attrs = run_spans[0].attributes
    assert attrs["schedule_config"] == decision.chosen.label()
    assert attrs["schedule_hash"] == decision.content_hash()[:12]
    assert "schedule_prediction_error" in attrs
    error = telemetry.metrics.get("schedule_prediction_error", pipeline="climate")
    assert error is not None and error.value >= 0.0
    assert decision.predicted_stage_seconds
    for stage_name, _ in decision.predicted_stage_seconds:
        per_stage = telemetry.metrics.get(
            "schedule_prediction_error", pipeline="climate", stage=stage_name
        )
        assert per_stage is not None


def test_auto_run_feeds_the_calibration_store(tmp_path):
    store = _warm_store(tmp_path, {THREADED: 0.5})
    result = _auto_run(tmp_path, ledger=store)
    warm, row = Ledger(store).rows()
    decision = result.schedule
    assert (row.key, row.config) == (decision.key, THREADED) == (warm.key, warm.config)
    assert row.stage_seconds() == {r.stage_name: r.seconds for r in result.run.results}
    # the row names the decision it ran and the bytes it made
    assert row.schedule_hash == decision.content_hash()
    assert row.output_fingerprint == result.run.results[-1].output_fingerprint


def test_persisted_calibration_deterministically_changes_prediction(tmp_path):
    # a cold store runs the fixed default and records it
    first = _auto_run(tmp_path, name="run1", ledger=tmp_path / "store")
    assert first.schedule.mode == "fallback"
    assert first.run.backend_name == "serial"
    # snapshot the ledger state run2 will plan against (run2 appends to it)
    shutil.copytree(tmp_path / "store", tmp_path / "store-snapshot")
    second = _auto_run(tmp_path, name="run2", ledger=tmp_path / "store")
    assert second.schedule.mode == "auto"
    assert second.schedule.stage_predictions() == {
        r.stage_name: r.seconds for r in first.run.results
    }
    # ... deterministically: replaying the choice from the same ledger state
    # reproduces the second decision byte-for-byte
    plan = _climate().build_pipeline(tmp_path / "replay-shards").plan
    replayed = choose_config(
        second.schedule.key, plan.stage_names, Ledger(tmp_path / "store-snapshot")
    )
    assert json.dumps(replayed.to_dict()) == json.dumps(second.schedule.to_dict())


def test_auto_plan_works_on_other_domains(tmp_path):
    """The loop is domain-agnostic: materials plans and embeds too."""
    result = MaterialsArchetype(seed=21, **MATERIALS).run(
        tmp_path / "mat", plan_mode="auto"
    )
    assert result.schedule is not None and result.schedule.mode == "fallback"
    assert result.manifest.metadata["schedule_decision"]["pipeline"] == "materials"


@pytest.mark.parametrize("override", [{"backend": "serial"}, {"batch_size": 64}],
                         ids=["backend", "batch_size"])
def test_explicit_backend_under_auto_is_rejected(tmp_path, override):
    with pytest.raises(ValueError, match="picks the backend, width and batch size"):
        _auto_run(tmp_path, **override)
    assert not (tmp_path / "auto").exists()


def test_unknown_plan_mode_is_rejected(tmp_path):
    with pytest.raises(ValueError, match="plan_mode"):
        _climate().run(tmp_path, plan_mode="chaotic")
