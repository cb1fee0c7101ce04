"""End-to-end auto-planning: the simulator-to-scheduler loop, closed.

Acceptance contract of the cost-model-driven planner: an auto-planned
run selects its configuration via simulation, embeds the decision record
in run events / span attributes / the shard manifest, records the
``schedule_prediction_error`` metric, and feeds the calibration store.
Planning changes the schedule, never the bytes: the auto run's shards are
the serial reference's of the parity oracle (``tests/parity.py``).
"""

import json

import pytest

from repro.core.runner import RunEventKind
from repro.domains import ClimateArchetype, MaterialsArchetype
from repro.domains.materials.synthetic import MaterialsSourceConfig
from repro.io.shards import MANIFEST_NAME, ShardManifest
from repro.obs import Telemetry
from repro.sched import CalibrationStore, ScheduleDecision
from tests.parity import ARCHETYPES, assert_reference

CLIMATE = {"config": ARCHETYPES["climate"][1]}
MATERIALS = {"config": MaterialsSourceConfig(n_structures=40, seed=21)}


def _auto_run(tmp_path, name="auto", **kwargs):
    return ClimateArchetype(seed=21, **CLIMATE).run(
        tmp_path / name, plan_mode="auto", **kwargs
    )


def test_auto_run_selects_and_embeds_decision(tmp_path):
    result = _auto_run(tmp_path)
    decision = result.schedule
    assert isinstance(decision, ScheduleDecision)
    assert decision.mode == "auto"
    assert decision.pipeline == "climate"
    assert len(decision.candidates) > 1
    # the chosen backend actually executed
    assert result.run.backend_name == (
        "serial" if decision.chosen.workers <= 1 else decision.chosen.backend
    )
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
    assert_reference("climate", result, tmp_path / "auto")


def test_fixed_run_has_no_decision(tmp_path):
    result = ClimateArchetype(seed=21, **CLIMATE).run(tmp_path / "fixed")
    assert result.schedule is None
    assert "schedule_decision" not in result.manifest.metadata


def test_auto_run_emits_event_span_and_error_metric(tmp_path):
    telemetry = Telemetry()
    result = _auto_run(tmp_path, telemetry=telemetry)
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
    for stage_name, _ in decision.predicted_stage_seconds:
        per_stage = telemetry.metrics.get(
            "schedule_prediction_error", pipeline="climate", stage=stage_name
        )
        assert per_stage is not None


def test_auto_run_feeds_the_calibration_store(tmp_path):
    store = CalibrationStore(tmp_path / "cal")
    result = _auto_run(tmp_path, calibration_store=store)
    assert len(store) == len(result.run.results)
    factors = store.factors("climate")
    assert set(factors) == {r.stage_name for r in result.run.results}
    # the persisted store reloads with identical factors
    assert CalibrationStore(tmp_path / "cal").factors("climate") == factors


def test_persisted_calibration_deterministically_changes_prediction(tmp_path):
    first = _auto_run(tmp_path, name="run1",
                      calibration_store=CalibrationStore(tmp_path / "cal"))
    assert first.schedule.calibration == ()
    # snapshot the store state run2 will plan against (run2 appends to it)
    import shutil

    shutil.copytree(tmp_path / "cal", tmp_path / "cal-snapshot")
    second = _auto_run(tmp_path, name="run2",
                       calibration_store=CalibrationStore(tmp_path / "cal"))
    assert second.schedule.calibration != ()
    assert second.schedule.predicted_seconds != first.schedule.predicted_seconds
    # ... deterministically: replaying the choice from the same store state
    # reproduces the second decision byte-for-byte
    from repro.sched import choose_config, estimate_workload, resolve_cluster

    arch = ClimateArchetype(seed=21, **CLIMATE)
    src = arch.synthesize_source(tmp_path / "replay-src")
    plan = arch.build_pipeline(tmp_path / "replay-shards").plan
    replayed = choose_config(
        estimate_workload(plan, src),
        resolve_cluster(None),
        calibration=CalibrationStore(tmp_path / "cal-snapshot"),
    )
    assert replayed.to_dict() == second.schedule.to_dict()


def test_auto_plan_works_on_other_domains(tmp_path):
    """The loop is domain-agnostic: materials plans and embeds too."""
    result = MaterialsArchetype(seed=21, **MATERIALS).run(
        tmp_path / "mat", plan_mode="auto"
    )
    assert result.schedule is not None and result.schedule.mode == "auto"
    assert result.manifest.metadata["schedule_decision"]["pipeline"] == "materials"


def test_explicit_backend_overrides_the_chooser(tmp_path):
    result = _auto_run(tmp_path, backend="serial")
    assert result.run.backend_name == "serial"
    assert result.schedule is not None  # decision still recorded


def test_unknown_plan_mode_is_rejected(tmp_path):
    with pytest.raises(ValueError, match="plan_mode"):
        ClimateArchetype(seed=21, **CLIMATE).run(tmp_path, plan_mode="chaotic")
