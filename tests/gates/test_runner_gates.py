"""Integration: gates in the PipelineRunner, end to end on a domain pipeline."""

import json

import pytest

from repro.core.plan import PipelineError
from repro.domains import ClimateArchetype
from repro.domains.climate.synthetic import ClimateSourceConfig
from repro.durability.fsfaults import SimulatedCrash
from repro.durability.recover import recover_run
from repro.faults import FaultInjector, FaultSpec
from repro.gates import QUARANTINE_NAME, QuarantineStore
from repro.io.shards import MANIFEST_NAME

CLEAN = ClimateSourceConfig(n_models=2, n_timesteps=12, seed=21)
CORRUPT = ClimateSourceConfig(n_models=2, n_timesteps=12, seed=21, n_corrupt_models=1)


def _run(config, tmp_path, **kwargs):
    return ClimateArchetype(seed=21, config=config).run(tmp_path / "work", **kwargs)


def _manifest(tmp_path):
    return json.loads((tmp_path / "work" / "shards" / MANIFEST_NAME).read_text())


def test_ungated_run_is_untouched(tmp_path):
    """gates=None must not change behaviour or manifest bytes at all."""
    result = _run(CLEAN, tmp_path)
    assert result.run.gate_reports == []
    assert result.run.records_quarantined == 0
    assert "readiness_certificate" not in _manifest(tmp_path)["metadata"]


def test_gated_clean_run_certifies_pass(tmp_path):
    result = _run(CLEAN, tmp_path, gates="fail")
    assert result.run.gate_reports, "contracts should have been evaluated"
    assert all(r.verdict in ("pass", "warn") for r in result.run.gate_reports)
    cert = _manifest(tmp_path)["metadata"]["readiness_certificate"]
    assert cert["records_quarantined"] == 0
    names = {c["contract"] for c in cert["contracts"]}
    assert names == {"climate-ingest", "climate-structure"}


def test_quarantine_policy_sheds_corrupt_records_and_degrades(tmp_path):
    qdir = tmp_path / "q"
    result = _run(CORRUPT, tmp_path, gates="quarantine", quarantine_dir=qdir)
    assert result.run.degraded
    assert result.run.records_quarantined == 1
    # the degraded status reaches the summary, and the totals row flags the run
    assert result.run.to_summary()["download"]["status"] == "degraded"
    assert result.run.summary_table().rstrip().splitlines()[-1].endswith("degraded")
    assert (qdir / QUARANTINE_NAME).exists()
    store = QuarantineStore(qdir)
    entries = store.entries()
    assert len(entries) == 1
    assert entries[0]["contract"] == "climate-ingest"
    assert entries[0]["stage"] == "download"
    # the quarantined payload is durably recoverable by its fingerprint
    record = store.load_record(str(entries[0]["record_fingerprint"]))
    assert type(record).__name__ == "GriddedSource"
    cert = _manifest(tmp_path)["metadata"]["readiness_certificate"]
    assert cert["status"] == "degraded"
    assert cert["records_quarantined"] == 1


@pytest.mark.parametrize("first_run, recover", [
    ("crash-at=stage:1:post", False),  # the resume restores the gated stage
    ("corrupt-checkpoint=0", True),  # recovery discards it: the gate runs again
], ids=["restored-gate", "re-executed-gate"])
def test_resumed_gated_run_certifies_and_logs_each_record_once(tmp_path, first_run, recover):
    qdir, ckpt = tmp_path / "q", tmp_path / "ckpt"
    gated = dict(gates="quarantine", quarantine_dir=qdir, checkpoint_dir=ckpt)
    try:
        _run(CORRUPT, tmp_path, fault_injector=FaultInjector(FaultSpec.parse(first_run)), **gated)
    except SimulatedCrash:
        pass
    report = recover_run(ckpt, shards_dir=tmp_path / "work" / "shards") if recover else None
    result = _run(CORRUPT, tmp_path, resume=True, recovery_report=report, **gated)
    assert result.run.results[0].restored is not recover
    assert len((qdir / QUARANTINE_NAME).read_bytes().splitlines()) == 1
    cert = _manifest(tmp_path)["metadata"]["readiness_certificate"]
    assert cert["status"] == "degraded" and cert["records_quarantined"] == 1


def test_fail_policy_aborts_with_gate_report(tmp_path):
    with pytest.raises(PipelineError) as exc:
        _run(CORRUPT, tmp_path, gates="fail")
    report = exc.value.gate_report
    assert report.verdict == "fail"
    assert report.contract == "climate-ingest"


def test_warn_policy_defers_the_failure_downstream(tmp_path):
    """``warn`` never blocks *at the gate* — the corrupt records pass
    through with a recorded warning, and it is the stack stage's own
    internal validation (not a gate) that rejects the NaNs later."""
    from repro.core.runner import RunEventKind

    with pytest.raises(PipelineError) as exc:
        _run(CORRUPT, tmp_path, gates="warn")
    assert exc.value.stage_name == "stack"
    assert not hasattr(exc.value, "gate_report")
    kinds = [e.kind for e in exc.value.events]
    assert RunEventKind.GATE_WARNED in kinds
    assert RunEventKind.GATE_FAILED not in kinds


def test_failed_gate_keeps_the_stages_fault_telemetry():
    """A stage that retried through injected faults and then failed its
    output contract still reports those faults (they used to be dropped)."""
    import numpy as np

    from repro.core.dataset import Dataset
    from repro.core.levels import DataProcessingStage
    from repro.core.plan import PipelineStage, StagePlan
    from repro.core.runner import PipelineRunner
    from repro.faults import RetryPolicy, VirtualClock
    from repro.gates import ColumnCheck, StageContract
    from repro.obs import Telemetry

    def poison(payload, ctx):
        ctx.backend.map(lambda x: x, range(8))  # faults here heal by task retry
        return Dataset.from_arrays({"x": np.array([1.0, np.nan])})

    stage = PipelineStage(
        "poison", DataProcessingStage.INGEST, poison,
        output_contract=StageContract(name="finite-x", checks=(ColumnCheck("finite", "x"),)),
    )
    clock = VirtualClock()
    injector = FaultInjector(FaultSpec(seed=7, transient_rate=0.3), clock=clock)
    telemetry = Telemetry()
    runner = PipelineRunner(
        StagePlan.build("p", [stage]), gates="fail", telemetry=telemetry,
        fault_injector=injector, fault_clock=clock,
        retry_policy=RetryPolicy(max_attempts=6, seed=7),
    )
    with pytest.raises(PipelineError) as exc:
        runner.run(np.ones(2))
    assert exc.value.gate_report.verdict == "fail"
    injected = injector.counts()["transient"]
    assert injected >= 1
    value = telemetry.metrics.value
    assert value("faults_injected_total", pipeline="p", kind="transient") == injected
    (span,) = telemetry.tracer.find("stage:poison")
    names = [e["name"] for e in span.events]
    assert names.count("fault_injected") == injected and "gate" in names
    assert span.status.value == "error"
