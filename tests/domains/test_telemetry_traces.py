"""Acceptance: every domain pipeline produces a complete, parity-true trace.

The telemetry acceptance contract of the observability subsystem: all
four domain archetypes run with a :class:`~repro.obs.Telemetry` attached
produce a trace in which every executed stage has a span with nonzero
duration and item/byte throughput, the backends record logical work
counts, domain stages attach domain attributes, and serial/threaded/
simspmd/process traces agree on those logical counts.
"""

import pytest

from repro.core.backends import get_backend
from repro.domains import (
    BioArchetype,
    ClimateArchetype,
    FusionArchetype,
    MaterialsArchetype,
)
from repro.domains.bio.synthetic import BioSourceConfig
from repro.domains.climate.synthetic import ClimateSourceConfig
from repro.domains.fusion.synthetic import FusionCampaignConfig
from repro.domains.materials.synthetic import MaterialsSourceConfig
from repro.obs import Telemetry
from repro.obs.tracing import SpanStatus

BACKEND_NAMES = ["serial", "threaded", "simspmd", "process"]
#: constructor options by backend name (the process pool stays small)
BACKEND_OPTIONS = {"process": {"workers": 2}}

ARCHETYPES = {
    "climate": (
        ClimateArchetype,
        {"config": ClimateSourceConfig(n_models=2, n_timesteps=12, seed=21)},
    ),
    "fusion": (
        FusionArchetype,
        {"config": FusionCampaignConfig(n_shots=10, seed=21)},
    ),
    "bio": (
        BioArchetype,
        {"config": BioSourceConfig(n_subjects=40, sequence_length=128, seed=21)},
    ),
    "materials": (
        MaterialsArchetype,
        {"config": MaterialsSourceConfig(n_structures=60, seed=21)},
    ),
}

DOMAIN_SPAN_ATTRS = {
    "climate": "patches_regridded",
    "fusion": "shots_aligned",
    "bio": "records_anonymized",
    "materials": "structures_encoded",
}


def run_traced(domain, tmp_path, backend="serial"):
    cls, kwargs = ARCHETYPES[domain]
    telemetry = Telemetry()
    result = cls(seed=21, **kwargs).run(tmp_path, backend=backend, telemetry=telemetry)
    return result, telemetry


@pytest.mark.parametrize("domain", sorted(ARCHETYPES))
def test_every_executed_stage_has_a_complete_span(domain, tmp_path):
    result, telemetry = run_traced(domain, tmp_path)
    run = result.run
    tracer = telemetry.tracer
    pipeline = run.pipeline_name
    (root,) = tracer.find(f"run:{pipeline}")
    assert root.status is SpanStatus.OK
    assert root.parent_id is None
    for stage_result in run.results:
        (span,) = tracer.find(f"stage:{stage_result.stage_name}")
        assert span.parent_id == root.span_id
        assert span.status is SpanStatus.OK
        assert span.duration_s > 0
        assert span.attributes["items"] > 0
        assert span.attributes["bytes"] > 0
        assert span.attributes["items_per_s"] > 0
        assert span.attributes["bytes_per_s"] > 0
        hist = telemetry.metrics.get(
            "stage_seconds", pipeline=pipeline, stage=stage_result.stage_name
        )
        assert hist is not None and hist.count == 1


@pytest.mark.parametrize("domain", sorted(ARCHETYPES))
def test_backend_work_is_counted(domain, tmp_path):
    _, telemetry = run_traced(domain, tmp_path)
    snapshot = telemetry.metrics.snapshot()
    task_rows = [r for r in snapshot if r["name"] == "backend_tasks_total"]
    assert task_rows, "domain pipeline recorded no backend task counters"
    assert sum(r["value"] for r in task_rows) > 0
    map_tasks = sum(
        r["value"] for r in task_rows if dict(r["labels"]).get("op") == "map"
    )
    # stages that fan out through backend.map also get per-task spans
    assert len(telemetry.tracer.find("backend.task")) == map_tasks


@pytest.mark.parametrize("domain", sorted(ARCHETYPES))
def test_domain_attributes_attached(domain, tmp_path):
    _, telemetry = run_traced(domain, tmp_path)
    attr = DOMAIN_SPAN_ATTRS[domain]
    annotated = [
        s for s in telemetry.tracer.spans() if attr in s.attributes
    ]
    assert annotated, f"no span carries the domain attribute {attr!r}"
    assert annotated[0].attributes[attr] > 0


def test_logical_work_counts_agree_across_backends(tmp_path):
    """The parity contract extends to telemetry on a full domain pipeline."""
    per_backend = {}
    for name in BACKEND_NAMES:
        backend = get_backend(name, **BACKEND_OPTIONS.get(name, {}))
        _, telemetry = run_traced("climate", tmp_path / name, backend=backend)
        counts = {}
        for row in telemetry.metrics.snapshot():
            if row["name"] not in ("backend_tasks_total", "stage_items_total"):
                continue
            labels = dict(row["labels"])
            labels.pop("backend", None)  # differs by construction
            counts[(row["name"], tuple(sorted(labels.items())))] = row["value"]
        per_backend[name] = counts
    assert all(per_backend[name] == per_backend["serial"] for name in BACKEND_NAMES)
    assert any(name == "backend_tasks_total" for name, _ in per_backend["serial"])
