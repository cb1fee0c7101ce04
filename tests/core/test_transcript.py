"""Frozen run transcripts: the runner's several records tell one story.

Each scenario drives :class:`PipelineRunner` with a fixed seed, a pinned
event ``clock`` and a :class:`VirtualClock`, then reduces everything the
run recorded — run events, audit trail, spans, metrics — to a
wall-clock-free transcript and compares it with a golden file under
``goldens/transcript/``.  The goldens were generated at commit b9893f9
(the last commit with the monolithic ``_run_impl``) by running this file
as a script, so they pin the lifecycle refactor to the old behaviour;
``disk-chaos`` was generated the same way at d92d17b (the last commit with
two fault injectors and the runner's private retry loop), and ``chaos`` was
re-frozen when the observer-degrade mode went (its QC stage now heals by
retry instead of being skipped).  Never regenerate one to make a test pass.

Two properties ride along: an untraced run emits the same event stream as
a traced one, and every ``RUN_STARTED`` is followed by exactly one
terminal event, whichever way the run fails.
"""

import collections
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.core.levels import DataProcessingStage
from repro.core.plan import PipelineError, PipelineStage, StagePlan
from repro.core.runner import PipelineContext, PipelineRunner, RunEventKind
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
from repro.durability.checkpoint import CheckpointError
from repro.faults import FaultInjector, FaultSpec, RetryPolicy, VirtualClock
from repro.obs import Telemetry
from repro.provenance.store import ProvenanceStore
from repro.workers import DrainController, DrainInterrupt

GOLDENS = Path(__file__).parent / "goldens" / "transcript"
S = DataProcessingStage
K = RunEventKind
TERMINAL = {K.RUN_COMPLETED, K.RUN_FAILED, K.RUN_INTERRUPTED}

ARCHETYPES = {
    "climate": (ClimateArchetype, ClimateSourceConfig(n_models=2, n_timesteps=12, seed=21)),
    "fusion": (FusionArchetype, FusionCampaignConfig(n_shots=10, seed=21)),
    "bio": (BioArchetype, BioSourceConfig(n_subjects=40, sequence_length=128, seed=21)),
    "materials": (MaterialsArchetype, MaterialsSourceConfig(n_structures=60, seed=21)),
}

#: worker-side supervision that depends on scheduling, not on the seed
_UNSTABLE_METRICS = {"worker_restarts_total", "leases_expired_total"}


def transcript(events, context, telemetry, injector=None):
    """Everything one run recorded, minus wall-clock values and ids (plus,
    given the run's *injector*, its fault log in order)."""
    spans = collections.Counter(
        (
            span.name,
            tuple(sorted(span.attributes)),
            span.status.value,
            tuple(e["name"] for e in span.events),
        )
        for span in telemetry.tracer.spans()
    )
    metrics = []
    for row in telemetry.metrics.snapshot():
        if row["name"] in _UNSTABLE_METRICS:
            continue
        value = {"counter": row.get("value"), "histogram": row.get("count")}.get(row["kind"])
        metrics.append([row["name"], row["kind"], sorted(row["labels"].items()), value])
    faults = {} if injector is None else {
        "faults": [[f.kind, f.site, f.attempt, f.detail] for f in injector.log]
    }
    return json.loads(json.dumps({
        "events": event_rows(events),
        "audit": [[a.action, a.subject, sorted(a.detail)] for a in context.audit],
        "spans": [[*key, count] for key, count in sorted(spans.items())],
        "metrics": metrics,
        **faults,
    }))


def event_rows(events):
    return [
        [e.kind.value, e.stage_index, e.stage_name, e.fingerprint, e.detail, e.timestamp]
        for e in events
    ]


def archetype_run(domain, work, *, config=None, patch=None, context=None, resume=False,
                  **options):
    """What ``DomainArchetype.run`` does, with the runner in our hands.

    Returns ``(events, context, telemetry)``; a failed run's events come
    off the exception.  ``work`` is relative (the tests chdir into
    ``tmp_path``) because source manifests embed their paths, and so do
    the fingerprints derived from them.
    """
    cls, default = ARCHETYPES[domain]
    archetype = cls(seed=21, config=config or default)
    (work / "source").mkdir(parents=True, exist_ok=True)
    source = archetype.synthesize_source(work / "source")
    plan = archetype.build_pipeline(work / "shards").plan
    if patch is not None:
        plan = patch(plan)
    context = context or PipelineContext(agent=f"{domain}-pipeline")
    return drive(plan, source, context, resume=resume, **options)


def drive(plan, payload, context, *, resume=False, **options):
    runner = PipelineRunner(plan, clock=lambda: 1000.0, **options)
    try:
        events = runner.run(payload, context, resume=resume).events
    except (PipelineError, CheckpointError, DrainInterrupt) as exc:
        events = exc.events
    return events, context, options.get("telemetry")


def failing(message):
    def fn(payload, ctx):
        raise RuntimeError(message)

    return fn


# -- the scenarios: each takes a telemetry factory (``Telemetry`` or one
# -- returning None) and returns {golden name: (events, context, telemetry)}

CORRUPT = ClimateSourceConfig(n_models=2, n_timesteps=12, seed=21, n_corrupt_models=1)


def clean(domain):
    return lambda telemetry: {
        f"clean-{domain}": archetype_run(domain, Path("work"), telemetry=telemetry())
    }


def gated_quarantine(telemetry):
    return {
        "gated": archetype_run(
            "climate", Path("work"), config=CORRUPT, telemetry=telemetry(),
            gates="quarantine", quarantine_dir=Path("quarantine"),
        )
    }


def chaos_healed(telemetry):
    """Injected task and torn-shard faults heal through retries, and so does
    an extra QC stage that loses its node twice before it hands its input on."""

    def add_flaky_qc(plan):
        lost = []

        def qc(payload, ctx):
            if len(lost) < 2:
                lost.append(1)
                raise TimeoutError("qc node lost")
            return payload

        stage = PipelineStage("qc", S.TRANSFORM, qc, retry=True)
        at = plan.index_of("normalize") + 1
        return StagePlan.build(plan.name, [*plan.stages[:at], stage, *plan.stages[at:]])

    clock = VirtualClock()
    injector = FaultInjector(
        FaultSpec(seed=7, transient_rate=0.2, torn_shards=1), clock=clock
    )
    return {
        "chaos": archetype_run(
            "climate", Path("work"), patch=add_flaky_qc, telemetry=telemetry(),
            fault_injector=injector, fault_clock=clock,
            retry_policy=RetryPolicy(max_attempts=4, seed=7),
        )
    }


def disk_chaos(telemetry):
    """Task, torn-shard and disk faults from one spec heal through retries:
    the one golden with ``disk-*`` kinds, and with the injector's log — the
    order of disk faults relative to task faults."""
    clock = VirtualClock()
    spec = "seed=7,rate=0.2,torn-shards=1,eio=manifest:0,enospc=shard:1"
    injector = FaultInjector(FaultSpec.parse(spec), clock=clock)
    run = archetype_run(
        "climate", Path("work"), telemetry=telemetry(), checkpoint_dir=Path("ckpt"),
        fault_injector=injector, fault_clock=clock,
        retry_policy=RetryPolicy(max_attempts=4, seed=7),
    )
    return {"disk-chaos": (*run, injector)}


def resume_after_failure(telemetry):
    def evict_stack(plan):
        plan.stages[plan.index_of("stack")].fn = failing("node evicted mid-structure")
        return plan

    def attempt(**kwargs):
        context = PipelineContext(
            agent="climate-pipeline", provenance_store=ProvenanceStore(Path("prov.jsonl"))
        )
        return archetype_run(
            "climate", Path("work"), context=context, telemetry=telemetry(),
            checkpoint_dir=Path("ckpt"), **kwargs,
        )

    return {"resume-failed": attempt(patch=evict_stack), "resume-resumed": attempt(resume=True)}


#: a seed whose schedule SIGKILLs exactly one worker mid-lease
KILL_SEED = 2


def process_worker_kill(telemetry):
    def fan(payload, ctx):
        return np.asarray(ctx.backend.map(lambda x: x * 2.0, list(payload)))

    def total(payload, ctx):
        return np.asarray([payload.sum()])

    plan = StagePlan.build("synthetic", [
        PipelineStage("fan", S.TRANSFORM, fan),
        PipelineStage("total", S.STRUCTURE, total),
    ])
    injector = FaultInjector(FaultSpec(seed=KILL_SEED, worker_kill_rate=0.15))
    return {
        "process-kill": drive(
            plan, np.arange(8.0), PipelineContext(agent="synthetic"),
            telemetry=telemetry(), backend="process", fault_injector=injector,
        )
    }


SCENARIOS = {
    **{f"clean-{domain}": clean(domain) for domain in ARCHETYPES},
    "gated": gated_quarantine,
    "chaos": chaos_healed,
    "disk-chaos": disk_chaos,
    "resume": resume_after_failure,
    "process-kill": process_worker_kill,
}


def golden(name):
    return json.loads((GOLDENS / f"{name}.json").read_text())


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_traced_run_matches_frozen_transcript(scenario, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, run in SCENARIOS[scenario](Telemetry).items():
        assert transcript(*run) == golden(name), name


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_untraced_run_emits_the_traced_event_stream(scenario, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, (events, *_) in SCENARIOS[scenario](lambda: None).items():
        assert json.loads(json.dumps(event_rows(events))) == golden(name)["events"], name


# -- every RUN_STARTED is followed by exactly one terminal event -----------------


def failed_gate(tmp_path):
    return archetype_run("climate", tmp_path / "work", config=CORRUPT, gates="fail")


def failed_stage(tmp_path):
    plan = StagePlan.build("p", [PipelineStage("boom", S.INGEST, failing("boom"))])
    return drive(plan, np.ones(2), PipelineContext())


def boundary_drain(tmp_path):
    drain = DrainController()
    plan = StagePlan.build("p", [
        PipelineStage("a", S.INGEST, lambda payload, ctx: payload * 2),
        PipelineStage("b", S.TRANSFORM, lambda payload, ctx: payload * 2),
    ])
    return drive(
        plan, np.ones(2), PipelineContext(), drain=drain,
        on_event=lambda e: e.kind is K.STAGE_COMPLETED and drain.request("test drain"),
    )


def failed_restore(tmp_path):
    """The checkpoint verifies, but its payload is unknown to the attached
    provenance store: ``_restore`` refuses after the run has started."""
    plan = StagePlan.build("p", [
        PipelineStage("a", S.INGEST, lambda payload, ctx: payload * 2),
        PipelineStage("b", S.TRANSFORM, failing("boom")),
    ])
    drive(plan, np.ones(2), PipelineContext(), checkpoint_dir=tmp_path / "ckpt")
    stranger = PipelineContext(provenance_store=ProvenanceStore(tmp_path / "other.jsonl"))
    return drive(plan, np.ones(2), stranger, checkpoint_dir=tmp_path / "ckpt", resume=True)


@pytest.mark.parametrize(
    "fail, terminal",
    [
        (failed_gate, K.RUN_FAILED),
        (failed_stage, K.RUN_FAILED),
        (boundary_drain, K.RUN_INTERRUPTED),
        (failed_restore, K.RUN_FAILED),
    ],
)
def test_every_run_started_has_exactly_one_terminal_event(fail, terminal, tmp_path):
    events, _, _ = fail(tmp_path)
    kinds = [e.kind for e in events]
    assert kinds[0] is K.RUN_STARTED and kinds.count(K.RUN_STARTED) == 1
    assert [k for k in kinds if k in TERMINAL] == [terminal]
    assert kinds[-1] is terminal


if __name__ == "__main__":  # regenerate the goldens (parent commit only)
    import tempfile

    GOLDENS.mkdir(parents=True, exist_ok=True)
    for scenario in SCENARIOS.values():
        os.chdir(tempfile.mkdtemp())
        for name, run in scenario(Telemetry).items():
            (GOLDENS / f"{name}.json").write_text(
                json.dumps(transcript(*run), indent=1) + "\n"
            )
