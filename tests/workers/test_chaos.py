"""The process-backend chaos acceptance contract.

Seeded worker kills land mid-stage (real ``SIGKILL``, real respawns) and
the supervised backend still completes the climate and fusion pipelines
with shard files **bitwise identical** to a clean serial run — crash
recovery must be invisible in the output.  A poison task (one that kills
every worker it touches) is the exception that proves the rule: it is
dead-lettered under ``skip-degraded`` instead of looping forever.
"""

import numpy as np
import pytest

from repro.core.levels import DataProcessingStage
from repro.core.plan import PipelineError, PipelineStage, StagePlan
from repro.core.runner import PipelineRunner
from repro.domains import ClimateArchetype, FusionArchetype
from repro.domains.climate.synthetic import ClimateSourceConfig
from repro.domains.fusion.synthetic import FusionCampaignConfig
from repro.faults import FaultInjector, FaultSpec, PoisonTaskError
from repro.io.shards import MANIFEST_NAME

ARCHETYPES = {
    "climate": (
        ClimateArchetype,
        {"config": ClimateSourceConfig(n_models=2, n_timesteps=12, seed=21)},
    ),
    "fusion": (
        FusionArchetype,
        {"config": FusionCampaignConfig(n_shots=10, seed=21)},
    ),
}

# the schedule the CI proc-chaos-smoke job also runs: ~20% of task
# leases SIGKILL their worker on the first draw; every kill is
# re-leased and recovers (seed 3 never draws three in a row)
CHAOS = FaultSpec(seed=3, worker_kill_rate=0.2)


def _shard_bytes(directory):
    files = {p.name: p.read_bytes() for p in directory.glob("*.rps")}
    assert files, f"no shards under {directory}"
    return files


@pytest.mark.parametrize("domain", sorted(ARCHETYPES))
def test_worker_kill_chaos_is_bitwise_invisible(domain, tmp_path):
    cls, kwargs = ARCHETYPES[domain]
    clean = cls(seed=21, **kwargs).run(tmp_path / "clean", backend="serial")
    injector = FaultInjector(CHAOS)
    chaos = cls(seed=21, **kwargs).run(
        tmp_path / "chaos", backend="process", fault_injector=injector
    )

    # workers really died and were really respawned; kills at bracketed
    # sites happened inside a worker (lease re-queued), kills at op-level
    # sites fired in the parent and healed through stage-level retry
    kills = [f for f in injector.log if f.kind == "worker-kill"]
    task_kills = [f for f in kills if "[" in f.site]
    assert task_kills, "chaos schedule injected no in-worker kills"
    assert chaos.run.worker_counters["tasks_requeued"] == len(task_kills)
    assert chaos.run.worker_counters["worker_restarts"] >= 1
    assert chaos.run.worker_counters.get("poison_tasks", 0) == 0
    assert all(e.requeued for e in chaos.run.worker_crashes)
    assert not chaos.run.degraded
    assert len(chaos.run.dead_letters) == 0

    # ...invisibly: bitwise parity with the clean serial run
    clean_fps = [r.output_fingerprint for r in clean.run.results]
    chaos_fps = [r.output_fingerprint for r in chaos.run.results]
    assert chaos_fps == clean_fps, f"{domain} diverged under worker kills"
    assert chaos.dataset.fingerprint() == clean.dataset.fingerprint()
    assert _shard_bytes(tmp_path / "chaos" / "shards") == _shard_bytes(
        tmp_path / "clean" / "shards"
    )
    import json

    manifests = []
    for d in ("clean", "chaos"):
        blob = json.loads((tmp_path / d / "shards" / MANIFEST_NAME).read_text())
        blob["metadata"].pop("written_by_ranks")
        manifests.append(blob)
    assert manifests[0] == manifests[1]


def test_batched_worker_kill_chaos_is_bitwise_invisible(tmp_path):
    """Worker kills over a *batched* climate run change nothing on disk.

    The chaos process run executes the regrid stage through
    ``map_batches`` (chunks of 3 fields per lease) while the reference
    run is clean, serial, and per-record — crash recovery and batching
    together must still be invisible in shards and manifests.
    """
    cls, kwargs = ARCHETYPES["climate"]
    clean = cls(seed=21, **kwargs).run(tmp_path / "clean", backend="serial")
    # batching shrinks the lease count, so the per-record schedule's seed
    # draws no in-worker kill here; seed 11 lands one on a chunk lease
    injector = FaultInjector(FaultSpec(seed=11, worker_kill_rate=0.2))
    chaos = cls(seed=21, **kwargs).run(
        tmp_path / "chaos",
        backend="process",
        fault_injector=injector,
        batch_size=3,
    )

    kills = [f for f in injector.log if f.kind == "worker-kill"]
    task_kills = [f for f in kills if "[" in f.site]
    assert task_kills, "chaos schedule injected no in-worker kills"
    assert chaos.run.worker_counters["tasks_requeued"] == len(task_kills)
    assert not chaos.run.degraded
    assert len(chaos.run.dead_letters) == 0

    clean_fps = [r.output_fingerprint for r in clean.run.results]
    chaos_fps = [r.output_fingerprint for r in chaos.run.results]
    assert chaos_fps == clean_fps, "batched chaos run diverged"
    assert chaos.dataset.fingerprint() == clean.dataset.fingerprint()
    assert _shard_bytes(tmp_path / "chaos" / "shards") == _shard_bytes(
        tmp_path / "clean" / "shards"
    )
    import json

    manifests = []
    for d in ("clean", "chaos"):
        blob = json.loads((tmp_path / d / "shards" / MANIFEST_NAME).read_text())
        blob["metadata"].pop("written_by_ranks")
        manifests.append(blob)
    assert manifests[0] == manifests[1]


def test_poison_task_routes_to_dead_letter_under_skip_degraded(tmp_path):
    """The stage hosting a poison task degrades; the run does not loop."""

    def fan_out(payload, ctx):
        return np.asarray(ctx.backend.map(lambda x: x * 2, list(payload)))

    def finish(payload, ctx):
        return payload

    plan = StagePlan.build(
        "poisoned",
        [
            PipelineStage("fan", DataProcessingStage.INGEST, fan_out),
            PipelineStage("finish", DataProcessingStage.TRANSFORM, finish),
        ],
    )
    injector = FaultInjector(FaultSpec(seed=7, poison_sites=("map#0[4]",)))
    runner = PipelineRunner(
        plan,
        backend="process",
        fault_injector=injector,
        on_error="skip-degraded",
    )
    run = runner.run(np.arange(8.0))
    assert run.degraded
    assert run.results[0].degraded
    assert run.worker_counters["poison_tasks"] == 1
    letters = run.dead_letters.records
    assert len(letters) == 1
    assert letters[0].stage_name == "fan"
    assert letters[0].action == "degraded"
    assert letters[0].error_type == "PoisonTaskError"
    assert letters[0].fault_kind.value == "permanent"
    assert "proc-map#0[4]@3" in letters[0].error


def test_poison_task_fails_fast_by_default(tmp_path):
    """Without skip-degraded the poison error aborts the stage, attempt 1."""

    def fan_out(payload, ctx):
        return np.asarray(ctx.backend.map(lambda x: x * 2, list(payload)))

    plan = StagePlan.build(
        "poisoned",
        [PipelineStage("fan", DataProcessingStage.INGEST, fan_out)],
    )
    injector = FaultInjector(FaultSpec(seed=7, poison_sites=("map#0[4]",)))
    runner = PipelineRunner(plan, backend="process", fault_injector=injector)
    with pytest.raises(PipelineError) as info:
        runner.run(np.arange(8.0))
    assert isinstance(info.value.__cause__, PoisonTaskError)
    # permanent: the stage did not retry a task that murders workers
    assert info.value.dead_letters.records[0].attempts == 1
