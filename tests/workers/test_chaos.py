"""The process-backend chaos acceptance contract.

Seeded worker kills land mid-stage (real ``SIGKILL``, real respawns) and
the supervised backend still completes the climate and fusion pipelines
to artifacts **byte-identical** to a clean serial run (the parity oracle,
``tests/parity.py``, which also checks every in-worker kill was re-leased)
— crash recovery must be invisible in the output.  A poison task (one
that kills every worker it touches) is the exception that proves the
rule: the observer stage hosting it is dead-lettered and skipped instead
of looping forever.
"""

import numpy as np
import pytest

from repro.core.levels import DataProcessingStage
from repro.core.plan import PipelineError, PipelineStage, StagePlan
from repro.core.runner import PipelineRunner
from repro.faults import FaultInjector, FaultSpec, PoisonTaskError
from tests.parity import IN_WORKER_KILL, Config, assert_parity, faults_fired

# the schedule the CI proc-chaos-smoke job also runs: ~20% of task
# leases SIGKILL their worker on the first draw; every kill is
# re-leased and recovers (seed 3 never draws three in a row)
CHAOS = Config(backend="process", workers=3, faults="seed=3,kill-rate=0.2")


@pytest.mark.parametrize("domain", ["climate", "fusion"])
def test_worker_kill_chaos_is_bitwise_invisible(domain):
    # the oracle holds tasks_requeued == in-worker kills and a respawn per
    # kill; the schedule must really kill inside a worker for that to bite
    assert_parity(domain, Config(), CHAOS)
    assert faults_fired(domain, CHAOS)[IN_WORKER_KILL], "no worker died"


def test_batched_worker_kill_chaos_is_bitwise_invisible():
    """Worker kills over a *batched* climate run (chunks of 3 fields per
    lease) change nothing on disk either.  Batching shrinks the lease
    count, so the per-record seed draws no kill here; seed 11 does."""
    batched = Config(backend="process", workers=3, batch_size=3, faults="seed=11,kill-rate=0.2")
    assert_parity("climate", Config(), batched)
    assert faults_fired("climate", batched)[IN_WORKER_KILL], "no worker died"


def test_poison_task_routes_to_dead_letter_on_a_retry_stage(tmp_path):
    """A stage that declares ``retry`` hosting a poison task fails at its first
    attempt, dead-lettered; the run does not loop."""

    def fan_out(payload, ctx):
        return np.asarray(ctx.backend.map(lambda x: x * 2, list(payload)))

    def finish(payload, ctx):
        return payload

    plan = StagePlan.build(
        "poisoned",
        [
            PipelineStage("fan", DataProcessingStage.INGEST, fan_out, retry=True),
            PipelineStage("finish", DataProcessingStage.TRANSFORM, finish),
        ],
    )
    injector = FaultInjector(FaultSpec(seed=7, poison_sites=("map#0[4]",)))
    runner = PipelineRunner(plan, backend="process", fault_injector=injector)
    with pytest.raises(PipelineError, match="stage 'fan' failed") as info:
        runner.run(np.arange(8.0))
    assert info.value.worker_counters["poison_tasks"] == 1
    letters = info.value.dead_letters.records
    assert len(letters) == 1
    assert letters[0].stage_name == "fan"
    assert letters[0].attempts == 1
    assert letters[0].action == "failed"
    assert letters[0].error_type == "PoisonTaskError"
    assert letters[0].fault_kind.value == "permanent"
    assert "proc-map#0[4]@3" in letters[0].error


def test_poison_task_fails_fast_by_default(tmp_path):
    """A stage that is no observer: the poison error aborts it, attempt 1."""

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
