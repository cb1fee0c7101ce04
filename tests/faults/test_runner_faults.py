"""Engine-level fault tolerance: stage retries, deadlines, dead letters, quarantine."""

import numpy as np
import pytest

from repro.core.levels import DataProcessingStage
from repro.core.plan import PipelineError, PipelineStage, StagePlan
from repro.core.runner import PipelineRunner, RunEventKind
from repro.durability.checkpoint import RunCheckpointer
from repro.durability.fsfaults import SimulatedCrash
from repro.faults import RetryPolicy, StageTimeoutError
from repro.faults import FaultInjector, FaultSpec, VirtualClock
from repro.obs import Telemetry
from repro.workers import DrainInterrupt

S = DataProcessingStage


def doubler(payload, ctx):
    return payload * 2


def flaky_fn(failures, exc_type=TimeoutError):
    """A stage fn that raises *failures* times, then succeeds."""
    calls = []

    def fn(payload, ctx):
        calls.append(1)
        if len(calls) <= failures:
            raise exc_type(f"flake #{len(calls)}")
        return payload * 2

    fn.calls = calls
    return fn


class TestStageRetry:
    def test_transient_stage_failure_retried_to_success(self):
        clock = VirtualClock()
        fn = flaky_fn(2)
        plan = StagePlan.build("p", [
            PipelineStage("a", S.INGEST, doubler),
            PipelineStage("flaky", S.TRANSFORM, fn),
        ])
        runner = PipelineRunner(
            plan,
            retry_policy=RetryPolicy(max_attempts=3, jitter=0.0),
            fault_clock=clock,
        )
        run = runner.run(np.ones(3))
        np.testing.assert_array_equal(run.payload, np.ones(3) * 4)
        assert len(fn.calls) == 3
        assert run.results[1].attempts == 3
        assert run.total_retries == 2
        retried = [e for e in run.events if e.kind is RunEventKind.STAGE_RETRIED]
        assert [e.stage_name for e in retried] == ["flaky", "flaky"]
        assert "retrying in" in retried[0].detail
        # backoff was simulated on the injected clock, never wall-slept
        assert clock.slept == [0.05, 0.1]
        assert not run.degraded
        assert len(run.dead_letters) == 0

    def test_permanent_failure_is_not_retried(self):
        fn = flaky_fn(5, exc_type=ValueError)
        plan = StagePlan.build("p", [PipelineStage("broken", S.INGEST, fn)])
        runner = PipelineRunner(
            plan,
            retry_policy=RetryPolicy(max_attempts=4),
            fault_clock=VirtualClock(),
        )
        with pytest.raises(PipelineError) as info:
            runner.run(np.ones(2))
        assert len(fn.calls) == 1  # permanent: one attempt only
        letters = info.value.dead_letters.records
        assert len(letters) == 1
        assert letters[0].action == "failed"
        assert letters[0].fault_kind.value == "permanent"
        assert letters[0].error_type == "ValueError"

    def test_exhausted_retries_dead_letter_carries_input_fingerprint(self):
        fn = flaky_fn(10)
        plan = StagePlan.build("p", [
            PipelineStage("a", S.INGEST, doubler),
            PipelineStage("doomed", S.TRANSFORM, fn),
        ])
        runner = PipelineRunner(
            plan,
            retry_policy=RetryPolicy(max_attempts=3, jitter=0.0),
            fault_clock=VirtualClock(),
        )
        with pytest.raises(PipelineError) as info:
            runner.run(np.ones(2))
        assert len(fn.calls) == 3
        record = info.value.dead_letters.records[0]
        assert record.attempts == 3
        # the dead letter names the payload that failed: stage a's output
        clean = PipelineRunner(
            StagePlan.build("p", [PipelineStage("a", S.INGEST, doubler)])
        ).run(np.ones(2))
        assert record.input_fingerprint == clean.results[0].output_fingerprint
        rendered = info.value.dead_letters.render()
        assert "doomed" in rendered and "failed" in rendered
        failed = [e for e in info.value.events if e.kind is RunEventKind.STAGE_FAILED]
        assert "(after 3 attempts)" in failed[0].detail

    def test_per_stage_policy_overrides_run_default(self):
        def run(**budget):
            plan = StagePlan.build("p", [
                PipelineStage("flaky", S.INGEST, flaky_fn(2), retry=True)
            ])
            return PipelineRunner(plan, fault_clock=VirtualClock(), **budget).run(np.ones(2))

        # no run budget: the stage's retry declaration retries on the default policy
        assert run().results[0].attempts == RetryPolicy().max_attempts == 3
        # ... and the run's budget bounds it
        with pytest.raises(PipelineError, match="flake #2"):
            run(retry_policy=RetryPolicy(max_attempts=2, jitter=0.0))

    def test_no_policy_means_fail_fast(self):
        fn = flaky_fn(1)
        plan = StagePlan.build("p", [PipelineStage("flaky", S.INGEST, fn)])
        with pytest.raises(PipelineError):
            PipelineRunner(plan).run(np.ones(2))
        assert len(fn.calls) == 1

    def test_stage_backoff_is_the_policy_schedule_keyed_by_plan_and_stage(self):
        clock = VirtualClock()
        policy = RetryPolicy(max_attempts=4, seed=7)  # jittered: the key matters
        plan = StagePlan.build("p", [PipelineStage("flaky", S.INGEST, flaky_fn(3))])
        run = PipelineRunner(plan, retry_policy=policy, fault_clock=clock).run(np.ones(2))
        assert run.results[0].attempts == 4
        assert clock.slept == policy.delays(key="p:flaky") != policy.delays(key="")

    @pytest.mark.parametrize("exc_type", [DrainInterrupt, SimulatedCrash])
    def test_drain_and_crash_pass_straight_through_the_retry_loop(self, exc_type):
        fn = flaky_fn(1, exc_type=exc_type)
        plan = StagePlan.build("p", [
            PipelineStage("stopped", S.INGEST, fn, retry=True)
        ])
        events = []
        runner = PipelineRunner(
            plan, retry_policy=RetryPolicy(max_attempts=4), fault_clock=VirtualClock(),
            on_event=events.append,
        )
        with pytest.raises(exc_type):
            runner.run(np.ones(2))
        assert len(fn.calls) == 1
        kinds = {e.kind for e in events}
        assert not kinds & {RunEventKind.STAGE_RETRIED, RunEventKind.STAGE_DEGRADED}


class TestStageTimeout:
    def test_blown_budget_fails_even_when_fn_succeeds(self):
        clock = VirtualClock()

        def slow(payload, ctx):
            clock.advance(5.0)  # stage "takes" 5 virtual seconds
            return payload

        plan = StagePlan.build("p", [PipelineStage("slow", S.INGEST, slow)])
        runner = PipelineRunner(
            plan,
            retry_policy=RetryPolicy(max_attempts=5),
            stage_timeout=1.0,
            fault_clock=clock,
        )
        with pytest.raises(PipelineError, match="exceeded its 1s budget"):
            runner.run(np.ones(2))

    def test_timeout_is_not_retried(self):
        clock = VirtualClock()
        calls = []

        def slow(payload, ctx):
            calls.append(1)
            clock.advance(5.0)
            return payload

        plan = StagePlan.build("p", [PipelineStage("slow", S.INGEST, slow)])
        runner = PipelineRunner(
            plan,
            retry_policy=RetryPolicy(max_attempts=5),
            stage_timeout=1.0,
            fault_clock=clock,
        )
        with pytest.raises(PipelineError) as info:
            runner.run(np.ones(2))
        assert len(calls) == 1
        assert info.value.dead_letters.records[0].error_type == "StageTimeoutError"

    @pytest.mark.parametrize("stage_timeout", [None, 60.0])
    def test_timeout_raised_inside_the_stage_is_not_retried(self, stage_timeout):
        # the preemptive-backend case: a lease is killed and the stage body
        # raises StageTimeoutError while the runner's own deadline (if it
        # has one) is nowhere near expired
        fn = flaky_fn(1, exc_type=StageTimeoutError)
        plan = StagePlan.build("p", [PipelineStage("slow", S.INGEST, fn)])
        runner = PipelineRunner(
            plan, retry_policy=RetryPolicy(max_attempts=5), stage_timeout=stage_timeout,
            fault_clock=VirtualClock(),
        )
        with pytest.raises(PipelineError) as info:
            runner.run(np.ones(2))
        assert len(fn.calls) == 1
        assert info.value.dead_letters.records[0].attempts == 1

    def test_deadline_shorter_than_the_backoff_clamps_the_sleep(self):
        clock = VirtualClock()

        def flaky(payload, ctx):
            clock.advance(0.5)
            raise TimeoutError("flake")

        plan = StagePlan.build("p", [PipelineStage("flaky", S.INGEST, flaky)])
        runner = PipelineRunner(
            plan, retry_policy=RetryPolicy(max_attempts=5, base_delay=10.0, jitter=0.0),
            stage_timeout=2.0, fault_clock=clock,
        )
        with pytest.raises(PipelineError) as info:
            runner.run(np.ones(2))
        # one 10 s backoff clamped to the 1.5 s left; then the budget is gone
        assert clock.slept == [1.5]
        assert info.value.dead_letters.records[0].attempts == 2

    def test_fast_stage_within_budget_passes(self):
        plan = StagePlan.build("p", [PipelineStage("a", S.INGEST, doubler)])
        runner = PipelineRunner(
            plan, stage_timeout=60.0, fault_clock=VirtualClock()
        )
        run = runner.run(np.ones(2))
        assert run.results[0].attempts == 1


class TestCheckpointHardening:
    def test_checkpoint_saves_are_atomic(self, tmp_path):
        plan = StagePlan.build("p", [
            PipelineStage("a", S.INGEST, doubler),
            PipelineStage("b", S.TRANSFORM, doubler),
        ])
        PipelineRunner(plan, checkpoint_dir=tmp_path).run(np.ones(2))
        leftovers = list(tmp_path.glob("*.tmp"))
        assert leftovers == []
        assert sorted(p.name for p in tmp_path.glob("*.snap"))

    @pytest.mark.parametrize("op, what", [(0, "run begin"), (3, "run commit")])
    def test_a_failed_run_level_journal_append_is_a_failed_run(self, tmp_path, op, what):
        plan = StagePlan.build("p", [
            PipelineStage("a", S.INGEST, doubler),
            PipelineStage("b", S.TRANSFORM, doubler),
        ])
        injector = FaultInjector(FaultSpec.parse(f"eio=journal:{op}"))  # begin, a, b, run
        with pytest.raises(PipelineError, match=f"^{what} failed: .*injected eio") as info:
            PipelineRunner(plan, checkpoint_dir=tmp_path, fault_injector=injector).run(np.ones(2))
        assert info.value.events[-1].kind is RunEventKind.RUN_FAILED
        run = PipelineRunner(plan, checkpoint_dir=tmp_path).run(np.ones(2), resume=True)
        np.testing.assert_array_equal(run.payload, np.ones(2) * 4)
        assert RunCheckpointer(tmp_path).journal.last_run().run_committed

    def test_retry_spans_carry_events(self):
        telemetry = Telemetry()
        fn = flaky_fn(1)
        plan = StagePlan.build("p", [PipelineStage("flaky", S.INGEST, fn)])
        PipelineRunner(
            plan,
            retry_policy=RetryPolicy(max_attempts=2, jitter=0.0),
            fault_clock=VirtualClock(),
            telemetry=telemetry,
        ).run(np.ones(2))
        spans = {s.name: s for s in telemetry.tracer.spans() if s.ended}
        events = spans["stage:flaky"].events
        assert [e["name"] for e in events] == ["retry"]
        assert events[0]["attempt"] == 1
        assert "TimeoutError" in events[0]["error"]
