"""Fault taxonomy, retry policies, deadlines: deterministic, never wall-sleeping."""

import pytest

from repro.faults import (
    Deadline,
    FaultKind,
    OnError,
    PermanentFaultError,
    RetryPolicy,
    RetryStats,
    StageTimeoutError,
    TransientFaultError,
    VirtualClock,
    call_with_retry,
    classify_fault,
    is_transient,
)


class TestClassification:
    @pytest.mark.parametrize("exc", [
        TimeoutError("t"), InterruptedError("i"), ConnectionError("c"),
        BlockingIOError("b"), TransientFaultError("x"), StageTimeoutError("d"),
        OSError("generic os failure"),
    ])
    def test_transient_types(self, exc):
        assert classify_fault(exc) is FaultKind.TRANSIENT
        assert is_transient(exc)

    @pytest.mark.parametrize("exc", [
        ValueError("v"), KeyError("k"), RuntimeError("r"),
        FileNotFoundError("f"), PermissionError("p"), IsADirectoryError("d"),
        PermanentFaultError("x"),
    ])
    def test_permanent_types(self, exc):
        assert classify_fault(exc) is FaultKind.PERMANENT
        assert not is_transient(exc)

    def test_explicit_transient_attribute_wins(self):
        exc = ValueError("flaky wire format")
        exc.transient = True
        assert classify_fault(exc) is FaultKind.TRANSIENT
        exc2 = TimeoutError("actually fatal")
        exc2.transient = False
        assert classify_fault(exc2) is FaultKind.PERMANENT

    def test_permanent_os_subclasses_beat_oserror_fallback(self):
        # FileNotFoundError IS an OSError, but is never worth retrying
        assert classify_fault(FileNotFoundError("gone")) is FaultKind.PERMANENT


class TestOnError:
    def test_coerce_accepts_enum_string_none(self):
        assert OnError.coerce(None) is OnError.FAIL
        assert OnError.coerce("retry") is OnError.RETRY
        assert OnError.coerce("skip-degraded") is OnError.SKIP_DEGRADED
        assert OnError.coerce(OnError.FAIL) is OnError.FAIL

    def test_coerce_rejects_unknown(self):
        with pytest.raises(ValueError):
            OnError.coerce("explode")


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)

    def test_delays_are_deterministic_functions_of_seed_and_key(self):
        a = RetryPolicy(max_attempts=4, seed=7).delays("climate:shard")
        b = RetryPolicy(max_attempts=4, seed=7).delays("climate:shard")
        assert a == b
        assert a != RetryPolicy(max_attempts=4, seed=8).delays("climate:shard")
        assert a != RetryPolicy(max_attempts=4, seed=7).delays("fusion:shard")

    def test_exponential_envelope_with_jitter_bounds(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay=0.1, multiplier=2.0, max_delay=0.5,
            jitter=0.1, seed=3,
        )
        for n, delay in enumerate(policy.delays("k"), start=1):
            raw = min(0.1 * 2.0 ** (n - 1), 0.5)
            assert raw * 0.9 <= delay <= raw * 1.1

    def test_zero_jitter_is_exact(self):
        policy = RetryPolicy(base_delay=0.05, multiplier=2.0, jitter=0.0,
                             max_attempts=3)
        assert policy.delays() == [0.05, 0.1]


class TestDeadline:
    def test_expiry_tracks_injected_clock(self):
        clock = VirtualClock()
        deadline = Deadline(1.0, clock=clock)
        assert not deadline.expired()
        clock.advance(0.6)
        assert deadline.remaining() == pytest.approx(0.4)
        clock.advance(0.6)
        assert deadline.expired()

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            Deadline(0.0)


class TestCallWithRetry:
    def test_transient_fault_retried_to_success(self):
        clock = VirtualClock()
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise TimeoutError("blip")
            return "done"

        outcome = call_with_retry(
            flaky, policy=RetryPolicy(max_attempts=3, jitter=0.0), clock=clock
        )
        assert outcome.value == "done"
        assert outcome.attempts == 3
        # backoff was simulated, not slept: 0.05 then 0.10
        assert clock.slept == [0.05, 0.1]
        assert outcome.total_delay == pytest.approx(0.15)

    def test_permanent_fault_not_retried(self):
        calls = []

        def broken():
            calls.append(1)
            raise ValueError("bad schema")

        with pytest.raises(ValueError):
            call_with_retry(
                broken, policy=RetryPolicy(max_attempts=5), clock=VirtualClock()
            )
        assert len(calls) == 1

    def test_exhausted_attempts_reraise_last_error(self):
        calls = []

        def always():
            calls.append(1)
            raise ConnectionError("down")

        with pytest.raises(ConnectionError):
            call_with_retry(
                always, policy=RetryPolicy(max_attempts=3), clock=VirtualClock()
            )
        assert len(calls) == 3

    def test_on_retry_callback_and_stats(self):
        stats = RetryStats()
        seen = []
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 2:
                raise TimeoutError("blip")
            return 42

        def on_retry(attempt, exc, delay):
            seen.append((attempt, type(exc).__name__))
            stats.record(type(exc).__name__)

        call_with_retry(
            flaky,
            policy=RetryPolicy(max_attempts=3),
            clock=VirtualClock(),
            on_retry=on_retry,
        )
        assert seen == [(1, "TimeoutError")]
        assert stats.snapshot() == {
            "retries": 1, "by_error": {"TimeoutError": 1},
        }

    def test_classify_hook_can_make_a_transient_fault_final(self):
        calls = []

        def always():
            calls.append(1)
            raise TimeoutError("budget blown")

        with pytest.raises(TimeoutError):
            call_with_retry(
                always, policy=RetryPolicy(max_attempts=5), clock=VirtualClock(),
                classify=lambda exc: FaultKind.PERMANENT,
            )
        assert len(calls) == 1

    def test_deadline_blocks_retry_and_clamps_delay(self):
        clock = VirtualClock()
        deadline = Deadline(0.08, clock=clock)

        def always():
            clock.advance(0.05)  # each attempt "takes" 50ms of virtual time
            raise TimeoutError("slow dependency")

        with pytest.raises(TimeoutError):
            call_with_retry(
                always,
                policy=RetryPolicy(max_attempts=10, base_delay=0.05, jitter=0.0),
                clock=clock,
                deadline=deadline,
            )
        # first retry's 0.05 backoff was clamped to the 0.03 remaining;
        # after it the deadline had expired, so no further attempts ran
        assert clock.slept == [pytest.approx(0.03)]
