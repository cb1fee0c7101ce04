"""Retry policies with deterministic backoff and injectable time.

A :class:`RetryPolicy` is pure data: attempt budget plus an exponential
backoff curve whose jitter is *seeded* — the delay for (seed, key,
attempt) is a pure function, so two runs of the same schedule back off
identically and tests can assert exact delays.  All waiting goes through
an injectable :class:`Clock`; production uses :class:`SystemClock`,
tests use :class:`VirtualClock` and never wall-sleep.

:func:`call_with_retry` is the one retry loop in the codebase — stage
retries (``PipelineRunner._execute``, which supplies the stage deadline
and a classifier that makes a blown budget final) and task retries
(``ExecutionBackend.run_task``) both run through it, so classification,
deadline budgets, and retry accounting behave identically at every layer.
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from repro.faults.errors import FaultKind, classify_fault

__all__ = [
    "Clock",
    "SystemClock",
    "VirtualClock",
    "RetryPolicy",
    "Deadline",
    "RetryStats",
    "RetryOutcome",
    "call_with_retry",
]


class Clock:
    """Injectable time source: a monotonic reading plus a sleep."""

    def monotonic(self) -> float:
        raise NotImplementedError

    def sleep(self, seconds: float) -> None:
        raise NotImplementedError


class SystemClock(Clock):
    """Real wall time (the production clock)."""

    def monotonic(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


class VirtualClock(Clock):
    """Simulated time: ``sleep`` advances instantly and is recorded.

    Thread-safe, so threaded backend workers can share one instance;
    ``slept`` keeps every requested delay in call order for assertions.
    """

    def __init__(self):
        self._now = 0.0
        self._lock = threading.Lock()
        self.slept: List[float] = []

    def monotonic(self) -> float:
        with self._lock:
            return self._now

    def sleep(self, seconds: float) -> None:
        with self._lock:
            self._now += max(float(seconds), 0.0)
            self.slept.append(float(seconds))

    def advance(self, seconds: float) -> None:
        """Move time forward without recording a sleep (elapsed work)."""
        with self._lock:
            self._now += float(seconds)


def _unit_draw(seed: int, key: str, attempt: int) -> float:
    """Deterministic uniform draw in [0, 1) for (seed, key, attempt)."""
    token = f"{seed}|{key}|{attempt}".encode()
    digest = hashlib.sha256(token).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Attempt budget + deterministic exponential backoff.

    ``max_attempts`` counts the first try: 3 means one try plus two
    retries.  The delay before retry *n* (1-based failed attempt) is
    ``base_delay * multiplier**(n-1)`` capped at ``max_delay``, then
    scaled by a seeded jitter factor in ``[1-jitter, 1+jitter]`` keyed by
    (seed, key, attempt) — deterministic, but decorrelated across sites
    so retrying ranks do not stampede in lockstep.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")

    def delay(self, attempt: int, key: str = "") -> float:
        """Backoff before retrying after failed attempt *attempt* (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt is 1-based, got {attempt}")
        raw = min(self.base_delay * self.multiplier ** (attempt - 1), self.max_delay)
        if self.jitter == 0.0 or raw == 0.0:
            return raw
        draw = _unit_draw(self.seed, key, attempt)
        return raw * (1.0 - self.jitter + 2.0 * self.jitter * draw)

    def delays(self, key: str = "") -> List[float]:
        """Every backoff delay this policy would use, in order."""
        return [self.delay(n, key) for n in range(1, self.max_attempts)]


class Deadline:
    """A wall-budget for one stage, measured on an injectable clock."""

    def __init__(self, budget_s: float, *, clock: Optional[Clock] = None):
        if budget_s <= 0:
            raise ValueError(f"budget must be positive, got {budget_s}")
        self.budget_s = float(budget_s)
        self._clock = clock or SystemClock()
        self._start = self._clock.monotonic()

    def elapsed(self) -> float:
        return self._clock.monotonic() - self._start

    def remaining(self) -> float:
        return self.budget_s - self.elapsed()

    def expired(self) -> bool:
        return self.remaining() <= 0.0


class RetryStats:
    """Thread-safe retry tally shared across backend workers.

    Backends record task retries here from worker threads; the runner
    reads deltas per stage and flushes them into the (single-writer)
    telemetry counters.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.retries = 0
        self.by_error: Dict[str, int] = {}

    def record(self, error_type: str) -> None:
        with self._lock:
            self.retries += 1
            self.by_error[error_type] = self.by_error.get(error_type, 0) + 1

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {"retries": self.retries, "by_error": dict(self.by_error)}


@dataclasses.dataclass
class RetryOutcome:
    """What one retried call did: the value plus its attempt accounting."""

    value: Any
    attempts: int
    total_delay: float = 0.0


def call_with_retry(
    fn: Callable[[], Any],
    *,
    policy: RetryPolicy,
    clock: Optional[Clock] = None,
    key: str = "",
    classify: Callable[[BaseException], FaultKind] = classify_fault,
    on_retry: Optional[Callable[[int, BaseException, float], None]] = None,
    deadline: Optional[Deadline] = None,
) -> RetryOutcome:
    """Run *fn*, retrying transient faults under *policy*.

    Permanent faults re-raise immediately; transient faults retry up to
    ``policy.max_attempts`` total attempts, sleeping the policy's
    deterministic backoff on *clock* between attempts (clamped to the
    *deadline*'s remaining budget when one is given, and not retried at
    all once it has expired).  ``on_retry(attempt, error, delay)`` fires
    before each backoff sleep.
    """
    clock = clock or SystemClock()
    attempt = 1
    total_delay = 0.0
    while True:
        try:
            return RetryOutcome(value=fn(), attempts=attempt, total_delay=total_delay)
        except Exception as exc:
            retryable = (
                classify(exc) is FaultKind.TRANSIENT
                and attempt < policy.max_attempts
                and not (deadline is not None and deadline.expired())
            )
            if not retryable:
                raise
            delay = policy.delay(attempt, key)
            if deadline is not None:
                delay = min(delay, max(deadline.remaining(), 0.0))
            if on_retry is not None:
                on_retry(attempt, exc, delay)
            clock.sleep(delay)
            total_delay += delay
            attempt += 1
