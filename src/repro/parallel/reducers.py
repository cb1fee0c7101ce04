"""Reduction schedules: how per-rank partial results get combined.

The flat gather used by :meth:`SimComm.reduce` is O(P) messages into one
root — fine for small worlds, a bottleneck at leadership scale.  This
module provides schedule objects that describe *who merges with whom in
which round* for three classic algorithms, execute a real reduction over
any associative merge function, and account rounds/messages so the
bench can compare schedules quantitatively (DESIGN.md ablation 3).

* **flat** — everyone sends to root; 1 round, P-1 messages at the root.
* **tree** — binomial tree with configurable fan-in; ``ceil(log_f P)``
  rounds, P-1 total messages, at most ``f-1`` per node per round.
* **butterfly** — recursive doubling; ``log2 P`` rounds, every rank ends
  with the full result (an allreduce), ``P log2 P`` messages.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, List, Sequence, Tuple, TypeVar

__all__ = [
    "ReductionStep",
    "ReductionSchedule",
    "flat_schedule",
    "tree_schedule",
    "butterfly_schedule",
    "execute_schedule",
    "schedule_cost",
]

T = TypeVar("T")


@dataclasses.dataclass(frozen=True)
class ReductionStep:
    """In round ``round``, ``src`` sends its partial to ``dst`` who merges."""

    round: int
    src: int
    dst: int


@dataclasses.dataclass(frozen=True)
class ReductionSchedule:
    """A complete reduction plan over ``n_ranks`` partials."""

    name: str
    n_ranks: int
    steps: Tuple[ReductionStep, ...]
    #: ranks holding the final result after the last round
    result_ranks: Tuple[int, ...]

    @property
    def n_rounds(self) -> int:
        return max((s.round for s in self.steps), default=0) + 1 if self.steps else 0

    def max_inbox(self) -> int:
        """Largest number of messages any rank receives in one round."""
        counts: dict = {}
        for step in self.steps:
            key = (step.round, step.dst)
            counts[key] = counts.get(key, 0) + 1
        return max(counts.values(), default=0)


def flat_schedule(n_ranks: int) -> ReductionSchedule:
    """Everyone sends to rank 0 in a single round."""
    _check(n_ranks)
    steps = tuple(ReductionStep(round=0, src=r, dst=0) for r in range(1, n_ranks))
    return ReductionSchedule("flat", n_ranks, steps, (0,))


def tree_schedule(n_ranks: int, fanin: int = 2) -> ReductionSchedule:
    """Binomial-style tree with the given fan-in, rooted at rank 0.

    Round *k* merges groups of size ``fanin**k`` into groups of size
    ``fanin**(k+1)``: the group leader (lowest rank in the group) receives
    from the leaders of the other subgroups.
    """
    _check(n_ranks)
    if fanin < 2:
        raise ValueError("fanin must be >= 2")
    steps: List[ReductionStep] = []
    stride = 1
    rnd = 0
    while stride < n_ranks:
        group = stride * fanin
        for leader in range(0, n_ranks, group):
            for j in range(1, fanin):
                src = leader + j * stride
                if src < n_ranks:
                    steps.append(ReductionStep(round=rnd, src=src, dst=leader))
        stride = group
        rnd += 1
    return ReductionSchedule(f"tree(fanin={fanin})", n_ranks, tuple(steps), (0,))


def butterfly_schedule(n_ranks: int) -> ReductionSchedule:
    """Recursive doubling; requires a power-of-two world.

    Every round, rank r exchanges with ``r XOR 2**k``; after ``log2 P``
    rounds every rank holds the full reduction (allreduce semantics).
    """
    _check(n_ranks)
    if n_ranks & (n_ranks - 1):
        raise ValueError(f"butterfly needs a power-of-two world, got {n_ranks}")
    steps: List[ReductionStep] = []
    rounds = int(math.log2(n_ranks))
    for rnd in range(rounds):
        mask = 1 << rnd
        for rank in range(n_ranks):
            steps.append(ReductionStep(round=rnd, src=rank, dst=rank ^ mask))
    return ReductionSchedule(
        "butterfly", n_ranks, tuple(steps), tuple(range(n_ranks))
    )


def execute_schedule(
    schedule: ReductionSchedule,
    partials: Sequence[T],
    merge: Callable[[T, T], T],
) -> List[T]:
    """Run *schedule* over *partials*; returns each result-rank's value.

    The merge function must be associative (and, for butterfly, the
    implementation keeps deterministic src/dst ordering so commutativity
    is not required within a round pair).
    """
    if len(partials) != schedule.n_ranks:
        raise ValueError(
            f"{len(partials)} partials for a {schedule.n_ranks}-rank schedule"
        )
    state: List[T] = list(partials)
    for rnd in range(schedule.n_rounds):
        incoming: dict = {}
        for step in schedule.steps:
            if step.round != rnd:
                continue
            incoming.setdefault(step.dst, []).append((step.src, state[step.src]))
        for dst, messages in incoming.items():
            acc = state[dst]
            for _, value in sorted(messages, key=lambda m: m[0]):
                acc = merge(acc, value)
            state[dst] = acc
    return [state[r] for r in schedule.result_ranks]


def schedule_cost(schedule: ReductionSchedule, message_bytes: int) -> float:
    """Latency-bandwidth (alpha-beta) time estimate for the schedule.

    Each round costs ``alpha + inbox * message_bytes * beta`` (alpha 1 us
    per message round, beta 1 ns per byte) where *inbox* is the busiest
    receiver's message count that round: receives at one node serialize,
    sends across nodes parallelize.
    """
    total = 0.0
    for rnd in range(schedule.n_rounds):
        inbox: dict = {}
        for step in schedule.steps:
            if step.round == rnd:
                inbox[step.dst] = inbox.get(step.dst, 0) + 1
        busiest = max(inbox.values(), default=0)
        total += 1e-6 + busiest * message_bytes * 1e-9
    return total


def _check(n_ranks: int) -> None:
    if n_ranks < 1:
        raise ValueError("n_ranks must be >= 1")
