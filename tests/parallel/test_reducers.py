"""Reduction schedules: correctness and cost structure."""

import pytest
from hypothesis import given, strategies as st

from repro.parallel.reducers import (
    butterfly_schedule,
    execute_schedule,
    flat_schedule,
    schedule_cost,
    tree_schedule,
)


def run_sum(schedule, n):
    partials = list(range(1, n + 1))
    results = execute_schedule(schedule, partials, lambda a, b: a + b)
    expected = n * (n + 1) // 2
    return results, expected


class TestCorrectness:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13])
    def test_flat_sums(self, n):
        results, expected = run_sum(flat_schedule(n), n)
        assert results == [expected]

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 17])
    @pytest.mark.parametrize("fanin", [2, 3, 4])
    def test_tree_sums(self, n, fanin):
        results, expected = run_sum(tree_schedule(n, fanin), n)
        assert results == [expected]

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
    def test_butterfly_all_ranks_get_result(self, n):
        results, expected = run_sum(butterfly_schedule(n), n)
        assert results == [expected] * n

    def test_butterfly_requires_power_of_two(self):
        with pytest.raises(ValueError, match="power-of-two"):
            butterfly_schedule(6)

    @given(st.integers(1, 30), st.integers(2, 4))
    def test_property_tree_equals_flat(self, n, fanin):
        flat_result, _ = run_sum(flat_schedule(n), n)
        tree_result, _ = run_sum(tree_schedule(n, fanin), n)
        assert flat_result == tree_result

    def test_noncommutative_but_associative_merge(self):
        """String concatenation is associative only — order must hold."""
        n = 8
        partials = [chr(ord("a") + i) for i in range(n)]
        flat = execute_schedule(flat_schedule(n), partials, lambda a, b: a + b)
        tree = execute_schedule(tree_schedule(n, 2), partials, lambda a, b: a + b)
        assert flat == tree == ["abcdefgh"]

    def test_partial_count_mismatch(self):
        with pytest.raises(ValueError, match="partials"):
            execute_schedule(flat_schedule(4), [1, 2], lambda a, b: a + b)


class TestStructure:
    def test_flat_one_round_p_minus_1_messages(self):
        schedule = flat_schedule(9)
        assert schedule.n_rounds == 1
        assert len(schedule.steps) == 8
        assert schedule.max_inbox() == 8

    def test_tree_log_rounds(self):
        schedule = tree_schedule(16, fanin=2)
        assert schedule.n_rounds == 4
        assert len(schedule.steps) == 15
        assert schedule.max_inbox() == 1

    def test_tree_fanin_trades_rounds_for_inbox(self):
        binary = tree_schedule(64, fanin=2)
        wide = tree_schedule(64, fanin=8)
        assert wide.n_rounds < binary.n_rounds
        assert wide.max_inbox() > binary.max_inbox()

    def test_butterfly_rounds_and_messages(self):
        schedule = butterfly_schedule(8)
        assert schedule.n_rounds == 3
        assert len(schedule.steps) == 24  # P * log2(P)
        assert schedule.result_ranks == tuple(range(8))

    def test_bad_fanin(self):
        with pytest.raises(ValueError):
            tree_schedule(8, fanin=1)


class TestCostModel:
    def test_tree_beats_flat_at_scale(self):
        """The DESIGN.md ablation-3 claim: flat gather serializes at the
        root, tree stays logarithmic."""
        message_bytes = 1 << 20
        flat_cost = schedule_cost(flat_schedule(256), message_bytes)
        tree_cost = schedule_cost(tree_schedule(256, 2), message_bytes)
        assert tree_cost < flat_cost / 4

    def test_flat_wins_tiny_worlds(self):
        """At P=2 both are one message; costs match."""
        flat_cost = schedule_cost(flat_schedule(2), 1024)
        tree_cost = schedule_cost(tree_schedule(2, 2), 1024)
        assert flat_cost == pytest.approx(tree_cost)

    def test_cost_monotone_in_message_size(self):
        schedule = tree_schedule(32, 2)
        assert schedule_cost(schedule, 1 << 20) > schedule_cost(schedule, 1 << 10)
