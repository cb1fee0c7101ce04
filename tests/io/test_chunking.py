"""Chunk-plan invariants: completeness, balance."""

import pytest
from hypothesis import given, strategies as st

from repro.io.chunking import (
    plan_shards_by_bytes,
    plan_shards_by_count,
    read_balance,
)


class TestPlanByCount:
    @given(st.integers(0, 5000), st.integers(1, 64))
    def test_partition_is_complete_and_disjoint(self, n, k):
        plan = plan_shards_by_count(n, k)
        assert plan.n_shards == k
        assert sum(plan.sizes) == n
        covered = []
        for sl in plan:
            covered.extend(range(sl.start, sl.stop))
        assert covered == list(range(n))

    @given(st.integers(0, 5000), st.integers(1, 64))
    def test_sizes_differ_by_at_most_one(self, n, k):
        sizes = plan_shards_by_count(n, k).sizes
        assert max(sizes) - min(sizes) <= 1

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            plan_shards_by_count(10, 0)
        with pytest.raises(ValueError):
            plan_shards_by_count(-1, 2)

    def test_imbalance_of_even_plan_is_one(self):
        assert plan_shards_by_count(100, 4).imbalance() == 1.0


class TestPlanByBytes:
    def test_targets_shard_size(self):
        plan = plan_shards_by_bytes(1000, bytes_per_sample=100, target_shard_bytes=10_000)
        # total 100 KB / 10 KB target => ~10 shards
        assert 8 <= plan.n_shards <= 12

    def test_always_at_least_one_shard(self):
        plan = plan_shards_by_bytes(3, 10, 10**9)
        assert plan.n_shards == 1

    def test_never_more_shards_than_samples(self):
        plan = plan_shards_by_bytes(5, 10**9, 1)
        assert plan.n_shards <= 5

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            plan_shards_by_bytes(10, 0, 100)
        with pytest.raises(ValueError):
            plan_shards_by_bytes(10, 8, 0)


class TestReadBalance:
    def test_equal_shards_perfectly_balanced(self):
        assert read_balance([100] * 8, 4) == 1.0

    def test_single_giant_shard_limits_balance(self):
        # one shard dominates: 3 of 4 readers idle
        balance = read_balance([1000, 1, 1, 1], 4)
        assert balance < 0.3

    def test_more_small_shards_improve_balance(self):
        coarse = read_balance([4000, 4000], 4)
        fine = read_balance([1000] * 8, 4)
        assert fine > coarse

    def test_zero_bytes_is_balanced(self):
        assert read_balance([0, 0], 2) == 1.0
