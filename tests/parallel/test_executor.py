"""High-level SPMD drivers: map, distributed stats, rank-parallel shard writes."""

import numpy as np
import pytest

from repro.core.backends import SimSPMDBackend
from repro.io.shards import ShardSet
from repro.parallel.executor import distributed_stats, parallel_map


class TestParallelMap:
    def test_results_in_item_order(self):
        items = list(range(23))
        assert parallel_map(lambda x: x * x, items, n_ranks=4) == [x * x for x in items]

    def test_empty_items(self):
        assert parallel_map(lambda x: x, [], n_ranks=2) == []


class TestDistributedStats:
    def test_exactly_matches_serial(self, rng):
        data = rng.normal(7, 3, size=(501, 6))
        stats = distributed_stats(data, n_ranks=4)
        assert stats.count == 501
        assert np.allclose(stats.mean, data.mean(axis=0))
        assert np.allclose(stats.std, data.std(axis=0))
        assert np.allclose(stats.extrema.min, data.min(axis=0))

    @pytest.mark.parametrize("n_ranks", [1, 2, 3, 7])
    def test_rank_count_invariant(self, rng, n_ranks):
        data = rng.normal(size=(100, 2))
        stats = distributed_stats(data, n_ranks=n_ranks)
        assert np.allclose(stats.mean, data.mean(axis=0))

    def test_more_ranks_than_rows(self, rng):
        data = rng.normal(size=(3, 2))
        stats = distributed_stats(data, n_ranks=8)
        assert stats.count == 3
        assert np.allclose(stats.mean, data.mean(axis=0))


class TestDistributedShardWrite:
    """SimSPMD writes shards through the one writer, fanned out over ranks."""

    def test_manifest_matches_serial_export(self, tmp_path, small_dataset):
        n = small_dataset.n_samples
        splits = {"train": np.arange(0, 40), "test": np.arange(40, n)}
        manifest = SimSPMDBackend(n_ranks=3).shard_write(
            small_dataset, tmp_path / "par", splits,
            shards_per_split=4, codec_name="zlib", codec_level=1,
        )
        assert manifest.n_samples == n
        assert manifest.split_samples("train") == 40

    def test_shard_set_readable_and_verifiable(self, tmp_path, small_dataset):
        splits = {"all": np.arange(small_dataset.n_samples)}
        SimSPMDBackend(n_ranks=4).shard_write(
            small_dataset, tmp_path / "par", splits, shards_per_split=5
        )
        shard_set = ShardSet(tmp_path / "par")
        shard_set.verify()
        loaded = shard_set.load_split("all")
        assert np.array_equal(loaded["x1"], small_dataset["x1"])

    def test_single_rank_degenerate_case(self, tmp_path, small_dataset):
        splits = {"all": np.arange(small_dataset.n_samples)}
        manifest = SimSPMDBackend(n_ranks=1).shard_write(
            small_dataset, tmp_path / "one", splits, shards_per_split=2
        )
        assert manifest.n_shards == 2
