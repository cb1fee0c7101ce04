"""Mergeable statistics: the exactness property at the heart of SCALE-STATS."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.parallel.stats import (
    FeatureStats,
    MinMax,
    RunningMoments,
    StreamingHistogram,
)


class TestRunningMoments:
    def test_matches_numpy_single_batch(self, rng):
        data = rng.normal(3, 2, size=(500, 4))
        acc = RunningMoments((4,)).update(data)
        assert acc.count == 500
        assert np.allclose(acc.mean, data.mean(axis=0))
        assert np.allclose(acc.variance, data.var(axis=0))
        assert np.allclose(acc.std, data.std(axis=0))

    def test_incremental_equals_batch(self, rng):
        data = rng.normal(size=(300, 3))
        incremental = RunningMoments((3,))
        for chunk in np.array_split(data, 7):
            incremental.update(chunk)
        batch = RunningMoments((3,)).update(data)
        assert np.allclose(incremental.mean, batch.mean)
        assert np.allclose(incremental.m2, batch.m2)

    def test_merge_exactness(self, rng):
        """Chan merge of partials == whole-array statistics."""
        data = rng.normal(100, 5, size=(1000, 2))
        parts = []
        for chunk in np.array_split(data, 13):
            parts.append(RunningMoments((2,)).update(chunk))
        merged = RunningMoments((2,))
        for part in parts:
            merged.merge(part)
        assert merged.count == 1000
        assert np.allclose(merged.mean, data.mean(axis=0))
        assert np.allclose(merged.variance, data.var(axis=0))

    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=2, max_size=200),
           st.integers(2, 8))
    def test_property_merge_equals_whole(self, values, n_parts):
        data = np.asarray(values)[:, None]
        parts = [
            RunningMoments((1,)).update(chunk)
            for chunk in np.array_split(data, n_parts)
        ]
        merged = RunningMoments((1,))
        for part in parts:
            merged.merge(part)
        assert merged.count == len(values)
        assert np.allclose(merged.mean, data.mean(axis=0), atol=1e-6)
        scale = max(1.0, float(np.abs(data).max()) ** 2)
        assert np.allclose(merged.variance, data.var(axis=0), rtol=1e-6,
                           atol=1e-9 * scale)

    def test_merge_with_empty_partial(self, rng):
        data = rng.normal(size=(50, 2))
        empty = RunningMoments((2,))
        filled = RunningMoments((2,)).update(data)
        merged = empty.merge(filled)
        assert np.allclose(merged.mean, data.mean(axis=0))

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            RunningMoments((2,)).update(rng.normal(size=(10, 3)))
        with pytest.raises(ValueError):
            RunningMoments((2,)).merge(RunningMoments((3,)))

    def test_dict_round_trip(self, rng):
        acc = RunningMoments((3,)).update(rng.normal(size=(20, 3)))
        back = RunningMoments.from_dict(acc.to_dict())
        assert back.count == acc.count
        assert np.allclose(back.mean, acc.mean)
        assert np.allclose(back.m2, acc.m2)

    def test_scalar_shape(self, rng):
        data = rng.normal(size=100)
        acc = RunningMoments(()).update(data)
        assert np.allclose(acc.mean, data.mean())


class TestMinMax:
    def test_matches_numpy(self, rng):
        data = rng.normal(size=(200, 3))
        acc = MinMax((3,)).update(data)
        assert np.allclose(acc.min, data.min(axis=0))
        assert np.allclose(acc.max, data.max(axis=0))
        assert np.allclose(acc.range, np.ptp(data, axis=0))

    def test_merge(self, rng):
        a_data, b_data = rng.normal(size=(50, 2)), rng.normal(size=(70, 2))
        merged = MinMax((2,)).update(a_data).merge(MinMax((2,)).update(b_data))
        combined = np.concatenate([a_data, b_data])
        assert np.allclose(merged.min, combined.min(axis=0))
        assert merged.count == 120

    def test_empty_range_is_zero(self):
        assert np.allclose(MinMax((2,)).range, 0.0)


class TestStreamingHistogram:
    def test_counts_and_overflow(self):
        hist = StreamingHistogram(0.0, 10.0, n_bins=10)
        hist.update(np.asarray([-1.0, 0.0, 5.0, 9.99, 10.0, 11.0]))
        assert hist.underflow == 1
        assert hist.overflow == 2
        assert hist.counts.sum() == 3
        assert hist.total == 6

    def test_merge_equals_whole(self, rng):
        data = rng.normal(5, 2, size=2000)
        whole = StreamingHistogram(-5, 15, 64).update(data)
        merged = StreamingHistogram(-5, 15, 64)
        for chunk in np.array_split(data, 5):
            merged.merge(StreamingHistogram(-5, 15, 64).update(chunk))
        assert np.array_equal(whole.counts, merged.counts)
        assert whole.underflow == merged.underflow

    def test_quantile_accuracy(self, rng):
        data = rng.uniform(0, 100, size=20_000)
        hist = StreamingHistogram(0, 100, n_bins=200).update(data)
        for q in (0.1, 0.5, 0.9):
            assert hist.quantile(q) == pytest.approx(100 * q, abs=2.0)

    def test_merge_binning_mismatch_rejected(self):
        with pytest.raises(ValueError, match="binning"):
            StreamingHistogram(0, 1).merge(StreamingHistogram(0, 2))

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            StreamingHistogram(5, 5)

    def test_empty_quantile_nan(self):
        assert np.isnan(StreamingHistogram(0, 1).quantile(0.5))


class TestFeatureStats:
    def test_from_array_bundles_everything(self, rng):
        data = rng.normal(size=(100, 4))
        stats = FeatureStats.from_array(data)
        assert stats.count == 100
        assert np.allclose(stats.mean, data.mean(axis=0))
        assert np.allclose(stats.extrema.max, data.max(axis=0))

    def test_merge_bundles(self, rng):
        a, b = rng.normal(size=(60, 2)), rng.normal(size=(40, 2))
        merged = FeatureStats.from_array(a).merge(FeatureStats.from_array(b))
        combined = np.concatenate([a, b])
        assert np.allclose(merged.std, combined.std(axis=0))
        assert np.allclose(merged.extrema.min, combined.min(axis=0))

    def test_with_histogram(self, rng):
        stats = FeatureStats.empty((), histogram_range=(-4, 4))
        stats.update(rng.normal(size=1000))
        assert stats.histogram is not None
        assert stats.histogram.total == 1000
