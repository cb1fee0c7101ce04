"""Temporal alignment: resampling, common bases, windowing."""

import numpy as np
import pytest

from repro.transforms.align import (
    AlignError,
    Signal,
    align_signals,
    common_time_base,
    resample,
    sliding_windows,
    window_series,
)


def make_signal(name="s", t0=0.0, t1=10.0, n=101, fn=np.sin, units=None):
    times = np.linspace(t0, t1, n)
    return Signal(name=name, times=times, values=fn(times), units=units)


class TestSignal:
    def test_validation(self):
        with pytest.raises(AlignError, match="strictly increase"):
            Signal("bad", np.asarray([0.0, 0.0, 1.0]), np.zeros(3))
        with pytest.raises(AlignError, match="mismatch"):
            Signal("bad", np.arange(3.0), np.zeros(4))
        with pytest.raises(AlignError, match="1-D"):
            Signal("bad", np.zeros((2, 2)), np.zeros((2, 2)))

    def test_rate_and_extent(self):
        signal = make_signal(n=101, t1=10.0)
        assert signal.mean_rate() == pytest.approx(10.0)
        assert signal.t_start == 0.0 and signal.t_end == 10.0


class TestResample:
    def test_linear_recovers_smooth_signal(self):
        signal = make_signal(n=201)
        query = np.linspace(0.5, 9.5, 57)
        out = resample(signal, query)
        assert np.allclose(out, np.sin(query), atol=1e-2)

    def test_out_of_range_clamps(self):
        signal = Signal("s", np.asarray([1.0, 2.0]), np.asarray([5.0, 7.0]))
        out = resample(signal, np.asarray([0.0, 3.0]))
        assert out.tolist() == [5.0, 7.0]

    def test_empty_signal(self):
        signal = Signal("e", np.asarray([]), np.asarray([]))
        with pytest.raises(AlignError, match="empty"):
            resample(signal, np.asarray([1.0]))


class TestCommonBase:
    def test_overlap_only(self):
        a = make_signal("a", 0.0, 10.0)
        b = make_signal("b", 4.0, 15.0)
        base = common_time_base([a, b])
        assert base[0] >= 4.0 and base[-1] <= 10.0

    def test_dt_defaults_to_fastest_channel(self):
        slow = make_signal("slow", 0, 10, n=11)  # 1 Hz
        fast = make_signal("fast", 0, 10, n=101)  # 10 Hz
        base = common_time_base([slow, fast])
        assert np.allclose(np.diff(base), 0.1)

    def test_no_overlap_raises(self):
        a = make_signal("a", 0.0, 1.0)
        b = make_signal("b", 5.0, 6.0)
        with pytest.raises(AlignError, match="overlap"):
            common_time_base([a, b])

    def test_explicit_dt(self):
        base = common_time_base([make_signal()], dt=0.5)
        assert np.allclose(np.diff(base), 0.5)

    def test_empty_signal_list(self):
        with pytest.raises(AlignError, match="at least one"):
            common_time_base([])


class TestAlignSignals:
    def test_matrix_shape_and_order(self):
        a = make_signal("a", 0, 10, n=101, fn=np.sin)
        b = make_signal("b", 1, 9, n=33, fn=np.cos)
        times, matrix, names = align_signals([a, b])
        assert names == ["a", "b"]
        assert matrix.shape == (times.size, 2)
        assert np.allclose(matrix[:, 0], np.sin(times), atol=0.02)
        assert np.allclose(matrix[:, 1], np.cos(times), atol=0.02)


class TestWindows:
    def test_non_overlapping(self, rng):
        data = rng.normal(size=(100, 3))
        windows = sliding_windows(data, window=25)
        assert windows.shape == (4, 25, 3)
        assert np.array_equal(windows[1], data[25:50])

    def test_overlapping_stride(self, rng):
        data = rng.normal(size=(100, 2))
        windows = sliding_windows(data, window=50, stride=25)
        assert windows.shape == (3, 50, 2)
        assert np.array_equal(windows[1], data[25:75])

    def test_1d_input_gets_channel_axis(self, rng):
        windows = sliding_windows(rng.normal(size=30), window=10)
        assert windows.shape == (3, 10, 1)

    def test_too_short_series_gives_empty(self, rng):
        windows = sliding_windows(rng.normal(size=(5, 2)), window=10)
        assert windows.shape == (0, 10, 2)

    def test_invalid_params(self, rng):
        with pytest.raises(AlignError):
            sliding_windows(rng.normal(size=(10, 1)), window=0)

    def test_window_series_start_times(self):
        times = np.arange(0, 10, 0.1)
        matrix = np.zeros((times.size, 1))
        starts, windows = window_series(times, matrix, window=20, stride=20)
        assert windows.shape[0] == starts.size == 5
        assert np.allclose(starts, [0.0, 2.0, 4.0, 6.0, 8.0])

    def test_window_series_length_mismatch(self, rng):
        with pytest.raises(AlignError, match="mismatch"):
            window_series(np.arange(5.0), rng.normal(size=(6, 1)), 2)
