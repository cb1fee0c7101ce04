"""GRIB-like packing: lossy-but-bounded encoding, streaming, corruption."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.io import grib
from repro.io.grib import (
    GribError,
    GribMessage,
    GridDefinition,
    packing_error_bound,
    read_grib,
    write_grib,
)


@pytest.fixture
def grid():
    return GridDefinition(lat0=-87.5, lon0=2.5, dlat=5.0, dlon=5.0, nlat=36, nlon=72)


def make_message(grid, rng, name="tas", t=0):
    values = 280.0 + 30.0 * rng.standard_normal(grid.shape)
    return GribMessage(short_name=name, level=1000, valid_time=t, grid=grid,
                       values=values, units="K")


class TestGrid:
    def test_coordinates(self, grid):
        lats = grid.latitudes()
        lons = grid.longitudes()
        assert lats.shape == (36,) and lons.shape == (72,)
        assert lats[0] == -87.5 and lons[1] - lons[0] == 5.0

    def test_message_shape_checked(self, grid):
        with pytest.raises(GribError, match="shape"):
            GribMessage("tas", 1000, 0, grid, np.zeros((2, 2)))


class TestPacking:
    def test_round_trip_error_within_bound(self, grid, rng, tmp_path):
        msg = make_message(grid, rng)
        path = tmp_path / "m.grb"
        write_grib([msg], path)
        back = next(iter(read_grib(path)))
        bound = packing_error_bound(msg.values, 16)
        assert np.max(np.abs(back.values - msg.values)) <= bound + 1e-12

    @pytest.mark.parametrize("bits", [8, 16, 32])
    def test_more_bits_less_error(self, grid, rng, tmp_path, bits, monkeypatch):
        # the writer packs 16 bits; files of other widths come from elsewhere
        monkeypatch.setattr(grib, "BITS_PER_VALUE", bits)
        msg = make_message(grid, rng)
        path = tmp_path / f"m{bits}.grb"
        write_grib([msg], path)
        back = next(iter(read_grib(path)))
        err = np.max(np.abs(back.values - msg.values))
        assert err <= packing_error_bound(msg.values, bits) + 1e-12

    def test_error_decreases_with_bits(self, grid, rng):
        values = 280.0 + 30.0 * rng.standard_normal(grid.shape)
        assert (
            packing_error_bound(values, 8)
            > packing_error_bound(values, 16)
            > packing_error_bound(values, 32)
        )

    def test_constant_field_exact(self, grid, tmp_path):
        msg = GribMessage("tas", 1000, 0, grid, np.full(grid.shape, 273.15), units="K")
        write_grib([msg], tmp_path / "c.grb")
        back = next(iter(read_grib(tmp_path / "c.grb")))
        assert np.allclose(back.values, 273.15)

    def test_non_finite_values_rejected(self, grid, tmp_path):
        values = np.zeros(grid.shape)
        values[0, 0] = np.nan
        msg = GribMessage("tas", 1000, 0, grid, values)
        with pytest.raises(GribError, match="non-finite"):
            write_grib([msg], tmp_path / "x.grb")

    @given(st.floats(-1e6, 1e6, allow_nan=False), st.floats(0.1, 1e4))
    def test_property_error_bound_holds(self, base, spread):
        rng = np.random.default_rng(0)
        values = base + spread * rng.standard_normal((4, 4))
        bound = packing_error_bound(values, 16)
        span = values.max() - values.min()
        # the bound is half of one quantization step
        assert bound <= span / (2**16 - 1) * 1.01 + 1e-12


class TestStreaming:
    def test_multiple_messages_in_order(self, grid, rng, tmp_path):
        messages = [make_message(grid, rng, t=t) for t in range(5)]
        path = tmp_path / "s.grb"
        write_grib(messages, path)
        times = [m.valid_time for m in read_grib(path)]
        assert times == [0, 1, 2, 3, 4]

    def test_metadata_preserved(self, grid, rng, tmp_path):
        msg = make_message(grid, rng)
        write_grib([msg], tmp_path / "m.grb")
        back = next(iter(read_grib(tmp_path / "m.grb")))
        assert back.short_name == "tas"
        assert back.level == 1000
        assert back.units == "K"
        assert back.grid == grid

    def test_corruption_detected(self, grid, rng, tmp_path):
        path = tmp_path / "m.grb"
        write_grib([make_message(grid, rng)], path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(GribError, match="CRC|magic|truncated"):
            list(read_grib(path))

    def test_truncated_file_detected(self, grid, rng, tmp_path):
        path = tmp_path / "m.grb"
        write_grib([make_message(grid, rng)], path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])
        with pytest.raises(GribError, match="truncated"):
            list(read_grib(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.grb"
        path.write_bytes(b"")
        assert list(read_grib(path)) == []
