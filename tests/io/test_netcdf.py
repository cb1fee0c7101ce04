"""NetCDF-like model consistency and file round-trips."""

import json
import re
import struct

import numpy as np
import pytest

from repro.io.netcdf import NCDataset, NetCDFError, read_netcdf, write_netcdf


@pytest.fixture
def gridded(rng):
    nc = NCDataset(attrs={"title": "test archive", "institution": "unit-test"})
    nc.create_dimension("time", 6)
    nc.create_dimension("lat", 4)
    nc.create_dimension("lon", 8)
    nc.create_variable("time", ["time"], np.arange(6.0), {"units": "months"})
    nc.create_variable("lat", ["lat"], np.linspace(-60, 60, 4), {"units": "degrees_north"})
    nc.create_variable("lon", ["lon"], np.linspace(0, 315, 8), {"units": "degrees_east"})
    nc.create_variable(
        "tas", ["time", "lat", "lon"], rng.normal(280, 10, size=(6, 4, 8)), {"units": "K"}
    )
    return nc


class TestModel:
    def test_dimension_consistency_enforced(self, gridded, rng):
        with pytest.raises(NetCDFError, match="dimension"):
            gridded.create_variable("bad", ["time", "lat", "lon"], rng.normal(size=(6, 4, 9)))

    def test_undeclared_dimension_rejected(self, gridded, rng):
        with pytest.raises(NetCDFError, match="undeclared"):
            gridded.create_variable("bad", ["depth"], rng.normal(size=5))

    def test_duplicate_variable_rejected(self, gridded, rng):
        with pytest.raises(NetCDFError, match="already exists"):
            gridded.create_variable("tas", ["time", "lat", "lon"], rng.normal(size=(6, 4, 8)))

    def test_redefining_dimension_size_rejected(self, gridded):
        with pytest.raises(NetCDFError, match="redefined"):
            gridded.create_dimension("lat", 99)

    def test_rank_mismatch_rejected(self, gridded, rng):
        with pytest.raises(NetCDFError, match="dims"):
            gridded.create_variable("bad", ["time"], rng.normal(size=(6, 4)))

    def test_coordinate_vs_data_variables(self, gridded):
        assert gridded.data_variables() == ["tas"]

    def test_units_accessor(self, gridded):
        assert gridded["tas"].units == "K"

    def test_missing_variable_raises(self, gridded):
        with pytest.raises(NetCDFError, match="no variable"):
            gridded["nope"]


class TestFileRoundTrip:
    def test_full_round_trip(self, gridded, tmp_path):
        path = write_netcdf(gridded, tmp_path / "a.ncl")
        back = read_netcdf(path)
        assert back.dimensions == gridded.dimensions
        assert back.attrs["title"] == "test archive"
        for name, var in gridded.variables.items():
            assert np.array_equal(back[name].data, var.data), name
            assert back[name].dims == var.dims
            assert back[name].attrs == var.attrs

    def test_compressed_round_trip(self, gridded, tmp_path, monkeypatch):
        from repro.io import netcdf
        from repro.io.compression import ZlibCodec

        # the writer packs raw blocks; compressed files come from elsewhere
        monkeypatch.setattr(netcdf, "CODEC", ZlibCodec(5))
        path = write_netcdf(gridded, tmp_path / "c.ncl")
        back = read_netcdf(path)
        assert np.array_equal(back["tas"].data, gridded["tas"].data)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ncl"
        path.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(NetCDFError, match="magic"):
            read_netcdf(path)

    def test_empty_dataset_round_trip(self, tmp_path):
        nc = NCDataset(attrs={"note": "empty"})
        back = read_netcdf(write_netcdf(nc, tmp_path / "e.ncl"))
        assert back.attrs["note"] == "empty"
        assert back.variables == {}


class TestHeaderAgainstBlocks:
    """A file-header entry must describe its block; it used to be read back
    as whatever the block held."""

    def _rewrite_header(self, path, edit):
        raw = path.read_bytes()
        (size,) = struct.unpack_from("<I", raw, 4)
        header = json.loads(raw[8 : 8 + size])
        edit(header["variables"])
        text = json.dumps(header, sort_keys=True).encode()
        path.write_bytes(raw[:4] + struct.pack("<I", len(text)) + text + raw[8 + size :])

    def test_a_dtype_and_shape_the_block_does_not_hold(self, tmp_path):
        nc = NCDataset()
        nc.create_dimension("x", 4)
        nc.create_variable("v", ["x"], np.arange(4.0))
        path = write_netcdf(nc, tmp_path / "v.ncl")

        def retype(variables):
            variables["v"].update(dtype="<i2", shape=[99])

        self._rewrite_header(path, retype)
        with pytest.raises(NetCDFError, match=re.escape(
            f"{path}: variable 'v': the index says <i2 x (99,), its block holds <f8 x (4,)"
        )):
            read_netcdf(path)

    def test_a_length_past_the_end_of_the_file(self, gridded, tmp_path):
        path = write_netcdf(gridded, tmp_path / "a.ncl")
        last = "time"  # variables are written in name order

        def lengthen(variables):
            variables[last]["length"] += 8

        self._rewrite_header(path, lengthen)
        with pytest.raises(NetCDFError, match=re.escape(
            f"{path}: variable 'time': length "
        ) + r"\d+ runs 8 bytes past the end of the file"):
            read_netcdf(path)
