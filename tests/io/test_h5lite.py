"""Hierarchical container: groups, datasets, attrs, lazy reads, sealing."""

import numpy as np
import pytest

from repro.io.compression import ZlibCodec
from repro.io.h5lite import H5LiteError, H5LiteFile


@pytest.fixture
def sample_file(tmp_path, rng):
    path = tmp_path / "sample.h5l"
    data = {
        "/climate/tas": rng.normal(280, 10, size=(4, 8)),
        "/climate/pr": rng.uniform(0, 5, size=(4, 8)),
        "/fusion/ip": rng.normal(size=100),
    }
    with H5LiteFile(path, "w") as fh:
        for name, array in data.items():
            fh.create_dataset(name, array, attrs={"source": "test"})
        fh.create_group("/climate", attrs={"institution": "ORNL-sim"})
    return path, data


class TestWriteRead:
    def test_round_trip_all_datasets(self, sample_file):
        path, data = sample_file
        with H5LiteFile(path, "r") as fh:
            for name, array in data.items():
                assert np.array_equal(fh.read(name), array)

    def test_shape_dtype_queries_without_reading(self, sample_file):
        path, _ = sample_file
        with H5LiteFile(path, "r") as fh:
            assert fh.shape("/climate/tas") == (4, 8)
            assert fh.dtype("/climate/tas") == np.float64

    def test_attrs_on_dataset_and_group(self, sample_file):
        path, _ = sample_file
        with H5LiteFile(path, "r") as fh:
            assert fh.attrs("/climate/tas")["source"] == "test"
            assert fh.attrs("/climate")["institution"] == "ORNL-sim"

    def test_parents_auto_created_as_groups(self, sample_file):
        path, _ = sample_file
        with H5LiteFile(path, "r") as fh:
            assert fh.kind("/climate") == "group"
            assert fh.kind("/fusion") == "group"

    def test_list_children(self, sample_file):
        path, _ = sample_file
        with H5LiteFile(path, "r") as fh:
            assert fh.list("/") == ["/climate", "/fusion"]
            assert fh.list("/climate") == ["/climate/pr", "/climate/tas"]

    def test_walk_and_datasets(self, sample_file):
        path, _ = sample_file
        with H5LiteFile(path, "r") as fh:
            assert "/climate/tas" in list(fh.walk())
            assert fh.datasets() == ["/climate/pr", "/climate/tas", "/fusion/ip"]

    def test_compressed_dataset_round_trip(self, tmp_path, rng):
        path = tmp_path / "c.h5l"
        array = rng.normal(size=(50, 20))
        with H5LiteFile(path, "w") as fh:
            fh.create_dataset("/data", array, codec=ZlibCodec(6))
        with H5LiteFile(path, "r") as fh:
            assert np.array_equal(fh.read("/data"), array)


class TestErrors:
    def test_duplicate_dataset_rejected(self, tmp_path, rng):
        with H5LiteFile(tmp_path / "d.h5l", "w") as fh:
            fh.create_dataset("/a", rng.normal(size=3))
            with pytest.raises(H5LiteError, match="already exists"):
                fh.create_dataset("/a", rng.normal(size=3))

    def test_dataset_as_parent_rejected(self, tmp_path, rng):
        with H5LiteFile(tmp_path / "d.h5l", "w") as fh:
            fh.create_dataset("/a", rng.normal(size=3))
            with pytest.raises(H5LiteError, match="not a group"):
                fh.create_dataset("/a/b", rng.normal(size=3))

    def test_read_requires_read_mode(self, tmp_path, rng):
        with H5LiteFile(tmp_path / "d.h5l", "w") as fh:
            fh.create_dataset("/a", rng.normal(size=3))
            with pytest.raises(H5LiteError, match="mode"):
                fh.read("/a")

    def test_missing_object_raises(self, sample_file):
        path, _ = sample_file
        with H5LiteFile(path, "r") as fh:
            with pytest.raises(H5LiteError, match="no object"):
                fh.read("/nope")

    def test_unsealed_file_rejected(self, tmp_path, rng):
        path = tmp_path / "u.h5l"
        fh = H5LiteFile(path, "w")
        fh.create_dataset("/a", rng.normal(size=3))
        fh._fh.flush()
        # simulate a crash: never call close(); superblock still zeroed
        with pytest.raises(H5LiteError, match="never sealed"):
            H5LiteFile(path, "r")
        fh.close()
        with H5LiteFile(path, "r") as back:
            assert back.exists("/a")

    def test_not_an_h5lite_file(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"garbage-that-is-long-enough-to-read")
        with pytest.raises(H5LiteError, match="magic"):
            H5LiteFile(path, "r")

    def test_illegal_path_component(self, tmp_path):
        with H5LiteFile(tmp_path / "p.h5l", "w") as fh:
            with pytest.raises(H5LiteError, match="illegal"):
                fh.create_group("/a/../b")

    def test_bad_mode(self, tmp_path):
        with pytest.raises(H5LiteError, match="mode"):
            H5LiteFile(tmp_path / "m.h5l", "a")

    def test_closed_file_rejects_operations(self, sample_file):
        path, _ = sample_file
        fh = H5LiteFile(path, "r")
        fh.close()
        with pytest.raises(H5LiteError, match="closed"):
            fh.read("/climate/tas")
