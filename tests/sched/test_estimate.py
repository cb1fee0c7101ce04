"""Sizing a run: the source bytes behind its ledger key."""

import numpy as np

from repro.core.helper_pool import _usable_cpus
from repro.sched import StoreKey, source_nbytes, store_key


def test_source_nbytes_prefers_on_disk_manifest(tmp_path):
    """Path-bearing manifests are sized by the real files they point to."""
    a = tmp_path / "a.bin"
    b = tmp_path / "b.bin"
    a.write_bytes(b"x" * 1000)
    b.write_bytes(b"y" * 2000)
    manifest = {"netcdf": [str(a)], "grib": str(b), "note": "not a path"}
    assert source_nbytes(manifest) == 3000
    # in-memory payloads fall back to the content estimate
    assert source_nbytes(np.zeros(100, dtype=np.float64)) >= 800


def test_store_key_buckets_sources_by_bit_length(tmp_path):
    """Sources within a factor of two share a bucket; the CPU count is the
    host's usable one."""
    path = tmp_path / "src.bin"
    keys = []
    for size in (1024, 2047, 2048):
        path.write_bytes(b"x" * size)
        keys.append(store_key("demo", {"files": [str(path)]}))
    cpus = len(_usable_cpus())
    assert keys == [StoreKey("demo", cpus, 11), StoreKey("demo", cpus, 11),
                    StoreKey("demo", cpus, 12)]
