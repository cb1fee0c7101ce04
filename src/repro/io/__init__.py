"""Storage substrates: codecs, binary formats, and sharded containers.

Formats provided (see DESIGN.md for the substitution rationale):

* :mod:`repro.io.shards` — the native sharded training container + manifest
* :mod:`repro.io.tfrecord` — TFRecord-compatible record streams
* :mod:`repro.io.h5lite` — hierarchical HDF5-like container
* :mod:`repro.io.adios` — step-based ADIOS-BP-like container
* :mod:`repro.io.netcdf` — self-describing gridded source format
* :mod:`repro.io.grib` — packed/encoded gridded source format
"""

from repro.io.compression import get_codec
from repro.io.chunking import (
    ChunkPlan,
    plan_shards_by_bytes,
    plan_shards_by_count,
    read_balance,
)
from repro.io.serialization import pack_array, unpack_array
from repro.io.stream import ShardStreamer
from repro.io.shards import (
    ShardManifest,
    ShardSet,
    read_shard,
    write_shard,
    write_shard_set,
)

__all__ = [
    "get_codec",
    "ChunkPlan",
    "plan_shards_by_bytes",
    "plan_shards_by_count",
    "read_balance",
    "ShardStreamer",
    "pack_array",
    "unpack_array",
    "ShardManifest",
    "ShardSet",
    "read_shard",
    "write_shard",
    "write_shard_set",
]
