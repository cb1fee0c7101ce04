"""Shard files, shard sets, manifests, and trainer-facing ingestion."""

import hashlib
import json
import struct

import numpy as np
import pytest

from repro.core.dataset import FieldRole
from repro.io.compression import RawCodec, get_codec
from repro.io.serialization import pack_array
from repro.io.shards import (
    ShardError,
    ShardSet,
    last_write_peak_buffer,
    read_shard,
    schema_from_dicts,
    schema_to_dicts,
    write_shard,
    write_shard_set,
)


class TestSingleShard:
    def test_round_trip(self, tmp_path, rng):
        columns = {"x": rng.normal(size=(20, 3)), "y": rng.integers(0, 5, 20)}
        info = write_shard(columns, tmp_path / "s.rps")
        assert info.n_samples == 20
        back = read_shard(tmp_path / "s.rps")
        assert np.array_equal(back["x"], columns["x"])
        assert np.array_equal(back["y"], columns["y"])

    def test_column_projection(self, tmp_path, rng):
        columns = {"x": rng.normal(size=10), "y": rng.normal(size=10)}
        write_shard(columns, tmp_path / "s.rps")
        back = read_shard(tmp_path / "s.rps", columns=["y"])
        assert set(back) == {"y"}

    def test_missing_column_raises(self, tmp_path, rng):
        write_shard({"x": rng.normal(size=4)}, tmp_path / "s.rps")
        with pytest.raises(ShardError, match="no column"):
            read_shard(tmp_path / "s.rps", columns=["z"])

    def test_inconsistent_sample_counts_rejected(self, tmp_path, rng):
        with pytest.raises(ShardError, match="disagree"):
            write_shard(
                {"x": rng.normal(size=4), "y": rng.normal(size=5)},
                tmp_path / "s.rps",
            )

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.rps"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ShardError, match="magic"):
            read_shard(path)

    def test_info_accounting(self, tmp_path, rng):
        columns = {"x": rng.normal(size=(8, 2))}
        info = write_shard(columns, tmp_path / "s.rps")
        assert info.nbytes == (tmp_path / "s.rps").stat().st_size
        assert len(info.checksum) == 64


def _buffered_shard_bytes(columns, codec=None):
    """The historical fully-buffered writer, kept as the byte oracle."""
    codec = codec or RawCodec()
    lengths = {v.shape[0] for v in columns.values()}
    n_samples = lengths.pop() if lengths else 0
    blocks, index, offset = [], {}, 0
    for name in sorted(columns):
        block = pack_array(np.asarray(columns[name]), codec)
        index[name] = {"offset": offset, "length": len(block)}
        blocks.append(block)
        offset += len(block)
    header = json.dumps(
        {"n_samples": n_samples, "columns": index}, sort_keys=True
    ).encode()
    return b"".join((b"RPS1", struct.pack("<I", len(header)), header, *blocks))


class TestStreamingWrite:
    """The streaming writer must be byte-for-byte the buffered writer."""

    @pytest.mark.parametrize("codec_name", ["raw", "zlib"])
    def test_bytes_and_checksum_match_buffered_oracle(
        self, tmp_path, rng, codec_name
    ):
        columns = {
            "big": rng.normal(size=(500, 16, 32)),
            "small": rng.integers(0, 9, size=500),
            "ids": np.arange(500),
        }
        codec = get_codec(codec_name, 3 if codec_name == "zlib" else None)
        info = write_shard(columns, tmp_path / "s.rps", codec)
        expected = _buffered_shard_bytes(columns, codec)
        actual = (tmp_path / "s.rps").read_bytes()
        assert actual == expected
        assert info.checksum == hashlib.sha256(expected).hexdigest()
        assert info.nbytes == len(expected)

    def test_peak_buffer_is_one_block_not_the_shard(self, tmp_path, rng):
        columns = {f"c{i}": rng.normal(size=(200, 64)) for i in range(8)}
        info = write_shard(columns, tmp_path / "s.rps")
        peak = last_write_peak_buffer()
        # bounded RSS: the writer held at most one packed column block,
        # a fraction of the whole shard, at any moment
        assert 0 < peak < info.nbytes / 4
        block = pack_array(columns["c0"], RawCodec())
        assert peak == len(block)

    def test_no_spool_or_tmp_left_behind(self, tmp_path, rng):
        write_shard({"x": rng.normal(size=32)}, tmp_path / "s.rps")
        leftovers = [p.name for p in tmp_path.iterdir() if p.name != "s.rps"]
        assert leftovers == []

    def test_empty_columns_dict(self, tmp_path):
        info = write_shard({}, tmp_path / "s.rps")
        assert info.n_samples == 0
        assert read_shard(tmp_path / "s.rps") == {}

    def test_failed_write_cleans_spool(self, tmp_path):
        class Boom:
            shape = (3,)

        with pytest.raises(Exception):
            write_shard({"x": Boom()}, tmp_path / "s.rps")
        assert [p.name for p in tmp_path.iterdir()] == []

    def test_failed_commit_cleans_both_siblings(self, tmp_path, rng):
        # regression: a raise *after* the spool→tmp copy (in the atomic
        # commit itself) used to leak the .tmp sibling
        from repro.durability.fsfaults import activate
        from repro.faults import FaultInjector, FaultSpec

        with activate(FaultInjector(FaultSpec.parse("eio=shard:0"))):
            with pytest.raises(OSError):
                write_shard({"x": rng.normal(size=32)}, tmp_path / "s.rps")
        assert [p.name for p in tmp_path.iterdir()] == []

    def test_injected_commit_fault_cleans_and_retry_heals(self, tmp_path, rng):
        # a torn rename leaves garbage under the shard's final name (and
        # no siblings); the retried write must atomically replace it
        from repro.durability.fsfaults import activate
        from repro.faults import FaultInjector, FaultSpec

        columns = {"x": rng.normal(size=32)}
        with activate(FaultInjector(FaultSpec.parse("torn-rename=shard:0"))):
            with pytest.raises(OSError):
                write_shard(columns, tmp_path / "s.rps")
            assert [p.name for p in tmp_path.iterdir()] == ["s.rps"]  # garbage
            info = write_shard(columns, tmp_path / "s.rps")  # retry
        assert read_shard(tmp_path / "s.rps")["x"] == pytest.approx(columns["x"])
        assert info.n_samples == 32


class TestSchemaSerialization:
    def test_round_trip(self, small_dataset):
        rows = schema_to_dicts(small_dataset.schema)
        back = schema_from_dicts(rows)
        assert back == small_dataset.schema

    def test_roles_preserved(self, small_dataset):
        back = schema_from_dicts(schema_to_dicts(small_dataset.schema))
        assert back["label"].role is FieldRole.LABEL
        assert back["sample_id"].role is FieldRole.IDENTIFIER


class TestShardSet:
    @pytest.fixture
    def shard_dir(self, tmp_path, small_dataset):
        n = small_dataset.n_samples
        splits = {
            "train": np.arange(0, int(n * 0.8)),
            "test": np.arange(int(n * 0.8), n),
        }
        manifest = write_shard_set(
            small_dataset, tmp_path / "shards", splits=splits,
            shards_per_split=3, codec_name="zlib", codec_level=2,
        )
        return tmp_path / "shards", manifest

    def test_manifest_accounting(self, shard_dir, small_dataset):
        _, manifest = shard_dir
        assert manifest.n_samples == small_dataset.n_samples
        assert manifest.n_shards == 6
        assert manifest.split_samples("train") == 40

    def test_load_split_round_trip(self, shard_dir, small_dataset):
        directory, _ = shard_dir
        shard_set = ShardSet(directory)
        train = shard_set.load_split("train")
        assert train.n_samples == 40
        assert np.array_equal(train["x1"], small_dataset["x1"][:40])
        assert train.schema == small_dataset.schema

    def test_verify_passes_on_intact_set(self, shard_dir):
        directory, _ = shard_dir
        ShardSet(directory).verify()

    def test_verify_detects_corruption(self, shard_dir):
        directory, manifest = shard_dir
        victim = directory / manifest.splits["train"][0].path
        raw = bytearray(victim.read_bytes())
        raw[-1] ^= 0xFF
        victim.write_bytes(bytes(raw))
        with pytest.raises(ShardError, match="checksum"):
            ShardSet(directory).verify()

    def test_rank_strided_iteration_partitions_shards(self, shard_dir):
        directory, manifest = shard_dir
        shard_set = ShardSet(directory)
        world = 2
        seen = []
        for rank in range(world):
            for shard in shard_set.iter_shards("train", rank=rank, world=world):
                seen.append(shard["sample_id"][0])
        # both ranks together see every shard exactly once
        assert len(seen) == len(manifest.splits["train"])
        assert len(set(int(s) for s in seen)) == len(seen)

    def test_invalid_rank_rejected(self, shard_dir):
        directory, _ = shard_dir
        with pytest.raises(ShardError, match="rank"):
            list(ShardSet(directory).iter_shards("train", rank=2, world=2))

    def test_unknown_split_rejected(self, shard_dir):
        directory, _ = shard_dir
        with pytest.raises(ShardError, match="no split"):
            list(ShardSet(directory).iter_shards("validation"))

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(ShardError, match="manifest"):
            ShardSet(tmp_path)

    def test_default_single_split(self, tmp_path, small_dataset):
        manifest = write_shard_set(small_dataset, tmp_path / "one")
        assert list(manifest.splits) == ["all"]
        assert manifest.split_samples("all") == small_dataset.n_samples

    def test_metadata_round_trip(self, shard_dir):
        directory, _ = shard_dir
        shard_set = ShardSet(directory)
        loaded = shard_set.load_split("test")
        assert loaded.metadata.name == "unit-test"

    def test_manifest_json_round_trip(self, shard_dir):
        from repro.io.shards import ShardManifest

        _, manifest = shard_dir
        back = ShardManifest.from_json(manifest.to_json())
        assert back.n_samples == manifest.n_samples
        assert back.schema == manifest.schema
        assert back.codec == manifest.codec
