"""Codec registry behaviour and round-trips."""

import zlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.io.compression import (
    CodecError,
    LzmaCodec,
    RawCodec,
    ZlibCodec,
    codec_from_id,
    get_codec,
)


class TestRegistry:
    def test_get_codec_by_name(self):
        assert isinstance(get_codec("raw"), RawCodec)
        assert isinstance(get_codec("zlib"), ZlibCodec)
        assert isinstance(get_codec("lzma"), LzmaCodec)

    def test_get_codec_with_level(self):
        assert get_codec("zlib", 9).level == 9
        assert get_codec("lzma", 2).preset == 2

    def test_raw_ignores_level(self):
        assert isinstance(get_codec("raw", 5), RawCodec)

    def test_unknown_name_raises(self):
        with pytest.raises(CodecError, match="unknown codec"):
            get_codec("zstd")

    def test_codec_from_id_round_trip(self):
        for name in ("raw", "zlib", "lzma"):
            assert codec_from_id(get_codec(name).codec_id).name == name

    def test_unknown_id_raises(self):
        with pytest.raises(CodecError, match="unknown codec id"):
            codec_from_id(200)

    def test_ids_are_unique(self):
        ids = [get_codec(name).codec_id for name in ("raw", "zlib", "lzma")]
        assert len(ids) == len(set(ids))


class TestLevels:
    def test_zlib_level_out_of_range(self):
        with pytest.raises(CodecError):
            ZlibCodec(level=10)

    def test_lzma_preset_out_of_range(self):
        with pytest.raises(CodecError):
            LzmaCodec(preset=-1)


class TestRoundTrips:
    @given(st.binary(max_size=4096))
    def test_raw_round_trip(self, data):
        codec = RawCodec()
        assert codec.decompress(codec.compress(data)) == data

    @given(st.binary(max_size=4096))
    def test_zlib_round_trip(self, data):
        codec = ZlibCodec(level=4)
        assert codec.decompress(codec.compress(data)) == data

    @given(st.binary(max_size=2048))
    def test_lzma_round_trip(self, data):
        codec = LzmaCodec(preset=0)
        assert codec.decompress(codec.compress(data)) == data

    @pytest.mark.parametrize("level", range(10))
    def test_zlib_chunks_join_to_the_one_shot_bytes(self, level, monkeypatch):
        # shard bytes are pinned by digests taken with zlib.compress: the
        # sliced deflate must reproduce it at every level (0 stores, and
        # stored blocks *do* depend on the slicing — hence its own branch)
        from repro.io import compression

        monkeypatch.setattr(compression, "_ZLIB_SLICE", 4096)
        rng = np.random.default_rng(level)
        codec = ZlibCodec(level)
        for data in (
            b"",
            b"x",
            rng.integers(0, 4, 70_001, dtype=np.uint8).tobytes(),
            rng.normal(size=9_000).astype(np.float32).tobytes(),
            bytes(20_000),
        ):
            chunks = codec.compress_chunks(memoryview(data))
            assert b"".join(chunks) == codec.compress(data) == zlib.compress(data, level)
            assert all(chunks)

    def test_zlib_actually_compresses_redundant_data(self):
        data = b"abcd" * 10_000
        assert len(ZlibCodec(6).compress(data)) < len(data) // 10

    def test_corrupt_zlib_payload_raises(self):
        payload = bytearray(ZlibCodec().compress(b"hello world" * 100))
        payload[5] ^= 0xFF
        with pytest.raises(CodecError, match="corrupt"):
            ZlibCodec().decompress(bytes(payload))

    def test_corrupt_lzma_payload_raises(self):
        payload = bytearray(LzmaCodec().compress(b"hello world" * 100))
        payload[-3] ^= 0xFF
        with pytest.raises(CodecError, match="corrupt"):
            LzmaCodec().decompress(bytes(payload))
