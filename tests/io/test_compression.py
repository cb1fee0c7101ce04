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


class TestDecompressInto:
    """What the block decoders call: :meth:`Codec.decompress`'s bytes, written
    into the caller's buffer (by zlib, inflated in pieces of bounded size)."""

    CODECS = [RawCodec(), ZlibCodec(0), ZlibCodec(1), LzmaCodec(0)]

    @pytest.mark.parametrize("codec", CODECS, ids=["raw", "zlib0", "zlib1", "lzma"])
    def test_writes_what_decompress_returns(self, codec, monkeypatch):
        from repro.io import compression

        # pieces far smaller than the data: every loop of the bounded inflate runs
        monkeypatch.setattr(compression, "_ZLIB_SLICE", 4096)
        rng = np.random.default_rng(4)
        for data in (b"", b"x", bytes(50_000), rng.integers(0, 4, 30_001, dtype=np.uint8).tobytes()):
            payload = codec.compress(data)
            out = bytearray(len(data))
            assert codec.decompress_into(payload, memoryview(out)) == len(data)
            assert out == data
            # what does not fit is counted, never written
            short = bytearray(len(data) // 3)
            assert codec.decompress_into(payload, memoryview(short)) == len(data)
            assert short == data[: len(short)]

    @pytest.mark.parametrize("codec", [ZlibCodec(4), LzmaCodec(0)], ids=["zlib", "lzma"])
    @pytest.mark.parametrize("damage", ["cut", "flip"])
    def test_a_bad_stream_raises_what_decompress_raises(self, codec, damage):
        payload = bytearray(codec.compress(b"hello world" * 100))
        if damage == "cut":
            del payload[-9:]
        else:
            payload[len(payload) // 2] ^= 0xFF
        with pytest.raises(CodecError) as one_shot:
            codec.decompress(bytes(payload))
        with pytest.raises(CodecError) as into:
            codec.decompress_into(bytes(payload), memoryview(bytearray(1100)))
        assert str(into.value) == str(one_shot.value)

    def test_zlib_makes_no_allocation_the_size_of_the_block(self):
        import tracemalloc

        data = bytes(16 << 20)  # inflates ~1000x: one bounded piece per call
        payload = ZlibCodec(1).compress(data)
        out = np.empty(len(data), dtype=np.uint8)
        tracemalloc.start()
        try:
            assert ZlibCodec(1).decompress_into(payload, memoryview(out)) == len(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a few pieces, not the block
        assert peak < len(data) // 8
        assert not out.any()
