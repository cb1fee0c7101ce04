"""Array block wire format: round-trips, corruption detection, streams."""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from repro.io.compression import RawCodec, ZlibCodec
from repro.io.serialization import (
    SerializationError,
    pack_array,
    unpack_array,
    unpack_array_from,
)


DTYPES = [np.float64, np.float32, np.int64, np.int32, np.uint8, np.bool_]


def _copying_pack(array, codec):
    """The block as it was built while ``pack_array`` still copied the
    array out with ``tobytes()``: the byte oracle for the view it hands
    the codec now."""
    array = np.asarray(array)
    contiguous = np.ascontiguousarray(array)
    raw = contiguous.tobytes()
    payload = codec.compress(raw)
    token = contiguous.dtype.str.encode("ascii")
    return b"".join((
        struct.pack("<4sBBHB", b"RPA1", 1, codec.codec_id, len(token), array.ndim),
        struct.pack(f"<{array.ndim}Q", *array.shape),
        struct.pack("<QQI", len(raw), len(payload), zlib.crc32(payload) & 0xFFFFFFFF),
        token,
        payload,
    ))


class TestPackWithoutTheCopy:
    """A flat view of the array memory packs to the bytes the copy did."""

    ARRAYS = {
        "zero-dim": np.array(3.5),
        "zero-rows": np.empty((0, 5), dtype=np.float32),
        "zero-trailing": np.empty((3, 0), dtype=np.int64),
        "big-endian": np.arange(12, dtype=">f8").reshape(3, 4),
        "bytes": np.asarray([b"ab", b"c", b""], dtype="S2"),
        "unicode": np.asarray(["alpha", "beta"], dtype="<U8"),
        "bool": np.asarray([[True, False], [False, True]]),
        "fortran": np.asfortranarray(np.arange(24.0).reshape(6, 4)),
        "strided": np.arange(40, dtype=np.int32)[::3],
    }

    @pytest.mark.parametrize("name", sorted(ARRAYS))
    @pytest.mark.parametrize("codec", [RawCodec(), ZlibCodec(3)], ids=["raw", "zlib"])
    def test_bytes_match_the_copying_packer(self, name, codec):
        array = self.ARRAYS[name]
        block = pack_array(array, codec)
        assert block == _copying_pack(array, codec)
        back = unpack_array(block)
        assert back.dtype == array.dtype and back.shape == array.shape
        assert back.tobytes() == np.ascontiguousarray(array).tobytes()

    def test_raw_codec_still_returns_bytes(self):
        view = memoryview(np.arange(4, dtype=np.uint8))
        assert type(RawCodec().compress(view)) is bytes
        assert RawCodec().compress_chunks(view) == [view]  # and copies nothing


class TestRoundTrip:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_dtype_round_trip(self, dtype, rng):
        array = (rng.normal(size=(7, 3)) * 10).astype(dtype)
        assert np.array_equal(unpack_array(pack_array(array)), array)

    def test_preserves_dtype_and_shape(self, rng):
        array = rng.normal(size=(2, 3, 4)).astype(np.float32)
        out = unpack_array(pack_array(array))
        assert out.dtype == np.float32 and out.shape == (2, 3, 4)

    def test_zero_dim_array(self):
        array = np.array(3.5)
        out = unpack_array(pack_array(array))
        assert out.shape == () and out == 3.5

    def test_empty_array(self):
        array = np.empty((0, 5), dtype=np.float64)
        out = unpack_array(pack_array(array))
        assert out.shape == (0, 5)

    def test_fixed_width_strings(self):
        array = np.asarray(["alpha", "beta"], dtype="U8")
        assert np.array_equal(unpack_array(pack_array(array)), array)

    def test_fortran_order_input(self, rng):
        array = np.asfortranarray(rng.normal(size=(6, 4)))
        assert np.array_equal(unpack_array(pack_array(array)), array)

    def test_compressed_round_trip(self, rng):
        array = rng.normal(size=(100, 10))
        block = pack_array(array, ZlibCodec(5))
        assert np.array_equal(unpack_array(block), array)

    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=hnp.array_shapes(max_dims=3, max_side=8),
            elements=st.floats(-1e6, 1e6, allow_nan=False),
        )
    )
    def test_property_round_trip_floats(self, array):
        assert np.array_equal(unpack_array(pack_array(array)), array)

    @given(
        hnp.arrays(
            dtype=np.int32,
            shape=hnp.array_shapes(max_dims=3, max_side=8),
            elements=st.integers(-(2**31), 2**31 - 1),
        )
    )
    def test_property_round_trip_ints(self, array):
        assert np.array_equal(unpack_array(pack_array(array)), array)


class TestRejections:
    def test_object_dtype_rejected(self):
        with pytest.raises(SerializationError, match="object"):
            pack_array(np.asarray([object()], dtype=object))

    def test_bad_magic(self, rng):
        block = bytearray(pack_array(rng.normal(size=4)))
        block[0] = ord("X")
        with pytest.raises(SerializationError, match="magic"):
            unpack_array(bytes(block))

    def test_truncated_header(self):
        with pytest.raises(SerializationError, match="truncated"):
            unpack_array(b"RPA1")

    def test_payload_corruption_detected_by_crc(self, rng):
        block = bytearray(pack_array(rng.normal(size=16)))
        block[-1] ^= 0x01
        with pytest.raises(SerializationError, match="CRC"):
            unpack_array(bytes(block))

    def test_trailing_garbage_detected(self, rng):
        block = pack_array(rng.normal(size=4)) + b"junk"
        with pytest.raises(SerializationError, match="trailing"):
            unpack_array(block)


class TestStreams:
    def test_walk_concatenated_blocks(self, rng):
        arrays = [rng.normal(size=(i + 1,)) for i in range(5)]
        stream = b"".join(pack_array(a) for a in arrays)
        offset = 0
        out = []
        while offset < len(stream):
            array, offset = unpack_array_from(stream, offset)
            out.append(array)
        assert len(out) == 5
        for a, b in zip(arrays, out):
            assert np.array_equal(a, b)

    def test_unpack_returns_independent_copy(self, rng):
        original = rng.normal(size=8)
        out = unpack_array(pack_array(original))
        out[0] = 42.0
        assert original[0] != 42.0 or out[0] == original[0]
        assert out.flags.writeable
