"""Array block wire format: round-trips, corruption detection, streams."""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.dataset import Dataset
from repro.governance.enclave import SecureEnclave
from repro.io.adios import BPReader, BPWriter
from repro.io.compression import RawCodec, ZlibCodec
from repro.io.h5lite import H5LiteFile
from repro.io.netcdf import NCDataset, read_netcdf, write_netcdf
from repro.io.serialization import (
    SerializationError,
    pack_array,
    read_block,
    unpack_array,
)
from repro.io.shards import read_shard, write_shard


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
            block, end = read_block(memoryview(stream)[offset:])
            offset += end
            out.append(np.empty(block.shape, block.dtype))
            block.decode_into(out[-1])
        assert len(out) == 5
        for a, b in zip(arrays, out):
            assert np.array_equal(a, b)

    def test_decode_into_refuses_a_target_it_cannot_fill_in_place(self):
        block, _ = read_block(pack_array(np.arange(6.0)))
        with pytest.raises(ValueError, match="C-contiguous"):
            block.decode_into(np.empty((6, 2))[:, 0])
        with pytest.raises(ValueError, match="48 bytes"):
            block.decode_into(np.empty(5))

    def test_unpack_returns_independent_copy(self, rng):
        original = rng.normal(size=8)
        out = unpack_array(pack_array(original))
        out[0] = 42.0
        assert original[0] != 42.0 or out[0] == original[0]
        assert out.flags.writeable


#: byte offset of a 1-D block's dtype token
_TOKEN_AT = struct.calcsize("<4sBBHB") + 8 + struct.calcsize("<QQI")


def _rewritten(block, at, new):
    corrupt = bytearray(block)
    corrupt[at : at + len(new)] = new
    return bytes(corrupt)


class TestCorruptHeader:
    """The CRC covers only the payload: a corrupt header is caught on its own,
    as a :class:`SerializationError`, never as a NumPy or codec error."""

    BLOCK = pack_array(np.arange(10, dtype="<f4"))

    @pytest.mark.parametrize(
        "token, match",
        [
            (b"<\xe94", "dtype token"),  # not ASCII
            (b"<z4", "dtype token"),  # not a dtype
            (b"|O8", "cannot be decoded"),  # object pointers
            (b"|V0", "cannot be decoded"),  # zero width
            (b"<f8", "declared size"),  # 10 x f4 read as f8: 5 elements
            (b"<i2", "declared size"),
        ],
        ids=["non-ascii", "unknown", "object", "zero-width", "wider", "narrower"],
    )
    def test_dtype_token(self, token, match):
        assert self.BLOCK[_TOKEN_AT : _TOKEN_AT + 3] == b"<f4"
        with pytest.raises(SerializationError, match=match):
            unpack_array(_rewritten(self.BLOCK, _TOKEN_AT, token))

    def test_shape_disagreeing_with_raw_nbytes(self):
        at = struct.calcsize("<4sBBHB")
        with pytest.raises(SerializationError, match="declared size"):
            unpack_array(_rewritten(self.BLOCK, at, struct.pack("<Q", 11)))

    @pytest.mark.parametrize("codec", [RawCodec(), ZlibCodec(3)], ids=["raw", "zlib"])
    def test_every_flipped_header_bit(self, codec):
        """An array (a token flip such as ``<`` -> ``>`` can still name a
        valid dtype) or a :class:`SerializationError` — nothing else."""
        block = pack_array(np.arange(10, dtype="<f4"), codec)
        for at in range(_TOKEN_AT + 3):
            for bit in range(8):
                corrupt = bytearray(block)
                corrupt[at] ^= 1 << bit
                try:
                    out = unpack_array(bytes(corrupt))
                except SerializationError:
                    continue
                assert out.shape == (10,) and out.dtype.itemsize == 4, (at, bit)


@pytest.mark.parametrize("codec", [RawCodec(), ZlibCodec(3)], ids=["raw", "zlib"])
class TestDecodeStillRefuses:
    def test_flipped_payload_byte(self, codec, rng):
        block = pack_array(rng.normal(size=64), codec)
        for at in (len(block) - 1, len(block) - 40):
            corrupt = bytearray(block)
            corrupt[at] ^= 0x10
            with pytest.raises(SerializationError, match="CRC"):
                unpack_array(bytes(corrupt))

    def test_every_truncation(self, codec, rng):
        block = pack_array(rng.normal(size=6), codec)
        for end in range(len(block)):
            with pytest.raises(SerializationError, match="truncated"):
                unpack_array(block[:end])

    def test_trailing_bytes(self, codec, rng):
        block = pack_array(rng.normal(size=6), codec)
        with pytest.raises(SerializationError, match="1 trailing"):
            unpack_array(block + b"\x00")

    def test_decoded_array_holds_no_view_of_the_buffer(self, codec, rng):
        array = rng.normal(size=(5, 3))
        buffer = bytearray(pack_array(array, codec))
        out = unpack_array(buffer)
        del buffer[:]  # BufferError while any view of it is alive
        assert out.base is None and out.flags.writeable
        assert np.array_equal(out, array)


def _via_netcdf(tmp_path, array):
    nc = NCDataset()
    nc.create_dimension("row", array.shape[0])
    nc.create_dimension("col", array.shape[1])
    nc.create_variable("v", ["row", "col"], array)
    return read_netcdf(write_netcdf(nc, tmp_path / "v.ncl"))["v"].data


def _via_shard(tmp_path, array):
    write_shard({"v": array}, tmp_path / "v.rps")
    return read_shard(tmp_path / "v.rps")["v"]


def _via_h5lite(tmp_path, array):
    with H5LiteFile(tmp_path / "v.h5l", "w") as fh:
        fh.create_dataset("/v", array)
    with H5LiteFile(tmp_path / "v.h5l", "r") as fh:
        return fh.read("/v")


def _via_adios(tmp_path, array):
    with BPWriter(tmp_path / "v.bp") as writer:
        writer.begin_step()
        writer.write("v", array)
        writer.end_step()
    with BPReader(tmp_path / "v.bp") as reader:
        return reader.read(0, "v")


def _via_enclave(tmp_path, array):
    enclave = SecureEnclave(key=b"0" * 32)
    enclave.ingest("d", Dataset.from_arrays({"v": array}))
    enclave.authorize("u")
    with enclave.session("u") as session:
        return session.read("d")["v"]


@pytest.mark.parametrize(
    "read_back", [_via_netcdf, _via_shard, _via_h5lite, _via_adios, _via_enclave],
    ids=["netcdf", "shard", "h5lite", "adios", "enclave"],
)
def test_every_reader_returns_writeable_arrays_that_own_their_memory(read_back, tmp_path, rng):
    array = rng.normal(size=(7, 3))
    out = read_back(tmp_path, array)
    assert np.array_equal(out, array)
    assert out.flags.writeable and out.base is None
