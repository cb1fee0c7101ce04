"""Array <-> bytes serialization with self-describing headers and checksums.

This is the shared wire layer under every binary format in :mod:`repro.io`.
An *array block* is::

    MAGIC(4) | version(u8) | codec_id(u8) | dtype_len(u16) |
    ndim(u8)  | shape(ndim x u64) | raw_nbytes(u64) | payload_nbytes(u64) |
    crc32(u32 of payload) | dtype_str | payload

Integers are little-endian.  The CRC covers the (possibly compressed)
payload, so corruption of bytes on disk is detected before decompression;
the header is checked on its own (a dtype token NumPy can read and decode
from bytes, a ``raw_nbytes`` equal to ``prod(shape) * itemsize``), so
every malformed block raises :class:`SerializationError`.
Object-dtype arrays are rejected: scientific shard formats carry numeric
tensors and fixed-width strings only (Section 2.2's precision discussion).

Copies: packing hands the codec a flat view of the array memory (a raw
block is written straight from it); decoding slices the payload as a view
of the caller's buffer, runs the CRC over that view, and has the codec
write the decoded bytes straight into the returned array — its one copy.
A reader that ``read()``\\ s a block from a file therefore holds each byte
twice — its read buffer and the array — and only while one block is being
decoded.
"""

from __future__ import annotations

import math
import struct
import zlib
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.io.compression import Codec, CodecError, RawCodec, codec_from_id

__all__ = [
    "pack_array",
    "prepare_block",
    "frame_block",
    "unpack_array",
    "ArrayBlock",
    "read_block",
    "read_one_block",
    "SerializationError",
]

MAGIC = b"RPA1"
_VERSION = 1
_HEADER_FMT = "<4sBBHB"  # magic, version, codec_id, dtype_len, ndim
_TAIL_FMT = "<QQI"  # raw_nbytes, payload_nbytes, crc32


class SerializationError(ValueError):
    """Malformed or corrupt array block."""


def _dtype_str(dtype: np.dtype) -> str:
    """A round-trippable dtype token (`<f8`, `<i4`, `|S16`, `<U8`...)."""
    return dtype.str


def prepare_block(array: np.ndarray, codec: Codec) -> Tuple[bytes, bytes, memoryview]:
    """First third of :func:`pack_array`: validate *array* and lay it flat.

    Returns ``(head, dtype_token, raw)``: the block's fixed header and
    shape, its dtype token, and a flat byte view of the C-contiguous
    array memory (no copy of an array that already is) for
    :meth:`Codec.compress_chunks` — the one third that may run on
    another thread.
    """
    array = np.asarray(array)
    if array.dtype.kind == "O":
        raise SerializationError("object-dtype arrays cannot be serialized")
    if array.dtype.hasobject:
        raise SerializationError("dtypes containing objects cannot be serialized")
    # note: ascontiguousarray promotes 0-d arrays to 1-d, so shape/ndim are
    # taken from the original array
    shape_tuple = array.shape
    contiguous = np.ascontiguousarray(array)
    dtype_token = _dtype_str(contiguous.dtype).encode("ascii")
    if len(dtype_token) > 0xFFFF:
        raise SerializationError("dtype token too long")
    if len(shape_tuple) > 0xFF:
        raise SerializationError("too many dimensions")
    head = struct.pack(
        _HEADER_FMT, MAGIC, _VERSION, codec.codec_id, len(dtype_token), len(shape_tuple)
    ) + struct.pack(f"<{len(shape_tuple)}Q", *shape_tuple)
    # a uint8 view rather than memoryview.cast: cast refuses zero-size,
    # big-endian, `|S` and `<U` buffers
    raw = memoryview(contiguous.reshape(-1).view(np.uint8))
    return head, dtype_token, raw


def frame_block(
    head: bytes, dtype_token: bytes, raw_nbytes: int, chunks: Sequence[bytes]
) -> List[bytes]:
    """Last third of :func:`pack_array`: the block as the pieces a writer
    may put out one after another — its checksummed header, then the
    compressed *chunks* of its payload, never joined here."""
    crc = 0
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
    payload_nbytes = sum(len(chunk) for chunk in chunks)
    tail = struct.pack(_TAIL_FMT, raw_nbytes, payload_nbytes, crc & 0xFFFFFFFF)
    return [b"".join((head, tail, dtype_token)), *chunks]


def pack_array(array: np.ndarray, codec: Optional[Codec] = None) -> bytes:
    """Serialize *array* into one self-describing block."""
    codec = codec or RawCodec()
    head, dtype_token, raw = prepare_block(array, codec)
    return b"".join(
        frame_block(head, dtype_token, raw.nbytes, codec.compress_chunks(raw))
    )


def _block_dtype(token: memoryview) -> np.dtype:
    """The dtype a block header names, or :class:`SerializationError` —
    the CRC covers only the payload, so a corrupt header must be caught
    here, not as a ``UnicodeDecodeError`` or a NumPy error."""
    try:
        dtype = np.dtype(bytes(token).decode("ascii"))
    except (UnicodeDecodeError, TypeError, ValueError, SyntaxError) as exc:
        raise SerializationError(f"bad dtype token {bytes(token)!r}") from exc
    if dtype.hasobject or dtype.itemsize == 0:
        raise SerializationError(f"dtype {dtype.str} cannot be decoded from bytes")
    return dtype


class ArrayBlock(NamedTuple):
    """One block's checked header and a view of its (still encoded) payload."""

    codec_id: int
    dtype: np.dtype
    shape: Tuple[int, ...]
    crc: int
    payload: memoryview

    @property
    def nbytes(self) -> int:
        return math.prod(self.shape) * self.dtype.itemsize

    def decode_into(self, out: np.ndarray) -> None:
        """CRC-check the payload and decode it into *out* — a C-contiguous
        array of the block's ``nbytes`` — which is the block's one copy."""
        if not out.flags.c_contiguous or out.nbytes != self.nbytes:
            # reshape would copy a strided array: the bytes would land nowhere
            raise ValueError(f"decode_into needs a C-contiguous array of {self.nbytes} bytes")
        if (zlib.crc32(self.payload) & 0xFFFFFFFF) != self.crc:
            raise SerializationError("payload CRC mismatch (corrupt block)")
        # a uint8 view rather than memoryview.cast, for the reason
        # prepare_block gives
        target = memoryview(out.reshape(-1).view(np.uint8))
        try:
            size = codec_from_id(self.codec_id).decompress_into(self.payload, target)
        except CodecError as exc:  # an unknown or wrong codec id
            raise SerializationError(f"undecodable payload: {exc}") from exc
        if size != self.nbytes:
            raise SerializationError(f"decompressed size {size} != declared {self.nbytes}")


def read_block(buffer: bytes, offset: int = 0) -> Tuple[ArrayBlock, int]:
    """Parse and check the header of the block starting at *offset*.

    Returns ``(block, next_offset)``; the block's payload is a view of
    *buffer*, decoded by :meth:`ArrayBlock.decode_into`.
    """
    buffer = memoryview(buffer).cast("B")
    header_size = struct.calcsize(_HEADER_FMT)
    if buffer.nbytes - offset < header_size:
        raise SerializationError("truncated block header")
    magic, version, codec_id, dtype_len, ndim = struct.unpack_from(
        _HEADER_FMT, buffer, offset
    )
    if magic != MAGIC:
        raise SerializationError(f"bad magic {magic!r} at offset {offset}")
    if version != _VERSION:
        raise SerializationError(f"unsupported block version {version}")
    pos = offset + header_size
    try:
        shape = struct.unpack_from(f"<{ndim}Q", buffer, pos)
    except struct.error as exc:
        raise SerializationError("truncated shape") from exc
    pos += 8 * ndim
    try:
        raw_nbytes, payload_nbytes, crc = struct.unpack_from(_TAIL_FMT, buffer, pos)
    except struct.error as exc:
        raise SerializationError("truncated block tail") from exc
    pos += struct.calcsize(_TAIL_FMT)
    token = buffer[pos : pos + dtype_len]
    if token.nbytes != dtype_len:
        raise SerializationError("truncated dtype token")
    dtype = _block_dtype(token)
    if raw_nbytes != math.prod(shape) * dtype.itemsize:
        raise SerializationError(
            f"declared size {raw_nbytes} != {dtype.str} x {shape} (corrupt header)"
        )
    pos += dtype_len
    payload = buffer[pos : pos + payload_nbytes]
    if payload.nbytes != payload_nbytes:
        raise SerializationError("truncated payload")
    return ArrayBlock(codec_id, dtype, shape, crc, payload), pos + payload_nbytes


def read_one_block(buffer: bytes) -> ArrayBlock:
    """:func:`read_block` of a buffer that holds exactly one block — checked
    before the block is decoded."""
    block, end = read_block(buffer, 0)
    size = memoryview(buffer).nbytes
    if end != size:
        raise SerializationError(f"{size - end} trailing bytes after block")
    return block


def unpack_array(block: bytes) -> np.ndarray:
    """Deserialize a buffer containing exactly one block.

    The array is the block's one copy: the payload is CRC-checked as a
    view of *block* and decoded straight into a new array, so the result
    is writeable, owns its memory and does not keep *block* alive.
    """
    parsed = read_one_block(block)
    array = np.empty(parsed.shape, dtype=parsed.dtype)
    parsed.decode_into(array)
    return array
