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
block is written straight from it); decoding has the codec write the
decoded bytes straight into the returned array — its one copy.  A block
in memory (:func:`unpack_array`) is CRC-checked as a view of the caller's
buffer.  A block in a file is read by a :class:`BlockRead`, planned on
the calling thread from the block's header alone: a raw payload is then
read straight into the array's memory and CRC-checked there, so each of
its bytes lands once; a compressed payload is read into one buffer and
inflated into the array.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from typing import Any, Callable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

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
    "BlockRead",
    "plan_entry",
    "SerializationError",
]

MAGIC = b"RPA1"
_VERSION = 1
_HEADER_FMT = "<4sBBHB"  # magic, version, codec_id, dtype_len, ndim
_TAIL_FMT = "<QQI"  # raw_nbytes, payload_nbytes, crc32
_HEAD = struct.Struct(_HEADER_FMT)
_TAIL = struct.Struct(_TAIL_FMT)


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
        _decode(self.codec_id, self.payload, out)


def _decode(codec_id: int, payload: memoryview, out: np.ndarray) -> None:
    """Decode a CRC-checked *payload* into the C-contiguous array *out*."""
    # a uint8 view rather than memoryview.cast, for the reason prepare_block
    # gives
    target = memoryview(out.reshape(-1).view(np.uint8))
    try:
        size = codec_from_id(codec_id).decompress_into(payload, target)
    except CodecError as exc:  # an unknown or wrong codec id
        raise SerializationError(f"undecodable payload: {exc}") from exc
    if size != out.nbytes:
        raise SerializationError(f"decompressed size {size} != declared {out.nbytes}")


def _read_head(
    buffer: memoryview, offset: int
) -> Tuple[int, np.dtype, Tuple[int, ...], int, int, int]:
    """The checked header of the block at *offset* of *buffer*:
    ``(codec_id, dtype, shape, crc, payload offset, payload_nbytes)``."""
    if buffer.nbytes - offset < _HEAD.size:
        raise SerializationError("truncated block header")
    magic, version, codec_id, dtype_len, ndim = _HEAD.unpack_from(buffer, offset)
    if magic != MAGIC:
        raise SerializationError(f"bad magic {magic!r} at offset {offset}")
    if version != _VERSION:
        raise SerializationError(f"unsupported block version {version}")
    pos = offset + _HEAD.size
    try:
        shape = struct.unpack_from(f"<{ndim}Q", buffer, pos)
    except struct.error as exc:
        raise SerializationError("truncated shape") from exc
    pos += 8 * ndim
    try:
        raw_nbytes, payload_nbytes, crc = _TAIL.unpack_from(buffer, pos)
    except struct.error as exc:
        raise SerializationError("truncated block tail") from exc
    pos += _TAIL.size
    token = buffer[pos : pos + dtype_len]
    if token.nbytes != dtype_len:
        raise SerializationError("truncated dtype token")
    dtype = _block_dtype(token)
    if raw_nbytes != math.prod(shape) * dtype.itemsize:
        raise SerializationError(
            f"declared size {raw_nbytes} != {dtype.str} x {shape} (corrupt header)"
        )
    return codec_id, dtype, shape, crc, pos + dtype_len, payload_nbytes


def read_block(buffer: bytes) -> Tuple[ArrayBlock, int]:
    """Parse and check the header of the block *buffer* starts with.

    Returns ``(block, end)``; the block's payload is a view of *buffer*,
    decoded by :meth:`ArrayBlock.decode_into`.
    """
    buffer = memoryview(buffer).cast("B")
    codec_id, dtype, shape, crc, pos, payload_nbytes = _read_head(buffer, 0)
    payload = buffer[pos : pos + payload_nbytes]
    if payload.nbytes != payload_nbytes:
        raise SerializationError("truncated payload")
    return ArrayBlock(codec_id, dtype, shape, crc, payload), pos + payload_nbytes


def read_one_block(buffer: bytes) -> ArrayBlock:
    """:func:`read_block` of a buffer that holds exactly one block — checked
    before the block is decoded."""
    block, end = read_block(buffer)
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


class BlockRead:
    """One array block of an open file, planned: what a container reader
    does on the calling thread before any payload byte is read.

    Planning reads only the block's header — of the *length* bytes the
    container's index gives the block, no further than the end of the file
    — and checks it as :func:`read_one_block` checks a block read whole: a
    short block is truncated, a longer span holds trailing bytes (both
    :class:`SerializationError`).  An index *length* that runs past the end
    of the file over an intact block is an index error: ``refuse(why)``
    makes the container's own exception, naming the entry.  :meth:`into`
    then gives the block its destination, and :meth:`run` — on any thread
    — reads, CRC-checks and decodes the payload into it.
    """

    def __init__(
        self, fd: int, offset: int, length: int, refuse: Callable[[str], Exception]
    ):
        available = max(0, min(length, os.fstat(fd).st_size - offset))
        head = os.pread(fd, min(available, _HEAD.size), offset)
        if len(head) == _HEAD.size:
            *_, dtype_len, ndim = _HEAD.unpack(head)
            rest = min(available - _HEAD.size, 8 * ndim + _TAIL.size + dtype_len)
            head += os.pread(fd, rest, offset + _HEAD.size)
        self.codec_id, self.dtype, self.shape, self.crc, start, self.payload_nbytes = (
            _read_head(memoryview(head), 0)
        )
        end = start + self.payload_nbytes
        if end > available:
            raise SerializationError("truncated payload")
        if end < available:
            raise SerializationError(f"{available - end} trailing bytes after block")
        if length > available:
            raise refuse(
                f"length {length} runs {length - available} bytes past the end of the file"
            )
        #: where the payload starts in the file
        self.offset = offset + start
        self.out: np.ndarray
        self._buffer: Optional[np.ndarray] = None

    def into(self, out: np.ndarray) -> "BlockRead":
        """Decode into *out*, a C-contiguous array of the block's dtype and
        shape.  A compressed payload's read buffer is allocated here; a raw
        payload needs none — it is read straight into *out*."""
        nbytes = math.prod(self.shape) * self.dtype.itemsize
        if not out.flags.c_contiguous or out.nbytes != nbytes:
            raise ValueError(f"a block read needs a C-contiguous array of {nbytes} bytes")
        if self.codec_id != RawCodec.codec_id:
            self._buffer = np.empty(self.payload_nbytes, dtype=np.uint8)
        elif self.payload_nbytes != nbytes:
            raise SerializationError(
                f"decompressed size {self.payload_nbytes} != declared {nbytes}"
            )
        self.out = out
        return self

    def run(self, fd: int) -> np.ndarray:
        """Read the payload from *fd* with positional reads, CRC-check it and
        decode it into the destination, which is returned."""
        raw = self._buffer is None
        # a uint8 view rather than memoryview.cast, for the reason
        # prepare_block gives
        payload = memoryview(self.out.reshape(-1).view(np.uint8) if raw else self._buffer)
        _pread_into(fd, payload, self.offset)
        if (zlib.crc32(payload) & 0xFFFFFFFF) != self.crc:
            raise SerializationError("payload CRC mismatch (corrupt block)")
        if not raw:
            _decode(self.codec_id, payload, self.out)
            self._buffer = None
        return self.out


def _pread_into(fd: int, view: memoryview, offset: int) -> None:
    """Fill *view* from *fd* at *offset* (``preadv`` may return short)."""
    while view.nbytes:
        n = os.preadv(fd, [view], offset)
        if not n:  # the file shrank since the read was planned
            raise SerializationError("truncated payload")
        view = view[n:]
        offset += n


def plan_entry(
    fd: int,
    entry: Mapping[str, Any],
    refuse: Callable[[str], Exception],
    *,
    base: int = 0,
) -> BlockRead:
    """The planned read of a container index *entry* — ``offset`` (from
    *base*), ``length``, ``dtype`` and ``shape`` — into a fresh array.

    A block whose dtype or shape disagrees with its entry is refused
    (``refuse(why)``, the container's exception) before any byte lands.
    """
    read = BlockRead(fd, base + int(entry["offset"]), int(entry["length"]), refuse)
    said = (str(entry.get("dtype")), tuple(entry.get("shape", ())))
    held = (read.dtype.str, read.shape)
    if said != held:
        raise refuse(
            f"the index says {said[0]} x {said[1]}, its block holds {held[0]} x {held[1]}"
        )
    return read.into(np.empty(read.shape, dtype=read.dtype))
