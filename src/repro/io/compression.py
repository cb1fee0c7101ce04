"""Compression codec registry for shard and container formats.

Every binary format in :mod:`repro.io` compresses payload blocks through
this registry so that codec choice is an orthogonal, benchmarkable knob
(DESIGN.md ablation 5).  Codecs are identified by a one-byte id that is
embedded in block headers, making files self-describing.
"""

from __future__ import annotations

import abc
import lzma
import zlib
from typing import Dict, List, Optional

__all__ = [
    "Codec",
    "RawCodec",
    "ZlibCodec",
    "LzmaCodec",
    "get_codec",
    "codec_from_id",
    "CodecError",
]


#: input bytes handed to one ``deflate`` call, and the most output one
#: bounded ``inflate`` call returns
_ZLIB_SLICE = 256 << 10


class CodecError(ValueError):
    """Unknown codec name/id or corrupt compressed payload."""


class Codec(abc.ABC):
    """A reversible bytes-to-bytes compressor."""

    #: unique single-byte identifier written into block headers
    codec_id: int
    #: registry name
    name: str

    @abc.abstractmethod
    def compress(self, data: bytes) -> bytes:
        """Compress *data* (any flat bytes-like); must be reversible by
        :meth:`decompress`."""

    def compress_chunks(self, data: bytes) -> List[bytes]:
        """:meth:`compress` as bytes-like pieces whose concatenation is
        its result.

        What the block writers call: they put the pieces out one after
        another, so a codec run on a helper thread never makes the one
        large allocation a joined payload would be.
        """
        return [self.compress(data)]

    @abc.abstractmethod
    def decompress(self, data: bytes) -> bytes:
        """Invert :meth:`compress`."""

    def decompress_into(self, data: bytes, out: memoryview) -> int:
        """:meth:`decompress` *data* into the writable byte view *out*.

        Returns the decompressed size, which the caller checks against
        ``len(out)``: bytes beyond *out* are counted, never written.  What
        the block decoders call; the zlib codec inflates in pieces of at
        most 256 KiB, so a zlib block decoded on a helper thread never
        makes an allocation the size of the block.
        """
        return _put(out, 0, self.decompress(data))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class RawCodec(Codec):
    """Identity codec: no compression, no CPU cost."""

    codec_id = 0
    name = "raw"

    def compress(self, data: bytes) -> bytes:
        return bytes(data)

    def compress_chunks(self, data: bytes) -> List[bytes]:
        # the caller's own buffer: a writer puts it out without a copy
        return [data]

    def decompress(self, data: bytes) -> bytes:
        # the caller's own buffer: no copy
        return data


class ZlibCodec(Codec):
    """DEFLATE via :mod:`zlib`; the throughput/ratio middle ground."""

    codec_id = 1
    name = "zlib"

    def __init__(self, level: int = 4):
        if not 0 <= level <= 9:
            raise CodecError(f"zlib level must be in [0, 9], got {level}")
        self.level = level

    def compress(self, data: bytes) -> bytes:
        return b"".join(self.compress_chunks(data))

    def compress_chunks(self, data: bytes) -> List[bytes]:
        if self.level == 0:
            # stored blocks are cut by how much input one call sees: only
            # the one-shot call reproduces the one-shot bytes
            return [zlib.compress(data, 0)]
        # deflate output does not depend on how its input is sliced, and
        # slices keep every allocation of this call small
        deflate = zlib.compressobj(self.level)
        view = memoryview(data)
        chunks = [
            deflate.compress(view[start : start + _ZLIB_SLICE])
            for start in range(0, view.nbytes, _ZLIB_SLICE)
        ]
        chunks.append(deflate.flush())
        return [chunk for chunk in chunks if chunk]

    def decompress(self, data: bytes) -> bytes:
        try:
            return zlib.decompress(data)
        except zlib.error as exc:
            raise CodecError(f"zlib payload corrupt: {exc}") from exc

    def decompress_into(self, data: bytes, out: memoryview) -> int:
        inflate = zlib.decompressobj()
        view = memoryview(data)
        size = 0
        try:
            for start in range(0, view.nbytes, _ZLIB_SLICE):
                tail = view[start : start + _ZLIB_SLICE]
                while not inflate.eof:
                    piece = inflate.decompress(tail, _ZLIB_SLICE)
                    size = _put(out, size, piece)
                    tail = inflate.unconsumed_tail
                    # a full piece may leave output pending past the slice
                    if not tail and len(piece) < _ZLIB_SLICE:
                        break
        except zlib.error as exc:
            raise CodecError(f"zlib payload corrupt: {exc}") from exc
        if not inflate.eof:
            # a stream cut short: the one-shot call raises what it always did
            return super().decompress_into(data, out)
        return size


class LzmaCodec(Codec):
    """LZMA/XZ: best ratio, slowest; for cold archival shards."""

    codec_id = 2
    name = "lzma"

    def __init__(self, preset: int = 1):
        if not 0 <= preset <= 9:
            raise CodecError(f"lzma preset must be in [0, 9], got {preset}")
        self.preset = preset

    def compress(self, data: bytes) -> bytes:
        return lzma.compress(data, preset=self.preset)

    def decompress(self, data: bytes) -> bytes:
        try:
            return lzma.decompress(data)
        except lzma.LZMAError as exc:
            raise CodecError(f"lzma payload corrupt: {exc}") from exc


def _put(out: memoryview, size: int, piece: bytes) -> int:
    """Copy *piece* into *out* at *size* (what fits of it); the new size."""
    end = min(size + len(piece), len(out))
    if end > size:
        out[size:end] = memoryview(piece)[: end - size]
    return size + len(piece)


_BY_NAME: Dict[str, type] = {
    RawCodec.name: RawCodec,
    ZlibCodec.name: ZlibCodec,
    LzmaCodec.name: LzmaCodec,
}
_BY_ID: Dict[int, type] = {c.codec_id: c for c in (RawCodec, ZlibCodec, LzmaCodec)}


def get_codec(name: str, level: Optional[int] = None) -> Codec:
    """Instantiate a codec by name, optionally with a compression level."""
    try:
        cls = _BY_NAME[name]
    except KeyError:
        raise CodecError(
            f"unknown codec {name!r}; available: {sorted(_BY_NAME)}"
        ) from None
    if level is None:
        return cls()
    if cls is RawCodec:
        return cls()
    if cls is ZlibCodec:
        return cls(level=level)
    return cls(preset=level)


def codec_from_id(codec_id: int) -> Codec:
    """Instantiate the codec that wrote a block with this header id."""
    try:
        return _BY_ID[codec_id]()
    except KeyError:
        raise CodecError(f"unknown codec id {codec_id}") from None
