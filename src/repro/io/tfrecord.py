"""TFRecord-compatible record streams and ``tf.train.Example`` messages.

The fusion archetype (Table 1) shards into TFRecords.  Since TensorFlow is
not a dependency, this module implements the format from the spec:

* **Record framing** — each record is
  ``length:u64le | masked_crc32(length):u32le | data | masked_crc32(data):u32le``
  with the CRC-32C-style mask ``((crc >> 15) | (crc << 17)) + 0xa282ead8``.
  (We use CRC-32 rather than CRC-32C — the framing logic, corruption
  detection, and layout are identical; only the polynomial differs.)
* **Example payloads** — a from-scratch protobuf wire-format encoder and
  decoder for the ``Example``/``Features``/``Feature`` message family
  (``bytes_list`` / ``float_list`` / ``int64_list``), so the payloads have
  genuine protobuf structure.
* **One columnar encoder** — :func:`_encode` is the only writer of the wire
  format.  It takes whole columns (one row per record) plus row indices,
  builds each feature's key, tags and length headers once per column (once
  per distinct length for int64 / bytes features), and per row adds only
  the row's ``<f4`` bytes or int64 varints; :meth:`TFRecordWriter.write_rows`
  frames and writes a bounded batch of rows at a time.  One
  :class:`Example` is its one-row case, so both paths write the same bytes.
"""

from __future__ import annotations

import math
import struct
import zlib
from functools import partial
from itertools import chain, repeat
from operator import add
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "TFRecordWriter",
    "TFRecordReader",
    "Example",
    "encode_example",
    "decode_example",
    "TFRecordError",
]

FeatureValue = Union[Sequence[bytes], Sequence[float], Sequence[int], np.ndarray]
#: ``name -> (kind, values)``: the columns :meth:`TFRecordWriter.write_rows` encodes
Columns = Mapping[str, Tuple[str, Any]]


class TFRecordError(ValueError):
    """Corrupt record framing or malformed Example payload."""


# ---------------------------------------------------------------------------
# record framing
# ---------------------------------------------------------------------------

_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")


def _masked_crc(data: bytes) -> int:
    crc = zlib.crc32(data) & 0xFFFFFFFF
    return (((crc >> 15) | (crc << 17)) + 0xA282EAD8) & 0xFFFFFFFF


def _framed(records: Iterable[bytes]) -> Iterator[bytes]:
    """Each record's frame: ``length | crc(length)``, ``data``, ``crc(data)``."""
    for data in records:
        length = _U64.pack(len(data))
        yield length + _U32.pack(_masked_crc(length))
        yield data
        yield _U32.pack(_masked_crc(data))


class TFRecordWriter:
    """Append framed records to a file."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._fh = open(self.path, "wb")
        self._n = 0

    def write(self, data: bytes) -> None:
        self._fh.writelines(_framed([data]))
        self._n += 1

    def write_rows(self, columns: Columns, rows: Sequence[int]) -> None:
        """One ``Example`` record per row index in *rows* of *columns*
        (see :func:`_encode`), framed and written a bounded batch at a time."""
        for batch in _encode(columns, rows):
            self._fh.writelines(_framed(batch))
            self._n += len(batch)

    def write_example(self, example: "Example") -> None:
        self.write(encode_example(example))

    @property
    def n_records(self) -> int:
        return self._n

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "TFRecordWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class TFRecordReader:
    """Iterate framed records, verifying both CRCs."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)

    def __iter__(self) -> Iterator[bytes]:
        with open(self.path, "rb") as fh:
            while True:
                head = fh.read(12)
                if not head:
                    return
                if len(head) < 12:
                    raise TFRecordError("truncated record header")
                (length,) = struct.unpack("<Q", head[:8])
                (length_crc,) = struct.unpack("<I", head[8:12])
                if _masked_crc(head[:8]) != length_crc:
                    raise TFRecordError("length CRC mismatch")
                data = fh.read(length)
                if len(data) < length:
                    raise TFRecordError("truncated record payload")
                tail = fh.read(4)
                if len(tail) < 4:
                    raise TFRecordError("truncated payload CRC")
                (data_crc,) = struct.unpack("<I", tail)
                if _masked_crc(data) != data_crc:
                    raise TFRecordError("payload CRC mismatch (corrupt record)")
                yield data

    def read_examples(self) -> Iterator["Example"]:
        for record in self:
            yield decode_example(record)


# ---------------------------------------------------------------------------
# protobuf wire format (subset: varint + length-delimited)
# ---------------------------------------------------------------------------

def _read_varint(data: bytes, pos: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise TFRecordError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift >= 70:
            raise TFRecordError("varint too long")


def _tag(field: int, wire_type: int) -> int:
    return (field << 3) | wire_type


# ---------------------------------------------------------------------------
# Example message family
# ---------------------------------------------------------------------------

class Example:
    """A ``tf.train.Example``-equivalent: named features of three list types.

    Features are stored canonically in :attr:`features` as ``name ->
    (kind, values)`` where *kind* is one of ``"bytes"``, ``"float"``,
    ``"int64"``.
    """

    def __init__(self) -> None:
        self.features: Dict[str, Tuple[str, list]] = {}

    # -- ergonomic setters -----------------------------------------------------
    def float_feature(self, name: str, values: Union[Sequence[float], np.ndarray]) -> "Example":
        arr = np.asarray(values, dtype=np.float32).ravel()
        self.features[name] = ("float", arr.tolist())
        return self

    def int64_feature(self, name: str, values: Union[Sequence[int], np.ndarray]) -> "Example":
        arr = np.asarray(values, dtype=np.int64).ravel()
        self.features[name] = ("int64", [int(v) for v in arr])
        return self

    # -- accessors ---------------------------------------------------------------
    def __getitem__(self, name: str) -> list:
        return self.features[name][1]

    def __contains__(self, name: str) -> bool:
        return name in self.features

    def kind(self, name: str) -> str:
        return self.features[name][0]

    def float_array(self, name: str) -> np.ndarray:
        kind, values = self.features[name]
        if kind != "float":
            raise TFRecordError(f"feature {name!r} is {kind}, not float")
        return np.asarray(values, dtype=np.float32)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Example):
            return NotImplemented
        return self.features == other.features

    def __repr__(self) -> str:
        kinds = {k: f"{v[0]}[{len(v[1])}]" for k, v in self.features.items()}
        return f"Example({kinds})"


# ---------------------------------------------------------------------------
# the encoder: whole columns in, one Example per row out
# ---------------------------------------------------------------------------

#: ``Feature`` oneof field of each kind (bytes_list / float_list / int64_list)
_FIELD = {"bytes": 1, "float": 2, "int64": 3}
#: wire dtype of the packed kinds
_DTYPE = {"float": np.dtype("<f4"), "int64": np.dtype("<i8")}
#: rows encoded per batch hold about this many value bytes
BATCH_BYTES = 1 << 22
#: the one-byte varints
_BYTE = [bytes([value]) for value in range(0x80)]


def _varint(value: int) -> bytes:
    """A non-negative int below 2**64 as a protobuf varint."""
    if value <= 0x7F:
        return _BYTE[value]
    out = bytearray()
    while value > 0x7F:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def _per_size(build: Callable[[int], bytes], sizes: Iterable[int]) -> List[bytes]:
    """``build(size)`` for each of *sizes*, built once per distinct size."""
    cache: Dict[int, bytes] = {}
    return [cache.get(size) or cache.setdefault(size, build(size)) for size in sizes]


def _entry_head(key: bytes, kind: str, size: int) -> bytes:
    """Everything of one ``Features.feature`` map entry, its own tag and
    length included, before the *size* bytes of its values (*key* is the
    encoded name field).  float / int64 values are one packed field; bytes
    values are already a ``BytesList`` message."""
    packed = b"" if kind == "bytes" else b"\x0a" + _varint(size)
    list_size = len(packed) + size
    feature = bytes([_tag(_FIELD[kind], 2)]) + _varint(list_size)
    value = b"\x12" + _varint(len(feature) + list_size) + feature + packed
    return b"\x0a" + _varint(len(key) + len(value) + size) + key + value


def _bytes_list(name: str, values: Iterable[Any]) -> bytes:
    """One row of a bytes feature as a ``BytesList`` message."""
    out: List[bytes] = []
    for value in values:
        if not isinstance(value, (bytes, bytearray, memoryview)):
            raise TFRecordError(
                f"bytes feature {name!r} holds a {type(value).__name__}, not bytes"
            )
        value = bytes(value)
        out += (b"\x0a", _varint(len(value)), value)
    return b"".join(out)


def _column(name: str, kind: str, values: Any) -> np.ndarray:
    """A float / int64 column as ``(rows, values per row)``."""
    if not isinstance(values, np.ndarray):
        try:
            values = np.asarray(values, dtype=_DTYPE[kind])
        except (TypeError, ValueError, OverflowError) as exc:
            raise TFRecordError(f"{kind} feature {name!r}: {exc}") from None
    if values.ndim == 0:
        raise TFRecordError(f"{kind} feature {name!r} needs one row per record")
    return values.reshape(len(values), math.prod(values.shape[1:]))


def _feature_rows(
    name: str, key: bytes, kind: str, values: Any, batch: np.ndarray
) -> Tuple[Iterable[bytes], List[Any], Iterable[int]]:
    """One feature of the rows in *batch*: each row's entry head, its value
    bytes, and the entry's size."""
    if kind == "float":
        block = np.ascontiguousarray(values[batch], dtype=_DTYPE[kind])
        data = memoryview(block.reshape(-1).view(np.uint8))
        width = block.shape[1] * block.itemsize
        head = _entry_head(key, kind, width)
        rows = [data[i * width : (i + 1) * width] for i in range(len(batch))]
        return repeat(head), rows, repeat(len(head) + width)
    if kind == "int64":
        ints = values[batch].astype(_DTYPE[kind], copy=False).tolist()
        # two's complement: a negative value is ten bytes
        varint = {v: _varint(v & 0xFFFFFFFFFFFFFFFF) for v in set(chain.from_iterable(ints))}
        rows = [b"".join([varint[v] for v in row]) for row in ints]
    else:
        rows = [_bytes_list(name, values[i]) for i in batch.tolist()]
    heads = _per_size(partial(_entry_head, key, kind), [len(row) for row in rows])
    return heads, rows, [len(head) + len(row) for head, row in zip(heads, rows)]


def _encode(columns: Columns, rows: Sequence[int]) -> Iterator[List[bytes]]:
    """The ``Example`` protobuf bytes of each row in *rows*, in batches of
    about :data:`BATCH_BYTES` of values — the one writer of the wire format.

    *columns* maps each feature name to ``(kind, values)``: ``"float"`` and
    ``"int64"`` values are an array with one row per record (a row's values
    are its raveled sub-array); ``"bytes"`` values hold one sequence of
    bytes-like values per record.  Features go out in name order.
    """
    features = []
    row_bytes = 0
    for name in sorted(columns):
        kind, values = columns[name]
        if kind not in _FIELD:
            raise TFRecordError(f"unknown feature kind {kind!r} for {name!r}")
        if kind in _DTYPE:
            values = _column(name, kind, values)
            row_bytes += _DTYPE[kind].itemsize * values.shape[1]
        encoded = name.encode("utf-8")
        features.append((name, b"\x0a" + _varint(len(encoded)) + encoded, kind, values))
    rows = np.asarray(rows, dtype=np.intp).reshape(-1)
    step = max(1, BATCH_BYTES // max(1, row_bytes))
    for start in range(0, len(rows), step):
        batch = rows[start : start + step]
        parts: List[Iterable[Any]] = []
        sizes = [0] * len(batch)  # each row's Features message
        for feature in features:
            heads, values, entry_sizes = _feature_rows(*feature, batch)
            parts += (heads, values)
            sizes = list(map(add, sizes, entry_sizes))
        tops = _per_size(lambda size: b"\x0a" + _varint(size), sizes)
        yield [b"".join(row) for row in zip(tops, *parts)]


def encode_example(example: Example) -> bytes:
    """Encode to protobuf bytes (Example > Features > map<string, Feature>):
    the one-row case of the column encoder."""
    columns = {name: (kind, [values]) for name, (kind, values) in example.features.items()}
    return next(_encode(columns, [0]))[0]


def _read_len_delimited(data: bytes, pos: int) -> Tuple[bytes, int]:
    size, pos = _read_varint(data, pos)
    if pos + size > len(data):
        raise TFRecordError("length-delimited field overruns buffer")
    return data[pos : pos + size], pos + size


def _decode_feature(data: bytes) -> Tuple[str, list]:
    pos = 0
    while pos < len(data):
        tag, pos = _read_varint(data, pos)
        field, wire = tag >> 3, tag & 7
        if wire != 2:
            raise TFRecordError(f"unexpected wire type {wire} in Feature")
        payload, pos = _read_len_delimited(data, pos)
        if field == 1:  # BytesList
            values: List[bytes] = []
            inner_pos = 0
            while inner_pos < len(payload):
                inner_tag, inner_pos = _read_varint(payload, inner_pos)
                if inner_tag != _tag(1, 2):
                    raise TFRecordError("malformed BytesList")
                item, inner_pos = _read_len_delimited(payload, inner_pos)
                values.append(item)
            return "bytes", values
        if field == 2:  # FloatList (packed)
            inner_pos = 0
            floats: List[float] = []
            while inner_pos < len(payload):
                inner_tag, inner_pos = _read_varint(payload, inner_pos)
                if inner_tag == _tag(1, 2):
                    packed, inner_pos = _read_len_delimited(payload, inner_pos)
                    floats.extend(np.frombuffer(packed, dtype="<f4").tolist())
                elif inner_tag == _tag(1, 5):  # unpacked fixed32
                    floats.append(
                        float(np.frombuffer(payload[inner_pos : inner_pos + 4], "<f4")[0])
                    )
                    inner_pos += 4
                else:
                    raise TFRecordError("malformed FloatList")
            return "float", floats
        if field == 3:  # Int64List (packed varints)
            inner_pos = 0
            ints: List[int] = []
            while inner_pos < len(payload):
                inner_tag, inner_pos = _read_varint(payload, inner_pos)
                if inner_tag == _tag(1, 2):
                    packed, inner_pos = _read_len_delimited(payload, inner_pos)
                    packed_pos = 0
                    while packed_pos < len(packed):
                        value, packed_pos = _read_varint(packed, packed_pos)
                        if value >= 1 << 63:
                            value -= 1 << 64
                        ints.append(value)
                elif inner_tag == _tag(1, 0):  # unpacked varint
                    value, inner_pos = _read_varint(payload, inner_pos)
                    if value >= 1 << 63:
                        value -= 1 << 64
                    ints.append(value)
                else:
                    raise TFRecordError("malformed Int64List")
            return "int64", ints
        raise TFRecordError(f"unknown Feature field {field}")
    return "bytes", []  # empty Feature


def decode_example(data: bytes) -> Example:
    """Decode protobuf bytes into an :class:`Example`."""
    example = Example()
    pos = 0
    while pos < len(data):
        tag, pos = _read_varint(data, pos)
        if tag != _tag(1, 2):
            raise TFRecordError("expected Example.features")
        features_msg, pos = _read_len_delimited(data, pos)
        inner_pos = 0
        while inner_pos < len(features_msg):
            entry_tag, inner_pos = _read_varint(features_msg, inner_pos)
            if entry_tag != _tag(1, 2):
                raise TFRecordError("expected Features.feature map entry")
            entry, inner_pos = _read_len_delimited(features_msg, inner_pos)
            name: str | None = None
            feature: Tuple[str, list] | None = None
            entry_pos = 0
            while entry_pos < len(entry):
                field_tag, entry_pos = _read_varint(entry, entry_pos)
                payload, entry_pos = _read_len_delimited(entry, entry_pos)
                if field_tag == _tag(1, 2):
                    name = payload.decode("utf-8")
                elif field_tag == _tag(2, 2):
                    feature = _decode_feature(payload)
                else:
                    raise TFRecordError("unknown map-entry field")
            if name is None or feature is None:
                raise TFRecordError("incomplete feature map entry")
            example.features[name] = feature
    return example
