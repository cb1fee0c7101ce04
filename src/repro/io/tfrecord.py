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
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Tuple, Union

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


class TFRecordError(ValueError):
    """Corrupt record framing or malformed Example payload."""


# ---------------------------------------------------------------------------
# record framing
# ---------------------------------------------------------------------------

def _masked_crc(data: bytes) -> int:
    crc = zlib.crc32(data) & 0xFFFFFFFF
    return (((crc >> 15) | (crc << 17)) + 0xA282EAD8) & 0xFFFFFFFF


class TFRecordWriter:
    """Append framed records to a file."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._fh = open(self.path, "wb")
        self._n = 0

    def write(self, data: bytes) -> None:
        length = struct.pack("<Q", len(data))
        self._fh.write(length)
        self._fh.write(struct.pack("<I", _masked_crc(length)))
        self._fh.write(data)
        self._fh.write(struct.pack("<I", _masked_crc(data)))
        self._n += 1

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

def _write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        value &= (1 << 64) - 1  # two's-complement for negative int64
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


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


def _write_len_delimited(out: bytearray, field: int, payload: bytes) -> None:
    _write_varint(out, _tag(field, 2))
    _write_varint(out, len(payload))
    out.extend(payload)


# ---------------------------------------------------------------------------
# Example message family
# ---------------------------------------------------------------------------

class Example:
    """A ``tf.train.Example``-equivalent: named features of three list types.

    Features are stored canonically as ``(kind, values)`` where *kind* is
    one of ``"bytes"``, ``"float"``, ``"int64"``.
    """

    def __init__(self, features: Dict[str, Tuple[str, list]] | None = None):
        self.features: Dict[str, Tuple[str, list]] = dict(features or {})

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


def _encode_feature(kind: str, values: list) -> bytes:
    inner = bytearray()
    if kind == "bytes":
        for v in values:
            _write_len_delimited(inner, 1, bytes(v))
        field = 1
    elif kind == "float":
        packed = np.asarray(values, dtype="<f4").tobytes()
        body = bytearray()
        _write_len_delimited(body, 1, packed)  # packed repeated float
        inner = body
        field = 2
    elif kind == "int64":
        body = bytearray()
        packed = bytearray()
        for v in values:
            _write_varint(packed, int(v))
        _write_len_delimited(body, 1, bytes(packed))  # packed repeated int64
        inner = body
        field = 3
    else:  # pragma: no cover - guarded by setters
        raise TFRecordError(f"unknown feature kind {kind!r}")
    feature = bytearray()
    _write_len_delimited(feature, field, bytes(inner))
    return bytes(feature)


def encode_example(example: Example) -> bytes:
    """Encode to protobuf bytes (Example > Features > map<string, Feature>)."""
    features_msg = bytearray()
    for name in sorted(example.features):
        kind, values = example.features[name]
        entry = bytearray()
        _write_len_delimited(entry, 1, name.encode("utf-8"))
        _write_len_delimited(entry, 2, _encode_feature(kind, values))
        _write_len_delimited(features_msg, 1, bytes(entry))
    out = bytearray()
    _write_len_delimited(out, 1, bytes(features_msg))
    return bytes(out)


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
