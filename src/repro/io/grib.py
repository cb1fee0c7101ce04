"""GRIB-like encoded message format for packed meteorological fields.

GRIB is the *encoded* (as the paper puts it) community format: values are
not stored as floats but packed into fixed-width integers with a per-message
scale and reference, trading precision for size.  The climate ingest stage
must therefore *decode* — a genuinely lossy, unit-aware operation — before
any preprocessing can happen.  This module reproduces that behaviour:

* A file is a sequence of independent **messages**.
* Each message carries identification (variable short name, level, valid
  time), a regular lat-lon grid definition, and a data section packed with
  the classic GRIB simple packing scheme::

      value = reference + packed_int * 2**binary_scale

  using ``bits_per_value``-wide big-endian integers (we byte-align to 8/16/32
  bits for simplicity; the precision behaviour is the same).
* A CRC-32 trails each message, standing in for GRIB's section checksums.

:func:`packing_error_bound` exposes the worst-case quantization error so the
ingest stage can record decode fidelity as readiness evidence.
"""

from __future__ import annotations

import dataclasses
import json
import struct
import zlib
from pathlib import Path
from typing import Iterator, List, Tuple, Union

import numpy as np

__all__ = [
    "GridDefinition",
    "GribMessage",
    "write_grib",
    "read_grib",
    "packing_error_bound",
    "GribError",
]

MAGIC = b"GRB1"
_MSG_HEADER = struct.Struct("<4sII")  # magic, header_len, data_len
#: integer width of every packed value written; a reader takes 8, 16 or 32
BITS_PER_VALUE = 16


class GribError(ValueError):
    """Corrupt message framing or invalid packing parameters."""


@dataclasses.dataclass(frozen=True)
class GridDefinition:
    """A regular latitude-longitude grid."""

    lat0: float
    lon0: float
    dlat: float
    dlon: float
    nlat: int
    nlon: int

    def latitudes(self) -> np.ndarray:
        return self.lat0 + self.dlat * np.arange(self.nlat)

    def longitudes(self) -> np.ndarray:
        return self.lon0 + self.dlon * np.arange(self.nlon)

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.nlat, self.nlon)


@dataclasses.dataclass
class GribMessage:
    """One decoded field: identification + grid + values."""

    short_name: str
    level: int
    valid_time: int  # hours since an epoch; integer like GRIB's time octets
    grid: GridDefinition
    values: np.ndarray
    units: str = ""

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != self.grid.shape:
            raise GribError(
                f"values shape {self.values.shape} != grid shape {self.grid.shape}"
            )


def _choose_scale(vmin: float, vmax: float, bits: int) -> Tuple[float, int]:
    """Reference value and binary scale exponent for simple packing."""
    span = vmax - vmin
    max_int = (1 << bits) - 1
    if span <= 0:
        return vmin, 0
    # smallest e with span / 2**e <= max_int
    exponent = 0
    while span / (2.0 ** exponent) > max_int:
        exponent += 1
    while exponent > -40 and span / (2.0 ** (exponent - 1)) <= max_int:
        exponent -= 1
    return vmin, exponent


def packing_error_bound(values: np.ndarray, bits_per_value: int = 16) -> float:
    """Worst-case absolute quantization error for simple packing."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return 0.0
    _, exponent = _choose_scale(float(values.min()), float(values.max()), bits_per_value)
    return 0.5 * (2.0 ** exponent)


def _pack_values(values: np.ndarray, bits: int) -> Tuple[bytes, float, int]:
    flat = np.asarray(values, dtype=np.float64).ravel()
    if flat.size and not np.all(np.isfinite(flat)):
        raise GribError("cannot pack non-finite values; clean data first")
    reference = float(flat.min()) if flat.size else 0.0
    reference, exponent = _choose_scale(
        reference, float(flat.max()) if flat.size else 0.0, bits
    )
    scaled = np.round((flat - reference) / (2.0 ** exponent)).astype(np.uint64)
    dtype = {8: ">u1", 16: ">u2", 32: ">u4"}[bits]
    return scaled.astype(dtype).tobytes(), reference, exponent


def _unpack_values(
    payload: bytes, bits: int, reference: float, exponent: int, shape: Tuple[int, int]
) -> np.ndarray:
    dtype = {8: ">u1", 16: ">u2", 32: ">u4"}[bits]
    ints = np.frombuffer(payload, dtype=dtype).astype(np.float64)
    return (reference + ints * (2.0 ** exponent)).reshape(shape)


def write_grib(messages: List[GribMessage], path: Union[str, Path]) -> Path:
    """Encode *messages* into a GRIB-like file (lossy, by design), each value
    packed into :data:`BITS_PER_VALUE` bits."""
    path = Path(path)
    with open(path, "wb") as fh:
        for msg in messages:
            payload, reference, exponent = _pack_values(msg.values, BITS_PER_VALUE)
            header = json.dumps(
                {
                    "short_name": msg.short_name,
                    "level": msg.level,
                    "valid_time": msg.valid_time,
                    "units": msg.units,
                    "grid": dataclasses.asdict(msg.grid),
                    "bits_per_value": BITS_PER_VALUE,
                    "reference": reference,
                    "binary_scale": exponent,
                },
                sort_keys=True,
            ).encode("utf-8")
            fh.write(_MSG_HEADER.pack(MAGIC, len(header), len(payload)))
            fh.write(header)
            fh.write(payload)
            fh.write(struct.pack("<I", zlib.crc32(header + payload) & 0xFFFFFFFF))
    return path


def read_grib(path: Union[str, Path]) -> Iterator[GribMessage]:
    """Decode messages one at a time (streaming; files can be large)."""
    path = Path(path)
    with open(path, "rb") as fh:
        while True:
            head = fh.read(_MSG_HEADER.size)
            if not head:
                return
            if len(head) < _MSG_HEADER.size:
                raise GribError("truncated message header")
            magic, header_len, data_len = _MSG_HEADER.unpack(head)
            if magic != MAGIC:
                raise GribError(f"bad magic {magic!r} in message")
            header_bytes = fh.read(header_len)
            payload = fh.read(data_len)
            crc_raw = fh.read(4)
            if len(header_bytes) < header_len or len(payload) < data_len or len(crc_raw) < 4:
                raise GribError("truncated message body")
            (crc,) = struct.unpack("<I", crc_raw)
            if (zlib.crc32(header_bytes + payload) & 0xFFFFFFFF) != crc:
                raise GribError("message CRC mismatch (corrupt message)")
            meta = json.loads(header_bytes.decode("utf-8"))
            grid = GridDefinition(**meta["grid"])
            values = _unpack_values(
                payload,
                int(meta["bits_per_value"]),
                float(meta["reference"]),
                int(meta["binary_scale"]),
                grid.shape,
            )
            yield GribMessage(
                short_name=meta["short_name"],
                level=int(meta["level"]),
                valid_time=int(meta["valid_time"]),
                grid=grid,
                values=values,
                units=meta.get("units", ""),
            )
