"""NetCDF-like self-describing format for gridded scientific sources.

Climate sources (CMIP6, ERA5) arrive as NetCDF: named *dimensions*, N-D
*variables* defined over those dimensions, and attribute metadata at both
variable and file scope.  The climate archetype's first real work item is
converting this community format into training shards (Section 3.1), so a
faithful source format is required.  Layout::

    MAGIC 'NCL1' | u32 header_len | JSON header | variable data blocks

The JSON header declares dimensions, variables (dims, dtype, shape, attrs,
offset, length), and global attributes.  Variable payloads are checksummed
array blocks.  An in-memory :class:`NCDataset` model supports building
files programmatically (used by the synthetic CMIP-like generator).
"""

from __future__ import annotations

import contextlib
import functools
import json
import struct
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.helper_pool import decode_ahead
from repro.io.compression import RawCodec
from repro.io.serialization import pack_array, plan_entry

__all__ = ["NCVariable", "NCDataset", "write_netcdf", "read_netcdf", "NetCDFError"]

MAGIC = b"NCL1"
_HEADER_LEN = struct.Struct("<I")
#: the codec every variable is written with
CODEC = RawCodec()


class NetCDFError(ValueError):
    """Inconsistent dimensions/variables or corrupt file structure."""


class NCVariable:
    """One variable: data defined over named dimensions, plus attributes."""

    def __init__(
        self,
        name: str,
        dims: Sequence[str],
        data: np.ndarray,
        attrs: Optional[Dict[str, object]] = None,
    ):
        self.name = name
        self.dims = tuple(dims)
        self.data = np.asarray(data)
        self.attrs: Dict[str, object] = dict(attrs or {})
        if self.data.ndim != len(self.dims):
            raise NetCDFError(
                f"variable {name!r}: {self.data.ndim}-D data with {len(self.dims)} dims"
            )

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def units(self) -> Optional[str]:
        units = self.attrs.get("units")
        return None if units is None else str(units)

    def __repr__(self) -> str:
        return f"NCVariable({self.name!r}, dims={self.dims}, shape={self.shape})"


class NCDataset:
    """In-memory NetCDF-like dataset: dimensions, variables, global attrs."""

    def __init__(self, attrs: Optional[Dict[str, object]] = None):
        self.dimensions: Dict[str, int] = {}
        self.variables: Dict[str, NCVariable] = {}
        self.attrs: Dict[str, object] = dict(attrs or {})

    def create_dimension(self, name: str, size: int) -> None:
        if name in self.dimensions and self.dimensions[name] != size:
            raise NetCDFError(
                f"dimension {name!r} redefined: {self.dimensions[name]} -> {size}"
            )
        if size < 0:
            raise NetCDFError(f"dimension {name!r} has negative size")
        self.dimensions[name] = int(size)

    def create_variable(
        self,
        name: str,
        dims: Sequence[str],
        data: np.ndarray,
        attrs: Optional[Dict[str, object]] = None,
    ) -> NCVariable:
        """Add a variable; its shape must match the declared dimensions."""
        if name in self.variables:
            raise NetCDFError(f"variable {name!r} already exists")
        var = NCVariable(name, dims, data, attrs)
        for dim, size in zip(var.dims, var.shape):
            if dim not in self.dimensions:
                raise NetCDFError(f"variable {name!r} uses undeclared dimension {dim!r}")
            if self.dimensions[dim] != size:
                raise NetCDFError(
                    f"variable {name!r}: dimension {dim!r} is {self.dimensions[dim]}, "
                    f"data axis is {size}"
                )
        self.variables[name] = var
        return var

    def __contains__(self, name: str) -> bool:
        return name in self.variables

    def __getitem__(self, name: str) -> NCVariable:
        try:
            return self.variables[name]
        except KeyError:
            raise NetCDFError(f"no variable {name!r}") from None

    def data_variables(self) -> List[str]:
        """Variables that are not coordinate variables (name != its only dim)."""
        return sorted(
            name
            for name, var in self.variables.items()
            if not (len(var.dims) == 1 and var.dims[0] == name)
        )

    def __repr__(self) -> str:
        return (
            f"NCDataset(dims={self.dimensions}, variables={sorted(self.variables)})"
        )


def write_netcdf(dataset: NCDataset, path: Union[str, Path]) -> Path:
    """Serialize *dataset* to a single self-describing file, every variable
    packed with :data:`CODEC` (a reader takes any codec)."""
    path = Path(path)
    codec = CODEC
    blocks: List[bytes] = []
    var_meta: Dict[str, Dict[str, object]] = {}
    offset = 0
    for name in sorted(dataset.variables):
        var = dataset.variables[name]
        block = pack_array(var.data, codec)
        var_meta[name] = {
            "dims": list(var.dims),
            "dtype": var.data.dtype.str,
            "shape": list(var.shape),
            "attrs": var.attrs,
            "offset": offset,
            "length": len(block),
        }
        blocks.append(block)
        offset += len(block)
    header = json.dumps(
        {
            "dimensions": dataset.dimensions,
            "variables": var_meta,
            "attrs": dataset.attrs,
        },
        sort_keys=True,
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_HEADER_LEN.pack(len(header)))
        fh.write(header)
        for block in blocks:
            fh.write(block)
    return path


def read_netcdf(path: Union[str, Path]) -> NCDataset:
    """Load a file written by :func:`write_netcdf` back into memory.

    Each variable's block is planned on the calling thread — its header
    checked against the file header's entry (a disagreement is a
    :class:`NetCDFError` naming the file and the variable, before any byte
    lands) and its array allocated — and read, checked and decoded ahead
    of the caller on the helper pool
    (:func:`~repro.core.helper_pool.decode_ahead`).
    """
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise NetCDFError(f"bad magic {magic!r}; not a NetCDF-like file")
        raw_len = fh.read(_HEADER_LEN.size)
        if len(raw_len) < _HEADER_LEN.size:
            raise NetCDFError("truncated header length")
        (header_len,) = _HEADER_LEN.unpack(raw_len)
        header = json.loads(fh.read(header_len).decode("utf-8"))
        data_start = fh.tell()
        dataset = NCDataset(attrs=header.get("attrs", {}))
        for name, size in header["dimensions"].items():
            dataset.create_dimension(name, size)
        variables = list(header["variables"].items())
        fd = fh.fileno()

        def plan(k: int) -> Callable[[], np.ndarray]:
            name, meta = variables[k]

            def refuse(why: str) -> NetCDFError:
                return NetCDFError(f"{path}: variable {name!r}: {why}")

            return functools.partial(plan_entry(fd, meta, refuse, base=data_start).run, fd)

        with contextlib.closing(decode_ahead("netcdf-decode", len(variables), plan)) as arrays:
            for (name, meta), data in zip(variables, arrays):
                dataset.create_variable(name, meta["dims"], data, meta.get("attrs", {}))
    return dataset
