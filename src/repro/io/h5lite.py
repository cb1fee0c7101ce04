"""h5lite: a hierarchical, self-describing, single-file container.

Stands in for HDF5 (Table 1 lists HDF5 as a target AI-ready format for
fusion and bio workflows).  The semantics HDF5 provides and pipelines rely
on — groups forming a path hierarchy, named N-D datasets, attributes on any
object, random access by path — are reproduced here on a simple layout:

``superblock | data blocks ... | JSON object index``

* The superblock is ``MAGIC 'H5L1' | u64 index_offset | u64 index_length``.
* Every dataset payload is a checksummed array block
  (:mod:`repro.io.serialization`), optionally compressed.
* The index maps paths to ``{kind, offset, length, attrs, dtype, shape}``;
  it is written last and the superblock patched, so writers are append-only
  (friendly to the striped-filesystem model).
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

import numpy as np

from repro.io.compression import Codec, RawCodec
from repro.io.serialization import pack_array, plan_entry

__all__ = ["H5LiteFile", "H5LiteError"]

MAGIC = b"H5L1"
_SUPERBLOCK = struct.Struct("<4sQQ")

Attrs = Dict[str, object]


class H5LiteError(ValueError):
    """Structural errors: bad paths, missing objects, corrupt superblock."""


def _normalize(path: str) -> str:
    parts = [p for p in path.split("/") if p]
    for part in parts:
        if part in (".", ".."):
            raise H5LiteError(f"illegal path component {part!r}")
    return "/" + "/".join(parts)


def _parents(path: str) -> List[str]:
    parts = [p for p in path.split("/") if p]
    return ["/" + "/".join(parts[:i]) for i in range(1, len(parts))]


class H5LiteFile:
    """Open a container for writing (``mode='w'``) or reading (``mode='r'``).

    Writing is append-only; the object index lives in memory until
    :meth:`close` seals the file.  Reading memory-maps nothing and loads
    datasets lazily by path.
    """

    def __init__(self, path: Union[str, Path], mode: str = "r"):
        if mode not in ("r", "w"):
            raise H5LiteError(f"mode must be 'r' or 'w', got {mode!r}")
        self.path = Path(path)
        self.mode = mode
        self._index: Dict[str, Dict[str, object]] = {}
        self._closed = False
        if mode == "w":
            self._fh = open(self.path, "wb")
            self._fh.write(_SUPERBLOCK.pack(MAGIC, 0, 0))
            self._index["/"] = {"kind": "group", "attrs": {}}
        else:
            self._fh = open(self.path, "rb")
            try:
                self._load_index()
            except BaseException:
                self._fh.close()
                raise

    # -- index management -----------------------------------------------------
    def _load_index(self) -> None:
        head = self._fh.read(_SUPERBLOCK.size)
        if len(head) < _SUPERBLOCK.size:
            raise H5LiteError("file too small for superblock")
        magic, offset, length = _SUPERBLOCK.unpack(head)
        if magic != MAGIC:
            raise H5LiteError(f"bad magic {magic!r}; not an h5lite file")
        if offset == 0:
            raise H5LiteError("file was never sealed (index offset is zero)")
        self._fh.seek(offset)
        raw = self._fh.read(length)
        if len(raw) != length:
            raise H5LiteError("truncated index")
        self._index = json.loads(raw.decode("utf-8"))

    def _require_open(self) -> None:
        if self._closed:
            raise H5LiteError("file is closed")

    def _require_mode(self, mode: str) -> None:
        self._require_open()
        if self.mode != mode:
            raise H5LiteError(f"operation requires mode={mode!r}, file is {self.mode!r}")

    # -- writing ---------------------------------------------------------------
    def create_group(self, path: str, attrs: Optional[Attrs] = None) -> str:
        """Create a group (and its parents); returns the normalized path."""
        self._require_mode("w")
        path = _normalize(path)
        for parent in _parents(path):
            self._index.setdefault(parent, {"kind": "group", "attrs": {}})
        existing = self._index.get(path)
        if existing is not None and existing["kind"] != "group":
            raise H5LiteError(f"{path} exists and is not a group")
        entry = self._index.setdefault(path, {"kind": "group", "attrs": {}})
        if attrs:
            entry["attrs"].update(attrs)  # type: ignore[union-attr]
        return path

    def create_dataset(
        self,
        path: str,
        data: np.ndarray,
        attrs: Optional[Attrs] = None,
        codec: Optional[Codec] = None,
    ) -> str:
        """Write an array under *path*; parents are created as groups."""
        self._require_mode("w")
        path = _normalize(path)
        if path in self._index:
            raise H5LiteError(f"object already exists at {path}")
        for parent in _parents(path):
            parent_entry = self._index.setdefault(parent, {"kind": "group", "attrs": {}})
            if parent_entry["kind"] != "group":
                raise H5LiteError(f"parent {parent} is a dataset, not a group")
        block = pack_array(np.asarray(data), codec or RawCodec())
        offset = self._fh.tell()
        self._fh.write(block)
        data_arr = np.asarray(data)
        self._index[path] = {
            "kind": "dataset",
            "offset": offset,
            "length": len(block),
            "dtype": data_arr.dtype.str,
            "shape": list(data_arr.shape),
            "attrs": dict(attrs or {}),
        }
        return path

    # -- reading -----------------------------------------------------------------
    def read(self, path: str) -> np.ndarray:
        """Load a dataset by path."""
        self._require_mode("r")
        entry = self._entry(path, kind="dataset")

        def refuse(why: str) -> H5LiteError:
            return H5LiteError(f"{self.path}: dataset {_normalize(path)}: {why}")

        fd = self._fh.fileno()
        return plan_entry(fd, entry, refuse).run(fd)

    def attrs(self, path: str) -> Attrs:
        """Attributes of any object."""
        self._require_open()
        return dict(self._entry(path)["attrs"])  # type: ignore[arg-type]

    def _entry(self, path: str, kind: Optional[str] = None) -> Dict[str, object]:
        path = _normalize(path)
        entry = self._index.get(path)
        if entry is None:
            raise H5LiteError(f"no object at {path}")
        if kind is not None and entry["kind"] != kind:
            raise H5LiteError(f"{path} is a {entry['kind']}, expected {kind}")
        return entry

    def exists(self, path: str) -> bool:
        self._require_open()
        return _normalize(path) in self._index

    def kind(self, path: str) -> str:
        return str(self._entry(path)["kind"])

    def shape(self, path: str) -> tuple:
        entry = self._entry(path, kind="dataset")
        return tuple(entry["shape"])  # type: ignore[arg-type]

    def dtype(self, path: str) -> np.dtype:
        entry = self._entry(path, kind="dataset")
        return np.dtype(str(entry["dtype"]))

    def list(self, group: str = "/") -> List[str]:
        """Immediate children of *group*, sorted."""
        self._require_open()
        group = _normalize(group)
        prefix = group if group.endswith("/") else group + "/"
        if group == "/":
            prefix = "/"
        children = set()
        for path in self._index:
            if path == group or not path.startswith(prefix):
                continue
            rest = path[len(prefix):]
            children.add(prefix + rest.split("/")[0])
        return sorted(children)

    def walk(self) -> Iterator[str]:
        """All object paths in sorted order."""
        self._require_open()
        return iter(sorted(self._index))

    def datasets(self) -> List[str]:
        self._require_open()
        return sorted(p for p, e in self._index.items() if e["kind"] == "dataset")

    # -- lifecycle ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        if self.mode == "w":
            index_bytes = json.dumps(self._index, sort_keys=True).encode("utf-8")
            offset = self._fh.tell()
            self._fh.write(index_bytes)
            self._fh.seek(0)
            self._fh.write(_SUPERBLOCK.pack(MAGIC, offset, len(index_bytes)))
        self._fh.close()
        self._closed = True

    def __enter__(self) -> "H5LiteFile":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"H5LiteFile({str(self.path)!r}, mode={self.mode!r}, objects={len(self._index)})"
