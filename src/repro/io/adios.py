"""ADIOS-BP-like step-based container.

The materials archetype shards graph data via ADIOS (Table 1; HydraGNN).
ADIOS's distinguishing write pattern — producers append *steps*, each step
carrying a set of named variables, with a footer index enabling
read-by-step and read-by-variable — is reproduced here:

``MAGIC 'ABP1' | step blocks ... | JSON footer | u64 footer_offset | MAGIC``

Each variable payload is a checksummed array block.  The trailing (rather
than leading) index matches ADIOS's append-only, crash-truncatable design:
an unsealed file simply lacks the trailer.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro.io.compression import Codec, RawCodec
from repro.io.serialization import pack_array, plan_entry

__all__ = ["BPWriter", "BPReader", "BPError"]

MAGIC = b"ABP1"
_TRAILER = struct.Struct("<Q4s")


class BPError(ValueError):
    """Structural errors in a BP-like container."""


class BPWriter:
    """Append steps of named variables to a new container file."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._fh = open(self.path, "wb")
        self._fh.write(MAGIC)
        self._steps: List[Dict[str, Dict[str, object]]] = []
        self._current: Optional[Dict[str, Dict[str, object]]] = None
        self._closed = False

    def begin_step(self) -> int:
        """Open a new step; returns its index."""
        if self._closed:
            raise BPError("writer is closed")
        if self._current is not None:
            raise BPError("previous step not ended")
        self._current = {}
        return len(self._steps)

    def write(
        self, name: str, data: np.ndarray, codec: Optional[Codec] = None
    ) -> None:
        """Write variable *name* into the current step."""
        if self._current is None:
            raise BPError("write outside begin_step/end_step")
        if name in self._current:
            raise BPError(f"variable {name!r} already written this step")
        arr = np.asarray(data)
        block = pack_array(arr, codec or RawCodec())
        offset = self._fh.tell()
        self._fh.write(block)
        self._current[name] = {
            "offset": offset,
            "length": len(block),
            "dtype": arr.dtype.str,
            "shape": list(arr.shape),
        }

    def end_step(self) -> None:
        if self._current is None:
            raise BPError("end_step without begin_step")
        self._steps.append(self._current)
        self._current = None

    def close(self) -> None:
        if self._closed:
            return
        if self._current is not None:
            raise BPError("cannot close with an open step")
        footer = json.dumps({"steps": self._steps}, sort_keys=True).encode("utf-8")
        offset = self._fh.tell()
        self._fh.write(footer)
        self._fh.write(_TRAILER.pack(offset, MAGIC))
        self._fh.close()
        self._closed = True

    def __enter__(self) -> "BPWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        if self._current is not None:
            # abandon the open step so close() can seal what was committed
            self._current = None
        self.close()


class BPReader:
    """Random access to steps and variables of a sealed container."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._fh = open(self.path, "rb")
        try:
            self._steps: List[Dict[str, Dict[str, object]]] = self._load_footer()
        except BaseException:
            self._fh.close()
            raise

    def _load_footer(self) -> List[Dict[str, Dict[str, object]]]:
        head = self._fh.read(4)
        if head != MAGIC:
            raise BPError(f"bad magic {head!r}; not a BP-like file")
        self._fh.seek(-_TRAILER.size, 2)
        offset, trailer_magic = _TRAILER.unpack(self._fh.read(_TRAILER.size))
        if trailer_magic != MAGIC:
            raise BPError("missing trailer; file was not sealed")
        end = self._fh.seek(0, 2) - _TRAILER.size
        self._fh.seek(offset)
        return json.loads(self._fh.read(end - offset).decode("utf-8"))["steps"]

    @property
    def n_steps(self) -> int:
        return len(self._steps)

    def variables(self, step: int) -> List[str]:
        """Variable names present in *step*, sorted."""
        return sorted(self._step(step))

    def all_variables(self) -> List[str]:
        """Union of variable names across steps, sorted."""
        names: set = set()
        for step in self._steps:
            names.update(step)
        return sorted(names)

    def _step(self, step: int) -> Dict[str, Dict[str, object]]:
        if not 0 <= step < len(self._steps):
            raise BPError(f"step {step} out of range [0, {len(self._steps)})")
        return self._steps[step]

    def read(self, step: int, name: str) -> np.ndarray:
        """Load one variable from one step."""
        entry = self._step(step).get(name)
        if entry is None:
            raise BPError(f"step {step} has no variable {name!r}")

        def refuse(why: str) -> BPError:
            return BPError(f"{self.path}: step {step} variable {name!r}: {why}")

        fd = self._fh.fileno()
        return plan_entry(fd, entry, refuse).run(fd)

    def read_all(self, name: str) -> List[np.ndarray]:
        """Load *name* from every step that has it, in step order."""
        return [
            self.read(i, name) for i in range(self.n_steps) if name in self._steps[i]
        ]

    def shape(self, step: int, name: str) -> tuple:
        entry = self._step(step).get(name)
        if entry is None:
            raise BPError(f"step {step} has no variable {name!r}")
        return tuple(entry["shape"])

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "BPReader":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
