"""MDSplus-like shot-tree store for fusion diagnostics.

"The DIII-D ML pipeline begins with shot-level data extraction via
MDSplus" (Section 3.2).  MDSplus organizes experimental data as *trees*
keyed by shot number, with node paths addressing individual diagnostic
signals.  This module reproduces that access pattern on an h5lite-backed
store: one tree per shot, one dataset pair (times, values) per signal
node, shot-level attributes for labels and campaign metadata.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.io.h5lite import H5LiteFile
from repro.transforms.align import Signal

__all__ = ["ShotTreeStore", "ShotTreeError"]


class ShotTreeError(KeyError):
    """Missing shots or signal nodes."""


class ShotTreeStore:
    """A directory of shot trees with MDSplus-flavoured accessors."""

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, shot: int) -> Path:
        return self.directory / f"shot_{shot:06d}.h5l"

    # -- writing -------------------------------------------------------------
    def write_shot(
        self,
        shot: int,
        signals: Dict[str, Signal],
        attrs: Optional[Dict[str, object]] = None,
    ) -> None:
        """Store a shot's signals and attributes."""
        with H5LiteFile(self._path(shot), "w") as fh:
            fh.create_group("/", attrs=dict(attrs or {}))
            for name, signal in signals.items():
                node = f"/signals/{name}"
                fh.create_dataset(f"{node}/times", signal.times)
                fh.create_dataset(
                    f"{node}/values",
                    signal.values,
                    attrs={"units": signal.units or ""},
                )

    # -- reading ---------------------------------------------------------------
    def shots(self) -> List[int]:
        """All stored shot numbers, ascending."""
        return sorted(
            int(p.stem.split("_")[1]) for p in self.directory.glob("shot_*.h5l")
        )

    def read_shot(self, shot: int) -> Tuple[Dict[str, Signal], Dict[str, object]]:
        """A shot's diagnostics — by node name, sorted; sparse shots differ —
        and its attributes, read through one open of its tree."""
        with self._open(shot) as fh:
            children = fh.list("/signals") if fh.exists("/signals") else []
            signals: Dict[str, Signal] = {}
            for name in sorted(c.rsplit("/", 1)[-1] for c in children):
                node = f"/signals/{name}"
                if not fh.exists(f"{node}/values"):
                    raise ShotTreeError(f"shot {shot} has no signal {name!r}")
                units = str(fh.attrs(f"{node}/values").get("units", "")) or None
                signals[name] = Signal(
                    name=name,
                    times=fh.read(f"{node}/times"),
                    values=fh.read(f"{node}/values"),
                    units=units,
                )
            return signals, fh.attrs("/")

    def _open(self, shot: int) -> H5LiteFile:
        path = self._path(shot)
        if not path.exists():
            raise ShotTreeError(f"no tree for shot {shot}")
        return H5LiteFile(path, "r")
