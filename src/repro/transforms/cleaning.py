"""Data cleaning: missing values, outliers, duplicates, unit harmonization.

The first substantive preprocessing step of Figure 1 ("Handle missing
values ... ensure consistent units and formats", Section 2.1).  All
operations are vectorized, work column-wise on :class:`Dataset` or raw
arrays, and return both the cleaned data and a :class:`CleaningReport`
that pipelines convert into readiness evidence.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.dataset import Dataset

__all__ = [
    "CleaningReport",
    "missing_mask",
    "missing_fraction",
    "impute",
    "clip_outliers",
    "outlier_mask",
    "UnitConverter",
    "harmonize_units",
    "clean_dataset",
]


@dataclasses.dataclass
class CleaningReport:
    """What cleaning did, per column."""

    imputed: Dict[str, int] = dataclasses.field(default_factory=dict)
    clipped: Dict[str, int] = dataclasses.field(default_factory=dict)
    converted_units: Dict[str, Tuple[str, str]] = dataclasses.field(default_factory=dict)
    residual_missing_fraction: float = 0.0

    @property
    def total_imputed(self) -> int:
        return sum(self.imputed.values())

    @property
    def total_clipped(self) -> int:
        return sum(self.clipped.values())

    def summary(self) -> str:
        return (
            f"imputed={self.total_imputed}, clipped={self.total_clipped}, "
            f"unit_conversions={len(self.converted_units)}, "
            f"residual_missing={self.residual_missing_fraction:.4f}"
        )


# ---------------------------------------------------------------------------
# missing values
# ---------------------------------------------------------------------------

def missing_mask(values: np.ndarray) -> np.ndarray:
    """Boolean mask of missing (NaN) entries."""
    values = np.asarray(values)
    if np.issubdtype(values.dtype, np.floating):
        return np.isnan(values)
    return np.zeros(values.shape, dtype=bool)


def missing_fraction(values: np.ndarray) -> float:
    """Fraction of missing (NaN) entries in an array."""
    values = np.asarray(values)
    if values.size == 0:
        return 0.0
    return float(missing_mask(values).mean())


def impute(values: np.ndarray) -> Tuple[np.ndarray, int]:
    """Fill missing (NaN) entries with the mean of the observed entries (per
    trailing feature for 2-D+); returns ``(filled_copy, n_imputed)``."""
    values = np.asarray(values, dtype=np.float64).copy()
    mask = missing_mask(values)
    n_missing = int(mask.sum())
    if n_missing == 0:
        return values, 0
    if mask.all():
        raise ValueError("cannot impute a fully-missing column")
    if values.ndim == 1:
        values[mask] = np.nanmean(values)
    else:
        # broadcast per-feature fill into missing slots
        idx = np.nonzero(mask)
        values[idx] = np.broadcast_to(np.nanmean(values, axis=0), values.shape)[idx]
    return values, n_missing


# ---------------------------------------------------------------------------
# outliers
# ---------------------------------------------------------------------------

#: robust deviations from the median beyond which a value is an outlier
OUTLIER_SIGMAS = 5.0


def outlier_mask(values: np.ndarray) -> np.ndarray:
    """Mask of entries more than ``OUTLIER_SIGMAS`` robust deviations from
    the median.

    Uses the MAD-based robust sigma (1.4826 * MAD) so extreme outliers do
    not inflate the threshold that is supposed to catch them.
    """
    values = np.asarray(values, dtype=np.float64)
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        return np.zeros(values.shape, dtype=bool)
    median = np.median(finite)
    mad = np.median(np.abs(finite - median))
    sigma = 1.4826 * mad
    if sigma == 0:
        sigma = finite.std() or 1.0
    with np.errstate(invalid="ignore"):
        return np.abs(values - median) > OUTLIER_SIGMAS * sigma


def clip_outliers(values: np.ndarray) -> Tuple[np.ndarray, int]:
    """Winsorize outliers to the +/- ``OUTLIER_SIGMAS`` robust bound;
    returns count."""
    values = np.asarray(values, dtype=np.float64).copy()
    mask = outlier_mask(values)
    n = int(mask.sum())
    if n:
        finite = values[np.isfinite(values)]
        median = np.median(finite)
        mad = np.median(np.abs(finite - median))
        sigma = 1.4826 * mad or (finite.std() or 1.0)
        bound = OUTLIER_SIGMAS * sigma
        np.clip(values, median - bound, median + bound, out=values)
    return values, n


# ---------------------------------------------------------------------------
# units
# ---------------------------------------------------------------------------

class UnitConverter:
    """Linear unit conversions ``target = scale * value + offset``.

    Pre-registered with the conversions the domain archetypes need;
    extensible via :meth:`register`.
    """

    def __init__(self) -> None:
        self._table: Dict[Tuple[str, str], Tuple[float, float]] = {}
        # temperature
        self.register("degC", "K", 1.0, 273.15)
        self.register("degF", "K", 5.0 / 9.0, 255.372222)
        # pressure
        self.register("hPa", "Pa", 100.0, 0.0)
        self.register("mbar", "Pa", 100.0, 0.0)
        self.register("bar", "Pa", 1e5, 0.0)
        # length / distance
        self.register("km", "m", 1000.0, 0.0)
        self.register("cm", "m", 0.01, 0.0)
        self.register("mm", "m", 0.001, 0.0)
        # current / magnetic
        self.register("kA", "A", 1000.0, 0.0)
        self.register("MA", "A", 1e6, 0.0)
        self.register("mT", "T", 1e-3, 0.0)
        # energy
        self.register("kJ", "J", 1000.0, 0.0)
        self.register("eV", "J", 1.602176634e-19, 0.0)
        # time
        self.register("ms", "s", 1e-3, 0.0)
        self.register("us", "s", 1e-6, 0.0)
        self.register("h", "s", 3600.0, 0.0)

    def register(self, src: str, dst: str, scale: float, offset: float) -> None:
        """Register src->dst and the exact inverse dst->src."""
        self._table[(src, dst)] = (scale, offset)
        if scale == 0:
            raise ValueError("scale must be non-zero")
        self._table[(dst, src)] = (1.0 / scale, -offset / scale)

    def can_convert(self, src: str, dst: str) -> bool:
        return src == dst or (src, dst) in self._table

    def convert(self, values: np.ndarray, src: str, dst: str) -> np.ndarray:
        if src == dst:
            return np.asarray(values, dtype=np.float64)
        try:
            scale, offset = self._table[(src, dst)]
        except KeyError:
            raise ValueError(f"no conversion registered from {src!r} to {dst!r}") from None
        return np.asarray(values, dtype=np.float64) * scale + offset


def harmonize_units(
    dataset: Dataset,
    target_units: Dict[str, str],
) -> Tuple[Dataset, Dict[str, Tuple[str, str]]]:
    """Convert named columns to target units, updating the schema.

    Returns the converted dataset and a ``{column: (from, to)}`` record of
    conversions actually performed.
    """
    converter = UnitConverter()
    converted: Dict[str, Tuple[str, str]] = {}
    out = dataset
    for name, target in target_units.items():
        spec = out.schema[name]
        if spec.units is None:
            raise ValueError(f"column {name!r} has no declared units")
        if spec.units == target:
            continue
        values = converter.convert(out[name], spec.units, target)
        new_spec = spec.with_(units=target, dtype=np.dtype(np.float64))
        out = out.with_column(new_spec, values, replace=True)
        converted[name] = (spec.units, target)
    return out, converted


# ---------------------------------------------------------------------------
# whole-dataset convenience
# ---------------------------------------------------------------------------

def clean_dataset(
    dataset: Dataset, *, target_units: Optional[Dict[str, str]] = None
) -> Tuple[Dataset, CleaningReport]:
    """Run the standard cleaning pass over every floating-point column: NaNs
    imputed with the column mean, then values beyond 5 sigma clipped."""
    report = CleaningReport()
    out = dataset
    if target_units:
        out, report.converted_units = harmonize_units(out, target_units)
    for spec in list(out.schema):
        if not np.issubdtype(spec.dtype, np.floating):
            continue
        values = out[spec.name]
        frac = missing_fraction(values)
        if frac >= 1.0:
            continue  # fully-missing columns are a schema problem, not cleaning
        if frac > 0:
            filled, n = impute(values)
            report.imputed[spec.name] = n
            out = out.with_column(
                spec.with_(dtype=np.dtype(np.float64)), filled, replace=True
            )
        clipped, n = clip_outliers(out[spec.name])
        if n:
            report.clipped[spec.name] = n
            out = out.with_column(
                out.schema[spec.name].with_(dtype=np.dtype(np.float64)),
                clipped,
                replace=True,
            )
    total = 0
    missing = 0
    for spec in out.schema:
        if np.issubdtype(spec.dtype, np.floating):
            col = out[spec.name]
            total += col.size
            missing += int(missing_mask(col).sum())
    report.residual_missing_fraction = missing / total if total else 0.0
    return out, report
