"""Anonymization: pseudonymization, generalization, k-anonymity, date shift.

The transform-stage work the bio/health archetype must finish before
level 3 (Table 2: "initial normalization or anonymization").  Four
standard techniques:

* :func:`pseudonymize` — keyed HMAC-SHA256 of identifier values; stable
  within a dataset release (same key -> same pseudonym, enabling joins)
  but irreversible without the key.
* :func:`generalize_numeric` — coarsen quasi-identifiers into bins
  (age -> age band).
* :func:`shift_dates` — per-subject random date offsets preserving
  intervals within a subject (the standard HIPAA-compatible trick).
* :func:`k_anonymity` / :func:`enforce_k_anonymity` — measure and achieve
  group-size >= k over quasi-identifier combinations by suppression.
"""

from __future__ import annotations

import dataclasses
import hashlib
import hmac
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dataset import Dataset

__all__ = [
    "pseudonymize",
    "generalize_numeric",
    "shift_dates",
    "k_anonymity",
    "enforce_k_anonymity",
    "anonymize_dataset",
    "AnonymizationReport",
    "AnonymizeError",
]


class AnonymizeError(ValueError):
    """Bad keys, unachievable k, or malformed quasi-identifier sets."""


@dataclasses.dataclass
class AnonymizationReport:
    """What anonymization did — becomes TRANSFORM evidence."""

    pseudonymized: List[str] = dataclasses.field(default_factory=list)
    generalized: List[str] = dataclasses.field(default_factory=list)
    date_shifted: List[str] = dataclasses.field(default_factory=list)
    suppressed_rows: int = 0
    achieved_k: int = 0

    def summary(self) -> str:
        return (
            f"pseudonymized={self.pseudonymized}, generalized={self.generalized}, "
            f"date_shifted={self.date_shifted}, suppressed={self.suppressed_rows}, "
            f"k={self.achieved_k}"
        )


def pseudonymize(values: np.ndarray, key: bytes) -> np.ndarray:
    """Keyed, deterministic pseudonyms for identifier values.

    HMAC-SHA256 truncated to 16 hex chars.  Equal inputs map to equal
    pseudonyms (referential integrity survives); without the key the
    mapping is computationally irreversible.
    """
    if not key:
        raise AnonymizeError("pseudonymization key must be non-empty")
    values = np.asarray(values)
    out = np.empty(values.shape, dtype="U16")
    flat_in = values.ravel()
    flat_out = out.reshape(-1)
    cache: Dict[object, str] = {}
    keyed = hmac.new(key, digestmod=hashlib.sha256)  # key schedule paid once
    for i, v in enumerate(flat_in.tolist()):
        token = cache.get(v)
        if token is None:
            raw = v if isinstance(v, bytes) else str(v).encode("utf-8")
            mac = keyed.copy()
            mac.update(raw)
            token = mac.hexdigest()[:16]
            cache[v] = token
        flat_out[i] = token
    return out


def generalize_numeric(values: np.ndarray, bin_width: float) -> np.ndarray:
    """Coarsen numeric quasi-identifiers to bin lower-bounds (bins start at 0).

    ``age=37, bin_width=10 -> 30`` — the "age band" generalization.
    """
    if bin_width <= 0:
        raise AnonymizeError("bin_width must be positive")
    values = np.asarray(values, dtype=np.float64)
    return np.floor(values / bin_width) * bin_width + 0.0  # -0.0 -> 0.0


def shift_dates(
    dates: np.ndarray, subjects: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Shift date-like integers by a per-subject random offset of at most
    365 days either way.

    All records of one subject move by the *same* offset, so intervals
    between a subject's events (the clinically meaningful quantity) are
    preserved exactly while absolute dates are destroyed.
    """
    dates = np.asarray(dates, dtype=np.int64)
    subjects = np.asarray(subjects)
    if dates.shape[0] != subjects.shape[0]:
        raise AnonymizeError("dates/subjects length mismatch")
    unique, inverse = np.unique(subjects, return_inverse=True)
    # one draw per subject, in np.unique order
    offsets = np.asarray(
        [rng.integers(-365, 366) for _ in range(len(unique))],
        dtype=np.int64,
    )
    per_record = offsets[inverse].reshape(subjects.shape + (1,) * (dates.ndim - subjects.ndim))
    return dates + per_record


def k_anonymity(dataset: Dataset, quasi_identifiers: Sequence[str]) -> int:
    """The dataset's k: the smallest equivalence-class size over the QIs.

    An empty dataset is vacuously anonymous (returns a large sentinel).
    """
    if not quasi_identifiers:
        raise AnonymizeError("need at least one quasi-identifier")
    if dataset.n_samples == 0:
        return np.iinfo(np.int64).max
    keys = np.stack(
        [np.asarray(dataset[c]).astype("U64") for c in quasi_identifiers], axis=1
    )
    _, counts = np.unique(keys, axis=0, return_counts=True)
    return int(counts.min())


def enforce_k_anonymity(
    dataset: Dataset, quasi_identifiers: Sequence[str], k: int
) -> Tuple[Dataset, int]:
    """Suppress (drop) rows in equivalence classes smaller than *k*.

    Returns ``(dataset, n_suppressed)``.  Suppression is the conservative
    fallback after generalization; callers generalize first so suppression
    stays small.
    """
    if k < 1:
        raise AnonymizeError("k must be >= 1")
    if dataset.n_samples == 0:
        return dataset, 0
    keys = np.stack(
        [np.asarray(dataset[c]).astype("U64") for c in quasi_identifiers], axis=1
    )
    uniques, inverse, counts = np.unique(
        keys, axis=0, return_inverse=True, return_counts=True
    )
    keep = counts[inverse] >= k
    suppressed = int((~keep).sum())
    return dataset.take(np.flatnonzero(keep)), suppressed


def anonymize_dataset(
    dataset: Dataset,
    *,
    key: bytes,
    identifier_columns: Sequence[str] = (),
    generalize: Optional[Dict[str, float]] = None,
    date_columns: Sequence[str] = (),
    subject_column: Optional[str] = None,
    quasi_identifiers: Sequence[str] = (),
    k: int = 2,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[Dataset, AnonymizationReport]:
    """The full anonymization pass the bio pipeline runs.

    Order matters: pseudonymize direct identifiers, generalize
    quasi-identifiers, shift dates per subject, then enforce k-anonymity
    by suppression over the (now generalized) quasi-identifiers.
    Pseudonymized and generalized columns have their ``sensitive`` flag
    cleared in the output schema.
    """
    rng = rng or np.random.default_rng(0)
    report = AnonymizationReport()
    out = dataset
    for column in identifier_columns:
        spec = out.schema[column]
        tokens = pseudonymize(out[column], key)
        out = out.with_column(
            spec.with_(dtype=tokens.dtype, sensitive=False, categories=None),
            tokens,
            replace=True,
        )
        report.pseudonymized.append(column)
    for column, width in (generalize or {}).items():
        spec = out.schema[column]
        coarse = generalize_numeric(out[column], width)
        out = out.with_column(
            spec.with_(dtype=np.dtype(np.float64), sensitive=False),
            coarse,
            replace=True,
        )
        report.generalized.append(column)
    if date_columns:
        if subject_column is None:
            raise AnonymizeError("date shifting requires a subject_column")
        for column in date_columns:
            spec = out.schema[column]
            shifted = shift_dates(out[column], out[subject_column], rng)
            out = out.with_column(
                spec.with_(dtype=np.dtype(np.int64), sensitive=False),
                shifted,
                replace=True,
            )
            report.date_shifted.append(column)
    if quasi_identifiers:
        out, report.suppressed_rows = enforce_k_anonymity(out, quasi_identifiers, k)
        report.achieved_k = (
            k_anonymity(out, quasi_identifiers) if out.n_samples else k
        )
    return out, report
