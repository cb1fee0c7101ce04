"""Encoding: categorical variables, vocabularies, and sequence one-hot.

"Managing categorical variables" (Section 2.1) plus the bio archetype's
one-hot DNA encoding (Section 3.3, Enformer).  A :class:`Vocabulary` is an
explicit fitted mapping so train/test encoding is consistent and
serializable for provenance.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Vocabulary",
    "dna_one_hot",
    "EncodingError",
    "DNA_ALPHABET",
]


class EncodingError(ValueError):
    """Unknown category, unfitted encoder, or malformed sequence."""


class Vocabulary:
    """An ordered mapping of category values to dense indices."""

    #: numpy dtype kinds that compare consistently with each other and
    #: with Python dict-key equality (the numeric tower: bool/int/uint/float)
    _NUMERIC_KINDS = "biuf"

    def __init__(self, values: Sequence[object]):
        self._values: List[object] = []
        self._index: Dict[object, int] = {}
        for v in values:
            if v not in self._index:
                self._index[v] = len(self._values)
                self._values.append(v)
        self._lookup = self._build_lookup()

    def _build_lookup(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """``(sorted keys, sorted-position -> vocab index)`` for the
        vectorized searchsorted path, or None when the values do not form
        a uniformly comparable numpy array (mixed/object types keep the
        exact dict-equality semantics via the per-element fallback)."""
        if not self._values:
            return None
        try:
            keys = np.asarray(self._values)
        except Exception:
            return None
        if keys.dtype.kind not in "biufUS" or keys.shape != (len(self._values),):
            return None
        order = np.argsort(keys, kind="stable").astype(np.int64)
        sorted_keys = keys[order]
        if sorted_keys.size > 1 and bool(np.any(sorted_keys[1:] == sorted_keys[:-1])):
            # distinct Python keys that coerce to equal numpy values
            # (e.g. 1 and "1" under a unicode cast) — not safely mappable
            return None
        return sorted_keys, order

    @classmethod
    def fit(cls, column: np.ndarray) -> "Vocabulary":
        """Build from observed values, sorted for determinism."""
        uniques = np.unique(np.asarray(column))
        return cls(uniques.tolist())

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, value: object) -> bool:
        return value in self._index

    @property
    def values(self) -> List[object]:
        return list(self._values)

    def encode(self, column: np.ndarray, *, unknown: Optional[int] = None) -> np.ndarray:
        """Vectorized value->index mapping.

        *unknown* substitutes for out-of-vocabulary values; by default OOV
        raises (train/serve skew should fail loudly in a readiness pipeline).
        """
        column = np.asarray(column)
        flat = column.ravel()
        if self._lookup is not None and self._kinds_comparable(flat.dtype.kind):
            sorted_keys, perm = self._lookup
            pos = np.minimum(
                np.searchsorted(sorted_keys, flat), sorted_keys.size - 1
            )
            hit = sorted_keys[pos] == flat
            if unknown is None:
                if not bool(hit.all()):
                    bad = flat[int(np.argmin(hit))].item()
                    raise EncodingError(f"value {bad!r} not in vocabulary")
                out = perm[pos]
            else:
                out = np.where(hit, perm[pos], np.int64(unknown))
            return out.reshape(column.shape)
        # fallback: object/mixed dtypes keep exact dict-equality semantics
        out = np.empty(flat.shape, dtype=np.int64)
        for i, v in enumerate(flat.tolist()):
            idx = self._index.get(v)
            if idx is None:
                if unknown is None:
                    raise EncodingError(f"value {v!r} not in vocabulary")
                idx = unknown
            out[i] = idx
        return out.reshape(column.shape)

    def _kinds_comparable(self, column_kind: str) -> bool:
        """Is numpy comparison between the column and the vocabulary keys
        equivalent to Python dict-key equality?  True within the numeric
        tower (``1 == 1.0 == True`` both ways) and for same-kind strings;
        everything else takes the fallback loop."""
        assert self._lookup is not None
        key_kind = self._lookup[0].dtype.kind
        if key_kind in self._NUMERIC_KINDS and column_kind in self._NUMERIC_KINDS:
            return True
        return key_kind == column_kind and key_kind in "US"

    def decode(self, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices)
        if indices.size and (indices.min() < 0 or indices.max() >= len(self)):
            raise EncodingError("index out of vocabulary range")
        values = np.asarray(self._values, dtype=object)
        return values[indices]


# ---------------------------------------------------------------------------
# DNA sequences (bio archetype)
# ---------------------------------------------------------------------------

DNA_ALPHABET = "ACGT"
_DNA_INDEX = np.full(256, -1, dtype=np.int8)
for _i, _c in enumerate(DNA_ALPHABET):
    _DNA_INDEX[ord(_c)] = _i
    _DNA_INDEX[ord(_c.lower())] = _i
_DNA_INDEX[ord("N")] = 4
_DNA_INDEX[ord("n")] = 4


def dna_one_hot(sequence: str | bytes) -> np.ndarray:
    """Encode a DNA string to a ``(len, 4)`` float32 one-hot matrix.

    Ambiguity code ``N`` encodes as the uniform 0.25 vector (Enformer's
    convention); any other character raises.
    """
    if isinstance(sequence, str):
        sequence = sequence.encode("ascii")
    raw = np.frombuffer(sequence, dtype=np.uint8)
    codes = _DNA_INDEX[raw]
    if np.any(codes < 0):
        bad = chr(raw[int(np.argmax(codes < 0))])
        raise EncodingError(f"invalid DNA character {bad!r}")
    out = np.zeros((raw.size, 4), dtype=np.float32)
    known = codes < 4
    out[np.nonzero(known)[0], codes[known]] = 1.0
    out[~known] = 0.25
    return out
