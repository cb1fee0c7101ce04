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
    "dna_codes",
    "dna_one_hot",
    "EncodingError",
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

    def encode(self, column: np.ndarray) -> np.ndarray:
        """Vectorized value->index mapping.

        An out-of-vocabulary value raises (train/serve skew should fail
        loudly in a readiness pipeline).
        """
        column = np.asarray(column)
        flat = column.ravel()
        if self._lookup is not None and self._kinds_comparable(flat.dtype.kind):
            sorted_keys, perm = self._lookup
            pos = np.minimum(
                np.searchsorted(sorted_keys, flat), sorted_keys.size - 1
            )
            hit = sorted_keys[pos] == flat
            if not bool(hit.all()):
                bad = flat[int(np.argmin(hit))].item()
                raise EncodingError(f"value {bad!r} not in vocabulary")
            return perm[pos].reshape(column.shape)
        # fallback: object/mixed dtypes keep exact dict-equality semantics
        out = np.empty(flat.shape, dtype=np.int64)
        for i, v in enumerate(flat.tolist()):
            idx = self._index.get(v)
            if idx is None:
                raise EncodingError(f"value {v!r} not in vocabulary")
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

_DNA_INDEX = np.full(256, -1, dtype=np.int8)
_DNA_INDEX[np.frombuffer(b"ACGTNacgtn", dtype=np.uint8)] = [0, 1, 2, 3, 4] * 2
_DNA_ONE_HOT = np.vstack([np.eye(4), np.full((1, 4), 0.25)]).astype(np.float32)


def dna_codes(sequence: str | bytes | np.ndarray) -> np.ndarray:
    """Map DNA bases to ``int8`` codes: ``ACGT`` (either case) to 0-3, ``N`` to 4.

    *sequence* is a ``uint8`` array of ASCII bases of any shape (a string or
    bytes is the one-row case); any other character raises, naming the first.
    """
    if isinstance(sequence, str):
        sequence = sequence.encode("ascii")
    if isinstance(sequence, bytes):
        sequence = np.frombuffer(sequence, dtype=np.uint8)
    codes = np.take(_DNA_INDEX, sequence)
    if np.any(codes < 0):
        bad = chr(sequence.flat[int(np.argmax(codes < 0))])
        raise EncodingError(f"invalid DNA character {bad!r}")
    return codes


def dna_one_hot(codes: np.ndarray) -> np.ndarray:
    """Expand :func:`dna_codes` of shape ``S`` to a float32 ``S + (4,)`` one-hot;
    ``N`` is the uniform 0.25 vector (Enformer's convention)."""
    return np.take(_DNA_ONE_HOT, codes, axis=0)
