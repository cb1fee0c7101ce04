"""Encoders: vocabularies, one-hot, DNA sequences."""

import numpy as np
import pytest

from repro.transforms.encode import (
    EncodingError,
    Vocabulary,
    dna_codes,
    dna_one_hot,
)


class TestVocabulary:
    def test_fit_sorted_deterministic(self):
        vocab = Vocabulary.fit(np.asarray(["c", "a", "b", "a"]))
        assert vocab.values == ["a", "b", "c"]

    def test_encode_decode_round_trip(self):
        vocab = Vocabulary(["x", "y", "z"])
        column = np.asarray(["z", "x", "y", "z"])
        codes = vocab.encode(column)
        assert np.array_equal(vocab.decode(codes), column)

    def test_oov_raises_by_default(self):
        vocab = Vocabulary(["a"])
        with pytest.raises(EncodingError, match="not in vocabulary"):
            vocab.encode(np.asarray(["b"]))

    def test_decode_out_of_range(self):
        with pytest.raises(EncodingError, match="range"):
            Vocabulary(["a"]).decode(np.asarray([5]))

    def test_deduplication_preserves_first_order(self):
        vocab = Vocabulary(["b", "a", "b"])
        assert vocab.values == ["b", "a"]


class _ForbidLookups(dict):
    """A vocabulary index that fails the test if any per-element get occurs."""

    def get(self, key, default=None):  # pragma: no cover - failure path
        raise AssertionError("per-element dict lookup on the vectorized path")

    def __getitem__(self, key):  # pragma: no cover - failure path
        raise AssertionError("per-element dict lookup on the vectorized path")


def _reference_encode(vocab, column):
    """The historical per-element dict loop, kept as the parity oracle."""
    index = {v: i for i, v in enumerate(vocab.values)}
    flat = np.asarray(column).ravel()
    out = np.empty(flat.shape, dtype=np.int64)
    for i, v in enumerate(flat.tolist()):
        idx = index.get(v)
        if idx is None:
            raise EncodingError(f"value {v!r} not in vocabulary")
        out[i] = idx
    return out.reshape(np.asarray(column).shape)


class TestVectorizedEncode:
    """Regression for the docstring-said-vectorized, body-was-a-loop bug."""

    def test_large_column_never_touches_the_python_dict(self):
        import time

        vocab = Vocabulary(["delta", "alpha", "charlie", "bravo"])
        vocab._index = _ForbidLookups(vocab._index)
        rng = np.random.default_rng(0)
        column = np.asarray(vocab.values, dtype="U7")[
            rng.integers(0, 4, size=1_000_000)
        ]
        start = time.perf_counter()
        codes = vocab.encode(column)
        elapsed = time.perf_counter() - start
        # generous for CI noise, impossible for a 1M-iteration Python loop
        # even before the _ForbidLookups tripwire would have fired
        assert elapsed < 2.0
        assert codes.shape == column.shape
        assert np.array_equal(
            np.asarray(vocab.values, dtype="U7")[codes], column
        )

    @pytest.mark.parametrize(
        "values,column",
        [
            (["c", "a", "b"], ["b", "b", "a", "c"]),
            ([10, 3, 7], [7, 10, 10, 3]),
            ([2.5, -1.0, 0.0], [0.0, 2.5, -1.0]),
            ([True, False], [False, True, True]),
            ([3, 1.5], [1.5, 3, 3]),  # numeric tower mixes stay exact
        ],
    )
    def test_matches_per_element_reference(self, values, column):
        vocab = Vocabulary(values)
        column = np.asarray(column)
        assert np.array_equal(
            vocab.encode(column), _reference_encode(vocab, column)
        )

    def test_unsorted_vocabulary_keeps_first_seen_indices(self):
        vocab = Vocabulary(["zeta", "alpha", "mid"])
        codes = vocab.encode(np.asarray(["mid", "zeta", "alpha"]))
        assert codes.tolist() == [2, 0, 1]

    def test_multidimensional_column(self):
        vocab = Vocabulary([5, 6, 7])
        column = np.asarray([[5, 7], [6, 5]])
        assert vocab.encode(column).tolist() == [[0, 2], [1, 0]]

    def test_oov_raise_reports_first_offender_in_order(self):
        vocab = Vocabulary(["a", "b"])
        with pytest.raises(EncodingError, match=r"value 'q' not in vocabulary"):
            vocab.encode(np.asarray(["b", "q", "zz"]))

    def test_numeric_vocab_accepts_float_column(self):
        # dict-key semantics: 1 == 1.0, so the vectorized path must too
        vocab = Vocabulary([1, 2, 3])
        assert vocab.encode(np.asarray([2.0, 1.0, 3.0])).tolist() == [1, 0, 2]

    def test_mixed_type_vocabulary_falls_back_exactly(self):
        # 1 and "1" coerce to the same numpy string; only the dict loop
        # can tell them apart, so the vectorized lookup must disable itself
        vocab = Vocabulary([1, "1", "x"])
        assert vocab._lookup is None
        codes = vocab.encode(np.asarray(["x"], dtype=object))
        assert codes.tolist() == [2]

    def test_string_vocab_rejects_numeric_column_like_the_dict(self):
        vocab = Vocabulary(["1", "2"])
        with pytest.raises(EncodingError, match="not in vocabulary"):
            vocab.encode(np.asarray([1, 2]))

    def test_object_column_uses_fallback(self):
        vocab = Vocabulary(["a", "b"])
        column = np.asarray(["b", "a"], dtype=object)
        assert vocab.encode(column).tolist() == [1, 0]


class TestDNA:
    def test_canonical_bases(self):
        matrix = dna_one_hot(dna_codes("ACGT"))
        assert matrix.shape == (4, 4)
        assert np.array_equal(matrix, np.eye(4, dtype=np.float32))

    def test_ambiguity_uniform(self):
        matrix = dna_one_hot(dna_codes("N"))
        assert np.allclose(matrix, 0.25)

    def test_lowercase_accepted(self):
        assert np.array_equal(dna_codes("acgtn"), dna_codes("ACGTN"))

    def test_invalid_character(self):
        with pytest.raises(EncodingError, match="invalid DNA character 'X'"):
            dna_codes(np.frombuffer(b"ACGTACGX", dtype=np.uint8).reshape(2, 4))

    def test_bytes_input(self):
        assert np.array_equal(dna_codes(b"ACGT"), dna_codes("ACGT"))

    def test_empty_sequence(self):
        assert dna_one_hot(dna_codes("")).shape == (0, 4)
