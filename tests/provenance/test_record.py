"""Provenance records and fingerprints."""

import hashlib

import numpy as np
import pytest

from repro.provenance.record import (
    ProvenanceRecord,
    contiguous_bytes,
    fingerprint_array,
    fingerprint_params,
)


class TestFingerprints:
    def test_array_deterministic(self, rng):
        array = rng.normal(size=(5, 3))
        assert fingerprint_array(array) == fingerprint_array(array.copy())

    def test_array_sensitive_to_dtype(self):
        a = np.zeros(4, dtype=np.float64)
        b = np.zeros(4, dtype=np.float32)
        assert fingerprint_array(a) != fingerprint_array(b)

    def test_array_sensitive_to_shape(self):
        a = np.zeros(6)
        assert fingerprint_array(a) != fingerprint_array(a.reshape(2, 3))

    def test_array_layout_insensitive(self, rng):
        array = rng.normal(size=(4, 4))
        assert fingerprint_array(array) == fingerprint_array(
            np.asfortranarray(array)
        )

    @pytest.mark.parametrize(
        "array",
        [
            np.arange(6, dtype=np.float64).reshape(2, 3),
            np.arange(12, dtype=np.int16)[::2],
            np.zeros((0, 3), dtype=np.float32),
            np.array(["2020-01-01", "2021-06-30"], dtype="M8[D]"),  # no buffer protocol
            np.zeros(2, dtype=[("a", "<i4"), ("b", "<f8")]),
            np.array(["ab", "c"]),
            np.array([True, False]),
            np.float16(1.5),
        ],
        ids=lambda a: str(np.asarray(a).dtype),
    )
    def test_zero_copy_view_hashes_like_the_copy(self, array):
        """The buffer fed to sha256 is a view; the digest is that of ``tobytes()``."""
        contiguous = np.ascontiguousarray(array)
        expected = hashlib.sha256()
        expected.update(contiguous.dtype.str.encode())
        expected.update(repr(contiguous.shape).encode())
        expected.update(contiguous.tobytes())
        assert fingerprint_array(array) == expected.hexdigest()
        if contiguous.size:
            assert np.shares_memory(contiguous_bytes(contiguous), contiguous)

    def test_params_order_insensitive(self):
        assert fingerprint_params({"a": 1, "b": 2}) == fingerprint_params({"b": 2, "a": 1})

    def test_params_value_sensitive(self):
        assert fingerprint_params({"k": 3}) != fingerprint_params({"k": 4})


class TestRecord:
    def test_create_fills_defaults(self):
        record = ProvenanceRecord.create(
            "normalize", ["in1"], "out1", params={"method": "zscore"}, agent="p"
        )
        assert record.activity == "normalize"
        assert record.inputs == ("in1",)
        assert record.timestamp > 0
        assert len(record.record_id) == 32

    def test_distinct_ids(self):
        a = ProvenanceRecord.create("x", [], "o1")
        b = ProvenanceRecord.create("x", [], "o1")
        assert a.record_id != b.record_id

    def test_params_distinguish_same_activity(self):
        a = ProvenanceRecord.create("clip", ["i"], "o", params={"sigma": 3})
        b = ProvenanceRecord.create("clip", ["i"], "o", params={"sigma": 5})
        assert a.params_fingerprint != b.params_fingerprint

    def test_dict_round_trip(self):
        record = ProvenanceRecord.create(
            "shard", ["a", "b"], "c", agent="pipeline",
            annotations={"n_shards": 4},
        )
        back = ProvenanceRecord.from_dict(record.to_dict())
        assert back == record
