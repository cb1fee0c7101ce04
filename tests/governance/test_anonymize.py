"""Anonymization: pseudonyms, generalization, date shifts, k-anonymity."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.dataset import Dataset, FieldSpec, Schema
from repro.governance.anonymize import (
    AnonymizeError,
    anonymize_dataset,
    enforce_k_anonymity,
    generalize_numeric,
    k_anonymity,
    pseudonymize,
    shift_dates,
)


class TestPseudonymize:
    def test_deterministic_same_key(self):
        values = np.asarray(["alice", "bob", "alice"])
        out = pseudonymize(values, b"key")
        assert out[0] == out[2]
        assert out[0] != out[1]
        assert np.array_equal(out, pseudonymize(values, b"key"))

    def test_golden_pseudonyms(self):
        """Pinned before the HMAC object was keyed once and copied per value:
        released pseudonyms must stay byte-identical or joins break."""
        assert pseudonymize(
            np.asarray(["alice", "bob", "123-45-6789", ""]), b"key"
        ).tolist() == [
            "76fb55e929c06b97", "3833c030dcb7a710", "440e40f8f8408832", "5d5d139563c95b59",
        ]
        # prefixes of tokens pinned at other lengths
        assert pseudonymize(np.asarray(["alice"]), b"golden-key")[0] == "a07ab0cf52db3e36"
        assert [t[:8] for t in pseudonymize(
            np.asarray([b"raw-bytes", b"\x00\xff"]), b"key"
        ).tolist()] == ["fafd2440", "c5f8ae67"]
        assert pseudonymize(np.asarray([7, 42]), b"key").tolist() == [
            "01235b0d2aa4a5da", "f2991b7ce981d0b5",
        ]
        # a key longer than the SHA-256 block takes the hashed-key branch
        assert pseudonymize(np.asarray(["x"]), b"k" * 100)[0][:12] == "8c1858bff6cf"

    def test_different_keys_differ(self):
        values = np.asarray(["alice"])
        assert pseudonymize(values, b"k1")[0] != pseudonymize(values, b"k2")[0]

    def test_output_contains_no_original(self):
        values = np.asarray(["123-45-6789"])
        token = pseudonymize(values, b"key")[0]
        assert "123" not in token or len(token) == 16

    def test_empty_key_rejected(self):
        with pytest.raises(AnonymizeError, match="key"):
            pseudonymize(np.asarray(["a"]), b"")

    @given(st.lists(st.text(max_size=12), min_size=1, max_size=20))
    def test_property_injective_on_inputs(self, values):
        array = np.asarray(values, dtype="U12")
        tokens = pseudonymize(array, b"key")
        mapping = {}
        for original, token in zip(array.tolist(), tokens.tolist()):
            assert mapping.setdefault(original, token) == token


class TestGeneralize:
    def test_age_banding(self):
        ages = np.asarray([37.0, 42.0, 89.0, 30.0])
        assert generalize_numeric(ages, 10.0).tolist() == [30.0, 40.0, 80.0, 30.0]

    def test_bad_width(self):
        with pytest.raises(AnonymizeError):
            generalize_numeric(np.asarray([1.0]), 0.0)


class TestDateShift:
    def test_intervals_preserved_within_subject(self, rng):
        dates = np.asarray([100, 110, 130, 200, 260])
        subjects = np.asarray(["a", "a", "a", "b", "b"])
        shifted = shift_dates(dates, subjects, rng)
        assert (np.diff(shifted[:3]) == np.diff(dates[:3])).all()
        assert shifted[4] - shifted[3] == 60

    def test_subjects_get_different_offsets(self, rng):
        dates = np.zeros(50, dtype=np.int64)
        subjects = np.arange(50)
        shifted = shift_dates(dates, subjects, rng)
        assert len(np.unique(shifted)) > 10  # overwhelmingly likely

    def test_length_mismatch(self, rng):
        with pytest.raises(AnonymizeError, match="mismatch"):
            shift_dates(np.zeros(3, dtype=np.int64), np.zeros(4), rng)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(
        case=st.tuples(
            st.integers(1, 60),  # records
            st.sampled_from(["duplicates", "one", "unique"]),
            st.sampled_from([np.int64, np.str_]),
            st.integers(0, 2**32 - 1),
        )
    )
    @example(case=(1, "one", np.int64, 0))
    def test_one_draw_per_subject_matches_the_per_subject_loop(self, case):
        n, kind, dtype, seed = case
        rng = np.random.default_rng(seed)
        ids = {"duplicates": rng.integers(0, max(n // 3, 1), n),
               "one": np.zeros(n, dtype=np.int64),
               "unique": rng.permutation(n)}[kind]
        subjects = ids.astype(dtype)
        dates = rng.integers(-10_000, 10_000, n)
        ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        shifted = shift_dates(dates, subjects, ours)
        expected = per_subject_loop(dates, subjects, reference)
        assert shifted.dtype == expected.dtype
        assert shifted.tobytes() == expected.tobytes()
        assert ours.integers(2**62) == reference.integers(2**62)


def per_subject_loop(dates, subjects, rng, max_shift_days=365):
    """The quadratic loop ``shift_dates`` replaced, body unchanged."""
    offsets = {}
    out = np.asarray(dates, dtype=np.int64).copy()
    for subject in np.unique(subjects):
        offset = offsets.setdefault(
            subject, int(rng.integers(-max_shift_days, max_shift_days + 1))
        )
        out[subjects == subject] += offset
    return out


class TestKAnonymity:
    def make(self, ages, zips):
        return Dataset.from_arrays({
            "age": np.asarray(ages, dtype=np.float64),
            "zip": np.asarray(zips, dtype="U5"),
        })

    def test_measures_smallest_class(self):
        ds = self.make([30, 30, 30, 40], ["x", "x", "x", "y"])
        assert k_anonymity(ds, ["age", "zip"]) == 1
        assert k_anonymity(ds, ["age"]) == 1
        ds2 = self.make([30, 30, 40, 40], ["x", "x", "y", "y"])
        assert k_anonymity(ds2, ["age", "zip"]) == 2

    def test_enforce_suppresses_small_classes(self):
        ds = self.make([30, 30, 30, 40], ["x", "x", "x", "y"])
        out, suppressed = enforce_k_anonymity(ds, ["age", "zip"], k=2)
        assert suppressed == 1
        assert out.n_samples == 3
        assert k_anonymity(out, ["age", "zip"]) >= 2

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=60), st.integers(1, 5))
    def test_property_postcondition(self, codes, k):
        ds = Dataset.from_arrays({"qi": np.asarray(codes, dtype=np.int64)})
        out, _ = enforce_k_anonymity(ds, ["qi"], k=k)
        if out.n_samples:
            assert k_anonymity(out, ["qi"]) >= k

    def test_empty_dataset_vacuous(self):
        ds = Dataset.from_arrays({"qi": np.asarray([], dtype=np.int64)})
        out, suppressed = enforce_k_anonymity(ds, ["qi"], 3)
        assert suppressed == 0

    def test_no_quasi_identifiers_rejected(self, small_dataset):
        with pytest.raises(AnonymizeError):
            k_anonymity(small_dataset, [])


class TestFullPass:
    @pytest.fixture
    def clinical(self, rng):
        n = 40
        return Dataset(
            {
                "pid": np.asarray([f"P{i:03d}" for i in range(n)], dtype="U8"),
                "age": rng.integers(20, 80, n).astype(np.float64),
                "visit": rng.integers(1000, 1100, n),
                "value": rng.normal(size=n),
            },
            Schema([
                FieldSpec("pid", np.dtype("U8"), sensitive=True),
                FieldSpec("age", np.dtype(np.float64)),
                FieldSpec("visit", np.dtype(np.int64)),
                FieldSpec("value", np.dtype(np.float64)),
            ]),
        )

    def test_full_anonymization(self, clinical, rng):
        out, report = anonymize_dataset(
            clinical,
            key=b"release",
            identifier_columns=["pid"],
            generalize={"age": 20.0},
            date_columns=["visit"],
            subject_column="pid",
            quasi_identifiers=["age"],
            k=3,
            rng=rng,
        )
        assert report.pseudonymized == ["pid"]
        assert report.generalized == ["age"]
        assert report.date_shifted == ["visit"]
        assert not out.schema["pid"].sensitive
        assert k_anonymity(out, ["age"]) >= 3
        # original identifiers are gone
        assert not any(v.startswith("P0") for v in out["pid"].tolist())

    def test_date_shift_requires_subject(self, clinical):
        with pytest.raises(AnonymizeError, match="subject_column"):
            anonymize_dataset(clinical, key=b"k", date_columns=["visit"])
