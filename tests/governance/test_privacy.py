"""PHI/PII scanners: declared, name-heuristic, value-heuristic."""

import numpy as np
import pytest

from repro.core.dataset import Dataset, FieldSpec, Schema
from repro.governance.privacy import PrivacyScanner


@pytest.fixture
def phi_dataset():
    n = 20
    return Dataset(
        {
            "ssn": np.asarray([f"{100+i:03d}-45-6789" for i in range(n)], dtype="U11"),
            "contact_email": np.asarray([f"user{i}@example.org" for i in range(n)], dtype="U32"),
            "notes": np.asarray(["call (555) 123-4567 re: visit"] * n, dtype="U40"),
            "secret_score": np.arange(n, dtype=np.float64),
            "temperature": np.full(n, 293.15),
        },
        Schema([
            FieldSpec("ssn", np.dtype("U11")),
            FieldSpec("contact_email", np.dtype("U32")),
            FieldSpec("notes", np.dtype("U40")),
            FieldSpec("secret_score", np.dtype(np.float64), sensitive=True),
            FieldSpec("temperature", np.dtype(np.float64)),
        ]),
    )


class TestDetectors:
    def test_declared_detector(self, phi_dataset):
        findings = PrivacyScanner().scan_declared(phi_dataset)
        assert [f.column for f in findings] == ["secret_score"]
        assert findings[0].detector == "declared"

    def test_name_detector(self, phi_dataset):
        findings = PrivacyScanner().scan_names(phi_dataset)
        columns = {f.column for f in findings}
        assert "ssn" in columns
        assert "contact_email" in columns
        assert "temperature" not in columns

    def test_value_detector_ssn(self, phi_dataset):
        findings = PrivacyScanner().scan_values(phi_dataset)
        by_column = {(f.column, f.category) for f in findings}
        assert ("ssn", "national-id") in by_column

    def test_value_detector_email_and_phone(self, phi_dataset):
        findings = PrivacyScanner().scan_values(phi_dataset)
        categories = {f.category for f in findings}
        assert "email" in categories
        assert "phone" in categories

    def test_value_detector_skips_numeric_columns(self, phi_dataset):
        findings = PrivacyScanner().scan_values(phi_dataset)
        assert all(f.column != "secret_score" for f in findings)

    def test_examples_are_redacted(self, phi_dataset):
        findings = PrivacyScanner().scan_values(phi_dataset)
        ssn_finding = next(f for f in findings if f.column == "ssn")
        assert "45-6789" not in ssn_finding.example
        assert "*" in ssn_finding.example


class TestCombined:
    def test_scan_deduplicates(self, phi_dataset):
        findings = PrivacyScanner().scan(phi_dataset)
        keys = [(f.column, f.category) for f in findings]
        assert len(keys) == len(set(keys))

    def test_sensitive_columns(self, phi_dataset):
        columns = {f.column for f in PrivacyScanner().scan(phi_dataset)}
        assert "ssn" in columns and "secret_score" in columns
        assert "temperature" not in columns

    def test_clean_dataset_is_clean(self, rng):
        ds = Dataset.from_arrays({
            "x": rng.normal(size=10),
            "y": rng.normal(size=10),
        })
        assert PrivacyScanner().is_clean(ds)

    def test_dirty_dataset_not_clean(self, phi_dataset):
        assert not PrivacyScanner().is_clean(phi_dataset)

    def test_threshold_suppresses_rare_matches(self):
        # one email in 100 rows, below the 5% default threshold
        values = np.asarray(["plain text"] * 99 + ["x@y.com"], dtype="U16")
        ds = Dataset.from_arrays({"memo": values})
        assert all(f.category != "email" for f in PrivacyScanner().scan_values(ds))
        # five in 100 reach it
        values[:4] = "x@y.com"
        ds = Dataset.from_arrays({"memo": values})
        assert any(f.category == "email" for f in PrivacyScanner().scan_values(ds))

    def test_bytes_values_handled(self):
        ds = Dataset.from_arrays(
            {"raw": np.asarray([b"mail: a@b.io"] * 10, dtype="S16")}
        )
        findings = PrivacyScanner().scan_values(ds)
        assert any(f.category == "email" for f in findings)
