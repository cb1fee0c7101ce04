"""Validation: schema + physical constraints."""

import numpy as np

from repro.quality.validation import (
    check_bounds,
    check_finite,
    check_monotonic,
    check_precision,
    validate_schema,
)


class TestChecks:
    def test_finite_flags_nan_and_inf(self):
        issues = check_finite(np.asarray([1.0, np.nan, np.inf]), "x")
        assert len(issues) == 1
        assert "2 non-finite" in issues[0].message
        assert issues[0].severity == "error"

    def test_finite_skips_integers(self):
        assert check_finite(np.asarray([1, 2, 3]), "i") == []

    def test_bounds(self):
        issues = check_bounds(np.asarray([100.0, 200.0, 400.0]), 150, 350, "t")
        assert len(issues) == 1
        assert "1 below" in issues[0].message and "1 above" in issues[0].message
        assert check_bounds(np.asarray([200.0]), 150, 350) == []

    def test_bounds_ignores_nan(self):
        assert check_bounds(np.asarray([np.nan, 200.0]), 150, 350) == []

    def test_precision_warning(self):
        half = np.asarray([1.0], dtype=np.float16)
        issues = check_precision(half, minimum_bits=32, column="v")
        assert issues and issues[0].severity == "warning"
        assert check_precision(np.asarray([1.0], dtype=np.float32), 32) == []
        assert check_precision(np.asarray([1]), 32) == []  # ints skipped

    def test_monotonic(self):
        assert check_monotonic(np.asarray([1.0, 2.0, 3.0])) == []
        issues = check_monotonic(np.asarray([1.0, 1.0, 2.0]))
        assert issues and "1 non-increasing steps" in issues[0].message


class TestHardening:
    """Degenerate inputs become structured issues, never tracebacks.

    A validator that raises mid-audit loses every finding after the
    crash point — these are the regression tests for the hardened paths.
    """

    def test_bounds_non_numeric_dtype(self):
        issues = check_bounds(np.asarray(["cold", "hot"]), 150, 350, "t")
        assert [i.severity for i in issues] == ["error"]
        assert "non-numeric dtype" in issues[0].message

    def test_monotonic_non_numeric_dtype(self):
        issues = check_monotonic(np.asarray(["a", "b"]), "axis")
        assert [i.severity for i in issues] == ["error"]
        assert "cannot be ordered" in issues[0].message


class TestSchemaValidation:
    def test_valid_dataset(self, small_dataset):
        assert validate_schema(small_dataset).ok

    def test_structured_failure(self, small_dataset):
        small_dataset._columns["x1"] = small_dataset["x1"].astype(np.float32)
        result = validate_schema(small_dataset)
        assert not result.ok
        assert result.errors[0].check == "schema"
