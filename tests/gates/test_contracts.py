"""Unit tests for the declarative contract model (repro.gates.contracts)."""

import numpy as np
import pytest

from repro.gates import ColumnCheck, DriftCheck, GatePolicy, StageContract
from repro.quality.drift import population_stability_index


class TestGatePolicy:
    def test_coerce_none_is_fail(self):
        assert GatePolicy.coerce(None) is GatePolicy.FAIL

    def test_coerce_member_passthrough(self):
        assert GatePolicy.coerce(GatePolicy.WARN) is GatePolicy.WARN

    @pytest.mark.parametrize("value", ["fail", "quarantine", "warn"])
    def test_coerce_value_string(self, value):
        assert GatePolicy.coerce(value).value == value

    def test_coerce_unknown_lists_choices(self):
        with pytest.raises(ValueError, match="fail, quarantine, warn"):
            GatePolicy.coerce("explode")


class TestColumnCheck:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown check kind"):
            ColumnCheck("median", "x")

    def test_bounds_needs_lo_and_hi(self):
        with pytest.raises(ValueError, match="needs lo and hi"):
            ColumnCheck("bounds", "x", lo=0.0)

    def test_bad_scope_rejected(self):
        with pytest.raises(ValueError, match="scope"):
            ColumnCheck("finite", "x", scope="shard")

    def test_finite_flags_nan(self):
        issues = ColumnCheck("finite", "x").run(np.array([1.0, np.nan]))
        assert [i.severity for i in issues] == ["error"]
        assert "non-finite" in issues[0].message

    def test_bounds_flags_out_of_range(self):
        check = ColumnCheck("bounds", "x", lo=0.0, hi=1.0)
        issues = check.run(np.array([0.5, 2.0, -3.0]))
        assert issues and "1 below 0.0, 1 above 1.0" in issues[0].message
        assert not check.run(np.array([0.0, 1.0]))

    def test_precision_is_advisory(self):
        check = ColumnCheck("precision", "x", minimum_bits=32)
        issues = check.run(np.zeros(3, dtype=np.float16))
        assert [i.severity for i in issues] == ["warning"]
        assert not check.run(np.zeros(3, dtype=np.float64))


class TestDriftCheck:
    def test_matching_sample_passes(self):
        baseline = tuple(np.linspace(-3, 3, 128))
        assert not DriftCheck("x", baseline).run(np.linspace(-3, 3, 256))

    def test_shifted_sample_warns(self):
        baseline = tuple(np.linspace(-3, 3, 128))
        shifted = np.linspace(7, 13, 256).astype(np.float32)
        shifted[::17] = np.nan
        issues = DriftCheck("x", baseline).run(shifted)
        assert [i.severity for i in issues] == ["warning"]
        assert "PSI" in issues[0].message
        # a float32 column with NaNs gets the PSI of its finite values in float64, bit for bit
        finite = shifted.astype(np.float64)[~np.isnan(shifted)]
        psi = population_stability_index(np.asarray(baseline), finite)
        assert not DriftCheck("x", baseline, threshold=psi).run(shifted)
        assert DriftCheck("x", baseline, threshold=np.nextafter(psi, 0)).run(shifted)


class TestStageContract:
    def _contract(self, policy=None):
        return StageContract(
            "t-ingest",
            checks=(
                ColumnCheck("finite", "t"),
                ColumnCheck("bounds", "t", lo=150.0, hi=350.0, scope="payload"),
            ),
            drift=(DriftCheck("t", (1.0, 2.0, 3.0)),),
            validate_schema=True,
            policy=policy,
        )

    def test_content_hash_is_stable(self):
        assert self._contract().content_hash() == self._contract().content_hash()

    def test_policy_excluded_from_hash(self):
        # enforcement strictness is an execution concern, like retry budgets
        assert (
            self._contract(policy="warn").content_hash()
            == self._contract(policy="fail").content_hash()
        )

    def test_hash_tracks_declarative_changes(self):
        relaxed = StageContract("t-ingest", checks=(ColumnCheck("finite", "t"),))
        assert relaxed.content_hash() != self._contract().content_hash()

    def test_scope_split(self):
        contract = self._contract()
        assert [c.column for c in contract.record_checks] == ["t"]
        assert [c.kind for c in contract.payload_checks] == ["bounds"]

    def test_policy_coerced_from_string(self):
        assert self._contract(policy="quarantine").policy is GatePolicy.QUARANTINE

    def test_describe(self):
        text = self._contract().describe()
        assert text.startswith("t-ingest:")
        for token in ("finite(t)", "bounds(t)", "drift(t)", "schema"):
            assert token in text
