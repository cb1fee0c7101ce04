"""Unit tests for gate evaluation and policy enforcement (repro.gates.gate)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.dataset import Dataset
from repro.core.plan import fingerprint_payload
from repro.gates import (
    ColumnCheck,
    GatePolicy,
    GateViolation,
    StageContract,
    apply_contract,
    evaluate_contract,
)
from repro.gates import gate
from repro.gates.records import MISSING, view_for
from repro.quality.validation import ValidationIssue, check_bounds


def _records(*temps):
    """A list-of-dict payload, one record per temperature array."""
    return [{"t": np.asarray(t, dtype=np.float64)} for t in temps]


CONTRACT = StageContract(
    "t-gate",
    checks=(
        ColumnCheck("finite", "t"),
        ColumnCheck("bounds", "t", lo=150.0, hi=350.0),
    ),
)

GOOD = [200.0, 300.0]
BAD_NAN = [np.nan, 250.0]
BAD_HOT = [200.0, 900.0]


def _apply(contract, payload, policy):
    return apply_contract(
        contract,
        payload,
        policy=GatePolicy.coerce(policy),
        pipeline="unit",
        stage="s0",
        stage_index=0,
        boundary="output",
    )


class TestEvaluateContract:
    def test_blames_only_the_violating_record(self):
        per_record, payload_issues, n = evaluate_contract(
            CONTRACT, _records(GOOD, BAD_NAN, GOOD)
        )
        assert n == 3
        assert sorted(per_record) == [1]
        assert payload_issues == []

    def test_missing_required_field_is_an_error(self):
        per_record, _, _ = evaluate_contract(CONTRACT, [{"other": np.ones(2)}])
        assert per_record[0][0].message == "required field is missing"

    def test_missing_optional_field_is_silent(self):
        lenient = StageContract(
            "t-gate", checks=(ColumnCheck("finite", "t", required=False),)
        )
        per_record, payload_issues, _ = evaluate_contract(
            lenient, [{"other": np.ones(2)}]
        )
        assert not per_record and not payload_issues

    def test_recordless_payload_falls_back_to_payload_scope(self):
        per_record, payload_issues, n = evaluate_contract(
            CONTRACT, {"t": np.asarray(BAD_NAN)}
        )
        assert n == 1
        assert not per_record
        assert [i.check for i in payload_issues] == ["finite"]


class TestApplyContract:
    def test_clean_payload_passes(self):
        outcome = _apply(CONTRACT, _records(GOOD, GOOD), "fail")
        assert outcome.report.verdict == "pass"
        assert outcome.report.records_checked == 2
        assert outcome.quarantined == []

    def test_fail_policy_raises_with_report(self):
        with pytest.raises(GateViolation) as exc:
            _apply(CONTRACT, _records(GOOD, BAD_HOT), "fail")
        assert exc.value.report.verdict == "fail"
        assert len(exc.value.report.violations) == 1

    def test_warn_policy_never_blocks(self):
        payload = _records(BAD_NAN, BAD_HOT)
        outcome = _apply(CONTRACT, payload, "warn")
        assert outcome.report.verdict == "warn"
        assert outcome.payload is payload
        assert outcome.quarantined == []

    def test_quarantine_splits_violators_and_keeps_survivors(self):
        payload = _records(GOOD, BAD_NAN, BAD_HOT)
        outcome = _apply(CONTRACT, payload, "quarantine")
        assert outcome.report.verdict == "quarantine"
        assert outcome.report.records_quarantined == 2
        assert len(outcome.payload) == 1
        np.testing.assert_array_equal(outcome.payload[0]["t"], np.asarray(GOOD))
        entries = [entry for entry, _ in outcome.quarantined]
        assert [e["record_index"] for e in entries] == [1, 2]
        # the entry fingerprint is the content hash of the record itself
        for entry, record in outcome.quarantined:
            assert entry["record_fingerprint"] == fingerprint_payload(record)
            assert entry["contract_hash"] == CONTRACT.content_hash()

    def test_quarantine_escalates_when_no_record_axis(self):
        with pytest.raises(GateViolation, match="payload-level"):
            _apply(CONTRACT, {"t": np.asarray(BAD_NAN)}, "quarantine")

    def test_quarantine_escalates_when_nothing_survives(self):
        with pytest.raises(GateViolation, match="no records survive"):
            _apply(CONTRACT, _records(BAD_NAN, BAD_HOT), "quarantine")

    def test_contract_policy_overrides_run_policy(self):
        strict = StageContract("t-gate", checks=CONTRACT.checks, policy="fail")
        with pytest.raises(GateViolation):
            _apply(strict, _records(GOOD, BAD_NAN), "warn")

    def test_advisory_issues_yield_warn_verdict(self):
        advisory = StageContract(
            "t-gate", checks=(ColumnCheck("precision", "t", minimum_bits=64),)
        )
        payload = [{"t": np.zeros(2, dtype=np.float32)}]
        outcome = _apply(advisory, payload, "fail")
        assert outcome.report.verdict == "warn"
        assert outcome.payload is payload

    def test_decisions_are_content_deterministic(self):
        """The parity property the engine relies on, in miniature."""
        payload = _records(GOOD, BAD_NAN, GOOD, BAD_HOT)
        first = _apply(CONTRACT, payload, "quarantine")
        second = _apply(CONTRACT, _records(GOOD, BAD_NAN, GOOD, BAD_HOT), "quarantine")
        assert first.report.to_dict() == second.report.to_dict()
        assert [e for e, _ in first.quarantined] == [e for e, _ in second.quarantined]


# -- the column pre-pass against the per-record loop ---------------------------------


def per_record_evaluation(contract, payload):
    """The reference: ``evaluate_contract`` as it was before the column
    pre-pass — every record-scope check runs on every record."""
    view = view_for(payload)
    per_record, payload_issues = {}, []
    record_checks, payload_checks = contract.record_checks, list(contract.payload_checks)
    if view is None:
        record_checks, payload_checks = (), list(contract.checks)
    for check in record_checks:
        for i in range(view.n):
            value = view.field(i, check.column)
            if value is MISSING:
                if check.required:
                    per_record.setdefault(i, []).append(ValidationIssue(
                        check=check.kind, column=check.column, severity="error",
                        message="required field is missing",
                    ))
                continue
            issues = check.run(value)
            if issues:
                per_record.setdefault(i, []).extend(issues)
    for check in payload_checks:
        value = gate.resolve_payload_field(payload, check.column)
        if value is MISSING:
            if check.required:
                payload_issues.append(ValidationIssue(
                    check=check.kind, column=check.column, severity="error",
                    message="required field is missing from payload",
                ))
            continue
        payload_issues.extend(check.run(value))
    if contract.validate_schema and isinstance(payload, Dataset):
        payload_issues.extend(gate.validate_schema(payload).issues)
    return per_record, payload_issues, view.n if view is not None else 1


#: what a planted cell holds: non-finite, far out of every range, or on an edge
PLANTS = [np.nan, np.inf, -np.inf, 1e6, -1e6, 150.0, 0.0]
STRINGS = ["1.5", "200", "x", "nan", "-3e5", ""]
OBJECTS = [1.5, np.nan, None, "x", 250, np.inf, -7]
RANGES = [(0.0, 100.0), (150.0, 400.0), (-1e9, 1e9), (0.1, 0.10000000149011613)]


def _column(kind, n, rng):
    """One column of *kind*, with planted cells in the numeric ones."""
    if kind in ("f8", "f4", "f8x3"):
        shape = (n, 3) if kind == "f8x3" else (n,)
        values = rng.uniform(-50.0, 450.0, shape)
        planted = rng.random(shape) < 0.2
        values[planted] = rng.choice(PLANTS, int(planted.sum()))
        return values.astype(np.float32 if kind == "f4" else np.float64)
    if kind == "i8":
        return rng.integers(-100, 500, n)
    if kind == "u1":
        return rng.integers(0, 256, n).astype(np.uint8)
    if kind == "bool":
        return rng.random(n) < 0.5
    if kind == "str":
        return np.array([STRINGS[k] for k in rng.integers(0, len(STRINGS), n)])
    return np.array([OBJECTS[k] for k in rng.integers(0, len(OBJECTS), n)] + [None])[:n]


@st.composite
def gated_datasets(draw):
    """A Dataset of every column kind a gate may meet, and a contract of
    record and payload checks over its columns and over a missing one."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(
        st.sampled_from(["f8", "f4", "f8x3", "i8", "u1", "bool", "str", "obj"]),
        min_size=1, max_size=4,
    ))
    columns = {f"c{number}": _column(kind, n, rng) for number, kind in enumerate(kinds)}
    names = st.sampled_from(sorted(columns) + ["missing"])
    checks = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["finite", "bounds", "precision"]))
        lo, hi = draw(st.sampled_from(RANGES))
        checks.append(ColumnCheck(
            kind, draw(names), lo=lo, hi=hi, minimum_bits=draw(st.sampled_from([32, 64])),
            required=draw(st.booleans()),
            scope=draw(st.sampled_from(["record", "record", "payload"])),
        ))
    contract = StageContract("pre-pass", checks=tuple(checks), validate_schema=draw(st.booleans()))
    return Dataset.from_arrays(columns), contract


def _decided(contract, dataset, policy):
    """Everything a gate decides: the report, the quarantine lines and their
    records, the surviving payload — or the violation it raised."""
    try:
        outcome = _apply(contract, dataset, policy)
    except GateViolation as exc:
        return str(exc), exc.report.to_dict()
    return (
        outcome.report.to_dict(),
        [(entry, fingerprint_payload(record)) for entry, record in outcome.quarantined],
        fingerprint_payload(outcome.payload),
    )


class TestColumnPrePass:
    @settings(max_examples=120, derandomize=True, database=None, deadline=None)
    @given(case=gated_datasets())
    # a float32 value check_bounds puts below a bound that rounds onto it
    @example(case=(
        Dataset.from_arrays({"c0": np.array([0.1, 0.5], dtype=np.float32)}),
        StageContract("edge", checks=(
            ColumnCheck("bounds", "c0", lo=0.10000000149011613, hi=1.0),
        )),
    ))
    # an integer the float64 cast rounds onto the bound
    @example(case=(
        Dataset.from_arrays({"c0": np.array([2**53 + 1, 0], dtype=np.int64)}),
        StageContract("edge", checks=(ColumnCheck("bounds", "c0", lo=-1.0, hi=2.0**53),)),
    ))
    # object and string rows: only each row can tell what it holds
    @example(case=(
        Dataset.from_arrays({
            "c0": np.array([1.5, np.nan, None, "x", np.inf], dtype=object),
            "c1": np.array(["1.5", "x", "500", "nan", "200"]),
        }),
        StageContract("rows", checks=(
            ColumnCheck("finite", "c0"), ColumnCheck("bounds", "c0", lo=0.0, hi=100.0),
            ColumnCheck("bounds", "c1", lo=0.0, hi=100.0),
        )),
    ))
    def test_gate_decisions_are_the_per_record_loops(self, case):
        dataset, contract = case
        per_record, payload_issues, n = evaluate_contract(contract, dataset)
        reference = per_record_evaluation(contract, dataset)
        assert (list(per_record.items()), payload_issues, n) == (
            list(reference[0].items()), reference[1], reference[2]
        )
        for policy in ("fail", "quarantine", "warn"):
            decided = _decided(contract, dataset, policy)
            with mock.patch.object(gate, "evaluate_contract", per_record_evaluation):
                assert decided == _decided(contract, dataset, policy)

    def test_only_flagged_rows_reach_the_record_check(self):
        values = np.full((1000, 4), 250.0)
        values[17, 2], values[900, 0] = np.nan, 1e6
        dataset = Dataset.from_arrays({"t": values})
        seen = []
        real_run = ColumnCheck.run

        def counted(self, row):
            seen.append(self.kind)
            return real_run(self, row)

        with mock.patch.object(ColumnCheck, "run", counted):
            per_record, _, _ = evaluate_contract(CONTRACT, dataset)
        assert sorted(per_record) == [17, 900]
        # finite flags row 17, bounds row 900; nothing else is checked
        assert seen == ["finite", "bounds"]


@pytest.mark.parametrize("values", [
    np.array([150.0, 350.0]), np.array([149.0, 200.0]), np.array([200.0, np.inf]),
    np.array([np.nan, 200.0]), np.array([150, 351], dtype=np.int64),
    np.array([True, False]), np.array([], dtype=np.float64),
])
def test_bounds_fast_path_agrees_with_counting(values):
    finite = values[np.isfinite(values)] if values.dtype.kind == "f" else values
    below, above = int((finite < 150.0).sum()), int((finite > 350.0).sum())
    issues = check_bounds(values, 150.0, 350.0, "t")
    assert issues == ([] if not (below or above) else [ValidationIssue(
        "bounds", "t", "error", f"{below} below 150.0, {above} above 350.0"
    )])
