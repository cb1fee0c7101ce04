"""Gate evaluation: apply a contract to a payload, split out violators.

:func:`evaluate_contract` is a pure function of ``(contract, payload)``
— it inspects record content only, so serial, threaded, and simspmd
runs of the same plan reach identical verdicts (the engine's
bitwise-parity contract extends to gate decisions).
:func:`apply_contract` layers the verdict policy on top: ``fail`` turns
error issues into a :class:`GateViolation`; ``quarantine`` splits
violating records out and returns the surviving payload; ``warn``
records everything and blocks nothing.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Iterable, List, Tuple

import numpy as np

from repro.core.dataset import Dataset
from repro.core.plan import fingerprint_payload
from repro.gates.contracts import ColumnCheck, GatePolicy, StageContract
from repro.gates.records import (
    MISSING,
    DatasetView,
    RecordView,
    resolve_payload_field,
    view_for,
)
from repro.quality.validation import ValidationIssue, validate_schema

__all__ = [
    "GateViolation",
    "RecordViolation",
    "GateReport",
    "evaluate_contract",
    "apply_contract",
    "GateOutcome",
]


class GateViolation(RuntimeError):
    """A contract failed under a policy that blocks the run."""

    def __init__(self, message: str, *, report: "GateReport"):
        super().__init__(message)
        self.report = report


@dataclasses.dataclass(frozen=True)
class RecordViolation:
    """One record that failed its contract, with its re-drive identity."""

    index: int
    fingerprint: str
    record_kind: str
    issues: Tuple[ValidationIssue, ...]

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "fingerprint": self.fingerprint,
            "record_kind": self.record_kind,
            "issues": [dataclasses.asdict(i) for i in self.issues],
        }


@dataclasses.dataclass
class GateReport:
    """The outcome of one contract evaluation at one stage boundary."""

    pipeline: str
    stage: str
    stage_index: int
    boundary: str  # "input" | "output"
    contract: str
    contract_hash: str
    policy: str
    verdict: str  # "pass" | "warn" | "quarantine" | "fail"
    records_checked: int
    violations: Tuple[RecordViolation, ...] = ()
    payload_issues: Tuple[ValidationIssue, ...] = ()
    warnings: Tuple[ValidationIssue, ...] = ()

    @property
    def records_quarantined(self) -> int:
        return len(self.violations) if self.verdict == "quarantine" else 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "pipeline": self.pipeline,
            "stage": self.stage,
            "stage_index": self.stage_index,
            "boundary": self.boundary,
            "contract": self.contract,
            "contract_hash": self.contract_hash,
            "policy": self.policy,
            "verdict": self.verdict,
            "records_checked": self.records_checked,
            "records_quarantined": self.records_quarantined,
            "violations": [v.to_dict() for v in self.violations],
            "payload_issues": [dataclasses.asdict(i) for i in self.payload_issues],
            "warnings": [dataclasses.asdict(i) for i in self.warnings],
        }

    def summary(self) -> str:
        extra = ""
        if self.verdict == "quarantine":
            extra = f", {len(self.violations)} record(s) quarantined"
        elif self.violations or self.payload_issues:
            n = len(self.violations) + len(self.payload_issues)
            extra = f", {n} violation(s)"
        return (
            f"contract {self.contract!r} at {self.stage}/{self.boundary}: "
            f"{self.verdict} ({self.records_checked} records checked{extra})"
        )


@dataclasses.dataclass
class GateOutcome:
    """What :func:`apply_contract` decided: the payload to continue with."""

    payload: Any
    report: GateReport
    #: (entry dict, record payload) pairs for the quarantine store
    quarantined: List[Tuple[Dict[str, object], Any]]


def _rows_to_check(view: RecordView, check: ColumnCheck) -> Iterable[int]:
    """The records *check* can find an issue in, in order: all of them,
    unless one pass over a Dataset column rules rows out (the pre-pass;
    each row it flags still gets the exact per-record check)."""
    if isinstance(view, DatasetView) and check.column in view.dataset:
        flags = check.flag_rows(view.dataset[check.column])
        if flags is not None:
            return np.flatnonzero(flags).tolist()
    return range(view.n)


def evaluate_contract(
    contract: StageContract, payload: Any
) -> Tuple[Dict[int, List[ValidationIssue]], List[ValidationIssue], int]:
    """Pure evaluation: per-record issues, payload-level issues, n records.

    Record-scope checks run against each record of the payload's record
    view — on a Dataset, against each record a column pass flags (see
    :func:`_rows_to_check`) — and payloads without a record axis fall back
    to payload scope.
    Payload-scope checks, drift baselines, and (for Datasets) schema
    validation contribute to the payload-level issue list.
    """
    view = view_for(payload)
    per_record: Dict[int, List[ValidationIssue]] = {}
    payload_issues: List[ValidationIssue] = []

    record_checks = contract.record_checks
    payload_checks = list(contract.payload_checks)
    if view is None:
        payload_checks = list(contract.checks)
        record_checks = ()

    for check in record_checks:
        for i in _rows_to_check(view, check):
            value = view.field(i, check.column)
            if value is MISSING:
                if check.required:
                    per_record.setdefault(i, []).append(
                        ValidationIssue(
                            check=check.kind,
                            column=check.column,
                            severity="error",
                            message="required field is missing",
                        )
                    )
                continue
            issues = check.run(value)
            if issues:
                per_record.setdefault(i, []).extend(issues)

    for check in payload_checks:
        value = resolve_payload_field(payload, check.column)
        if value is MISSING:
            if check.required:
                payload_issues.append(
                    ValidationIssue(
                        check=check.kind,
                        column=check.column,
                        severity="error",
                        message="required field is missing from payload",
                    )
                )
            continue
        payload_issues.extend(check.run(value))

    for drift in contract.drift:
        value = resolve_payload_field(payload, drift.column)
        if value is not MISSING:
            payload_issues.extend(drift.run(value))

    if contract.validate_schema and isinstance(payload, Dataset):
        payload_issues.extend(validate_schema(payload).issues)

    n = view.n if view is not None else 1
    return per_record, payload_issues, n


def _errors(issues: List[ValidationIssue]) -> List[ValidationIssue]:
    return [i for i in issues if i.severity == "error"]


def apply_contract(
    contract: StageContract,
    payload: Any,
    *,
    policy: GatePolicy,
    pipeline: str,
    stage: str,
    stage_index: int,
    boundary: str,
) -> GateOutcome:
    """Evaluate *contract* and enforce *policy*.

    Raises :class:`GateViolation` when the verdict is ``fail``: under
    the ``fail`` policy for any error, and under ``quarantine`` when the
    violation cannot be isolated to records (payload-scope errors, no
    record axis, or no surviving records).
    """
    effective = contract.policy or policy
    per_record, payload_issues, n_records = evaluate_contract(contract, payload)

    warnings: List[ValidationIssue] = [
        i for i in payload_issues if i.severity != "error"
    ]
    payload_errors = _errors(payload_issues)
    record_errors = {
        i: errs for i, errs in per_record.items() if _errors(errs)
    }
    for i, issues in per_record.items():
        if i not in record_errors:
            warnings.extend(issues)

    view = view_for(payload)
    violations: List[RecordViolation] = []
    for i in sorted(record_errors):
        record = view.record_payload(i)
        violations.append(
            RecordViolation(
                index=i,
                fingerprint=fingerprint_payload(record),
                record_kind=type(record).__name__,
                issues=tuple(record_errors[i]),
            )
        )

    def _report(verdict: str) -> GateReport:
        return GateReport(
            pipeline=pipeline,
            stage=stage,
            stage_index=stage_index,
            boundary=boundary,
            contract=contract.name,
            contract_hash=contract.content_hash(),
            policy=effective.value,
            verdict=verdict,
            records_checked=n_records,
            violations=tuple(violations),
            payload_issues=tuple(payload_errors),
            warnings=tuple(warnings),
        )

    any_errors = bool(payload_errors or violations)
    if not any_errors:
        report = _report("warn" if warnings else "pass")
        return GateOutcome(payload=payload, report=report, quarantined=[])

    if effective is GatePolicy.WARN:
        return GateOutcome(payload=payload, report=_report("warn"), quarantined=[])

    if effective is GatePolicy.QUARANTINE and not payload_errors:
        survivors = [i for i in range(n_records) if i not in record_errors]
        if survivors:
            report = _report("quarantine")
            entries = []
            for v in violations:
                entry = {
                    "pipeline": pipeline,
                    "stage": stage,
                    "stage_index": stage_index,
                    "boundary": boundary,
                    "contract": contract.name,
                    "contract_hash": report.contract_hash,
                    "policy": effective.value,
                    "record_index": v.index,
                    "record_fingerprint": v.fingerprint,
                    "record_kind": v.record_kind,
                    "issues": [dataclasses.asdict(i) for i in v.issues],
                }
                entries.append((entry, view.record_payload(v.index)))
            return GateOutcome(
                payload=view.keep(survivors), report=report, quarantined=entries
            )
        reason = "no records survive the contract"
    elif effective is GatePolicy.QUARANTINE:
        reason = "violation is payload-level, not record-level"
    else:
        reason = "policy is fail"

    report = _report("fail")
    first = (payload_errors or [v.issues[0] for v in violations])[0]
    raise GateViolation(
        f"contract {contract.name!r} failed at {stage}/{boundary} "
        f"({reason}): {first}",
        report=report,
    )
