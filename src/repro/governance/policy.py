"""Compliance policy engine: declarative rules over dataset states.

Section 5 ("Privacy, Security, and Compliance"): bio/health and
security-adjacent datasets "require secure enclaves, auditability, and
compliance with HIPAA or ITAR standards."  Rather than hard-coding one
regulation, the engine evaluates declarative :class:`PolicyRule` objects
against a dataset + its privacy scan, producing a :class:`ComplianceReport`
that pipelines gate on.  Preset policies approximate HIPAA-de-identified
release and an open-science export rule set.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional, Sequence

from repro.core.dataset import Dataset
from repro.governance.anonymize import k_anonymity
from repro.governance.privacy import PrivacyFinding, PrivacyScanner

__all__ = [
    "PolicyRule",
    "PolicyViolation",
    "ComplianceReport",
    "PolicyEngine",
    "hipaa_deidentified_policy",
    "open_release_policy",
]


@dataclasses.dataclass(frozen=True)
class PolicyViolation:
    """One rule failure."""

    rule: str
    severity: str  # "block" | "warn"
    message: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.rule}: {self.message}"


@dataclasses.dataclass(frozen=True)
class PolicyRule:
    """A named predicate over (dataset, findings)."""

    name: str
    severity: str
    check: Callable[[Dataset, List[PrivacyFinding]], Optional[str]]
    description: str = ""

    def evaluate(
        self, dataset: Dataset, findings: List[PrivacyFinding]
    ) -> Optional[PolicyViolation]:
        message = self.check(dataset, findings)
        if message is None:
            return None
        return PolicyViolation(rule=self.name, severity=self.severity, message=message)


@dataclasses.dataclass
class ComplianceReport:
    """All violations from one policy evaluation."""

    policy: str
    violations: List[PolicyViolation]

    @property
    def compliant(self) -> bool:
        """True when no *blocking* violation exists (warnings allowed)."""
        return not any(v.severity == "block" for v in self.violations)

    @property
    def blocking(self) -> List[PolicyViolation]:
        return [v for v in self.violations if v.severity == "block"]

    @property
    def warnings(self) -> List[PolicyViolation]:
        return [v for v in self.violations if v.severity == "warn"]

    def summary(self) -> str:
        status = "COMPLIANT" if self.compliant else "BLOCKED"
        return (
            f"{self.policy}: {status} "
            f"({len(self.blocking)} blocking, {len(self.warnings)} warnings)"
        )


class PolicyEngine:
    """Evaluate a rule set against a dataset."""

    def __init__(self, name: str, rules: Sequence[PolicyRule]):
        self.name = name
        self.rules = list(rules)
        self.scanner = PrivacyScanner()

    def evaluate(self, dataset: Dataset) -> ComplianceReport:
        findings = self.scanner.scan(dataset)
        violations = []
        for rule in self.rules:
            violation = rule.evaluate(dataset, findings)
            if violation is not None:
                violations.append(violation)
        return ComplianceReport(policy=self.name, violations=violations)


# ---------------------------------------------------------------------------
# rule builders
# ---------------------------------------------------------------------------

def _no_sensitive_findings(
    categories: Optional[Sequence[str]] = None,
) -> Callable[[Dataset, List[PrivacyFinding]], Optional[str]]:
    def check(dataset: Dataset, findings: List[PrivacyFinding]) -> Optional[str]:
        relevant = [
            f
            for f in findings
            if categories is None or f.category in categories
        ]
        if relevant:
            columns = sorted({f.column for f in relevant})
            return f"sensitive content detected in columns {columns}"
        return None

    return check


def _min_k_anonymity(
    quasi_identifiers: Sequence[str], k: int
) -> Callable[[Dataset, List[PrivacyFinding]], Optional[str]]:
    def check(dataset: Dataset, findings: List[PrivacyFinding]) -> Optional[str]:
        present = [q for q in quasi_identifiers if q in dataset.schema]
        if not present:
            return None
        achieved = k_anonymity(dataset, present)
        if achieved < k:
            return f"k-anonymity over {present} is {achieved}, policy requires >= {k}"
        return None

    return check


def _no_declared_sensitive() -> Callable[[Dataset, List[PrivacyFinding]], Optional[str]]:
    def check(dataset: Dataset, findings: List[PrivacyFinding]) -> Optional[str]:
        names = dataset.schema.sensitive_names
        if names:
            return f"schema still declares sensitive fields: {names}"
        return None

    return check


def _min_samples(n: int) -> Callable[[Dataset, List[PrivacyFinding]], Optional[str]]:
    def check(dataset: Dataset, findings: List[PrivacyFinding]) -> Optional[str]:
        if dataset.n_samples < n:
            return f"dataset has {dataset.n_samples} samples, release requires >= {n}"
        return None

    return check


def hipaa_deidentified_policy(
    quasi_identifiers: Sequence[str] = (), k: int = 5
) -> PolicyEngine:
    """HIPAA-style de-identified release: no identifiers, k-anonymous QIs."""
    rules = [
        PolicyRule(
            name="no-direct-identifiers",
            severity="block",
            check=_no_sensitive_findings(
                [
                    "national-id",
                    "name",
                    "medical-record-number",
                    "phone",
                    "email",
                    "address",
                    "declared-sensitive",
                ]
            ),
            description="The 18 HIPAA identifier categories must be absent.",
        ),
        PolicyRule(
            name="no-declared-sensitive-fields",
            severity="block",
            check=_no_declared_sensitive(),
            description="Schema sensitivity flags must be cleared by anonymization.",
        ),
    ]
    if quasi_identifiers:
        rules.append(
            PolicyRule(
                name="k-anonymity",
                severity="block",
                check=_min_k_anonymity(quasi_identifiers, k),
                description=f"Quasi-identifier combinations must appear >= {k} times.",
            )
        )
    return PolicyEngine("hipaa-deidentified", rules)


def open_release_policy(min_samples: int = 100) -> PolicyEngine:
    """Open-science export: nothing sensitive at all, and enough data to
    be useful (tiny releases are usually accidental)."""
    return PolicyEngine(
        "open-release",
        [
            PolicyRule(
                name="no-sensitive-content",
                severity="block",
                check=_no_sensitive_findings(None),
                description="Any privacy finding blocks an open release.",
            ),
            PolicyRule(
                name="minimum-size",
                severity="warn",
                check=_min_samples(min_samples),
                description="Small datasets are flagged for review.",
            ),
        ],
    )
