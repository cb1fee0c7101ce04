"""PHI/PII detection: field-level and value-level scanners.

The bio/health archetype cannot reach readiness level 3 until sensitive
content is identified and anonymized (Section 3.3: "datasets often include
protected health information (PHI) and personally identifiable information
(PII)").  Detection combines:

* **declared sensitivity** — schema :attr:`FieldSpec.sensitive` flags;
* **name heuristics** — field names matching known PHI/PII vocabulary
  (the 18 HIPAA identifier categories, abbreviated);
* **value heuristics** — regex scanners for SSN-like, phone-like,
  email-like, MRN-like, and date-of-birth-like strings in string columns.

A scan returns typed findings so the policy engine can block, and the
anonymizer can target, exactly the offending fields.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Dict, List, Pattern, Tuple


from repro.core.dataset import Dataset

__all__ = ["PrivacyFinding", "PrivacyScanner", "SENSITIVE_NAME_TOKENS"]

#: name fragments mapping to HIPAA-style identifier categories
SENSITIVE_NAME_TOKENS: Dict[str, str] = {
    "ssn": "national-id",
    "social_security": "national-id",
    "mrn": "medical-record-number",
    "medical_record": "medical-record-number",
    "patient_id": "medical-record-number",
    "patient_name": "name",
    "name": "name",
    "surname": "name",
    "dob": "birth-date",
    "birth": "birth-date",
    "address": "address",
    "street": "address",
    "zip": "geographic",
    "postal": "geographic",
    "phone": "phone",
    "telephone": "phone",
    "fax": "phone",
    "email": "email",
    "ip_address": "device-id",
    "device_id": "device-id",
    "license": "license-number",
    "account": "account-number",
    "biometric": "biometric",
}

_VALUE_PATTERNS: Dict[str, Pattern[str]] = {
    "national-id": re.compile(r"\b\d{3}-\d{2}-\d{4}\b"),
    "phone": re.compile(r"\b(?:\+?1[-. ]?)?\(?\d{3}\)?[-. ]\d{3}[-. ]\d{4}\b"),
    "email": re.compile(r"\b[\w.+-]+@[\w-]+\.[\w.]+\b"),
    "birth-date": re.compile(r"\b(19|20)\d{2}[-/](0?[1-9]|1[0-2])[-/](0?[1-9]|[12]\d|3[01])\b"),
    "medical-record-number": re.compile(r"\bMRN[-:]?\s?\d{5,}\b", re.IGNORECASE),
}


@dataclasses.dataclass(frozen=True)
class PrivacyFinding:
    """One detected sensitivity: which column, what category, how found."""

    column: str
    category: str
    detector: str  # "declared" | "name" | "value"
    match_fraction: float = 1.0
    example: str = ""

    def __str__(self) -> str:
        return (
            f"{self.column}: {self.category} (via {self.detector}, "
            f"{self.match_fraction:.0%} of sampled values)"
        )


class PrivacyScanner:
    """Scan datasets for PHI/PII across all three detector families.

    A column's values match a pattern when at least 5% of its sampled
    values do."""

    # -- individual detectors ----------------------------------------------------
    def scan_declared(self, dataset: Dataset) -> List[PrivacyFinding]:
        return [
            PrivacyFinding(column=name, category="declared-sensitive", detector="declared")
            for name in dataset.schema.sensitive_names
        ]

    def scan_names(self, dataset: Dataset) -> List[PrivacyFinding]:
        findings = []
        for spec in dataset.schema:
            lowered = spec.name.lower()
            for token, category in SENSITIVE_NAME_TOKENS.items():
                if token in lowered:
                    findings.append(
                        PrivacyFinding(
                            column=spec.name, category=category, detector="name"
                        )
                    )
                    break
        return findings

    def scan_values(self, dataset: Dataset) -> List[PrivacyFinding]:
        findings = []
        for spec in dataset.schema:
            if spec.dtype.kind not in ("U", "S", "O"):
                continue
            column = dataset[spec.name]
            n = min(256, column.shape[0])  # the first 256 values are the sample
            if n == 0:
                continue
            sample = column[:n]
            texts = [
                v.decode("utf-8", "replace") if isinstance(v, bytes) else str(v)
                for v in sample.tolist()
            ]
            for category, pattern in _VALUE_PATTERNS.items():
                hits = [t for t in texts if pattern.search(t)]
                fraction = len(hits) / n
                if fraction >= 0.05:
                    findings.append(
                        PrivacyFinding(
                            column=spec.name,
                            category=category,
                            detector="value",
                            match_fraction=fraction,
                            example=self._redact(hits[0]),
                        )
                    )
        return findings

    @staticmethod
    def _redact(text: str) -> str:
        """Redacted preview of a matched value for reports."""
        if len(text) <= 4:
            return "*" * len(text)
        return text[:2] + "*" * (len(text) - 4) + text[-2:]

    # -- combined scan ---------------------------------------------------------------
    def scan(self, dataset: Dataset) -> List[PrivacyFinding]:
        """All findings, deduplicated to one per (column, category)."""
        seen: Dict[Tuple[str, str], PrivacyFinding] = {}
        for finding in (
            self.scan_declared(dataset)
            + self.scan_names(dataset)
            + self.scan_values(dataset)
        ):
            seen.setdefault((finding.column, finding.category), finding)
        return sorted(seen.values(), key=lambda f: (f.column, f.category))

    def is_clean(self, dataset: Dataset) -> bool:
        """True when no detector fires — required for secure release."""
        return not self.scan(dataset)
