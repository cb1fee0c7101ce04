"""Datasheets for Datasets, generated from metadata + measured quality.

Section 5: "Approaches like Datasheets for Datasets or Data Cards can
help identify potential biases."  A :class:`Datasheet` is assembled
mechanically from the dataset's metadata, schema, quality report, privacy
scan, and readiness assessment — so the documentation cannot drift from
the data the way hand-written datasheets do.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional


from repro.core.assessment import ReadinessAssessment
from repro.core.dataset import Dataset
from repro.governance.privacy import PrivacyFinding, PrivacyScanner
from repro.quality.metrics import QualityReport, quality_report

__all__ = ["Datasheet", "build_datasheet"]


@dataclasses.dataclass
class Datasheet:
    """A structured datasheet, renderable as markdown."""

    name: str
    domain: str
    source: str
    version: str
    description: str
    license: str
    modality: str
    n_samples: int
    nbytes: int
    fields: List[Dict[str, object]]
    quality: QualityReport
    privacy_findings: List[PrivacyFinding]
    readiness_level: Optional[int] = None
    readiness_gaps: List[str] = dataclasses.field(default_factory=list)

    def render_markdown(self) -> str:
        lines = [
            f"# Datasheet: {self.name}",
            "",
            "## Motivation & Provenance",
            f"- **Domain:** {self.domain}",
            f"- **Source:** {self.source}",
            f"- **Version:** {self.version}",
            f"- **License:** {self.license}",
            f"- **Modality:** {self.modality}",
        ]
        if self.description:
            lines += ["", self.description]
        lines += [
            "",
            "## Composition",
            f"- **Samples:** {self.n_samples}",
            f"- **Size:** {self.nbytes / 1e6:.2f} MB",
            "",
            "| field | dtype | shape | role | units | sensitive |",
            "|---|---|---|---|---|---|",
        ]
        for f in self.fields:
            lines.append(
                f"| {f['name']} | {f['dtype']} | {f['shape']} | {f['role']} "
                f"| {f['units'] or '-'} | {'yes' if f['sensitive'] else 'no'} |"
            )
        lines += [
            "",
            "## Quality",
            f"- **Overall completeness:** {self.quality.overall_completeness:.4f}",
            f"- **Class imbalance ratio:** {self.quality.imbalance:.2f}",
            f"- **Worst channel noise fraction:** {self.quality.worst_noise:.3f}",
        ]
        if self.quality.label_balance:
            lines.append("- **Label balance:** " + ", ".join(
                f"{k}: {v:.1%}" for k, v in self.quality.label_balance.items()
            ))
        lines += ["", "## Privacy & Compliance"]
        if self.privacy_findings:
            lines += [f"- ⚠ {finding}" for finding in self.privacy_findings]
        else:
            lines.append("- No PHI/PII findings.")
        if self.readiness_level is not None:
            lines += [
                "",
                "## AI-Readiness",
                f"- **Data Readiness Level:** {self.readiness_level} / 5",
            ]
            lines += [f"- gap: {gap}" for gap in self.readiness_gaps]
        return "\n".join(lines)


def build_datasheet(
    dataset: Dataset,
    *,
    assessment: Optional[ReadinessAssessment] = None,
) -> Datasheet:
    """Assemble a datasheet from measured properties of *dataset*."""
    meta = dataset.metadata
    fields = [
        {
            "name": spec.name,
            "dtype": str(spec.dtype),
            "shape": spec.shape or "scalar",
            "role": spec.role.value,
            "units": spec.units,
            "sensitive": spec.sensitive,
        }
        for spec in dataset.schema
    ]
    return Datasheet(
        name=meta.name,
        domain=meta.domain,
        source=meta.source,
        version=meta.version,
        description=meta.description,
        license=meta.license,
        modality=meta.modality.value,
        n_samples=dataset.n_samples,
        nbytes=dataset.nbytes,
        fields=fields,
        quality=quality_report(dataset),
        privacy_findings=PrivacyScanner().scan(dataset),
        readiness_level=int(assessment.overall) if assessment else None,
        readiness_gaps=assessment.gap_report() if assessment else [],
    )
