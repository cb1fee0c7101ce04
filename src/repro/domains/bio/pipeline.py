"""The bio/health archetype: ``acquire -> encode -> anonymize -> fuse -> shard``.

Reproduces the Section 3.3 preprocessing patterns: Enformer-style one-hot
sequence encoding with position-wise handling of ambiguity codes, HIPAA-
grade anonymization of the clinical modality (pseudonymization, age
banding, per-subject date shifting, k-anonymity enforcement, policy-engine
gating), cross-modal fusion keyed on pseudonymous subject ids, and secure
sharding — the shard set is written only after the compliance policy
passes, and a sealed copy goes into a :class:`SecureEnclave` with a full
audit trail.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np

from repro.core.dataset import (
    Dataset,
    DatasetMetadata,
    FieldRole,
    FieldSpec,
    Modality,
    Schema,
)
from repro.core.evidence import EvidenceKind
from repro.core.levels import DataProcessingStage
from repro.core.plan import Parallelism, PipelineStage
from repro.core.runner import Pipeline, PipelineContext
from repro.domains.base import DomainArchetype
from repro.domains.bio.synthetic import (
    PROMOTER_MOTIF,
    REPRESSOR_MOTIF,
    BioSourceConfig,
    read_csv_like,
    read_fasta_like,
    synthesize_bio_sources,
)
from repro.gates import ColumnCheck, StageContract
from repro.governance.anonymize import anonymize_dataset, pseudonymize
from repro.governance.enclave import SecureEnclave
from repro.governance.policy import hipaa_deidentified_policy
from repro.governance.privacy import PrivacyScanner
from repro.transforms.encode import dna_codes, dna_one_hot
from repro.transforms.split import SplitSpec, random_split

__all__ = ["BioArchetype", "CONTRACTS"]

#: key used for deterministic pseudonymization across both modalities
_PSEUDONYM_KEY = b"repro-bio-release-key"

#: data contracts enforced at stage boundaries when gating is enabled
#: (keyed ``(stage_name, boundary)``; also the re-drive contract registry).
#: The acquire payload is a two-modality dict, so checks are payload-scope;
#: ``expression`` is deliberately NOT finiteness-checked at ingest — missing
#: assays are designed-in NaNs that the fuse stage imputes (the fuse
#: contract then does require a finite label).
CONTRACTS: Dict[tuple, StageContract] = {
    ("acquire", "output"): StageContract(
        name="bio-ingest",
        checks=(
            ColumnCheck("bounds", "age", lo=0.0, hi=120.0, scope="payload"),
            ColumnCheck("finite", "biomarker", scope="payload"),
        ),
    ),
    ("fuse", "output"): StageContract(
        name="bio-structure",
        checks=(
            ColumnCheck("finite", "motif_features"),
            ColumnCheck("finite", "biomarker"),
            ColumnCheck("finite", "expression"),
        ),
        validate_schema=True,
    ),
}


def _count_motif(codes: np.ndarray, motif: str) -> np.ndarray:
    """Per-row occurrences of *motif* in ``(n, L)`` base codes, counted as
    ``str.count`` counts them: left to right, never overlapping."""
    pattern = dna_codes(motif)
    windows = max(codes.shape[1] - pattern.size + 1, 0)
    hits = np.ones((codes.shape[0], windows), dtype=bool)
    for j, code in enumerate(pattern):
        hits &= codes[:, j : j + windows] == code
    counts = np.count_nonzero(hits, axis=1)
    # rows with overlapping hits (GCGCGC matches itself at shifts 2 and 4) count apart
    rows, cols = np.nonzero(hits)
    close = (np.diff(cols) < pattern.size) & (rows[1:] == rows[:-1])
    for row in np.unique(rows[1:][close]).tolist():
        counts[row] = codes[row].tobytes().count(pattern.tobytes())
    return counts


class BioArchetype(DomainArchetype):
    """Executable Table 1 bio/health row."""

    domain = "bio"
    #: k of the k-anonymous release
    k = 3

    def __init__(self, seed: int = 0, *, config: Optional[BioSourceConfig] = None):
        super().__init__(seed)
        self.config = config or BioSourceConfig(seed=seed)

    # -- source ------------------------------------------------------------------
    def synthesize_source(self, directory: Union[str, Path], **params: Any) -> Dict[str, Any]:
        config = dataclasses.replace(self.config, **params) if params else self.config
        return synthesize_bio_sources(directory, config)

    # -- stages ------------------------------------------------------------------
    def _acquire(self, manifest: Dict[str, Any], ctx: PipelineContext) -> Dict[str, Any]:
        """acquire: parse both community formats, validate, type the table."""
        ids, bases = read_fasta_like(manifest["fasta"])
        header, rows = read_csv_like(manifest["clinical"])
        column = {name: [r[i] for r in rows] for i, name in enumerate(header)}
        n = len(rows)
        expression = np.array(
            [float(v) if v else np.nan for v in column["expression"]]
        )
        clinical = Dataset(
            {
                "patient_id": np.asarray(column["patient_id"], dtype="U32"),
                "patient_name": np.asarray(column["patient_name"], dtype="U32"),
                "ssn": np.asarray(column["ssn"], dtype="U16"),
                "mrn": np.asarray(column["mrn"], dtype="U16"),
                "dob": np.asarray(column["dob"], dtype="U10"),
                "visit_date": np.asarray(column["visit_date"], dtype=np.int64),
                "zip_code": np.asarray(column["zip_code"], dtype="U8"),
                "age": np.asarray(column["age"], dtype=np.float64),
                "sex": np.asarray(column["sex"], dtype="U1"),
                "biomarker": np.asarray(column["biomarker"], dtype=np.float64),
                "expression": expression,
                "assayed": np.asarray(column["assayed"], dtype=np.int64),
            },
            Schema(
                [
                    FieldSpec("patient_id", np.dtype("U32"), role=FieldRole.IDENTIFIER,
                              sensitive=True),
                    FieldSpec("patient_name", np.dtype("U32"), role=FieldRole.IDENTIFIER,
                              sensitive=True),
                    FieldSpec("ssn", np.dtype("U16"), role=FieldRole.IDENTIFIER,
                              sensitive=True),
                    FieldSpec("mrn", np.dtype("U16"), role=FieldRole.IDENTIFIER,
                              sensitive=True),
                    FieldSpec("dob", np.dtype("U10"), role=FieldRole.METADATA,
                              sensitive=True),
                    FieldSpec("visit_date", np.dtype(np.int64), role=FieldRole.METADATA,
                              sensitive=True, units="days"),
                    FieldSpec("zip_code", np.dtype("U8"), role=FieldRole.METADATA,
                              sensitive=True),
                    FieldSpec("age", np.dtype(np.float64), units="years"),
                    FieldSpec("sex", np.dtype("U1"), categories=("F", "M")),
                    FieldSpec("biomarker", np.dtype(np.float64)),
                    FieldSpec("expression", np.dtype(np.float64), role=FieldRole.LABEL),
                    FieldSpec("assayed", np.dtype(np.int64), role=FieldRole.METADATA),
                ]
            ),
            DatasetMetadata(name="clinical-raw", domain="bio", modality=Modality.TABULAR),
        )
        findings = PrivacyScanner().scan(clinical)
        ctx.add_artifact("phi_findings_raw", findings)
        ctx.add_artifact("source_formats", ["fasta-like text", "csv-like table"])
        missing = float(np.isnan(expression).mean())
        ctx.record(EvidenceKind.ACQUIRED,
                   f"{len(ids)} sequences + {n} clinical rows parsed")
        ctx.record(
            EvidenceKind.VALIDATED_INGEST,
            "sequence lengths consistent; clinical table typed against schema",
            missing_fraction=0.0,  # label gaps are tracked separately
        )
        ctx.record(
            EvidenceKind.METADATA_ENRICHED,
            f"sensitivity flags set on {len(clinical.schema.sensitive_names)} fields; "
            f"{len(findings)} PHI findings catalogued",
        )
        ctx.record(EvidenceKind.HIGH_THROUGHPUT_INGEST,
                   "sequence parser streams record-by-record")
        ctx.record(EvidenceKind.INGEST_AUTOMATED, "manifest-driven parsing")
        return {"ids": ids, "bases": bases, "clinical": clinical}

    def _encode(self, payload: Dict[str, Any], ctx: PipelineContext) -> Dict[str, Any]:
        """encode: base codes (rows in subject order) + motif-count features."""
        order = np.argsort(payload["ids"], kind="stable")
        codes = dna_codes(payload["bases"][order])
        motif_features = np.column_stack(
            [
                _count_motif(codes, PROMOTER_MOTIF),
                _count_motif(codes, REPRESSOR_MOTIF),
                np.count_nonzero(codes == 4, axis=1),
                np.count_nonzero((codes == 1) | (codes == 2), axis=1) / codes.shape[1],
            ]
        )
        ctx.record(
            EvidenceKind.INITIAL_ALIGNMENT,
            f"sequences one-hot encoded to ({codes.shape[1]}, 4) tiles",
        )
        ctx.record(
            EvidenceKind.GRIDS_STANDARDIZED,
            "fixed-length encoding; ambiguity codes as uniform rows",
        )
        ctx.record(
            EvidenceKind.ALIGNMENT_STANDARDIZED,
            "motif/GC features computed position-independently",
        )
        ctx.record(EvidenceKind.ALIGNMENT_AUTOMATED, "vocabulary-driven encoder")
        return {
            "clinical": payload["clinical"],
            "subjects": payload["ids"][order],
            "codes": codes,
            "motif_features": motif_features,
        }

    def _anonymize(self, payload: Dict[str, Any], ctx: PipelineContext) -> Dict[str, Any]:
        """anonymize: pseudonymize, generalize, shift, enforce k, gate."""
        clinical: Dataset = payload["clinical"]
        rng = np.random.default_rng(self.seed + 7)
        anonymized, report = anonymize_dataset(
            clinical,
            key=_PSEUDONYM_KEY,
            identifier_columns=["patient_id", "patient_name", "ssn", "mrn"],
            generalize={"age": 10.0},
            date_columns=["visit_date"],
            subject_column="patient_id",
            quasi_identifiers=["age", "sex"],
            k=self.k,
            rng=rng,
        )
        # direct-identifier and high-resolution columns are removed outright
        anonymized = anonymized.drop_columns("patient_name", "ssn", "mrn", "dob", "zip_code")
        # the pseudonymized key is renamed: it is no longer a medical record
        # number, and keeping the old name would (correctly) trip the scanner
        token_spec = anonymized.schema["patient_id"].with_(
            name="subject_token", description="keyed pseudonym of patient_id"
        )
        anonymized = anonymized.with_column(
            token_spec, anonymized["patient_id"]
        ).drop_columns("patient_id")
        if anonymized.n_samples == 0:
            raise ValueError(
                f"k-anonymity k={self.k} suppressed every record; the cohort "
                "is too small to release at this privacy level"
            )
        policy = hipaa_deidentified_policy(["age", "sex"], k=self.k)
        compliance = policy.evaluate(anonymized)
        if not compliance.compliant:
            raise ValueError(
                f"anonymization left blocking violations: "
                f"{[str(v) for v in compliance.blocking]}"
            )
        remaining = PrivacyScanner().scan(anonymized)
        expression = anonymized["expression"]
        assayed_frac = float((~np.isnan(expression)).mean())
        ctx.add_artifact("anonymization_report", report)
        ctx.add_artifact("compliance_report", compliance)
        ctx.add_artifact("phi_findings_post", remaining)
        ctx.annotate_span(
            records_anonymized=anonymized.n_samples,
            achieved_k=report.achieved_k,
            phi_findings_remaining=len(remaining),
        )
        ctx.record(
            EvidenceKind.INITIAL_NORMALIZATION,
            f"anonymization pass: {report.summary()}",
        )
        ctx.record(
            EvidenceKind.NORMALIZATION_FINALIZED,
            f"k-anonymity k={report.achieved_k} enforced; policy "
            f"{compliance.policy} passed",
        )
        ctx.record(
            EvidenceKind.BASIC_LABELS,
            f"{assayed_frac:.0%} of subjects have assayed expression",
            labeled_fraction=assayed_frac,
        )
        ctx.record(
            EvidenceKind.TRANSFORM_AUDITED,
            "privacy scan post-anonymization",
            sensitive_remaining=len(remaining),
        )
        return {**payload, "clinical": anonymized}

    def _fuse(self, payload: Dict[str, Any], ctx: PipelineContext) -> Dataset:
        """fuse: join modalities on pseudonymous ids; impute missing labels."""
        clinical: Dataset = payload["clinical"]
        # the sequence side gets the same keyed pseudonyms, so the join works
        # without ever materializing raw ids next to sequence data
        sequence_tokens = pseudonymize(payload["subjects"], _PSEUDONYM_KEY)
        token_to_row = {t: i for i, t in enumerate(sequence_tokens.tolist())}
        seq_rows = np.asarray([token_to_row.get(t, -1) for t in clinical["subject_token"].tolist()])
        keep = seq_rows >= 0
        clinical = clinical.take(np.flatnonzero(keep))
        seq_rows = seq_rows[keep]
        expression = clinical["expression"].copy()
        features = payload["motif_features"][seq_rows]
        missing = np.isnan(expression)
        if missing.any():
            # semi-supervised label completion: least-squares fit of
            # expression on motif features over assayed subjects
            observed = ~missing
            design = np.column_stack([features[observed], np.ones(observed.sum())])
            coefficients, *_ = np.linalg.lstsq(
                design, expression[observed], rcond=None
            )
            fill_design = np.column_stack([features[missing], np.ones(missing.sum())])
            expression[missing] = fill_design @ coefficients
        pseudo_fraction = float(missing.mean())
        columns = {
            "sequence_onehot": dna_one_hot(payload["codes"][seq_rows]),
            "motif_features": features.astype(np.float32),
            "age_band": clinical["age"],
            "sex_is_f": (clinical["sex"] == "F").astype(np.float32),
            "biomarker": clinical["biomarker"],
            "expression": expression,
            "subject": clinical["subject_token"],
            "visit_date": clinical["visit_date"],
        }
        dataset = Dataset(
            columns,
            Schema(
                [
                    FieldSpec("sequence_onehot", np.dtype(np.float32),
                              shape=(payload["codes"].shape[1], 4), role=FieldRole.FEATURE,
                              description="one-hot DNA (ambiguity as 0.25)"),
                    FieldSpec("motif_features", np.dtype(np.float32), shape=(4,),
                              role=FieldRole.FEATURE,
                              description="promoter/repressor/N counts + GC"),
                    FieldSpec("age_band", np.dtype(np.float64), units="years",
                              description="age generalized to 10-year bands"),
                    FieldSpec("sex_is_f", np.dtype(np.float32)),
                    FieldSpec("biomarker", np.dtype(np.float64)),
                    FieldSpec("expression", np.dtype(np.float64), role=FieldRole.LABEL),
                    FieldSpec("subject", clinical["subject_token"].dtype,
                              role=FieldRole.IDENTIFIER,
                              description="keyed pseudonym"),
                    FieldSpec("visit_date", np.dtype(np.int64), role=FieldRole.METADATA,
                              units="days (subject-shifted)"),
                ]
            ),
            DatasetMetadata(
                name="bio-fused",
                domain="bio",
                source="synthetic genomic + clinical (anonymized)",
                modality=Modality.SEQUENCE,
                description="Cross-modal fusion of one-hot sequences and "
                "de-identified clinical covariates.",
            ),
        )
        ctx.record(
            EvidenceKind.FEATURES_EXTRACTED,
            f"cross-modal fusion of {dataset.n_samples} subjects "
            f"({pseudo_fraction:.0%} labels imputed semi-supervised)",
        )
        ctx.record(
            EvidenceKind.FEATURES_VALIDATED,
            "fused matrix finite; join integrity verified via keyed pseudonyms",
        )
        ctx.record(
            EvidenceKind.COMPREHENSIVE_LABELS,
            "expression targets completed by motif-feature regression",
            labeled_fraction=1.0,
        )
        ctx.add_artifact("dataset", dataset)
        return dataset

    def _shard(self, dataset: Dataset, ctx: PipelineContext) -> Dataset:
        """shard: policy-gated shard set + sealed enclave copy."""
        splits = random_split(
            dataset.n_samples, SplitSpec(0.7, 0.15, 0.15),
            rng=np.random.default_rng(self.seed),
        )
        manifest = ctx.backend.shard_write(
            dataset,
            self._output_dir,
            splits,
            shards_per_split=3,
            codec_name="zlib",
            codec_level=3,
            certificate=ctx.readiness_certificate(),
            schedule=ctx.schedule_record(),
        )
        enclave = SecureEnclave()
        enclave.authorize("release-engineer")
        enclave.ingest("bio-fused", dataset, actor="bio-pipeline")
        ctx.add_artifact("manifest", manifest)
        ctx.add_artifact("enclave", enclave)
        ctx.record(
            EvidenceKind.SPLIT_PARTITIONED,
            f"random split: { {k: len(v) for k, v in splits.items()} }",
        )
        ctx.record(
            EvidenceKind.SHARDED_BINARY,
            f"{manifest.n_shards} shards (zlib) + sealed enclave copy, "
            f"{len(enclave.audit)} audited events",
        )
        return dataset

    # -- pipeline assembly -----------------------------------------------------------
    def build_pipeline(self, output_dir: Union[str, Path]) -> Pipeline:
        self._output_dir = Path(output_dir)
        return Pipeline(
            "bio",
            [
                PipelineStage("acquire", DataProcessingStage.INGEST, self._acquire,
                              retry=True,
                              output_contract=CONTRACTS[("acquire", "output")]),
                PipelineStage("encode", DataProcessingStage.PREPROCESS, self._encode),
                PipelineStage("anonymize", DataProcessingStage.TRANSFORM, self._anonymize,
                              params={"k": self.k, "seed": self.seed}),
                PipelineStage("fuse", DataProcessingStage.STRUCTURE, self._fuse,
                              output_contract=CONTRACTS[("fuse", "output")]),
                PipelineStage("shard", DataProcessingStage.SHARD, self._shard,
                              params={"secure": True, "seed": self.seed},
                              parallelism=Parallelism.WRITE,
                              retry=True),
            ],
        )

    # -- challenge detection -----------------------------------------------------------
    def detect_challenges(self, dataset: Dataset, context: PipelineContext) -> List[str]:
        challenges: List[str] = []
        raw_findings = context.artifacts.get("phi_findings_raw", [])
        post_findings = context.artifacts.get("phi_findings_post", [])
        if raw_findings:
            challenges.append(
                f"PHI/PII compliance: {len(raw_findings)} findings in raw data, "
                f"{len(post_findings)} after anonymization "
                f"(k={context.artifacts['anonymization_report'].achieved_k})"
            )
        evidence = context.evidence.latest(EvidenceKind.BASIC_LABELS)
        if evidence is not None:
            frac = evidence.metrics.get("labeled_fraction", 1.0)
            if frac < 1.0:
                challenges.append(
                    f"limited labels: {frac:.0%} assayed; remainder completed "
                    "by semi-supervised regression"
                )
        formats = context.artifacts.get("source_formats", [])
        if len(formats) > 1:
            challenges.append(
                f"format inconsistencies: {len(formats)} source formats "
                f"({', '.join(formats)}) unified at ingest"
            )
        return challenges
