"""Bio archetype: sources with PHI, anonymization gate, fusion, enclave."""

import numpy as np
import pytest

from repro.domains.bio.pipeline import BioArchetype
from repro.domains.bio.synthetic import (
    PROMOTER_MOTIF,
    BioSourceConfig,
    read_csv_like,
    read_fasta_like,
    synthesize_bio_sources,
)
from repro.governance.privacy import PrivacyScanner

CONFIG = BioSourceConfig(n_subjects=50, sequence_length=256, seed=9)


@pytest.fixture(scope="module")
def result(tmp_path_factory):
    arch = BioArchetype(seed=9, config=CONFIG)
    return arch.run(tmp_path_factory.mktemp("bio"))


class TestSyntheticSources:
    def test_fasta_round_trip(self, tmp_path):
        manifest = synthesize_bio_sources(tmp_path, CONFIG)
        sequences = read_fasta_like(manifest["fasta"])
        assert len(sequences) == CONFIG.n_subjects
        assert all(len(s) == CONFIG.sequence_length for s in sequences.values())

    def test_sequences_use_dna_alphabet(self, tmp_path):
        manifest = synthesize_bio_sources(tmp_path, CONFIG)
        sequences = read_fasta_like(manifest["fasta"])
        for seq in sequences.values():
            assert set(seq) <= set("ACGTN")

    def test_clinical_has_phi(self, tmp_path):
        manifest = synthesize_bio_sources(tmp_path, CONFIG)
        header, rows = read_csv_like(manifest["clinical"])
        assert "ssn" in header and "patient_name" in header
        assert len(rows) == CONFIG.n_subjects

    def test_expression_driven_by_motifs(self, tmp_path):
        manifest = synthesize_bio_sources(tmp_path, CONFIG)
        sequences = read_fasta_like(manifest["fasta"])
        header, rows = read_csv_like(manifest["clinical"])
        expr_idx = header.index("expression")
        id_idx = header.index("patient_id")
        counts, targets = [], []
        for row in rows:
            if row[expr_idx]:
                counts.append(sequences[row[id_idx]].count(PROMOTER_MOTIF))
                targets.append(float(row[expr_idx]))
        correlation = np.corrcoef(counts, targets)[0, 1]
        assert correlation > 0.5

    def test_some_expression_missing(self, tmp_path):
        manifest = synthesize_bio_sources(tmp_path, CONFIG)
        header, rows = read_csv_like(manifest["clinical"])
        expr_idx = header.index("expression")
        missing = sum(1 for r in rows if not r[expr_idx])
        assert 0 < missing < CONFIG.n_subjects


class TestPipeline:
    def test_reaches_level_5(self, result):
        assert result.readiness_level == 5, result.assessment.gap_report()

    def test_output_is_phi_free(self, result):
        findings = PrivacyScanner().scan(result.dataset)
        assert findings == [], [str(f) for f in findings]

    def test_one_hot_shape(self, result):
        onehot = result.dataset["sequence_onehot"]
        assert onehot.shape[1:] == (CONFIG.sequence_length, 4)
        # rows one-hot or uniform-N
        sums = onehot.sum(axis=2)
        assert np.allclose(sums, 1.0)

    def test_expression_labels_complete(self, result):
        assert not np.isnan(result.dataset["expression"]).any()

    def test_age_generalized_to_bands(self, result):
        ages = result.dataset["age_band"]
        assert np.allclose(ages % 10, 0)

    def test_k_anonymity_enforced(self, result):
        from repro.governance.anonymize import k_anonymity

        assert k_anonymity(result.dataset, ["age_band", "sex_is_f"]) >= 3

    def test_pseudonyms_join_modalities(self, result):
        subjects = result.dataset["subject"]
        assert all(len(s) == 16 for s in subjects.tolist())
        assert not any(s.startswith("SUBJ") for s in subjects.tolist())

    def test_enclave_copy_sealed_and_audited(self, result):
        enclave = result.run.context.artifacts["enclave"]
        assert enclave.holdings() == ["bio-fused"]
        enclave.audit.verify()
        blob = enclave._store["bio-fused"].column_blobs["subject"]
        for token in result.dataset["subject"][:3].tolist():
            assert token.encode() not in blob

    def test_challenges_detected(self, result):
        text = " ".join(result.detected_challenges)
        assert "PHI/PII" in text
        assert "format inconsistencies" in text

    def test_motif_signal_survives_pipeline(self, result):
        """Expression still correlates with motif counts after the whole
        anonymize/fuse path — privacy transforms preserved utility."""
        ds = result.dataset
        promoters = ds["motif_features"][:, 0]
        correlation = np.corrcoef(promoters, ds["expression"])[0, 1]
        assert correlation > 0.5
