"""Bio archetype: sources with PHI, anonymization gate, fusion, enclave."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.plan import PipelineError
from repro.core.runner import PipelineContext
from repro.domains.bio.pipeline import BioArchetype
from repro.domains.bio.synthetic import (
    PROMOTER_MOTIF,
    REPRESSOR_MOTIF,
    BioSourceConfig,
    read_csv_like,
    read_fasta_like,
    synthesize_bio_sources,
)
from repro.governance.privacy import PrivacyScanner
from repro.transforms.encode import EncodingError, dna_one_hot

CONFIG = BioSourceConfig(n_subjects=50, sequence_length=256, seed=9)


@pytest.fixture(scope="module")
def result(tmp_path_factory):
    arch = BioArchetype(seed=9, config=CONFIG)
    return arch.run(tmp_path_factory.mktemp("bio"))


class TestSyntheticSources:
    def test_fasta_round_trip(self, tmp_path):
        manifest = synthesize_bio_sources(tmp_path, CONFIG)
        ids, bases = read_fasta_like(manifest["fasta"])
        assert ids.dtype == np.dtype("U32")
        assert ids.tolist() == [f"SUBJ{i:05d}" for i in range(CONFIG.n_subjects)]
        assert bases.dtype == np.uint8
        assert bases.shape == (CONFIG.n_subjects, CONFIG.sequence_length)

    def test_sequences_use_dna_alphabet(self, tmp_path):
        manifest = synthesize_bio_sources(tmp_path, CONFIG)
        _, bases = read_fasta_like(manifest["fasta"])
        assert set(bases.tobytes().decode()) <= set("ACGTN")

    def test_clinical_has_phi(self, tmp_path):
        manifest = synthesize_bio_sources(tmp_path, CONFIG)
        header, rows = read_csv_like(manifest["clinical"])
        assert "ssn" in header and "patient_name" in header
        assert len(rows) == CONFIG.n_subjects

    def test_expression_driven_by_motifs(self, tmp_path):
        manifest = synthesize_bio_sources(tmp_path, CONFIG)
        ids, bases = read_fasta_like(manifest["fasta"])
        sequences = {name: row.tobytes().decode() for name, row in zip(ids.tolist(), bases)}
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


def _first_sequence_line(text, edit):
    lines = text.split("\n")
    lines[1] = edit(lines[1])
    return "\n".join(lines)


#: FASTA damage -> (edit of the file text, failing stage, exception type, message)
DAMAGE = {
    "duplicate-id": (
        lambda text: text.replace(">SUBJ00001\n", ">SUBJ00000\n"),
        "acquire", ValueError, "duplicate sequence id 'SUBJ00000'",
    ),
    "unequal-lengths": (
        lambda text: _first_sequence_line(text, lambda line: line + "A"),
        "acquire", ValueError, "inconsistent sequence lengths: [64, 65]",
    ),
    "invalid-base": (
        lambda text: _first_sequence_line(text, lambda line: line[:3] + "X" + line[4:]),
        "encode", EncodingError, "invalid DNA character 'X'",
    ),
}


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_damaged_fasta_fails_the_run_at_its_stage(tmp_path, damage):
    edit, stage, error, message = DAMAGE[damage]
    archetype = BioArchetype(seed=3, config=BioSourceConfig(n_subjects=8, sequence_length=64))
    manifest = archetype.synthesize_source(tmp_path / "source")
    fasta = Path(manifest["fasta"])
    fasta.write_text(edit(fasta.read_text()))
    with pytest.raises(PipelineError) as info:
        archetype.build_pipeline(tmp_path / "shards").run(manifest, PipelineContext())
    assert info.value.stage_name == stage
    assert type(info.value.__cause__) is error
    assert str(info.value.__cause__) == message


# ---------------------------------------------------------------------------
# the per-string kernels the code matrix replaced: bit-for-bit references
# ---------------------------------------------------------------------------

_REFERENCE_INDEX = np.full(256, -1, dtype=np.int8)
for _i, _c in enumerate("ACGT"):
    _REFERENCE_INDEX[ord(_c)] = _i
    _REFERENCE_INDEX[ord(_c.lower())] = _i
_REFERENCE_INDEX[ord("N")] = 4
_REFERENCE_INDEX[ord("n")] = 4


def reference_one_hot(sequence):
    """The per-string ``dna_one_hot``, body unchanged."""
    if isinstance(sequence, str):
        sequence = sequence.encode("ascii")
    raw = np.frombuffer(sequence, dtype=np.uint8)
    codes = _REFERENCE_INDEX[raw]
    if np.any(codes < 0):
        bad = chr(raw[int(np.argmax(codes < 0))])
        raise EncodingError(f"invalid DNA character {bad!r}")
    out = np.zeros((raw.size, 4), dtype=np.float32)
    known = codes < 4
    out[np.nonzero(known)[0], codes[known]] = 1.0
    out[~known] = 0.25
    return out


def reference_encode(sequences):
    """The per-subject encode stage: sorted subjects, one-hot, motif features."""
    subjects = sorted(sequences)
    onehot = np.stack([reference_one_hot(sequences[s]) for s in subjects])
    motif_features = np.stack(
        [
            [
                sequences[s].count(PROMOTER_MOTIF),
                sequences[s].count(REPRESSOR_MOTIF),
                sequences[s].count("N"),
                (sequences[s].count("G") + sequences[s].count("C"))
                / len(sequences[s]),
            ]
            for s in subjects
        ]
    ).astype(np.float64)
    return subjects, onehot.astype(np.float32), motif_features


#: motifs that overlap themselves: GCGCGC at shifts 2 and 4, TATAAT at 5
PLANTED = ("GCGCGCGC", "TATAATATAAT", REPRESSOR_MOTIF, PROMOTER_MOTIF)


@st.composite
def cohorts(draw):
    """``{id: sequence}``: ACGTN rows of one length with overlapping motifs planted."""
    length = draw(st.integers(1, 40))
    ids = draw(st.lists(st.text("SUBJab_09", min_size=1, max_size=8),
                        min_size=1, max_size=6, unique=True))
    cohort = {}
    for name in ids:
        row = draw(st.text("ACGTN", min_size=length, max_size=length))
        for motif in draw(st.lists(st.sampled_from(PLANTED), max_size=4)):
            if len(motif) <= length:
                at = draw(st.integers(0, length - len(motif)))
                row = row[:at] + motif + row[at + len(motif):]
        cohort[name] = row
    return cohort


class TestSequenceKernels:
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(cohort=cohorts())
    @example(cohort={"b": "GCGCGCGCGCGCGCGC", "a": "TATAATATAATATAAT", "B": "NNNNGCGCGCNNNNNN"})
    @example(cohort={"only": "TATA"})
    def test_code_matrix_is_bitwise_the_per_string_kernels(self, cohort):
        with tempfile.TemporaryDirectory() as directory:
            fasta = Path(directory) / "sequences.fa"
            fasta.write_text("".join(
                f">{name}\n" + "".join(f"{row[i:i + 7]}\n" for i in range(0, len(row), 7))
                for name, row in cohort.items()
            ))
            ids, bases = read_fasta_like(fasta)
        payload = {"ids": ids, "bases": bases, "clinical": None}
        encoded = BioArchetype()._encode(payload, PipelineContext())
        subjects, onehot, motif_features = reference_encode(cohort)
        assert encoded["subjects"].tolist() == subjects
        assert encoded["motif_features"].dtype == np.float64
        assert encoded["motif_features"].tobytes() == motif_features.tobytes()
        assert set(encoded) == {"clinical", "subjects", "codes", "motif_features"}
        expanded = dna_one_hot(encoded["codes"])
        assert expanded.dtype == np.float32
        assert expanded.tobytes() == onehot.tobytes()
