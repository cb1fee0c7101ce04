"""Synthetic bio/health sources: DNA sequences + clinical records with PHI.

Stands in for the protected datasets of Section 3.3 (Enformer-style
genomics, C-HER-style multimodal clinical).  Two linked modalities:

* **sequences** — per-subject DNA strings whose *expression target* is
  driven by planted regulatory motifs (a TATA-box-like promoter motif and
  a repressor motif), so one-hot encoding + tiling genuinely carries
  signal;
* **clinical records** — tabular rows keyed by the same subjects,
  deliberately full of PHI/PII (names, SSN-like ids, MRNs, dates of
  birth, visit dates, ZIP codes) that the anonymization stage must
  remove, plus legitimate covariates (age band source, biomarker).

Sequences ship as a FASTA-like text file and records as a CSV-like file —
"format inconsistencies" (Table 1) are part of the archetype.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Dict, List, Tuple, Union

import numpy as np

__all__ = [
    "BioSourceConfig",
    "PROMOTER_MOTIF",
    "REPRESSOR_MOTIF",
    "synthesize_bio_sources",
    "read_fasta_like",
    "read_csv_like",
]

PROMOTER_MOTIF = "TATAAT"
REPRESSOR_MOTIF = "GCGCGC"

_FIRST = ["Ada", "Ben", "Cora", "Dev", "Ela", "Finn", "Gia", "Hugo", "Iris", "Jon"]
_LAST = ["Stone", "Reyes", "Okafor", "Lindgren", "Park", "Meyer", "Abe", "Novak"]


@dataclasses.dataclass(frozen=True)
class BioSourceConfig:
    n_subjects: int = 120
    sequence_length: int = 512
    labeled_fraction: float = 0.7  # expression assays are expensive
    seed: int = 0


def _random_sequence(rng: np.random.Generator, length: int) -> str:
    return "".join(np.asarray(list("ACGT"))[rng.integers(0, 4, length)].tolist())


def _plant(sequence: str, motif: str, count: int, rng: np.random.Generator) -> str:
    seq = list(sequence)
    for _ in range(count):
        pos = int(rng.integers(0, len(seq) - len(motif)))
        seq[pos : pos + len(motif)] = list(motif)
    return "".join(seq)


def synthesize_bio_sources(
    directory: Union[str, Path], config: BioSourceConfig
) -> Dict[str, object]:
    """Write linked FASTA-like and CSV-like sources; returns the manifest."""
    rng = np.random.default_rng(config.seed)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    fasta_lines: List[str] = []
    expression: Dict[str, float] = {}
    for i in range(config.n_subjects):
        subject = f"SUBJ{i:05d}"
        promoters = int(rng.integers(0, 5))
        repressors = int(rng.integers(0, 3))
        seq = _random_sequence(rng, config.sequence_length)
        seq = _plant(seq, PROMOTER_MOTIF, promoters, rng)
        seq = _plant(seq, REPRESSOR_MOTIF, repressors, rng)
        # a few N ambiguity codes, as real assemblies have
        n_ambiguous = int(rng.integers(0, 4))
        chars = list(seq)
        for _ in range(n_ambiguous):
            chars[int(rng.integers(0, len(chars)))] = "N"
        seq = "".join(chars)
        target = 2.0 * promoters - 1.5 * repressors + float(rng.normal(0, 0.3))
        expression[subject] = target
        fasta_lines.append(f">{subject}")
        for start in range(0, len(seq), 80):
            fasta_lines.append(seq[start : start + 80])
    fasta_path = directory / "sequences.fa"
    fasta_path.write_text("\n".join(fasta_lines) + "\n")

    header = [
        "patient_id", "patient_name", "ssn", "mrn", "dob", "visit_date",
        "zip_code", "age", "sex", "biomarker", "expression", "assayed",
    ]
    rows: List[str] = [",".join(header)]
    for i in range(config.n_subjects):
        subject = f"SUBJ{i:05d}"
        name = f"{_FIRST[int(rng.integers(0, len(_FIRST)))]} {_LAST[int(rng.integers(0, len(_LAST)))]}"
        ssn = f"{rng.integers(100, 999):03d}-{rng.integers(10, 99):02d}-{rng.integers(1000, 9999):04d}"
        mrn = f"MRN-{rng.integers(10**6, 10**7 - 1)}"
        birth_year = int(rng.integers(1935, 2005))
        dob = f"{birth_year}-{int(rng.integers(1, 13)):02d}-{int(rng.integers(1, 29)):02d}"
        visit = int(rng.integers(19000, 19700))  # days since epoch
        zip_code = f"378{int(rng.integers(0, 5)):02d}"
        age = 2026 - birth_year
        sex = "F" if rng.uniform() < 0.5 else "M"
        biomarker = float(np.round(rng.normal(5.0 + 0.02 * age, 1.0), 3))
        assayed = rng.uniform() < config.labeled_fraction
        expr = f"{expression[subject]:.4f}" if assayed else ""
        rows.append(
            f"{subject},{name},{ssn},{mrn},{dob},{visit},{zip_code},"
            f"{age},{sex},{biomarker},{expr},{int(assayed)}"
        )
    csv_path = directory / "clinical.csv"
    csv_path.write_text("\n".join(rows) + "\n")
    return {
        "domain": "bio",
        "fasta": str(fasta_path),
        "clinical": str(csv_path),
        "n_subjects": config.n_subjects,
        "sequence_length": config.sequence_length,
        "config_seed": config.seed,
    }


def read_fasta_like(path: Union[str, Path]) -> Tuple[np.ndarray, np.ndarray]:
    """Parse a FASTA-like file into ids (``U32``, file order) and an ``(n, L)``
    ``uint8`` matrix of ASCII bases: one flat byte string in which record
    ``i`` starts at offset ``i * L``.  A repeated id or unequal lengths raise."""
    lines = [line.strip() for line in Path(path).read_bytes().splitlines()]
    heads = [i for i, line in enumerate(lines) if line.startswith(b">")]
    records: Dict[str, bytes] = {}  # id -> sequence, in file order
    for start, stop in zip(heads, heads[1:] + [len(lines)]):
        name = lines[start][1:].split()[0].decode()
        if name in records:
            raise ValueError(f"duplicate sequence id {name!r}")
        records[name] = b"".join(lines[start + 1 : stop])
    lengths = sorted({len(sequence) for sequence in records.values()})
    if len(lengths) != 1:
        raise ValueError(f"inconsistent sequence lengths: {lengths}")
    bases = np.frombuffer(b"".join(records.values()), dtype=np.uint8)
    return np.asarray(list(records), dtype="U32"), bases.reshape(len(records), lengths[0])


def read_csv_like(path: Union[str, Path]) -> Tuple[List[str], List[List[str]]]:
    """Parse a simple CSV (no quoting) into (header, rows)."""
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:] if line.strip()]
    return header, rows
