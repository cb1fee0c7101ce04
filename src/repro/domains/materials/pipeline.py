"""The materials archetype: ``parse -> normalize -> encode -> shard``.

Reproduces the HydraGNN/OMat24-style preprocessing of Section 3.4:
JSON-lines calculation outputs are parsed and validated, energies are
normalized (composition-baseline removal plus multi-fidelity offset
correction between "experimental" and DFT records), structures are
encoded as bond graphs, fixed-size graph descriptors are extracted with
SMOTE-style oversampling of rare crystal families, and the result ships
as an ADIOS-like step-based container (one step per structure, the
HydraGNN pattern) alongside the native shard set.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

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
from repro.domains.materials.graphs import (
    DESCRIPTOR_NAMES,
    SPECIES_CODES,
    GraphBatch,
    build_batch,
    describe_batch,
)
from repro.domains.materials.synthetic import (
    SPECIES,
    CRYSTAL_FAMILIES,
    MaterialsSourceConfig,
    synthesize_materials_archive,
)
from repro.gates import ColumnCheck, StageContract
from repro.io.adios import BPWriter
from repro.quality.metrics import imbalance_ratio
from repro.transforms.augment import smote_like
from repro.transforms.normalize import ZScoreNormalizer
from repro.transforms.split import SplitSpec, stratified_split

__all__ = ["MaterialsArchetype", "CONTRACTS"]

FAMILY_TO_CLASS = {family: i for i, family in enumerate(CRYSTAL_FAMILIES)}
#: code -> species, the inverse of ``SPECIES_CODES``
CODE_SPECIES = sorted(SPECIES)

#: data contracts enforced at stage boundaries when gating is enabled
#: (keyed ``(stage_name, boundary)``; also the re-drive contract registry)
CONTRACTS: Dict[tuple, StageContract] = {
    ("parse", "output"): StageContract(
        name="materials-ingest",
        checks=(
            ColumnCheck("finite", "positions"),
            ColumnCheck("finite", "forces"),
            ColumnCheck("finite", "energy_ev"),
            ColumnCheck("bounds", "energy_ev", lo=-1.0e4, hi=1.0e4),
        ),
    ),
    ("graph", "output"): StageContract(
        name="materials-structure",
        checks=(
            ColumnCheck("finite", "descriptor"),
            ColumnCheck("finite", "energy_per_atom"),
        ),
        validate_schema=True,
    ),
}


def _encodable(record: Dict[str, Any]) -> bool:
    """A parsed record the encode stage can turn into a bond graph: one
    known species per ``(x, y, z)`` position, forces shaped like the
    positions, and a 3x3 lattice."""
    positions = record["positions"]
    return (
        positions.shape == (len(record["species"]), 3)
        and record["forces"].shape == positions.shape
        and record["lattice"].shape == (3, 3)
        and all(s in SPECIES for s in record["species"])
    )


#: structure-table column -> (role, units)
_STRUCTURE_FIELDS: Dict[str, Tuple[FieldRole, Optional[str]]] = {
    "id": (FieldRole.IDENTIFIER, None),
    "crystal_family": (FieldRole.LABEL, None),
    "fidelity": (FieldRole.METADATA, None),
    "energy_ev": (FieldRole.LABEL, "eV"),
    "lattice": (FieldRole.COORDINATE, "A"),
    "n_atoms": (FieldRole.METADATA, None),
    "species": (FieldRole.FEATURE, None),
    "positions": (FieldRole.COORDINATE, None),
    "forces": (FieldRole.LABEL, "eV/A"),
}


def _structure_table(records: List[Dict[str, Any]]) -> Dataset:
    """One row per parsed record, padded to the widest structure ``W``:
    species codes with ``-1``, positions and forces with zeros."""
    n_atoms = np.asarray([len(r["species"]) for r in records], dtype=np.int64)
    width = int(n_atoms.max())
    species = np.full((len(records), width), -1, dtype=np.int64)
    positions = np.zeros((len(records), width, 3))
    forces = np.zeros((len(records), width, 3))
    for row, (record, k) in enumerate(zip(records, n_atoms.tolist())):
        species[row, :k] = [SPECIES_CODES[s] for s in record["species"]]
        positions[row, :k] = record["positions"]
        forces[row, :k] = record["forces"]
    columns = {
        "id": np.asarray([r["id"] for r in records]),
        "crystal_family": np.asarray([r["crystal_family"] for r in records]),
        "fidelity": np.asarray([r["fidelity"] for r in records]),
        "energy_ev": np.asarray([r["energy_ev"] for r in records], dtype=np.float64),
        "lattice": np.stack([r["lattice"] for r in records]),
        "n_atoms": n_atoms,
        "species": species,
        "positions": positions,
        "forces": forces,
    }
    schema = Schema(
        FieldSpec(name, values.dtype, shape=values.shape[1:], role=_STRUCTURE_FIELDS[name][0],
                  units=_STRUCTURE_FIELDS[name][1])
        for name, values in columns.items()
    )
    metadata = DatasetMetadata(
        name="materials-structures",
        domain="materials",
        source="synthetic OMat24/AFLOW-like archive",
        modality=Modality.GRAPH,
        description="One row per parsed calculation, padded to the widest structure.",
    )
    return Dataset(columns, schema, metadata)


class MaterialsArchetype(DomainArchetype):
    """Executable Table 1 materials row."""

    domain = "materials"
    #: the largest class may outnumber the smallest by at most this after oversampling
    oversample_to_ratio = 4.0

    def __init__(self, seed: int = 0, *, config: Optional[MaterialsSourceConfig] = None):
        super().__init__(seed)
        self.config = config or MaterialsSourceConfig(seed=seed)

    # -- source ------------------------------------------------------------------
    def synthesize_source(self, directory: Union[str, Path], **params: Any) -> Dict[str, Any]:
        config = dataclasses.replace(self.config, **params) if params else self.config
        return synthesize_materials_archive(directory, config)

    # -- stages ------------------------------------------------------------------
    def _parse(self, manifest: Dict[str, Any], ctx: PipelineContext) -> Dataset:
        """parse: JSON-lines calculation outputs -> the structure table."""
        records: List[Dict[str, Any]] = []
        rejected = 0
        required = {"id", "crystal_family", "lattice", "species", "positions",
                    "energy_ev", "forces", "fidelity"}
        with open(manifest["calculations"], "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                blob = json.loads(line)
                if not required <= set(blob):
                    rejected += 1
                    continue
                record = {
                    "id": str(blob["id"]),
                    "crystal_family": str(blob["crystal_family"]),
                    "lattice": np.asarray(blob["lattice"], dtype=np.float64),
                    "species": [str(s) for s in blob["species"]],
                    "positions": np.asarray(blob["positions"], dtype=np.float64),
                    "energy_ev": float(blob["energy_ev"]),
                    "forces": np.asarray(blob["forces"], dtype=np.float64),
                    "fidelity": str(blob["fidelity"]),
                }
                if not _encodable(record):
                    rejected += 1
                    continue
                records.append(record)
        if not records:
            raise ValueError("calculation archive is empty")
        table = _structure_table(records)
        ctx.add_artifact("n_parsed", len(records))
        ctx.record(
            EvidenceKind.ACQUIRED,
            f"{len(records)} calculations parsed ({rejected} rejected)",
        )
        ctx.record(
            EvidenceKind.VALIDATED_INGEST,
            "required fields present; one known species per (x, y, z) "
            "position, forces shaped like positions, 3x3 lattice",
            missing_fraction=0.0,
        )
        ctx.record(
            EvidenceKind.METADATA_ENRICHED,
            "fidelity + code provenance tags retained per record",
        )
        ctx.record(EvidenceKind.HIGH_THROUGHPUT_INGEST, "line-streamed JSON parse")
        ctx.record(EvidenceKind.INGEST_AUTOMATED, "schema-driven record validation")
        return table

    def _normalize(self, table: Dataset, ctx: PipelineContext) -> Dataset:
        """normalize: per-atom energies, composition baseline, fidelity offset."""
        species = table["species"]
        codes = np.unique(species[species >= 0])
        species_list = [CODE_SPECIES[c] for c in codes.tolist()]
        composition = (species[:, :, None] == codes).sum(axis=1).astype(np.float64)
        energies = table["energy_ev"]
        is_experimental = table["fidelity"] == "experimental"
        # multi-fidelity correction: align experimental records to the DFT
        # reference by the residual offset after composition regression
        design = np.column_stack([composition, np.ones(len(table))])
        coefficients, *_ = np.linalg.lstsq(
            design[~is_experimental], energies[~is_experimental], rcond=None
        )
        baseline = design @ coefficients
        residual = energies - baseline
        offset = (
            float(residual[is_experimental].mean()) if is_experimental.any() else 0.0
        )
        corrected = energies - np.where(is_experimental, offset, 0.0)
        # per-atom formation-style target
        target = (corrected - baseline) / table["n_atoms"].astype(np.float64)
        table = table.with_column(
            FieldSpec("target_energy", np.dtype(np.float64), role=FieldRole.LABEL,
                      units="eV/atom"),
            target,
        ).with_column(
            FieldSpec("fidelity_corrected", np.dtype(bool), role=FieldRole.METADATA),
            is_experimental,
        )
        ctx.add_artifact("fidelity_offset_ev", offset)
        ctx.add_artifact("species_list", species_list)
        ctx.record(
            EvidenceKind.INITIAL_ALIGNMENT,
            "energies referenced to composition baseline (per-atom)",
        )
        ctx.record(
            EvidenceKind.GRIDS_STANDARDIZED,
            f"multi-fidelity offset {offset:+.3f} eV removed from "
            f"{int(is_experimental.sum())} experimental records",
        )
        ctx.record(
            EvidenceKind.ALIGNMENT_STANDARDIZED,
            "single energy reference across codes and fidelities",
        )
        ctx.record(EvidenceKind.ALIGNMENT_AUTOMATED, "regression-based referencing")
        return table

    def _encode(self, table: Dataset, ctx: PipelineContext) -> Dict[str, Any]:
        """encode: bond graphs + class labels (one graph batch).

        Structures are independent, so graph construction fans out in
        fixed blocks through ``ctx.backend.map`` (Parallelism.MAP).
        """
        graphs = build_batch(
            table["n_atoms"], table["species"], table["lattice"], table["positions"],
            ctx.backend.map,
        )
        families, inverse = np.unique(table["crystal_family"], return_inverse=True)
        labels = np.asarray(
            [FAMILY_TO_CLASS[f] for f in families.tolist()], dtype=np.int64
        )[inverse]
        ctx.add_artifact("graphs", graphs)
        ctx.annotate_span(
            structures_encoded=len(table),
            total_bonds=int(graphs.offsets[-1]),
        )
        ctx.record(
            EvidenceKind.INITIAL_NORMALIZATION,
            f"{len(table)} structures encoded as bond graphs",
        )
        ctx.record(
            EvidenceKind.NORMALIZATION_FINALIZED,
            "cutoff-based edges under minimum-image convention",
        )
        ctx.record(
            EvidenceKind.BASIC_LABELS,
            "crystal-family labels from calculation metadata",
            labeled_fraction=1.0,
        )
        ctx.record(
            EvidenceKind.COMPREHENSIVE_LABELS,
            "every record labelled (archives are well-annotated; Section 3.4)",
            labeled_fraction=1.0,
        )
        ctx.record(
            EvidenceKind.TRANSFORM_AUDITED,
            "no sensitive content in materials records",
            sensitive_remaining=0,
        )
        return {"structures": table, "graphs": graphs, "labels": labels}

    def _structure(self, payload: Dict[str, Any], ctx: PipelineContext) -> Dataset:
        """graph: fixed descriptors + minority-class oversampling."""
        labels: np.ndarray = payload["labels"]
        descriptors = describe_batch(payload["graphs"])
        normalizer = ZScoreNormalizer().fit(descriptors)
        normalized = normalizer.transform(descriptors)
        targets = payload["structures"]["target_energy"]
        synthetic_flag = np.zeros(len(targets), dtype=np.int64)
        imbalance_before = imbalance_ratio(labels)
        # oversample rare families so max/min count ratio <= threshold
        rng = np.random.default_rng(self.seed + 17)
        values, counts = np.unique(labels, return_counts=True)
        target_min = int(np.ceil(counts.max() / self.oversample_to_ratio))
        synth_X: List[np.ndarray] = []
        synth_y: List[np.ndarray] = []
        for value, count in zip(values.tolist(), counts.tolist()):
            if count >= target_min:
                continue
            n_needed = target_min - count
            if count >= 2:
                synthetic, new_labels = smote_like(
                    normalized, labels, value, rng, n_synthetic=n_needed
                )
            else:
                # singleton class: SMOTE cannot interpolate, so replicate the
                # lone example with small jitter (flagged synthetic either way)
                lone = normalized[labels == value][0]
                synthetic = lone + rng.normal(0.0, 0.05, size=(n_needed, lone.size))
                new_labels = np.full(n_needed, value, dtype=labels.dtype)
            synth_X.append(synthetic)
            synth_y.append(new_labels)
        if synth_X:
            extra = np.concatenate(synth_X)
            normalized = np.concatenate([normalized, extra])
            # synthetic targets: mean target of the class (regression side
            # stays honest: flagged as synthetic for loss weighting)
            extra_labels = np.concatenate(synth_y)
            extra_targets = np.asarray(
                [targets[labels == c].mean() for c in extra_labels]
            )
            labels = np.concatenate([labels, extra_labels])
            targets = np.concatenate([targets, extra_targets])
            synthetic_flag = np.concatenate(
                [synthetic_flag, np.ones(extra_labels.size, dtype=np.int64)]
            )
        imbalance_after = imbalance_ratio(labels)
        ctx.add_artifact("imbalance_before", imbalance_before)
        ctx.add_artifact("imbalance_after", imbalance_after)
        dataset = Dataset(
            {
                "descriptor": normalized.astype(np.float32),
                "crystal_class": labels,
                "energy_per_atom": targets,
                "is_synthetic": synthetic_flag,
            },
            Schema(
                [
                    FieldSpec("descriptor", np.dtype(np.float32),
                              shape=(len(DESCRIPTOR_NAMES),), role=FieldRole.FEATURE,
                              description=f"graph descriptors: {DESCRIPTOR_NAMES}"),
                    FieldSpec("crystal_class", np.dtype(np.int64), role=FieldRole.LABEL,
                              categories=tuple(range(len(CRYSTAL_FAMILIES)))),
                    FieldSpec("energy_per_atom", np.dtype(np.float64),
                              role=FieldRole.LABEL, units="eV/atom"),
                    FieldSpec("is_synthetic", np.dtype(np.int64), role=FieldRole.METADATA),
                ]
            ),
            DatasetMetadata(
                name="materials-graph-descriptors",
                domain="materials",
                source="synthetic OMat24/AFLOW-like archive",
                modality=Modality.GRAPH,
                description="Normalized graph descriptors with crystal-family "
                "labels and per-atom energy targets.",
            ),
        )
        ctx.record(
            EvidenceKind.FEATURES_EXTRACTED,
            f"{len(DESCRIPTOR_NAMES)} graph descriptors; imbalance "
            f"{imbalance_before:.1f} -> {imbalance_after:.1f} after SMOTE",
        )
        ctx.record(
            EvidenceKind.FEATURES_VALIDATED,
            "descriptor matrix standardized and finite",
        )
        ctx.add_artifact("dataset", dataset)
        return dataset

    def _shard(self, dataset: Dataset, ctx: PipelineContext) -> Dataset:
        """shard: stratified split, ADIOS-like steps + native shard set."""
        splits = stratified_split(
            dataset["crystal_class"], SplitSpec(0.7, 0.15, 0.15),
            rng=np.random.default_rng(self.seed),
        )
        manifest = ctx.backend.shard_write(
            dataset,
            self._output_dir,
            splits,
            shards_per_split=3,
            codec_name="zlib",
            codec_level=2,
            certificate=ctx.readiness_certificate(),
            schedule=ctx.schedule_record(),
        )
        # ADIOS-like export: one step per structure (HydraGNN's write pattern)
        bp_path = self._output_dir / "graphs.bp"
        graphs: GraphBatch = ctx.artifacts["graphs"]
        bounds = zip(graphs.offsets[:-1].tolist(), graphs.offsets[1:].tolist())
        with BPWriter(bp_path) as writer:
            for s, ((start, stop), n_atoms) in enumerate(zip(bounds, graphs.n_atoms.tolist())):
                writer.begin_step()
                writer.write("edges", graphs.edges[start:stop])
                writer.write("lattice", graphs.lattice[s])
                writer.write("species_codes", graphs.species[s, :n_atoms])
                writer.end_step()
        ctx.add_artifact("manifest", manifest)
        ctx.add_artifact("bp_path", bp_path)
        ctx.record(
            EvidenceKind.SPLIT_PARTITIONED,
            f"stratified split: { {k: len(v) for k, v in splits.items()} }",
        )
        ctx.record(
            EvidenceKind.SHARDED_BINARY,
            f"{manifest.n_shards} native shards + ADIOS-like container "
            f"with {len(graphs.n_atoms)} graph steps",
        )
        return dataset

    # -- pipeline assembly -----------------------------------------------------------
    def build_pipeline(self, output_dir: Union[str, Path]) -> Pipeline:
        self._output_dir = Path(output_dir)
        return Pipeline(
            "materials",
            [
                PipelineStage("parse", DataProcessingStage.INGEST, self._parse,
                              retry=True,
                              output_contract=CONTRACTS[("parse", "output")]),
                PipelineStage("normalize", DataProcessingStage.PREPROCESS, self._normalize),
                PipelineStage("encode", DataProcessingStage.TRANSFORM, self._encode,
                              parallelism=Parallelism.MAP),
                PipelineStage("graph", DataProcessingStage.STRUCTURE, self._structure,
                              params={"oversample_to_ratio": self.oversample_to_ratio,
                                      "seed": self.seed},
                              output_contract=CONTRACTS[("graph", "output")]),
                PipelineStage("shard", DataProcessingStage.SHARD, self._shard,
                              params={"formats": ["rps", "adios-like"], "seed": self.seed},
                              parallelism=Parallelism.WRITE,
                              retry=True),
            ],
        )

    # -- challenge detection -----------------------------------------------------------
    def detect_challenges(self, dataset: Dataset, context: PipelineContext) -> List[str]:
        challenges: List[str] = []
        before = context.artifacts.get("imbalance_before", 1.0)
        after = context.artifacts.get("imbalance_after", 1.0)
        if before > 2.0:
            challenges.append(
                f"class imbalance: majority/minority ratio {before:.1f} in raw "
                f"archive, {after:.1f} after SMOTE oversampling"
            )
        offset = context.artifacts.get("fidelity_offset_ev", 0.0)
        if abs(offset) > 0.05:
            challenges.append(
                f"fidelity mismatch: experimental records offset by "
                f"{offset:+.2f} eV relative to DFT; corrected by regression"
            )
        graphs: Optional[GraphBatch] = context.artifacts.get("graphs")
        if graphs is not None and len(graphs.n_atoms):
            sizes, bonds = graphs.n_atoms, graphs.n_bonds
            challenges.append(
                f"graph complexity: {sizes.min()}-{sizes.max()} atoms, "
                f"{bonds.min()}-{bonds.max()} bonds per structure (ragged until "
                "descriptor extraction)"
            )
        return challenges
