#!/usr/bin/env python
"""Quickstart: assess, prepare, and shard a dataset with the DRAI framework.

Walks the shortest useful path through the public API:

1. build a raw dataset with typical problems (missing values, mixed units,
   scarce labels);
2. run the Figure 1 steps with a pipeline that records readiness evidence;
3. assess readiness and render the dataset's position in the Table 2
   maturity matrix;
4. export AI-ready shards and read them back the way a trainer would;
5. render a datasheet;
6. enforce a data contract as a readiness gate: quarantine the records
   that violate it, then re-drive the quarantine after fixing the
   contract;
7. measure two execution configurations and let the planner pick the
   faster one.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.core import (
    Dataset,
    MaturityMatrix,
    Pipeline,
    ReadinessAssessor,
)
from repro.core.dataset import DatasetMetadata, FieldRole, FieldSpec, Schema
from repro.core.evidence import EvidenceKind
from repro.core.levels import DataProcessingStage
from repro.core.plan import PipelineStage
from repro.core.runner import PipelineContext
from repro.core.report import section
from repro.io.shards import ShardSet, write_shard_set
from repro.quality.datasheet import build_datasheet
from repro.transforms.cleaning import clean_dataset
from repro.transforms.label import UNLABELED, propagate_labels
from repro.transforms.normalize import normalize_dataset
from repro.transforms.split import SplitSpec, stratified_split


def make_raw_dataset(seed: int = 0, n: int = 400) -> Dataset:
    """Raw lab data: one informative channel, messy in the usual ways."""
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, 2, n)
    signal = truth * 2.5 + rng.normal(0, 0.6, n)
    signal[rng.uniform(size=n) < 0.05] = np.nan  # sensor dropouts
    temperature = rng.normal(21, 3, n)  # lab temperature, Celsius
    labels = np.where(rng.uniform(size=n) < 0.2, truth, UNLABELED)
    return Dataset(
        {
            "signal": signal,
            "temperature": temperature,
            "label": labels.astype(np.int64),
        },
        Schema([
            FieldSpec("signal", np.dtype(np.float64),
                      description="detector response"),
            FieldSpec("temperature", np.dtype(np.float64), units="degC"),
            FieldSpec("label", np.dtype(np.int64), role=FieldRole.LABEL),
        ]),
        DatasetMetadata(name="quickstart-lab-data", domain="generic",
                        description="Synthetic detector data for the quickstart."),
    )


# --- pipeline stages: pure transforms that also record evidence -----------

def ingest(dataset: Dataset, ctx: PipelineContext) -> Dataset:
    dataset.validate()
    ctx.record(EvidenceKind.ACQUIRED, f"{dataset.n_samples} samples")
    ctx.record(EvidenceKind.VALIDATED_INGEST, "schema validated",
               missing_fraction=float(np.isnan(dataset["signal"]).mean()))
    ctx.record(EvidenceKind.METADATA_ENRICHED, "units + descriptions declared")
    ctx.record(EvidenceKind.HIGH_THROUGHPUT_INGEST, "columnar in-memory layout")
    ctx.record(EvidenceKind.INGEST_AUTOMATED, "driven by this script")
    return dataset


def preprocess(dataset: Dataset, ctx: PipelineContext) -> Dataset:
    cleaned, report = clean_dataset(dataset, target_units={"temperature": "K"})
    ctx.record(EvidenceKind.INITIAL_ALIGNMENT, report.summary())
    ctx.record(EvidenceKind.GRIDS_STANDARDIZED, "single tabular layout")
    ctx.record(EvidenceKind.ALIGNMENT_STANDARDIZED, "units harmonized to SI")
    ctx.record(EvidenceKind.ALIGNMENT_AUTOMATED, "rule-driven cleaning")
    # re-record validated ingest now that missing values are gone
    ctx.record(EvidenceKind.VALIDATED_INGEST, "post-clean",
               missing_fraction=report.residual_missing_fraction)
    return cleaned


def transform(dataset: Dataset, ctx: PipelineContext) -> Dataset:
    normalized, normalizers = normalize_dataset(dataset)
    ctx.add_artifact("normalizers", {k: v.params() for k, v in normalizers.items()})
    features = np.stack([normalized["signal"], normalized["temperature"]], axis=1)
    labels = propagate_labels(features, normalized["label"], k_neighbors=7)
    labeled = normalized.with_column(normalized.schema["label"], labels, replace=True)
    fraction = float((labels != UNLABELED).mean())
    ctx.record(EvidenceKind.INITIAL_NORMALIZATION, "z-score per column")
    ctx.record(EvidenceKind.NORMALIZATION_FINALIZED, "parameters published")
    ctx.record(EvidenceKind.BASIC_LABELS, "seed labels present",
               labeled_fraction=0.2)
    ctx.record(EvidenceKind.COMPREHENSIVE_LABELS,
               f"label propagation -> {fraction:.0%}", labeled_fraction=fraction)
    ctx.record(EvidenceKind.TRANSFORM_AUDITED, "no sensitive fields",
               sensitive_remaining=0)
    return labeled


def structure(dataset: Dataset, ctx: PipelineContext) -> Dataset:
    resolved = dataset.take(dataset["label"] != UNLABELED)
    ctx.record(EvidenceKind.FEATURES_EXTRACTED,
               f"{len(resolved.schema.feature_names)} features retained")
    ctx.record(EvidenceKind.FEATURES_VALIDATED, "all columns finite")
    ctx.add_artifact("dataset", resolved)
    return resolved


def make_shard_stage(output_dir: Path):
    def shard(dataset: Dataset, ctx: PipelineContext) -> Dataset:
        splits = stratified_split(dataset["label"], SplitSpec(0.8, 0.1, 0.1),
                                  np.random.default_rng(0))
        manifest = write_shard_set(dataset, output_dir, splits=splits,
                                   shards_per_split=2, codec_name="zlib",
                                   codec_level=3)
        ctx.add_artifact("manifest", manifest)
        ctx.record(EvidenceKind.SPLIT_PARTITIONED,
                   str({k: len(v) for k, v in splits.items()}))
        ctx.record(EvidenceKind.SHARDED_BINARY, f"{manifest.n_shards} shards")
        return dataset

    return shard


def main() -> None:
    work_dir = Path(tempfile.mkdtemp(prefix="drai-quickstart-"))
    shard_dir = work_dir / "shards"

    print(section("1. raw data"))
    raw = make_raw_dataset()
    print(raw)
    print(f"missing signal values: {np.isnan(raw['signal']).sum()}")
    print(f"labeled fraction     : {(raw['label'] != UNLABELED).mean():.0%}")

    print(section("2. run the Figure 1 pipeline"))
    pipeline = Pipeline("quickstart", [
        PipelineStage("ingest", DataProcessingStage.INGEST, ingest),
        PipelineStage("clean", DataProcessingStage.PREPROCESS, preprocess),
        PipelineStage("normalize+label", DataProcessingStage.TRANSFORM, transform),
        PipelineStage("structure", DataProcessingStage.STRUCTURE, structure),
        PipelineStage("shard", DataProcessingStage.SHARD, make_shard_stage(shard_dir)),
    ])
    run = pipeline.run(raw)
    print(run.stage_table())

    print(section("3. readiness assessment (Table 2 position)"))
    assessment = ReadinessAssessor().assess(run.context.evidence)
    print(f"overall Data Readiness Level: {int(assessment.overall)} / 5")
    print(MaturityMatrix.from_assessment(assessment).render_compact())

    print(section("4. trainer-side ingestion"))
    shard_set = ShardSet(shard_dir)
    shard_set.verify()
    train = shard_set.load_split("train")
    print(f"train split: {train.n_samples} samples, "
          f"columns {train.schema.names}")
    for rank in range(2):
        shards = list(shard_set.iter_shards("train", rank=rank, world=2))
        print(f"rank {rank}/2 reads {len(shards)} shard(s)")

    print(section("5. datasheet"))
    sheet = build_datasheet(run.payload, assessment=assessment)
    print("\n".join(sheet.render_markdown().splitlines()[:18]))
    print("...")

    print(section("6. data readiness gates + quarantine re-drive"))
    from repro.gates import (
        ColumnCheck,
        QuarantineStore,
        StageContract,
        redrive,
    )

    # the contract the ingest boundary must satisfy — note the bounds are
    # (deliberately) miscalibrated: the detector legitimately swings past 3
    contract = StageContract("quickstart-ingest", checks=(
        ColumnCheck("finite", "signal"),
        ColumnCheck("bounds", "signal", lo=-2.0, hi=3.0),
    ))
    gated = Pipeline("quickstart-gated", [
        PipelineStage("ingest", DataProcessingStage.INGEST, ingest,
                      output_contract=contract),
    ])
    quarantine_dir = work_dir / "quarantine"
    gated_run = gated.run(raw, gates="quarantine",
                          quarantine_dir=quarantine_dir)
    for report in gated_run.gate_reports:
        print(report.summary())
    survivors = gated_run.payload
    print(f"run degraded: {gated_run.degraded}; "
          f"{survivors.n_samples}/{raw.n_samples} records survived")

    # the pen is not a graveyard: fix the bounds and replay the quarantine.
    # NaN-signal records still violate and are re-quarantined; the records
    # the miscalibrated bounds rejected are promoted into a shard.
    fixed = StageContract("quickstart-ingest", checks=(
        ColumnCheck("finite", "signal"),
        ColumnCheck("bounds", "signal", lo=-5.0, hi=6.0),
    ))
    redrive_report = redrive(QuarantineStore(quarantine_dir),
                             {"quickstart-ingest": fixed},
                             work_dir / "redrive")
    print(redrive_report.summary())
    print(f"promoted shard: {redrive_report.shard_path}")

    print(section("7. measured planning (plan explain)"))
    from repro.sched import Ledger, choose_config, store_key

    # every run given a ledger appends one row to <store>/ledger.jsonl: its
    # stage seconds under the configuration that ran them; `run --plan auto`
    # then runs the one with the lowest summed per-stage medians for this
    # pipeline, host and input size — exactly what `repro plan explain`
    # prints, and `repro runs list` tables the same rows
    ledger = Ledger(work_dir / "store")
    key = store_key(pipeline.name, raw)
    print(f"store key: {key.label()}")
    print(choose_config(key, pipeline.stage_names, ledger).summary())
    for backend in ("serial", "threaded"):
        pipeline.run(raw, backend=backend, ledger=ledger.directory)
    decision = choose_config(key, pipeline.stage_names, ledger)
    print()
    print(decision.render_table())
    print(decision.summary())
    print(f"\nworkspace: {work_dir}")


if __name__ == "__main__":
    main()
