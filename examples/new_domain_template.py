#!/usr/bin/env python
"""Onboarding a NEW scientific domain with a preprocessing template.

Section 6's future-work vision: "developing standardized domain-specific
preprocessing templates for wider adoption."  This example brings a fifth
domain — astronomy transit light curves — into the framework using only
the template API: declare the five-stage recipe, bind domain operation
functions, run, and get readiness assessment + provenance + shards for
free.  No archetype subclass, no engine code.

Run:  python examples/new_domain_template.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.core import MaturityMatrix, ReadinessAssessor
from repro.core.crosswalk import crosswalk_report
from repro.core.dataset import Dataset, DatasetMetadata, FieldRole, FieldSpec, Modality, Schema
from repro.core.evidence import EvidenceKind as K
from repro.core.levels import DataProcessingStage as S
from repro.core.runner import PipelineContext
from repro.core.report import section
from repro.core.templates import (
    DomainTemplate,
    StageTemplate,
    TemplatedPipelineBuilder,
)
from repro.io.shards import write_shard_set
from repro.transforms.split import SplitSpec, random_split

# --- 1. declare the domain template ----------------------------------------

ASTRONOMY_TEMPLATE = DomainTemplate(
    domain="astronomy",
    modality="transit light curves",
    description=(
        "Survey photometry to transit-detection tensors: query light curves, "
        "detrend stellar variability, fold on candidate periods, normalize "
        "flux, vectorize fixed-phase windows, shard for training."
    ),
    stages=(
        StageTemplate("query", S.INGEST, ("load_light_curves",),
                      (K.ACQUIRED, K.VALIDATED_INGEST, K.METADATA_ENRICHED,
                       K.HIGH_THROUGHPUT_INGEST, K.INGEST_AUTOMATED)),
        StageTemplate("detrend", S.PREPROCESS, ("remove_stellar_trend",),
                      (K.INITIAL_ALIGNMENT, K.GRIDS_STANDARDIZED,
                       K.ALIGNMENT_STANDARDIZED, K.ALIGNMENT_AUTOMATED)),
        StageTemplate("normalize", S.TRANSFORM, ("normalize_flux", "label_transits"),
                      (K.INITIAL_NORMALIZATION, K.BASIC_LABELS,
                       K.NORMALIZATION_FINALIZED, K.COMPREHENSIVE_LABELS,
                       K.TRANSFORM_AUDITED)),
        StageTemplate("phase-fold", S.STRUCTURE, ("fold_and_vectorize",),
                      (K.FEATURES_EXTRACTED, K.FEATURES_VALIDATED)),
        StageTemplate("shard", S.SHARD, ("export_shards",),
                      (K.SPLIT_PARTITIONED, K.SHARDED_BINARY)),
    ),
)

N_STARS = 200
N_POINTS = 400


# --- 2. implement the domain operations ------------------------------------

def load_light_curves(payload, ctx: PipelineContext):
    """Synthesize survey photometry: flux vs time, some with transits."""
    rng = np.random.default_rng(payload["seed"])
    times = np.linspace(0, 30.0, N_POINTS)  # days
    has_planet = rng.uniform(size=N_STARS) < 0.3
    periods = rng.uniform(2.0, 8.0, N_STARS)
    depths = rng.uniform(0.005, 0.02, N_STARS)
    flux = np.ones((N_STARS, N_POINTS))
    # long-term stellar trends (what detrending must remove)
    trend = 1 + rng.normal(0, 0.01, (N_STARS, 1)) * times[None, :] / 30.0
    flux *= trend
    for i in range(N_STARS):
        if has_planet[i]:
            phase = (times % periods[i]) / periods[i]
            in_transit = phase < 0.02
            flux[i, in_transit] -= depths[i]
    flux += rng.normal(0, 0.002, flux.shape)
    return {
        "times": times, "flux": flux, "periods": periods,
        "labels": has_planet.astype(np.int64), "seed": payload["seed"],
    }


def remove_stellar_trend(payload, ctx: PipelineContext):
    """Per-star linear detrend — the 'alignment' of this domain."""
    times, flux = payload["times"], payload["flux"]
    design = np.column_stack([times, np.ones_like(times)])
    coefficients, *_ = np.linalg.lstsq(design, payload["flux"].T, rcond=None)
    detrended = flux - (design @ coefficients).T + 1.0
    return {**payload, "flux": detrended}


def normalize_flux(payload, ctx: PipelineContext):
    flux = payload["flux"]
    median = np.median(flux, axis=1, keepdims=True)
    return {**payload, "flux": flux / median - 1.0}


def label_transits(payload, ctx: PipelineContext):
    labeled_fraction = 1.0  # survey pipeline labels every curve
    return payload, {"labeled_fraction": labeled_fraction}


def fold_and_vectorize(payload, ctx: PipelineContext):
    """Phase-fold each curve on its candidate period -> fixed vector."""
    times = payload["times"]
    n_bins = 64
    vectors = np.zeros((N_STARS, n_bins), dtype=np.float32)
    for i in range(N_STARS):
        phase = (times % payload["periods"][i]) / payload["periods"][i]
        bins = np.clip((phase * n_bins).astype(int), 0, n_bins - 1)
        sums = np.bincount(bins, weights=payload["flux"][i], minlength=n_bins)
        counts = np.maximum(np.bincount(bins, minlength=n_bins), 1)
        vectors[i] = (sums / counts).astype(np.float32)
    dataset = Dataset(
        {
            "folded_flux": vectors,
            "period": payload["periods"],
            "has_planet": payload["labels"],
        },
        Schema([
            FieldSpec("folded_flux", np.dtype(np.float32), shape=(n_bins,),
                      description="phase-folded normalized flux"),
            FieldSpec("period", np.dtype(np.float64), units="days"),
            FieldSpec("has_planet", np.dtype(np.int64), role=FieldRole.LABEL),
        ]),
        DatasetMetadata(name="transit-curves", domain="astronomy",
                        modality=Modality.TIME_SERIES,
                        description="Phase-folded light curves with transit labels."),
    )
    ctx.add_artifact("dataset", dataset)
    return dataset


def make_export(shard_dir: Path):
    def export_shards(dataset: Dataset, ctx: PipelineContext):
        splits = random_split(dataset.n_samples, SplitSpec(0.8, 0.1, 0.1),
                              np.random.default_rng(0))
        manifest = write_shard_set(dataset, shard_dir, splits=splits,
                                   shards_per_split=2, codec_name="zlib",
                                   codec_level=3)
        ctx.add_artifact("manifest", manifest)
        return dataset

    return export_shards


# --- 3. bind, run, assess ---------------------------------------------------

def main() -> None:
    work_dir = Path(tempfile.mkdtemp(prefix="drai-astro-"))

    print(section("the template (what a facility would publish)"))
    print(ASTRONOMY_TEMPLATE.render_markdown())

    builder = TemplatedPipelineBuilder(ASTRONOMY_TEMPLATE).bind_all({
        "load_light_curves": load_light_curves,
        "remove_stellar_trend": remove_stellar_trend,
        "normalize_flux": normalize_flux,
        "label_transits": label_transits,
        "fold_and_vectorize": fold_and_vectorize,
        "export_shards": make_export(work_dir / "shards"),
    })
    pipeline = builder.build()
    context = PipelineContext(agent="astronomy-template")
    run = pipeline.run({"seed": 0}, context)

    print(section("execution"))
    print(run.stage_table())

    print(section("assessment — a domain the framework never saw before"))
    assessment = ReadinessAssessor().assess(context.evidence)
    print(f"Data Readiness Level: {int(assessment.overall)} / 5")
    print(MaturityMatrix.from_assessment(assessment).render_compact())

    print(section("crosswalk to community maturity models"))
    print(crosswalk_report(assessment))

    print(section("sanity: the prepared data is learnable"))
    dataset = context.artifacts["dataset"]
    depth = dataset["folded_flux"].min(axis=1)
    planets = dataset["has_planet"] == 1
    print(f"mean folded-curve depth: planet={depth[planets].mean():.4f}  "
          f"no-planet={depth[~planets].mean():.4f}")
    threshold = -0.004
    predicted = (depth < threshold).astype(int)
    accuracy = float((predicted == dataset["has_planet"]).mean())
    print(f"one-threshold detector accuracy: {accuracy:.0%}")
    print(f"\nworkspace: {work_dir}")


if __name__ == "__main__":
    main()
