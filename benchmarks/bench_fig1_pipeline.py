"""FIG1 — regenerate Figure 1: raw -> AI-ready steps with a feedback loop.

Paper artifact: the general transformation diagram of Section 2.1 — source
-> clean (missing values, units) -> normalize -> augment -> label
(semi-supervised) -> feature-engineer -> split -> shard, plus the
iterative feedback cycle from model evaluation back into labeling.

The bench expresses every Figure 1 box as a stage of a declarative
:class:`StagePlan` and drives it through the layered engine
(:class:`PipelineRunner`) with a :class:`~repro.obs.Telemetry` collector
attached, so the diagram regeneration exercises the same
plan/backend/run machinery the domain archetypes use and its per-box
timings come from the engine's own ``stage_seconds`` histograms rather
than ad-hoc timers.  It prints one row per box: what ran, what it
changed, how long it took, and its throughput.  The feedback loop then
runs until label coverage converges.
"""

from __future__ import annotations

import numpy as np

from repro.core.dataset import Dataset, DatasetMetadata, FieldRole, FieldSpec, Schema
from repro.core.feedback import (
    FeedbackController,
    FeedbackRule,
    holdout_accuracy_evaluator,
)
from repro.core.levels import DataProcessingStage
from repro.core.plan import Parallelism, PipelineStage, StagePlan
from repro.core.runner import PipelineContext, PipelineRunner
from repro.core.report import render_table
from repro.obs import Telemetry
from repro.transforms.augment import smote_like
from repro.transforms.cleaning import clean_dataset
from repro.transforms.features import select_k_best
from repro.transforms.label import UNLABELED, propagate_labels, pseudo_label
from repro.transforms.normalize import normalize_dataset
from repro.transforms.split import SplitSpec, stratified_split

S = DataProcessingStage


def make_raw_dataset(seed: int = 0, n: int = 600) -> Dataset:
    """Raw tabular science data with every Figure 1 problem planted."""
    rng = np.random.default_rng(seed)
    labels_true = rng.integers(0, 2, n)
    informative = labels_true * 3.0 + rng.normal(0, 0.7, n)
    noisy = rng.normal(0, 1, n)
    temperature = rng.normal(20, 5, n)  # degC, needs unit harmonization
    informative[rng.uniform(size=n) < 0.08] = np.nan  # missing values
    informative[rng.integers(0, n, 3)] = 1e4  # outliers
    labels = np.where(rng.uniform(size=n) < 0.15, labels_true, UNLABELED)
    # class imbalance in the visible labels
    return Dataset(
        {
            "signal": informative,
            "noise": noisy,
            "temperature": temperature,
            "label": labels.astype(np.int64),
        },
        Schema([
            FieldSpec("signal", np.dtype(np.float64)),
            FieldSpec("noise", np.dtype(np.float64)),
            FieldSpec("temperature", np.dtype(np.float64), units="degC"),
            FieldSpec("label", np.dtype(np.int64), role=FieldRole.LABEL),
        ]),
        DatasetMetadata(name="fig1-demo", domain="generic"),
    )


def build_figure1_plan(tmp_path, seed: int = 0) -> StagePlan:
    """Every Figure 1 box as one stage of a declarative plan.

    Stages append their report row to ``ctx.artifacts["fig1_rows"]`` and
    publish the labelled dataset (feedback-loop input) as
    ``ctx.artifacts["labeled_dataset"]``.
    """

    def _row(ctx: PipelineContext, step: str, effect: str, notes: str) -> None:
        ctx.artifacts.setdefault("fig1_rows", []).append((step, effect, notes))

    def source(ds: Dataset, ctx: PipelineContext) -> Dataset:
        _row(ctx, "source", f"{ds.n_samples} raw samples", "synthetic acquisition")
        return ds

    def clean(ds: Dataset, ctx: PipelineContext) -> Dataset:
        ds, report = clean_dataset(ds, target_units={"temperature": "K"})
        _row(
            ctx,
            "clean",
            report.summary(),
            "missing values imputed, outliers clipped, units harmonized",
        )
        return ds

    def normalize(ds: Dataset, ctx: PipelineContext) -> Dataset:
        ds, normalizers = normalize_dataset(ds)
        _row(
            ctx,
            "normalize",
            f"{len(normalizers)} variables z-scored",
            "per-variable mean/std (Section 2.1)",
        )
        return ds

    def label(ds: Dataset, ctx: PipelineContext) -> Dataset:
        features = np.stack([ds["signal"], ds["noise"]], axis=1)
        result = pseudo_label(features, ds["label"], confidence_threshold=0.75)
        labels = propagate_labels(features, result.labels, k_neighbors=7)
        ds = ds.with_column(ds.schema["label"], labels, replace=True)
        covered = float((labels != UNLABELED).mean())
        _row(
            ctx,
            "label (semi-supervised)",
            f"coverage {covered:.0%} after {len(result.rounds)} pseudo-label rounds",
            "pseudo-labeling + propagation",
        )
        ctx.add_artifact("features", features)
        ctx.add_artifact("labeled_dataset", ds)
        return ds

    def augment(ds: Dataset, ctx: PipelineContext) -> Dataset:
        rng = np.random.default_rng(seed)
        features = ctx.artifacts["features"]
        labeled_mask = ds["label"] != UNLABELED
        X = features[labeled_mask]
        y = ds["label"][labeled_mask]
        counts = {int(c): int((y == c).sum()) for c in np.unique(y)}
        minority = min(counts, key=counts.get)
        n_extra = max(counts.values()) - counts[minority]
        if n_extra > 0 and counts[minority] >= 2:
            smote_like(X, y, minority, rng, n_synthetic=n_extra)
            _row(
                ctx,
                "augment",
                f"{n_extra} SMOTE samples for class {minority}",
                "balance {0}:{1}".format(*sorted(counts.values())),
            )
        ctx.add_artifact("labeled_X", X)
        ctx.add_artifact("labeled_y", y)
        return ds

    def feature_engineering(ds: Dataset, ctx: PipelineContext) -> Dataset:
        selection = select_k_best(ctx.artifacts["labeled_X"], ctx.artifacts["labeled_y"], k=1)
        _row(
            ctx,
            "feature engineering",
            f"kept feature idx {selection.kept} by mutual information",
            f"scores={ {k: round(v, 3) for k, v in selection.scores.items()} }",
        )
        return ds

    def split(ds: Dataset, ctx: PipelineContext) -> Dataset:
        labeled_mask = ds["label"] != UNLABELED
        final = ds.take(np.flatnonzero(labeled_mask))
        splits = stratified_split(final["label"], SplitSpec(0.8, 0.1, 0.1),
                                  np.random.default_rng(seed))
        _row(
            ctx,
            "split",
            ", ".join(f"{k}={len(v)}" for k, v in splits.items()),
            "stratified train/val/test",
        )
        ctx.add_artifact("splits", splits)
        return final

    def shard(ds: Dataset, ctx: PipelineContext) -> Dataset:
        manifest = ctx.backend.shard_write(
            ds, tmp_path / "shards", ctx.artifacts["splits"],
            shards_per_split=2, codec_name="zlib", codec_level=3,
        )
        _row(
            ctx,
            "shard",
            f"{manifest.n_shards} compressed shards, {manifest.n_samples} samples",
            "binary export with manifest",
        )
        return ds

    return StagePlan.build("fig1", [
        PipelineStage("source", S.INGEST, source),
        PipelineStage("clean", S.PREPROCESS, clean),
        PipelineStage("normalize", S.TRANSFORM, normalize),
        PipelineStage("label", S.TRANSFORM, label),
        PipelineStage("augment", S.TRANSFORM, augment),
        PipelineStage("feature-engineering", S.TRANSFORM, feature_engineering),
        PipelineStage("split", S.STRUCTURE, split),
        PipelineStage("shard", S.SHARD, shard,
                      params={"codec": "zlib"}, parallelism=Parallelism.WRITE),
    ])


def run_figure1_steps(tmp_path, seed=0):
    telemetry = Telemetry()
    runner = PipelineRunner(build_figure1_plan(tmp_path, seed), telemetry=telemetry)
    run = runner.run(make_raw_dataset(seed))
    return (
        run.context.artifacts["fig1_rows"],
        run.context.artifacts["labeled_dataset"],
        run,
        telemetry,
    )


def figure1_timing_rows(run, telemetry):
    """Per-box timing/throughput from the engine's own telemetry.

    One row per executed stage, read back from the ``stage_seconds``
    histogram and ``stage_items_total`` counter the runner recorded —
    the same registry ``run --trace`` exports.
    """
    rows = []
    for result in run.results:
        hist = telemetry.metrics.get(
            "stage_seconds", pipeline=run.pipeline_name, stage=result.stage_name
        )
        items = telemetry.metrics.value(
            "stage_items_total", pipeline=run.pipeline_name, stage=result.stage_name
        )
        rows.append(
            (
                result.stage_name,
                f"{hist.sum:.6f}",
                int(items),
                f"{items / hist.sum:.0f}" if hist.sum > 0 else "-",
            )
        )
    return rows


def test_fig1_pipeline(benchmark, tmp_path, write_report):
    rows, labeled_ds, run, telemetry = benchmark.pedantic(
        run_figure1_steps, args=(tmp_path,), rounds=1, iterations=1
    )
    # feedback loop: evaluation -> refinement until quiescent (Fig 1 cycle)
    controller = FeedbackController(
        evaluator=holdout_accuracy_evaluator(["signal", "noise"], "label"),
        rules=[
            FeedbackRule(
                name="label-more",
                condition=lambda m: m["labeled_fraction"] < 0.99,
                refiner=lambda ds: ds.with_column(
                    ds.schema["label"],
                    propagate_labels(
                        np.stack([ds["signal"], ds["noise"]], axis=1),
                        ds["label"],
                    ),
                    replace=True,
                ),
            )
        ],
        max_iterations=4,
    )
    history = controller.run(labeled_ds)
    feedback_rows = [
        (it.iteration, f"{it.metrics['accuracy']:.3f}",
         f"{it.metrics['labeled_fraction']:.2f}",
         ", ".join(it.triggered_rules) or "(converged)")
        for it in history.iterations
    ]
    timing_rows = figure1_timing_rows(run, telemetry)
    report = (
        "Figure 1 regeneration: raw -> AI-ready steps\n\n"
        + render_table(["step", "effect", "notes"], rows)
        + "\n\nStage timings (from the engine's telemetry registry):\n\n"
        + render_table(
            ["stage", "seconds", "items", "items/s"],
            timing_rows,
            align_right=[False, True, True, True],
        )
        + "\n\nFeedback loop (model evaluation -> data refinement):\n\n"
        + render_table(
            ["iteration", "proxy accuracy", "labeled fraction", "triggered"],
            feedback_rows,
        )
    )
    write_report("FIG1_pipeline", report)
    assert len(rows) >= 7
    # telemetry covers every executed stage with a nonzero duration
    assert len(timing_rows) == len(run.results)
    assert all(float(seconds) > 0 for _, seconds, _, _ in timing_rows)
    assert history.iterations[-1].metrics["labeled_fraction"] >= 0.9
