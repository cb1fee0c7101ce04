"""Batched execution: deterministic slicing, map_batches parity, empty shards."""

import numpy as np
import pytest

from repro.core.backends import (
    SerialBackend,
    SimSPMDBackend,
    ThreadedBackend,
    batch_slices,
)
from repro.core.dataset import Dataset, DatasetMetadata, FieldRole, FieldSpec, Schema
from repro.io.shards import MANIFEST_NAME, ShardSet
from repro.workers.backend import ProcessBackend
from tests.parity import shard_digests


def _local_backends():
    return [SerialBackend(), ThreadedBackend(workers=3), SimSPMDBackend(n_ranks=3)]


def _all_backends():
    return _local_backends() + [ProcessBackend(workers=2)]


def _square(x):
    return x * x


def _square_batch(chunk):
    return [x * x for x in chunk]


def _bad_batch(chunk):
    return [x for x in chunk][:-1]  # drops one result


class TestBatchSlices:
    def test_contiguous_cover(self):
        slices = batch_slices(10, 4)
        assert slices == [slice(0, 4), slice(4, 8), slice(8, 10)]

    def test_exact_multiple(self):
        assert batch_slices(8, 4) == [slice(0, 4), slice(4, 8)]

    def test_batch_larger_than_input(self):
        assert batch_slices(3, 100) == [slice(0, 3)]

    def test_batch_of_one(self):
        assert batch_slices(3, 1) == [slice(0, 1), slice(1, 2), slice(2, 3)]

    def test_empty_input(self):
        assert batch_slices(0, 4) == []

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError, match="batch_size"):
            batch_slices(10, 0)

    def test_pure_function_of_arguments(self):
        # determinism is the parity foundation: same (n, b) -> same grid,
        # never a function of backend, width, or schedule
        assert batch_slices(1000, 7) == batch_slices(1000, 7)


class TestMapBatches:
    @pytest.mark.parametrize(
        "backend", _all_backends(), ids=lambda b: b.name
    )
    def test_matches_per_record_map(self, backend):
        items = list(range(23))
        expected = [x * x for x in items]
        assert (
            backend.map_batches(_square_batch, items, batch_size=4) == expected
        )

    @pytest.mark.parametrize(
        "backend", _all_backends(), ids=lambda b: b.name
    )
    def test_unbatched_falls_back_to_record_fn(self, backend):
        items = list(range(11))
        out = backend.map_batches(
            _square_batch, items, batch_size=None, record_fn=_square
        )
        assert out == [x * x for x in items]

    def test_unbatched_without_record_fn_wraps_chunk_fn(self):
        out = SerialBackend().map_batches(_square_batch, [1, 2, 3])
        assert out == [1, 4, 9]

    def test_all_backends_agree_for_any_batch_size(self):
        items = list(range(37))
        reference = SerialBackend().map_batches(
            _square_batch, items, batch_size=5
        )
        for backend in _all_backends():
            for batch_size in (1, 5, 8, 64):
                assert (
                    backend.map_batches(_square_batch, items, batch_size=batch_size)
                    == reference
                )

    def test_result_count_mismatch_raises(self):
        with pytest.raises(ValueError, match="one\\s+result per item"):
            SerialBackend().map_batches(_bad_batch, list(range(8)), batch_size=4)

    def test_empty_items(self):
        for backend in _local_backends():
            assert backend.map_batches(_square_batch, [], batch_size=4) == []


def _empty_dataset() -> Dataset:
    schema = Schema(
        [
            FieldSpec("x", np.dtype(np.float64), role=FieldRole.FEATURE),
            FieldSpec("label", np.dtype(np.int64), role=FieldRole.LABEL),
        ]
    )
    columns = {
        "x": np.empty((0,), dtype=np.float64),
        "label": np.empty((0,), dtype=np.int64),
    }
    return Dataset(columns, schema, DatasetMetadata(name="empty"))


class TestEmptyDatasetSharding:
    """An empty dataset must shard to a valid, shard-free manifest."""

    @pytest.mark.parametrize(
        "backend", _all_backends(), ids=lambda b: b.name
    )
    def test_empty_splits_write_no_orphan_shards(self, backend, tmp_path):
        out = tmp_path / backend.name
        splits = {
            "train": np.array([], dtype=np.int64),
            "val": np.array([], dtype=np.int64),
        }
        manifest = backend.shard_write(
            _empty_dataset(), out, splits, shards_per_split=4
        )
        assert sorted(out.glob("*.rps")) == []
        assert sorted(out.glob("*.tmp")) == []
        assert manifest.n_shards == 0
        assert manifest.n_samples == 0
        # the splits still appear, empty, so readers see the full layout
        assert sorted(manifest.splits) == ["train", "val"]
        assert manifest.splits["train"] == []
        shard_set = ShardSet(out)
        shard_set.verify()
        assert shard_set.load_split("train").n_samples == 0

    def test_mixed_empty_and_populated_splits(self, small_dataset, tmp_path):
        splits = {
            "train": np.arange(small_dataset.n_samples),
            "test": np.array([], dtype=np.int64),
        }
        written = []
        for backend in _all_backends():
            manifest = backend.shard_write(
                small_dataset, tmp_path / backend.name, splits, shards_per_split=3,
                codec_name="zlib", codec_level=2,
            )
            assert manifest.splits["test"] == []
            written.append(shard_digests(tmp_path / backend.name))
        assert list(written[0]) == [f"train-{i:05d}.rps" for i in range(3)] + [MANIFEST_NAME]
        assert all(w == written[0] for w in written)


def _batch_plan(name="bt"):
    from repro.core.levels import DataProcessingStage
    from repro.core.plan import PipelineStage, StagePlan

    def fan(payload, ctx):
        return ctx.backend.map_batches(
            lambda chunk: [x * 2 for x in chunk],
            list(range(10)),
            batch_size=ctx.stage_batch_size,
            record_fn=lambda x: x * 2,
        )

    return StagePlan.build(
        name,
        [PipelineStage("fan", DataProcessingStage.INGEST, fan, batch=True)],
    )


class TestRunnerWiring:
    def test_batched_stage_records_batch_telemetry(self):
        from repro.core.runner import PipelineRunner
        from repro.obs import Telemetry

        telemetry = Telemetry()
        runner = PipelineRunner(_batch_plan(), telemetry=telemetry, batch_size=4)
        run = runner.run(None)
        assert run.results[0].items == 10
        metrics = telemetry.metrics
        labels = {"pipeline": "bt", "stage": "fan", "backend": "serial"}
        assert metrics.value("stage_batches_total", **labels) == 3
        histogram = metrics.get("stage_batch_size", **labels)
        assert histogram.count == 3
        assert histogram.min == 2.0  # the 10-item tail chunk
        assert histogram.max == 4.0
        # the three chunks are the stage's physical map tasks
        assert metrics.value("backend_tasks_total", **labels, op="map") == 3

    def test_per_record_run_records_no_batch_telemetry(self):
        from repro.core.runner import PipelineRunner
        from repro.obs import Telemetry

        telemetry = Telemetry()
        PipelineRunner(_batch_plan(), telemetry=telemetry).run(None)
        metrics = telemetry.metrics
        labels = {"pipeline": "bt", "stage": "fan", "backend": "serial"}
        assert metrics.get("stage_batches_total", **labels) is None
        assert metrics.get("stage_batch_size", **labels) is None
        assert metrics.value("backend_tasks_total", **labels, op="map") == 10

    def test_batched_and_per_record_outputs_identical(self):
        from repro.core.runner import PipelineRunner
        from tests.parity import record_outputs

        batched, per_record = {}, {}
        PipelineRunner(record_outputs(_batch_plan(), batched), batch_size=3).run(None)
        PipelineRunner(record_outputs(_batch_plan(), per_record)).run(None)
        assert list(batched.items()) == list(per_record.items())

    def test_stage_batch_precedence(self):
        """The runner's ``batch_size`` is a stage's one source of batch
        size: a schedule decision riding on the plan does not batch by
        itself (an auto run hands its chosen batch to the runner), and a
        stage without the capability never batches."""
        from repro.core.levels import DataProcessingStage
        from repro.core.plan import PipelineStage, StagePlan
        from repro.core.runner import PipelineRunner
        from repro.sched import CandidateConfig, ScheduleDecision, StoreKey

        seen = []

        def spy(payload, ctx):
            seen.append(ctx.stage_batch_size)
            return payload

        plan = StagePlan.build("bt", [
            PipelineStage("batched", DataProcessingStage.INGEST, spy, batch=True),
            PipelineStage("per-record", DataProcessingStage.TRANSFORM, spy),
        ])
        decision = ScheduleDecision(
            key=StoreKey("bt", 2, 0), mode="auto",
            chosen=CandidateConfig("serial", 1, 256), predicted_seconds=0.0,
            predicted_stage_seconds=(), candidates=(),
        )
        for runner in (
            PipelineRunner(plan, batch_size=8),
            PipelineRunner(plan.with_schedule(decision)),
            PipelineRunner(plan.with_schedule(decision), batch_size=8),
        ):
            runner.run(None)
        assert seen == [8, None, None, None, 8, None]

    def test_negative_batch_size_rejected_up_front(self):
        from repro.core.runner import PipelineRunner

        with pytest.raises(ValueError, match="batch_size"):
            PipelineRunner(_batch_plan(), batch_size=-1)

    def test_batch_flag_excluded_from_plan_fingerprint(self):
        import dataclasses

        from repro.core.plan import StagePlan

        plan = _batch_plan()
        unbatched = StagePlan.build(
            plan.name, [dataclasses.replace(plan.stages[0], batch=False)]
        )
        # batching is an execution concern, never part of plan identity:
        # a checkpoint from a per-record run must resume a batched one
        assert plan.fingerprint() == unbatched.fingerprint()
