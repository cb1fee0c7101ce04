"""Backend protocol: resolution, map ordering, and the bitwise parity contract."""

import numpy as np
import pytest

from repro.core.backends import (
    BACKENDS,
    SerialBackend,
    SimSPMDBackend,
    ThreadedBackend,
    get_backend,
)
from repro.core.levels import DataProcessingStage
from repro.core.plan import PipelineStage, StagePlan
from repro.core.runner import PipelineRunner
from repro.faults import FaultInjector, FaultSpec, RetryPolicy
from repro.obs import Telemetry
from repro.obs.instrument import RunRecorder
from repro.parallel.executor import distributed_stats
from tests.parity import shard_digests

ALL_BACKENDS = [SerialBackend(), ThreadedBackend(workers=3), SimSPMDBackend(n_ranks=3)]
IDS = [b.name for b in ALL_BACKENDS]


class TestResolution:
    def test_none_resolves_to_serial(self):
        assert get_backend(None).name == "serial"

    def test_name_resolution_with_options(self):
        backend = get_backend("threaded", workers=7)
        assert backend.width == 7

    def test_instance_passthrough(self):
        backend = SimSPMDBackend(n_ranks=2)
        assert get_backend(backend) is backend

    def test_instance_with_options_rejected(self):
        with pytest.raises(ValueError, match="options"):
            get_backend(SerialBackend(), workers=2)

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError, match="serial"):
            get_backend("gpu")

    def test_registry_names_match_classes(self):
        for name, cls in BACKENDS.items():
            assert cls.name == name

    def test_invalid_widths_rejected(self):
        with pytest.raises(ValueError):
            ThreadedBackend(workers=0)
        with pytest.raises(ValueError):
            SimSPMDBackend(n_ranks=0)


class TestMap:
    @pytest.mark.parametrize("backend", ALL_BACKENDS, ids=IDS)
    def test_results_in_input_order(self, backend):
        items = list(range(23))
        assert backend.map(lambda x: x * x, items) == [x * x for x in items]

    @pytest.mark.parametrize("backend", ALL_BACKENDS, ids=IDS)
    def test_empty_items(self, backend):
        assert backend.map(lambda x: x, []) == []


class TestStatsParity:
    def test_bitwise_identical_across_backends(self, rng):
        data = rng.normal(size=(101, 7))
        reference = distributed_stats(data, n_ranks=4)
        for backend in ALL_BACKENDS:
            stats = backend.stats(data, partitions=4)
            np.testing.assert_array_equal(stats.mean, reference.mean)
            np.testing.assert_array_equal(
                stats.moments.variance, reference.moments.variance
            )
            assert stats.count == reference.count

    def test_partition_count_controls_result_not_backend(self, rng):
        """The grid is the caller's choice; backends must agree on it."""
        data = rng.normal(size=(64, 3))
        a = SerialBackend().stats(data, partitions=5)
        b = ThreadedBackend(workers=2).stats(data, partitions=5)
        np.testing.assert_array_equal(a.mean, b.mean)

    def test_fewer_rows_than_partitions(self, rng):
        data = rng.normal(size=(2, 3))
        a = SerialBackend().stats(data, partitions=4)
        b = SimSPMDBackend().stats(data, partitions=4)
        np.testing.assert_array_equal(a.mean, b.mean)
        assert a.count == b.count == 2


class TestShardWriteParity:
    def test_shard_files_byte_identical(self, small_dataset, tmp_path):
        """Shards and manifest bytes, every backend (the oracle's digest)."""
        n = small_dataset.n_samples
        splits = {"train": np.arange(0, int(n * 0.8)), "val": np.arange(int(n * 0.8), n)}
        written = []
        for backend in ALL_BACKENDS:
            backend.shard_write(
                small_dataset, tmp_path / backend.name, splits, shards_per_split=3,
                codec_name="zlib", codec_level=2,
            )
            written.append(shard_digests(tmp_path / backend.name))
        assert len(written[0]) == 7 and all(w == written[0] for w in written)


def _fan_plan(seen):
    def fan(payload, ctx):
        seen.append((ctx.backend, ctx.backend.hooks))
        return np.asarray(ctx.backend.map(_double, list(payload)))

    return StagePlan.build("p", [PipelineStage("fan", DataProcessingStage.TRANSFORM, fan)])


def _double(x):
    return 2.0 * x


class TestHooks:
    """One decoration point: stages see the real backend, hooks ride on it."""

    def test_untraced_fault_free_run_fans_out_the_task_itself(self):
        received = []

        class Spy(SerialBackend):
            def fan_out(self, fn, items):
                received.append((fn, self.task_retry))
                return super().fan_out(fn, items)

        PipelineRunner(_fan_plan([]), backend=Spy()).run(np.arange(3.0))
        ((fn, retry),) = received
        assert fn is _double and retry is None

    def test_traced_chaos_run_hands_stages_the_real_backend(self):
        seen = []
        injector = FaultInjector(FaultSpec(seed=1, transient_rate=0.3))
        runner = PipelineRunner(
            _fan_plan(seen), telemetry=Telemetry(), fault_injector=injector,
            retry_policy=RetryPolicy(max_attempts=8, base_delay=0.0, jitter=0.0),
        )
        run = runner.run(np.arange(8.0))
        np.testing.assert_array_equal(run.payload, np.arange(8.0) * 2.0)
        ((backend, hooks),) = seen
        assert backend is runner.backend and type(backend) is SerialBackend
        assert [type(h) for h in hooks] == [RunRecorder, FaultInjector]
        assert hooks[1] is injector and injector.counts()["transient"] > 0
        assert runner.backend.hooks == ()
