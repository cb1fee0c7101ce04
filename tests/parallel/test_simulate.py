"""Scaling model: strong-scaling shape, crossovers, Amdahl plateau."""

import pytest

from repro.parallel.cluster import commodity_cluster, leadership_system
from repro.parallel.simulate import PipelineScalingModel, WorkloadSpec


@pytest.fixture
def workload():
    return WorkloadSpec(
        name="climate-pass",
        input_bytes=2e12,
        output_bytes=1e12,
        compute_passes=2.0,
        serial_fraction=1e-4,
    )


class TestShape:
    def test_speedup_monotone_in_linear_region(self, workload):
        model = PipelineScalingModel(leadership_system())
        curve = model.sweep(workload, [1, 2, 4, 8, 16, 32])
        speedups = curve.speedup()
        assert all(b >= a * 0.95 for a, b in zip(speedups, speedups[1:]))
        assert speedups[0] == pytest.approx(1.0)

    def test_efficiency_degrades_at_scale(self, workload):
        model = PipelineScalingModel(commodity_cluster(64))
        curve = model.sweep(workload, [1, 16, 64, 256, 1024])
        eff = curve.efficiency()
        assert eff[0] == pytest.approx(1.0)
        assert eff[-1] < eff[0]

    def test_io_crossover_exists_on_narrow_filesystem(self, workload):
        """On a commodity machine the pipeline becomes I/O-bound — the
        paper's core scalability argument."""
        model = PipelineScalingModel(commodity_cluster(64))
        curve = model.sweep(workload, [1, 4, 16, 64, 256, 1024])
        crossover = curve.io_dominated_from()
        assert crossover is not None
        assert crossover > 1

    def test_leadership_filesystem_pushes_crossover_out(self, workload):
        commodity = PipelineScalingModel(commodity_cluster(64)).sweep(
            workload, [1, 4, 16, 64, 256]
        )
        leadership = PipelineScalingModel(leadership_system()).sweep(
            workload, [1, 4, 16, 64, 256]
        )
        c_cross = commodity.io_dominated_from() or 10**9
        l_cross = leadership.io_dominated_from() or 10**9
        assert l_cross >= c_cross

    def test_serial_fraction_caps_speedup(self):
        """Amdahl: 1% serial caps speedup near 100x regardless of ranks."""
        amdahl = WorkloadSpec(
            "serial-heavy", input_bytes=1e12, output_bytes=1e9,
            serial_fraction=0.01,
        )
        model = PipelineScalingModel(leadership_system())
        point = model.evaluate(amdahl, 16384)
        serial_time = point.serial_seconds
        assert point.total_seconds > serial_time
        base = model.evaluate(amdahl, 1).total_seconds
        assert base / point.total_seconds < 110


#: the modelled strong-scaling curves of a 10 TB prep (4 TB out, 2 passes):
#: ranks, total seconds (3 places), knee, first I/O-dominated rank count
MODELLED = {
    "commodity-128": (
        [1, 4, 16, 64, 256, 1024],
        [51120.0, 13623.75, 4249.688, 1077.856, 491.981, 345.539],
        256, 256,
    ),
    "leadership-512": (
        [1, 4, 16, 64, 256, 1024, 4096],
        [33893.333, 8895.833, 2646.458, 804.115, 245.529, 65.356, 19.038],
        4096, None,
    ),
}


@pytest.mark.parametrize(
    "cluster", [commodity_cluster(128), leadership_system()], ids=lambda c: c.name
)
def test_modelled_curves_are_pinned(cluster):
    """The model is analytic: any drift in these figures is a model change."""
    workload = WorkloadSpec(
        name="climax-like-prep", input_bytes=10e12, output_bytes=4e12, compute_passes=2.0
    )
    counts = [r for r in (1, 4, 16, 64, 256, 1024, 4096) if r <= cluster.max_ranks]
    curve = PipelineScalingModel(cluster).sweep(workload, counts)
    assert (
        [p.ranks for p in curve.points],
        [round(p.total_seconds, 3) for p in curve.points],
        curve.knee_ranks(),
        curve.io_dominated_from(),
    ) == MODELLED[cluster.name]


class TestValidation:
    def test_rank_bounds(self, workload):
        model = PipelineScalingModel(commodity_cluster(1))
        with pytest.raises(ValueError, match="exceeds"):
            model.evaluate(workload, 10**6)
        with pytest.raises(ValueError, match="ranks"):
            model.evaluate(workload, 0)

    def test_throughput_positive(self, workload):
        model = PipelineScalingModel(commodity_cluster(1))
        point = model.evaluate(workload, 4)
        assert point.throughput(workload.input_bytes) > 0

    def test_cluster_presets_validate(self):
        for cluster in (commodity_cluster(), leadership_system()):
            cluster.validate()
            assert cluster.max_ranks >= 8
