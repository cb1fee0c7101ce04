"""Graceful drain and resume: the SIGINT/SIGTERM contract (satellite 3).

A drain request stops the run at the next safe point — a stage boundary
everywhere, or mid-stage on drain-capable backends — leaving the last
completed stage's checkpoint on disk.  A later ``resume=True`` run must
continue from that checkpoint and finish with shard files **bitwise
identical** to a run that was never interrupted.
"""

import pytest

from repro.core.runner import RunEventKind
from repro.domains import ClimateArchetype
from repro.workers import DrainController, DrainInterrupt
from tests.parity import ARCHETYPES, assert_reference, watch

CONFIG = ARCHETYPES["climate"][1]

#: every backend wired for drain: in-process backends stop at stage
#: boundaries; the process backend also stops between task grants
BOUNDARY_BACKENDS = ["serial", "threaded", "simspmd", "process"]


@pytest.mark.parametrize("backend", BOUNDARY_BACKENDS)
def test_boundary_drain_then_resume_is_bitwise_identical(backend, tmp_path):
    """Drain at the normalize/stack boundary; resume finishes the run."""
    drain = DrainController()

    def request_after_normalize(event):
        if (
            event.kind is RunEventKind.STAGE_COMPLETED
            and event.stage_name == "normalize"
        ):
            drain.request("test drain")

    work = tmp_path / "work"
    ckpt = tmp_path / "ckpt"
    outputs = {}
    with pytest.raises(DrainInterrupt) as info:
        watch(ClimateArchetype(seed=21, config=CONFIG), outputs).run(
            work,
            backend=backend,
            checkpoint_dir=ckpt,
            drain=drain,
            on_event=request_after_normalize,
        )
    # stopped *before* the stack stage ran; its name rides on the error
    assert info.value.stage_name == "stack"
    assert "drain requested" in str(info.value)

    result = watch(ClimateArchetype(seed=21, config=CONFIG), outputs).run(
        work, backend=backend, checkpoint_dir=ckpt, resume=True
    )
    restored = [r.stage_name for r in result.run.results if r.restored]
    assert restored == ["download", "regrid", "normalize"]
    assert_reference("climate", result, work, outputs)


def test_mid_stage_drain_on_process_backend(tmp_path):
    """The process backend drains *inside* a stage, between task grants."""
    drain = DrainController()

    def request_at_shard_start(event):
        if event.kind is RunEventKind.STAGE_STARTED and event.stage_name == "shard":
            drain.request("mid-stage test drain")

    work = tmp_path / "work"
    ckpt = tmp_path / "ckpt"
    outputs = {}
    with pytest.raises(DrainInterrupt) as info:
        watch(ClimateArchetype(seed=21, config=CONFIG), outputs).run(
            work,
            backend="process",
            checkpoint_dir=ckpt,
            drain=drain,
            on_event=request_at_shard_start,
        )
    # the supervisor stopped the fan-out mid-stage, not at the boundary
    assert info.value.stage_name == "shard"
    assert "map drained before completion" in str(info.value)
    # the run surfaced an interrupt event, and worker accounting rode along
    kinds = [e.kind for e in info.value.events]
    assert RunEventKind.RUN_INTERRUPTED in kinds
    assert isinstance(info.value.worker_counters, dict)

    result = watch(ClimateArchetype(seed=21, config=CONFIG), outputs).run(
        work, backend="process", checkpoint_dir=ckpt, resume=True
    )
    restored = [r.stage_name for r in result.run.results if r.restored]
    assert restored == ["download", "regrid", "normalize", "stack"]
    assert_reference("climate", result, work, outputs)


def test_drain_before_first_stage_leaves_no_partial_output(tmp_path):
    """A drain that lands before any stage runs is a clean no-op restart."""
    drain = DrainController()
    drain.request("immediate")
    work = tmp_path / "work"
    with pytest.raises(DrainInterrupt) as info:
        ClimateArchetype(seed=21, config=CONFIG).run(
            work,
            backend="serial",
            checkpoint_dir=tmp_path / "ckpt",
            drain=drain,
        )
    assert info.value.stage_name == "download"
    assert not list((work / "shards").glob("*.rps"))


def test_second_request_is_idempotent():
    drain = DrainController()
    assert not drain.requested
    drain.request("one")
    drain.request("two")
    assert drain.requested
    assert drain.reason == "one"  # first reason wins
