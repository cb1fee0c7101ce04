"""The byte-identity contract, searched.

Generated configurations of the four archetypes are held against the clean
serial per-record reference through :func:`tests.parity.assert_parity`; a
state machine drives one climate checkpoint directory through runs,
crashes, disk faults, recoveries and resumes; and the oracle itself must
find three planted divergences within the search's budget.
"""

import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, Phase, example, given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core import runner
from repro.core.backends import ExecutionBackend, ThreadedBackend
from repro.core.plan import PipelineError
from repro.durability.checkpoint import RunCheckpointer
from repro.durability.fsfaults import SimulatedCrash
from repro.durability.recover import recover_run
from repro.faults import FaultInjector, FaultSpec, VirtualClock
from repro.workers.backend import ProcessBackend
from tests import parity
from tests.parity import (
    ARCHETYPES, CRASH_POINTS, N_STAGES, POLICY, Config, assert_parity, assert_reference, watch,
)

#: generated configurations per search; the search is derandomized, so
#: tier-1 tests the same ones every time
SEARCH_BUDGET = 40
SEARCH = settings(
    max_examples=SEARCH_BUDGET, derandomize=True, database=None, deadline=None,
    report_multiple_bugs=False, suppress_health_check=list(HealthCheck),
)
#: the CI chaos-smoke job's in-process leg (task and disk faults healed by retries)
CHAOS = "seed=7,rate=0.05,torn-shards=1,eio=manifest:0"


@st.composite
def cases(draw):
    """(archetype, configuration) over every dimension the contract spans."""
    archetype = draw(st.sampled_from(sorted(ARCHETYPES)))
    backend = draw(st.sampled_from(["serial", "threaded", "simspmd", "process"]))
    crash_at = draw(st.none() | st.sampled_from(CRASH_POINTS))
    faults = [
        draw(st.sampled_from(["", "rate=0.05", "rate=0.1"])),
        draw(st.sampled_from(["", "torn-shards=1"])),
        draw(st.sampled_from(["", "eio", "enospc", "torn-rename", "lost-write"])
             .flatmap(lambda kind: st.just("") if not kind else st.sampled_from(
                 [f"{kind}=shard:0", f"{kind}=shard:1", f"{kind}=manifest:0"]))),
        draw(st.sampled_from(["", *(f"corrupt-checkpoint={i}" for i in range(N_STAGES))])),
        draw(st.sampled_from(["", "kill-rate=0.05"])) if backend == "process" else "",
    ]
    faults = ",".join(filter(None, faults))
    return archetype, Config(
        backend=backend,
        workers=1 if backend == "serial" else draw(st.integers(2, 3)),
        batch_size=draw(st.sampled_from([None, 1, 3, 4])),
        faults=f"seed={draw(st.integers(0, 31))},{faults}" if faults else "",
        crash_at=crash_at,
        recover=draw(st.booleans()) if crash_at else True,
        gated=ARCHETYPES[archetype][2] is not None and draw(st.booleans()),
    )


def check_case(case):
    archetype, config = case
    produced = assert_parity(archetype, Config(gated=config.gated), config)
    if config.gated:
        # shedding the poisoned records leaves exactly the clean campaign
        clean = parity.digests_of(archetype)["dataset"]
        assert produced["dataset"] == clean, f"{archetype}: gated survivors != clean run"


#: hand-picked cases no named test states: a gated and a batched run under
#: the CI chaos schedule on parallel backends, chaos-smoke's in-process and
#: resume legs, and gates-smoke; then the two gated crashes that diverged
#: before resume restored the prefix's gate reports and before a re-executed
#: gate stopped logging its records twice.  (stage:2:post on each parallel
#: backend, proc-chaos-smoke's kill schedule and chaos-smoke's recover leg
#: are the named tests in tests/durability/test_chaos.py and
#: tests/workers/test_chaos.py.)
EXAMPLES = [
    ("fusion", Config(backend="simspmd", workers=4, faults=CHAOS, gated=True)),
    ("climate", Config(backend="threaded", workers=3, batch_size=4, faults=CHAOS)),
    ("climate", Config(faults=CHAOS)),
    ("climate", Config(faults="enospc=shard:1", crash_at="stage:4:post", recover=False)),
    ("climate", Config(gated=True)),
    ("climate", Config(crash_at="stage:0:post", recover=False, gated=True)),
    ("climate", Config(faults="corrupt-checkpoint=0", crash_at="stage:2:post", gated=True)),
]


def _search(phases=tuple(Phase)):
    test = given(cases())(check_case)
    for case in reversed(EXAMPLES):
        test = example(case)(test)
    return settings(SEARCH, phases=phases)(test)


test_generated_configurations_keep_parity = _search()


#: sha256 of the fusion reference run's TFRecord export (the transcript-size
#: campaign), taken while each record was still built as an ``Example`` and
#: encoded on its own
TFRECORD_GOLDEN = {
    "tfrecord/test.tfrecord": "90f8f2be03a01f66c5a8231b281ce9a8ca421cd8dda725794fd5af19fa0c6921",
    "tfrecord/train.tfrecord": "94156fe65112e46c73af82f1241d12ad0eac20fdb7f25124335cd039d5ab4a3e",
    "tfrecord/val.tfrecord": "c616b1e68ec00f16b405f88b0f6a7432cb8fe51c7780a2d62102746bb47873cf",
}


def test_fusion_tfrecord_export_matches_its_per_record_golden():
    digests = parity.digests_of("fusion")
    assert {name: digests[name] for name in digests if name.startswith("tfrecord/")} == (
        TFRECORD_GOLDEN
    )


# -- one checkpoint directory, any history ------------------------------------------

#: the machine's disk faults: a shard's and the manifest's commit (retries heal
#: them), stage 2's snapshot and — in a fresh run — stage 2's journal record
#: (either fails the run; a failed record, a torn rename or a lost write leaves
#: a snapshot the journal does not name)
FAULT_KINDS = st.sampled_from(["eio", "enospc", "torn-rename", "lost-write"])
FAULT_SITES = st.sampled_from(["shard:1", "manifest:0", "checkpoint:2", "journal:3"])


class ClimateCheckpointMachine(RuleBasedStateMachine):
    """run / crash-at / disk-fault / recover / resume over one climate
    checkpoint directory, every commit landing behind the next stage.  The
    journal's completed-stage table stays a gap-free prefix, a recovery scan
    leaves no snapshot it does not name (and, after crashes alone, keeps
    every committed stage), and every run that completes — a fault-free
    resume at the end always does — lands on the clean run's digests."""

    def __init__(self):
        super().__init__()
        self.scratch = tempfile.TemporaryDirectory(prefix="parity-machine-")
        self.work = Path(self.scratch.name)
        self.ckpt = self.work / "ckpt"
        self.faults = []
        #: what the stages of every run in this history returned
        self.outputs = {}
        #: no disk fault has hit the directory since the last completed run
        self.pure_crashes = True

    def teardown(self):
        try:
            # whatever happened, a fault-free resume finishes the run
            self.faults = []
            self._go(resume=True)
        finally:
            self.scratch.cleanup()

    def _committed(self):
        return RunCheckpointer(self.ckpt).journal.last_run().committed

    @initialize(point=st.sampled_from(CRASH_POINTS), kind=st.none() | FAULT_KINDS,
                site=FAULT_SITES)
    def first_run_dies(self, point, kind, site):
        # so that every history has a journal for the rules to work on; the
        # disk may already be failing under it
        if kind is not None:
            self.disk_fault(kind, site)
        self.crash_at(point)
        self.run()

    @rule(point=st.sampled_from(CRASH_POINTS))
    def crash_at(self, point):
        self.faults.append(f"crash-at={point}")

    @rule(kind=FAULT_KINDS, site=FAULT_SITES)
    def disk_fault(self, kind, site):
        self.faults.append(f"{kind}={site}")
        self.pure_crashes = False

    @rule()
    def run(self):
        self._go(resume=False)

    @rule()
    def resume(self):
        self._go(resume=True)

    def _go(self, resume):
        """Run (or resume) under the faults scheduled since the last run."""
        # backoff before a retry runs on a virtual clock, as in the parity search
        injector = FaultInjector(FaultSpec.parse(",".join(self.faults)), clock=VirtualClock())
        self.faults = []
        cls, source, _ = ARCHETYPES["climate"]
        try:
            # two helper threads: each commit lands behind the next stage,
            # as in production, on a 1-CPU runner too
            with mock.patch.object(runner, "helper_threads", lambda: 2):
                result = watch(cls(seed=21, config=source), self.outputs).run(
                    self.work, checkpoint_dir=self.ckpt, resume=resume,
                    fault_injector=injector, retry_policy=POLICY,
                )
        except SimulatedCrash:
            return
        except PipelineError as exc:
            # the one failure a fault here may cause: a checkpoint, journal or
            # run commit that an injected disk error ended (it is not retried)
            if not (isinstance(exc.__cause__, OSError) and "injected" in str(exc.__cause__)
                    and ("checkpoint commit failed" in str(exc)
                         or str(exc).startswith("run commit failed"))):
                raise
            return
        assert self._committed() == list(range(N_STAGES))
        assert_reference("climate", result, self.work, self.outputs)
        self.pure_crashes = True

    @rule()
    def recover(self):
        committed, on_disk = self._committed(), set(RunCheckpointer(self.ckpt).snapshots())
        report = recover_run(self.ckpt, shards_dir=self.work / "shards")
        assert set(RunCheckpointer(self.ckpt).snapshots()) <= set(self._committed())
        if self.pure_crashes:
            # a crash costs no committed stage: only the snapshots a fresh
            # run superseded are discarded
            assert report.stages_committed == committed, report.notes
            assert sorted(report.stages_discarded) == sorted(on_disk - set(committed))

    @invariant()
    def ledger_is_a_prefix(self):
        committed = self._committed()
        assert committed == list(range(len(committed)))


ClimateCheckpointMachine.TestCase.settings = settings(
    SEARCH, max_examples=20, stateful_step_count=8
)
TestClimateCheckpointMachine = ClimateCheckpointMachine.TestCase


# -- the oracle's own coverage --------------------------------------------------------


def _threaded_results_out_of_order(monkeypatch):
    """ThreadedBackend.map collects a fan-out's results last task first.  (The
    one batched stage keys its results by source and variable, so a plant
    confined to batched maps would change no artifact at all.)"""
    real = ThreadedBackend.map
    monkeypatch.setattr(ThreadedBackend, "map", lambda *a, **k: real(*a, **k)[::-1])


def _process_only_manifest_key(monkeypatch):
    """The process backend stamps its width into the manifest metadata."""

    def planted(self, *args, **options):
        options["schedule"] = {"workers": self.width}
        return ExecutionBackend.shard_write(self, *args, **options)

    monkeypatch.setattr(ProcessBackend, "shard_write", planted)


def _quarantine_lines_reordered(monkeypatch):
    """A parallel run logs a gate's quarantined records in reverse order."""
    real_gate, real_apply, parallel = runner.PipelineRunner._gate, runner.apply_contract, []

    def gate(self, *args):
        parallel[:] = [self.backend.width > 1]
        return real_gate(self, *args)

    def apply(*args, **kwargs):
        outcome = real_apply(*args, **kwargs)
        if parallel[0]:
            outcome.quarantined.reverse()
        return outcome

    monkeypatch.setattr(runner.PipelineRunner, "_gate", gate)
    monkeypatch.setattr(runner, "apply_contract", apply)


@pytest.mark.parametrize("plant, artifact", [
    (_threaded_results_out_of_order, "stage "),
    (_process_only_manifest_key, "manifest.json:"),
    (_quarantine_lines_reordered, "quarantine.jsonl:"),
], ids=["threaded-result-order", "process-manifest-key", "quarantine-order"])
def test_search_finds_a_planted_divergence(plant, artifact, monkeypatch):
    plant(monkeypatch)
    monkeypatch.setattr(parity, "_RUNS", {})  # nothing produced before the plant
    with pytest.raises(AssertionError, match="diverged") as info:
        # the generated configurations alone must find it (and are not shrunk)
        _search(phases=(Phase.generate,))()
    message = str(info.value)
    assert f"first at {artifact}" in message and "diverged from [--backend serial" in message
