"""The parity oracle: the byte-identity contract, stated once.

Same plan + same input => the same artifact, whatever produces it.  Every
``*.rps`` shard, the ``manifest.json`` bytes, every ``tfrecord/*.tfrecord``
export, a gated run's ``quarantine.jsonl`` bytes, the content fingerprint
of what every stage function returned and of the run's final payload, and
the final dataset fingerprint are equal on every backend
and width, batched or per record, under any fault schedule the engine
heals, and across a driver crash that ``recover_run`` (or a plain resume)
finishes.

:func:`assert_parity` is the one check.  ``tests/test_parity.py`` searches
it with generated configurations; suites that drive a run by other means
(a drain, the CLI, direct ``shard_write`` calls) compare through
:func:`assert_reference` (with the stage outputs :func:`watch` recorded)
or :func:`shard_digests`.

A run names its stage outputs by derivation (``StageResult.output_fingerprint``
is the same on every backend by construction), so the oracle hashes
content itself: :func:`record_outputs` wraps each stage function to file
the content fingerprint of its return value.

Every run :func:`run_config` makes also owes the generic invariants: each
scheduled fault point fired, nothing was dead-lettered, only a gated run
degrades (and certifies what it shed), healed faults were retried and
worker kills re-leased, and a resume restored exactly the
journal-committed prefix.
"""

from __future__ import annotations

import dataclasses
import hashlib
import tempfile
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.backends import get_backend
from repro.core.plan import StagePlan, fingerprint_payload
from repro.core.runner import RunEventKind
from repro.domains import BioArchetype, ClimateArchetype, FusionArchetype, MaterialsArchetype
from repro.domains.bio.synthetic import BioSourceConfig
from repro.domains.climate.synthetic import ClimateSourceConfig
from repro.domains.fusion.synthetic import FusionCampaignConfig
from repro.domains.materials.synthetic import MaterialsSourceConfig
from repro.durability.checkpoint import RunCheckpointer
from repro.durability.fsfaults import SimulatedCrash
from repro.durability.recover import recover_run
from repro.faults import FaultInjector, FaultSpec, RetryPolicy, VirtualClock
from repro.gates import QUARANTINE_NAME
from repro.io.shards import MANIFEST_NAME
from repro.obs import Telemetry

#: name -> (class, source, the same source with poisoned records appended
#: for the gates to shed, or None where the domain has no such knob).
#: The sizes are the frozen transcripts' (``tests/core/test_transcript.py``)
ARCHETYPES = {
    "climate": (
        ClimateArchetype,
        ClimateSourceConfig(n_models=2, n_timesteps=12, seed=21),
        ClimateSourceConfig(n_models=2, n_timesteps=12, seed=21, n_corrupt_models=1),
    ),
    "fusion": (
        FusionArchetype,
        FusionCampaignConfig(n_shots=10, seed=21),
        FusionCampaignConfig(n_shots=10, seed=21, n_corrupt_shots=2),
    ),
    "bio": (BioArchetype, BioSourceConfig(n_subjects=40, sequence_length=128, seed=21), None),
    "materials": (MaterialsArchetype, MaterialsSourceConfig(n_structures=60, seed=21), None),
}
N_STAGES = 5  # every archetype: ingest -> preprocess -> transform -> structure -> shard
#: every journal-record boundary a driver can die at: before each stage body
#: runs, and after each stage's checkpoint + journal commit
CRASH_POINTS = [f"stage:{i}:{phase}" for i in range(N_STAGES) for phase in ("pre", "post")]
POLICY = RetryPolicy(max_attempts=4, seed=7)


@dataclasses.dataclass(frozen=True)
class Config:
    """One way of producing an archetype's artifact (its ``repr`` replays it)."""

    backend: str = "serial"
    workers: int = 1
    batch_size: Optional[int] = None
    #: an ``--inject-faults`` spec without ``crash-at``; every run segment gets it
    faults: str = ""
    #: ``stage:N:pre|post``: the first run dies there and a resume finishes it
    crash_at: Optional[str] = None
    #: scan with ``recover_run`` before that resume (False: plain resume)
    recover: bool = True
    #: quarantine gates over the source with poisoned records
    gated: bool = False

    def __str__(self) -> str:
        """The configuration in ``repro run`` words."""
        words = [f"--backend {self.backend}"]
        if self.workers > 1:
            words.append(f"--workers {self.workers}")
        if self.batch_size:
            words.append(f"--batch-size {self.batch_size}")
        spec = ",".join(filter(None, [self.faults, self.crash_at and f"crash-at={self.crash_at}"]))
        if spec:
            words.append(f"--inject-faults {spec}")
        if self.crash_at:
            words.append("then --recover" if self.recover else "then --resume")
        if self.gated:
            words.append("--gates quarantine")
        return " ".join(words)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def shard_digests(directory: Union[str, Path]) -> Dict[str, str]:
    """sha256 of every ``*.rps`` shard, of ``manifest.json`` and of every
    TFRecord export (``tfrecord/*.tfrecord``, fusion's) in *directory*."""
    directory = Path(directory)
    paths = (sorted(directory.glob("*.rps")) + [directory / MANIFEST_NAME]
             + sorted(directory.glob("tfrecord/*.tfrecord")))
    return {path.relative_to(directory).as_posix(): _sha256(path) for path in paths}


def record_outputs(plan: StagePlan, outputs: Dict[str, str]) -> StagePlan:
    """*plan* with each stage function wrapped to file the content
    fingerprint of what it returns in *outputs*, under ``stage i (name)``;
    a stage that runs again (a retry, a re-run after a crash) overwrites
    its entry, a restored one keeps what the run that executed it filed."""

    def wrap(index, stage):
        def fn(payload, ctx):
            output = stage.fn(payload, ctx)
            outputs[f"stage {index} ({stage.name})"] = fingerprint_payload(output)
            return output

        return dataclasses.replace(stage, fn=fn)

    return dataclasses.replace(plan, stages=[wrap(i, s) for i, s in enumerate(plan.stages)])


def watch(archetype, outputs: Dict[str, str]):
    """*archetype* (a ``DomainArchetype``) with :func:`record_outputs` on
    every pipeline it builds; pass the same *outputs* to every run segment."""
    build = archetype.build_pipeline

    def build_pipeline(*args, **kwargs):
        pipeline = build(*args, **kwargs)
        pipeline.plan = record_outputs(pipeline.plan, outputs)
        return pipeline

    archetype.build_pipeline = build_pipeline
    return archetype


def _digests(result, work: Path, outputs: Dict[str, str]) -> Dict[str, str]:
    """What an archetype run under *work* produced, in pipeline order:
    stage outputs (as :func:`record_outputs` filed them), the final
    payload, shards, manifest, TFRecord exports, quarantine log (when the
    run was gated into ``work/q``), final dataset fingerprint."""
    out = dict(sorted(outputs.items()))
    out["final payload"] = fingerprint_payload(result.run.payload)
    out.update(shard_digests(work / "shards"))
    quarantine = work / "q" / QUARANTINE_NAME
    if quarantine.exists():
        out[QUARANTINE_NAME] = _sha256(quarantine)
    out["dataset"] = result.dataset.fingerprint()
    return out


def _assert_same(expected: Dict[str, str], actual: Dict[str, str], what: str) -> None:
    """Equal digests, or an error naming *what* and the first artifact (in
    pipeline order) that differs or that only one side produced."""
    for name in list(expected) + [n for n in actual if n not in expected]:
        assert expected.get(name) == actual.get(name), (
            f"{what} first at {name}: "
            f"{actual.get(name, '<missing>')} != {expected.get(name, '<missing>')}"
        )


def _backend(config: Config):
    if config.backend == "serial":
        return get_backend("serial")
    width = "n_ranks" if config.backend == "simspmd" else "workers"
    return get_backend(config.backend, **{width: config.workers})


#: a ``worker-kill`` at a bracketed ``map#i[j]`` task site, which died
#: inside a worker; the other kills raised in the parent
IN_WORKER_KILL = "worker-kill in a worker"


def _kind(fault) -> str:
    return IN_WORKER_KILL if fault.kind == "worker-kill" and "[" in fault.site else fault.kind


def _check_segment(config: Config, result, injector: Optional[FaultInjector]) -> None:
    """What the run segment that completed owes whatever its configuration."""
    run = result.run
    assert run.backend_name == config.backend and not run.dead_letters.records
    if config.gated:
        cert = result.manifest.metadata["readiness_certificate"]
        assert run.degraded and cert["status"] == "degraded", f"a gated run certified {cert}"
        assert cert["records_quarantined"] == run.records_quarantined > 0, cert
    else:
        assert not run.degraded, "an ungated run degraded"
    log = injector.log if injector is not None else []
    if any(f.kind in ("transient", "torn-shard") or f.kind.startswith("disk-") for f in log):
        assert run.total_retries > 0, "faults fired but nothing was retried"
        # backoff runs on the virtual clock (a process worker sleeps on its own copy)
        assert injector.clock.slept or config.backend == "process"
    if config.backend == "process":
        # a kill inside a worker re-leases its task on a respawned worker
        kills = [f for f in log if _kind(f) == IN_WORKER_KILL]
        assert run.worker_counters.get("tasks_requeued", 0) == len(kills)
        assert run.worker_counters.get("worker_restarts", 0) >= min(len(kills), 1)
        assert all(crash.requeued for crash in run.worker_crashes)


def _resume_after_crash(config: Config, archetype: str, work: Path, segment) -> Tuple:
    """Finish a crashed run; the resume must restore the journal-committed prefix."""
    ckpt = work / "ckpt"
    telemetry = report = None
    if config.recover:
        telemetry = Telemetry()
        report = recover_run(ckpt, shards_dir=work / "shards", telemetry=telemetry)
    committed = RunCheckpointer(ckpt).journal.last_run().committed
    _, index, phase = config.crash_at.split(":")
    if "corrupt-checkpoint" not in config.faults:
        assert committed == list(range(int(index) + (phase == "post"))), committed
    injector, result = segment(config.faults, resume=True, recovery_report=report,
                               telemetry=telemetry)
    # ... less any newest snapshots the resume had to quarantine
    prefix = min([q.stage_index for q in result.run.quarantined], default=len(committed))
    assert [r.restored for r in result.run.results] == [i < prefix for i in range(N_STAGES)]
    if config.recover:
        assert report.resume_index == len(committed)
        assert telemetry.metrics.value("recovery_runs_total") == 1
        assert telemetry.metrics.value("runs_recovered_total", pipeline=archetype) == 1
        assert RunEventKind.RUN_RECOVERED in [e.kind for e in result.run.events]
    return injector, result


def run_config(archetype: str, config: Config, work: Path) -> Tuple[Dict[str, str], Counter]:
    """Produce *archetype*'s artifact under *config* in *work* and check the
    generic invariants; returns its digests and the kinds of fault
    that fired (over every run segment)."""
    cls, source, poisoned = ARCHETYPES[archetype]
    checkpointed = config.crash_at or "corrupt-checkpoint" in config.faults
    options = dict(
        batch_size=config.batch_size,
        checkpoint_dir=work / "ckpt" if checkpointed else None,
        gates="quarantine" if config.gated else None,
        quarantine_dir=work / "q" if config.gated else None,
        retry_policy=POLICY if config.faults else None,
    )

    injectors: List[Optional[FaultInjector]] = []
    outputs: Dict[str, str] = {}

    def segment(spec: str, **extra):
        """One run of the archetype, on a fresh backend and injector."""
        injector = FaultInjector(FaultSpec.parse(spec), clock=VirtualClock()) if spec else None
        injectors.append(injector)
        archetype = cls(seed=21, config=poisoned if config.gated else source)
        archetype_run = watch(archetype, outputs).run
        return injector, archetype_run(
            work, backend=_backend(config), fault_injector=injector, **options, **extra
        )

    if config.crash_at is None:
        injector, result = segment(config.faults)
    else:
        crash = f"crash-at={config.crash_at}"
        try:
            segment(f"{config.faults},{crash}" if config.faults else crash)
            raise AssertionError(f"[{config}] outlived its crash point")
        except SimulatedCrash:
            pass
        injector, result = _resume_after_crash(config, archetype, work, segment)
    unfired = [set(i.unfired()) for i in injectors if i is not None]
    assert not set.intersection(*unfired or [set()]), f"never fired: {unfired}"
    _check_segment(config, result, injector)
    if checkpointed:
        assert RunCheckpointer(work / "ckpt").journal.last_run().committed == list(range(N_STAGES))
    fired = Counter(_kind(f) for i in injectors if i is not None for f in i.log)
    return _digests(result, work, outputs), fired


#: (archetype, config) -> what :func:`run_config` returned; runs are
#: deterministic, so each configuration is produced once per session
_RUNS: Dict[Tuple[str, Config], Tuple[Dict[str, str], Counter]] = {}


def _produce(archetype: str, config: Config) -> Tuple[Dict[str, str], Counter]:
    key = (archetype, config)
    if key not in _RUNS:
        with tempfile.TemporaryDirectory(prefix="parity-") as scratch:
            _RUNS[key] = run_config(archetype, config, Path(scratch))
    return _RUNS[key]


def digests_of(archetype: str, config: Config = Config()) -> Dict[str, str]:
    """:func:`run_config`'s digests, produced in a scratch directory once per
    session (the default *config* is the reference: clean, serial, per record)."""
    return _produce(archetype, config)[0]


def faults_fired(archetype: str, config: Config) -> Counter:
    """The kinds of fault that fired while producing *config*'s artifact
    (kills inside a worker count as :data:`IN_WORKER_KILL`)."""
    return _produce(archetype, config)[1]


def assert_parity(archetype: str, config_a: Config, config_b: Config) -> Dict[str, str]:
    """*archetype* under both configurations produces byte-identical
    artifacts; a failure names both and the first differing artifact."""
    a = digests_of(archetype, config_a)
    _assert_same(a, digests_of(archetype, config_b),
                 f"{archetype}: [{config_b}] diverged from [{config_a}]")
    return a


def assert_reference(archetype: str, result, work: Path, outputs: Dict[str, str]) -> None:
    """A run driven some other way (a drain, a failed commit, the state
    machine) in *work* produced the clean serial run's artifacts; *outputs*
    is what :func:`watch` recorded over every segment of that run."""
    _assert_same(digests_of(archetype), _digests(result, work, outputs),
                 f"{archetype}: the run in {work} diverged from the clean serial run")
