"""The chaos acceptance contract (ISSUE 3).

Under a seeded fault schedule — transient task faults, a torn shard
file, a corrupted checkpoint payload — all three backends complete the
climate and fusion pipelines and produce payloads, shard files, and
manifests **bitwise identical** to a fault-free run.  Recovery must be
invisible in the output: retries re-enter the merge at their original
position, the torn shard is atomically overwritten, and a later resume
quarantines the corrupt checkpoint and falls back to the last
verifiable stage.
"""

import json

import pytest

from repro.core.runner import RunEventKind
from repro.faults import RetryPolicy
from repro.domains import ClimateArchetype, FusionArchetype
from repro.domains.climate.synthetic import ClimateSourceConfig
from repro.domains.fusion.synthetic import FusionCampaignConfig
from repro.faults import FaultInjector, FaultSpec, VirtualClock
from repro.gates import QUARANTINE_NAME, QuarantineStore, contracts_for_domain, redrive
from repro.io.shards import MANIFEST_NAME

BACKEND_NAMES = ["serial", "threaded", "simspmd"]

ARCHETYPES = {
    "climate": (
        ClimateArchetype,
        {"config": ClimateSourceConfig(n_models=2, n_timesteps=12, seed=21)},
    ),
    "fusion": (
        FusionArchetype,
        {"config": FusionCampaignConfig(n_shots=10, seed=21)},
    ),
}

# the same campaigns with deterministically poisoned records appended, so
# the gates have something real to quarantine; the clean records' bytes
# are untouched (independent rng streams for the corrupt sources)
GATED_ARCHETYPES = {
    "climate": (
        ClimateArchetype,
        {
            "config": ClimateSourceConfig(
                n_models=2, n_timesteps=12, seed=21, n_corrupt_models=1
            )
        },
    ),
    "fusion": (
        FusionArchetype,
        {"config": FusionCampaignConfig(n_shots=10, seed=21, n_corrupt_shots=2)},
    ),
}

# the schedule the CI chaos-smoke job also runs: a ~5% transient rate in
# the stage fan-outs, one torn shard file, and the final stage's
# checkpoint payload corrupted after being saved
CHAOS = FaultSpec(seed=7, transient_rate=0.05, torn_shards=1, corrupt_checkpoints=(4,))
POLICY = RetryPolicy(max_attempts=4, seed=7)


def _shard_bytes(directory):
    files = {p.name: p.read_bytes() for p in directory.glob("*.rps")}
    assert files, f"no shards under {directory}"
    return files


def _chaos_run(cls, kwargs, work_dir, backend, checkpoint_dir):
    clock = VirtualClock()
    injector = FaultInjector(CHAOS, clock=clock)
    result = cls(seed=21, **kwargs).run(
        work_dir,
        backend=backend,
        retry_policy=POLICY,
        fault_injector=injector,
        checkpoint_dir=checkpoint_dir,
    )
    return result, injector, clock


@pytest.mark.parametrize("backend", BACKEND_NAMES)
@pytest.mark.parametrize("domain", sorted(ARCHETYPES))
def test_chaos_run_bitwise_identical_to_clean(domain, backend, tmp_path):
    cls, kwargs = ARCHETYPES[domain]
    clean = cls(seed=21, **kwargs).run(tmp_path / "clean", backend=backend)
    chaos, injector, clock = _chaos_run(
        cls, kwargs, tmp_path / "chaos", backend, tmp_path / "ckpt"
    )

    # chaos actually happened and was healed, not dodged
    counts = injector.counts()
    assert counts.get("torn-shard") == 1
    assert counts.get("corrupt-checkpoint") == 1
    assert chaos.run.total_retries > 0
    assert clock.slept, "retry backoff should run on the virtual clock"
    assert not chaos.run.degraded
    assert len(chaos.run.dead_letters) == 0

    # ...and is invisible in the output: bitwise parity with the clean run
    clean_fps = [r.output_fingerprint for r in clean.run.results]
    chaos_fps = [r.output_fingerprint for r in chaos.run.results]
    assert chaos_fps == clean_fps, f"{domain}/{backend} diverged under faults"
    assert chaos.dataset.fingerprint() == clean.dataset.fingerprint()
    assert _shard_bytes(tmp_path / "chaos" / "shards") == _shard_bytes(
        tmp_path / "clean" / "shards"
    )
    assert (tmp_path / "chaos" / "shards" / MANIFEST_NAME).read_bytes() == (
        tmp_path / "clean" / "shards" / MANIFEST_NAME
    ).read_bytes()


@pytest.mark.parametrize("domain", sorted(ARCHETYPES))
def test_resume_quarantines_corrupt_checkpoint(domain, tmp_path):
    """Satellite: resume after checkpoint corruption falls back, not crashes.

    The chaos schedule corrupts the final stage's checkpoint payload
    after it is saved.  A later resume must quarantine it (rename to
    ``*.quarantined``), fall back to the last verifiable stage, re-run
    only the final stage, and reproduce the identical manifest — never
    surface an unpickling traceback.
    """
    cls, kwargs = ARCHETYPES[domain]
    work_dir = tmp_path / "chaos"
    ckpt = tmp_path / "ckpt"
    chaos, injector, _ = _chaos_run(cls, kwargs, work_dir, "serial", ckpt)
    last = len(chaos.run.results) - 1
    assert injector.counts().get("corrupt-checkpoint") == 1
    before = _shard_bytes(work_dir / "shards")
    manifest_before = (work_dir / "shards" / MANIFEST_NAME).read_bytes()

    # fault-free resume into the same work dir, no injector this time
    resumed = cls(seed=21, **kwargs).run(work_dir, checkpoint_dir=ckpt, resume=True)

    assert [q.stage_index for q in resumed.run.quarantined] == [last]
    assert list(ckpt.glob("*.quarantined")), "corrupt payload should be kept aside"
    kinds = [e.kind for e in resumed.run.events]
    assert RunEventKind.CHECKPOINT_QUARANTINED in kinds
    # fell back to the last verifiable stage: everything before the final
    # stage restored, only the final stage re-executed
    assert resumed.run.resumed_from == last - 1
    assert [r.stage_name for r in resumed.run.results if r.restored] == [
        r.stage_name for r in chaos.run.results[:last]
    ]
    assert not resumed.run.results[last].restored
    # and the re-run reproduces the identical output
    assert resumed.run.results[last].output_fingerprint == (
        chaos.run.results[last].output_fingerprint
    )
    assert _shard_bytes(work_dir / "shards") == before
    assert (work_dir / "shards" / MANIFEST_NAME).read_bytes() == manifest_before


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_batched_chaos_run_matches_clean_per_record(backend, tmp_path):
    """Transient faults over the batched path stay bitwise invisible.

    The reference is the strictest possible: clean, serial, per-record.
    The chaos run batches the climate regrid stage (``batch_size=4``)
    on every backend under transient task faults and a torn shard — a
    retried *chunk* must re-enter the merge exactly like a retried
    record, and the shard writer must heal the torn file.
    """
    cls, kwargs = ARCHETYPES["climate"]
    clean = cls(seed=21, **kwargs).run(tmp_path / "clean", backend="serial")
    clock = VirtualClock()
    injector = FaultInjector(
        FaultSpec(seed=7, transient_rate=0.05, torn_shards=1), clock=clock
    )
    chaos = cls(seed=21, **kwargs).run(
        tmp_path / "chaos",
        backend=backend,
        retry_policy=POLICY,
        fault_injector=injector,
        batch_size=4,
    )

    assert injector.counts().get("torn-shard") == 1
    assert chaos.run.total_retries > 0
    assert not chaos.run.degraded

    clean_fps = [r.output_fingerprint for r in clean.run.results]
    chaos_fps = [r.output_fingerprint for r in chaos.run.results]
    assert chaos_fps == clean_fps, f"batched {backend} diverged under faults"
    assert chaos.dataset.fingerprint() == clean.dataset.fingerprint()
    assert _shard_bytes(tmp_path / "chaos" / "shards") == _shard_bytes(
        tmp_path / "clean" / "shards"
    )
    assert _normalized_manifest(tmp_path / "chaos" / "shards") == (
        _normalized_manifest(tmp_path / "clean" / "shards")
    )


def _normalized_manifest(directory):
    """Manifest content with the one legitimately backend-dependent key
    (``written_by_ranks``: 1 serial, 4 threaded/simspmd) removed."""
    blob = json.loads((directory / MANIFEST_NAME).read_text())
    blob.get("metadata", {}).pop("written_by_ranks", None)
    return blob


def _gated_chaos_run(cls, kwargs, work_dir, backend, checkpoint_dir, quarantine_dir):
    injector = FaultInjector(CHAOS, clock=VirtualClock())
    result = cls(seed=21, **kwargs).run(
        work_dir,
        backend=backend,
        retry_policy=POLICY,
        fault_injector=injector,
        checkpoint_dir=checkpoint_dir,
        gates="quarantine",
        quarantine_dir=quarantine_dir,
    )
    return result, injector


@pytest.mark.parametrize("domain", sorted(GATED_ARCHETYPES))
def test_gated_chaos_quarantine_bitwise_identical_across_backends(domain, tmp_path):
    """ISSUE satellite: gate decisions are part of the parity contract.

    With corrupt records seeded into the source and the chaos schedule
    active, every backend must shed the *same* records into quarantine
    (byte-identical ``quarantine.jsonl``), ship byte-identical shards of
    the survivors, and stamp the same readiness certificate into the
    manifest — gate evaluation happens in the runner on record content,
    never on scheduling order.
    """
    cls, kwargs = GATED_ARCHETYPES[domain]
    quarantine_bytes = {}
    shard_bytes = {}
    manifests = {}
    for backend in BACKEND_NAMES:
        base = tmp_path / backend
        result, injector = _gated_chaos_run(
            cls, kwargs, base / "work", backend, base / "ckpt", base / "q"
        )
        assert injector.counts().get("torn-shard") == 1
        assert result.run.degraded, f"{domain}/{backend} should degrade"
        assert result.run.records_quarantined > 0
        assert len(result.run.dead_letters) == 0
        qfile = base / "q" / QUARANTINE_NAME
        assert qfile.exists(), f"{domain}/{backend} wrote no quarantine log"
        quarantine_bytes[backend] = qfile.read_bytes()
        assert quarantine_bytes[backend], "quarantine log should be non-empty"
        shard_bytes[backend] = _shard_bytes(base / "work" / "shards")
        manifests[backend] = _normalized_manifest(base / "work" / "shards")
        cert = manifests[backend]["metadata"]["readiness_certificate"]
        assert cert["status"] in ("degraded", "warned")
        assert cert["records_quarantined"] == result.run.records_quarantined

    reference = BACKEND_NAMES[0]
    for backend in BACKEND_NAMES[1:]:
        assert quarantine_bytes[backend] == quarantine_bytes[reference], (
            f"{domain}: quarantine decisions diverged on {backend}"
        )
        assert shard_bytes[backend] == shard_bytes[reference], (
            f"{domain}: survivor shards diverged on {backend}"
        )
        assert manifests[backend] == manifests[reference], (
            f"{domain}: manifests diverged on {backend}"
        )


@pytest.mark.parametrize("domain", sorted(GATED_ARCHETYPES))
def test_gated_redrive_replays_deterministically(domain, tmp_path):
    """Satellite: ``quarantine re-drive`` is a pure replay.

    Re-driving the same quarantine store against the same contracts
    twice must produce byte-identical reports — and records poisoned at
    the source still violate their contract, so they are re-quarantined
    rather than promoted.
    """
    cls, kwargs = GATED_ARCHETYPES[domain]
    qdir = tmp_path / "q"
    result = cls(seed=21, **kwargs).run(
        tmp_path / "work", gates="quarantine", quarantine_dir=qdir
    )
    assert result.run.records_quarantined > 0

    contracts = contracts_for_domain(domain)
    reports = {}
    for attempt in ("first", "second"):
        out = tmp_path / attempt
        report = redrive(QuarantineStore(qdir), contracts, out)
        assert not report.promoted, "poisoned records must not be promoted"
        assert len(report.requarantined) == result.run.records_quarantined
        assert not report.skipped
        reports[attempt] = {
            p.name: p.read_bytes() for p in out.iterdir() if p.is_file()
        }
    assert reports["first"] == reports["second"], (
        f"{domain}: re-drive is not deterministic"
    )
