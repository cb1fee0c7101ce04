"""The chaos acceptance contract (ISSUE 3).

Under a seeded fault schedule — transient task faults, a torn shard
file, a corrupted checkpoint payload — every backend completes the
climate and fusion pipelines to artifacts **byte-identical** to a
fault-free serial run (the parity oracle, ``tests/parity.py``, which also
checks that the schedule fired and was healed).  A later resume
quarantines the corrupt checkpoint and falls back to the last verifiable
stage, and re-driving a quarantine store is a pure replay.
"""

import pytest

from repro.core.plan import fingerprint_payload
from repro.core.runner import RunEventKind
from repro.faults import FaultInjector, FaultSpec, VirtualClock
from repro.gates import QuarantineStore, contracts_for_domain, redrive
from tests.parity import ARCHETYPES, POLICY, Config, assert_parity, shard_digests

BACKEND_NAMES = ["serial", "threaded", "simspmd"]
DOMAINS = ["climate", "fusion"]

# a ~5% transient rate in the stage fan-outs, one torn shard file, and the
# final stage's checkpoint payload corrupted after being saved
CHAOS = "seed=7,rate=0.05,torn-shards=1,corrupt-checkpoint=4"


def _chaos(backend, **options):
    return Config(backend, 1 if backend == "serial" else 4, faults=CHAOS, **options)


@pytest.mark.parametrize("backend", BACKEND_NAMES)
@pytest.mark.parametrize("domain", DOMAINS)
def test_chaos_run_bitwise_identical_to_clean(domain, backend):
    assert_parity(domain, Config(), _chaos(backend))


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_batched_chaos_run_matches_clean_per_record(backend):
    """A retried *chunk* re-enters the merge exactly like a retried record."""
    assert_parity("climate", Config(), _chaos(backend, batch_size=4))


@pytest.mark.parametrize("domain", DOMAINS)
def test_gated_chaos_quarantine_bitwise_identical_across_backends(domain):
    """Gate decisions are part of the parity contract: every backend sheds
    the same records into the same ``quarantine.jsonl`` bytes and stamps
    the same readiness certificate."""
    for backend in BACKEND_NAMES:
        assert_parity(domain, Config(gated=True), _chaos(backend, gated=True))


@pytest.mark.parametrize("domain", DOMAINS)
def test_resume_quarantines_corrupt_checkpoint(domain, tmp_path):
    """Resume after checkpoint corruption falls back, not crashes.

    The chaos schedule corrupts the final stage's checkpoint payload
    after it is saved.  A later resume must quarantine it (rename to
    ``*.quarantined``), fall back to the last verifiable stage, re-run
    only the final stage, and reproduce the identical shards and
    manifest — never surface an unpickling traceback.
    """
    cls, source, _ = ARCHETYPES[domain]
    work_dir = tmp_path / "chaos"
    ckpt = tmp_path / "ckpt"
    injector = FaultInjector(FaultSpec.parse(CHAOS), clock=VirtualClock())
    chaos = cls(seed=21, config=source).run(
        work_dir, retry_policy=POLICY, fault_injector=injector, checkpoint_dir=ckpt
    )
    last = len(chaos.run.results) - 1
    assert injector.counts().get("corrupt-checkpoint") == 1
    before = shard_digests(work_dir / "shards")

    # fault-free resume into the same work dir, no injector this time
    resumed = cls(seed=21, config=source).run(work_dir, checkpoint_dir=ckpt, resume=True)

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
    assert fingerprint_payload(resumed.run.payload) == fingerprint_payload(chaos.run.payload)
    assert shard_digests(work_dir / "shards") == before


@pytest.mark.parametrize("domain", DOMAINS)
def test_gated_redrive_replays_deterministically(domain, tmp_path):
    """Satellite: ``quarantine re-drive`` is a pure replay.

    Re-driving the same quarantine store against the same contracts
    twice must produce byte-identical reports — and records poisoned at
    the source still violate their contract, so they are re-quarantined
    rather than promoted.
    """
    cls, _, poisoned = ARCHETYPES[domain]
    qdir = tmp_path / "q"
    result = cls(seed=21, config=poisoned).run(
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
