"""The seeded fault injector: spec parsing, determinism, filesystem chaos."""

import dataclasses
import os
import signal
import threading
import time

import pytest

from repro.core.backends import SerialBackend
from repro.durability.fsfaults import CrashPoint, DiskFaultPoint
from repro.faults import (
    FaultInjector,
    FaultSpec,
    InjectedFaultError,
    RetryPolicy,
    VirtualClock,
)


#: the whole ``--inject-faults`` grammar: every key and operand form, and
#: the typed schedule it parses to (once — points are never re-parsed)
GRAMMAR = [
    ("", {}),
    ("seed=7", {"seed": 7}),
    ("rate=0.1", {"transient_rate": 0.1}),
    ("transient-rate=0.1", {"transient_rate": 0.1}),
    ("Transient_Rate = 0.1", {"transient_rate": 0.1}),
    ("slow-rate=0.2,slow-seconds=0.01", {"slow_rate": 0.2, "slow_seconds": 0.01}),
    ("torn-shards=2", {"torn_shards": 2}),
    ("corrupt-checkpoint=2", {"corrupt_checkpoints": (2,)}),
    ("corrupt-checkpoint=2+4", {"corrupt_checkpoints": (2, 4)}),
    ("kill-rate=0.3", {"worker_kill_rate": 0.3}),
    ("worker-kill-rate=0.3", {"worker_kill_rate": 0.3}),
    ("poison-site=map#0[3]", {"poison_sites": ("map#0[3]",)}),
    ("poison-site=map#2[10]+stats#1+shard_write#0",
     {"poison_sites": ("map#2[10]", "stats#1", "shard_write#0")}),
    ("enospc=manifest:0+checkpoint:2",
     {"disk_faults": (DiskFaultPoint("enospc", "manifest", 0),
                      DiskFaultPoint("enospc", "checkpoint", 2))}),
    ("torn-rename=shard:1,lost_write=audit:5",
     {"disk_faults": (DiskFaultPoint("torn-rename", "shard", 1),
                      DiskFaultPoint("lost-write", "audit", 5))}),
    ("crash-at=stage:3:post", {"crash_at": CrashPoint(3, "post")}),
    ("crash-at=stage:0:pre,crash-kill=1", {"crash_at": CrashPoint(0, "pre", kill=True)}),
    ("crash-kill=yes,crash-at=stage:0:pre", {"crash_at": CrashPoint(0, "pre", kill=True)}),
    ("crash-at=stage:2:post,crash-kill=0", {"crash_at": CrashPoint(2, "post")}),
    ("crash-kill=0", {}),
    ("seed=7,rate=0.05,torn-shards=1,eio=manifest:0",
     {"seed": 7, "transient_rate": 0.05, "torn_shards": 1,
      "disk_faults": (DiskFaultPoint("eio", "manifest", 0),)}),
]


class TestFaultSpec:
    @pytest.mark.parametrize("text, fields", GRAMMAR, ids=[text for text, _ in GRAMMAR])
    def test_grammar(self, text, fields):
        assert FaultSpec.parse(text) == FaultSpec(**fields)

    def test_parse_full_spec(self):
        spec = FaultSpec.parse(
            "seed=7, rate=0.1, slow-rate=0.2, slow-seconds=0.01,"
            " torn-shards=1, corrupt-checkpoint=2+4"
        )
        assert spec == FaultSpec(
            seed=7,
            transient_rate=0.1,
            slow_rate=0.2,
            slow_seconds=0.01,
            torn_shards=1,
            corrupt_checkpoints=(2, 4),
        )

    def test_parse_aliases_and_empty_parts(self):
        spec = FaultSpec.parse("transient_rate=0.3,,seed=1,")
        assert spec.transient_rate == 0.3
        assert spec.seed == 1

    @pytest.mark.parametrize("text", [
        "seed", "bogus=1", "rate=1.5", "torn-shards=-1",
        "slow-seconds=-1", "kill-rate=2", "corrupt-checkpoint=x",
        # a spec that could never fire would silently test nothing
        "eio=sharrd:1", "eio=x", "eio=-1", "eio=shard:",
        # ops are numbered per site only: a site-less index names no op
        "eio=3",
        "crash-at=banana", "crash-at=stage:1:during", "crash-at=stage:x:pre",
        "crash-at=stage:-1:pre", "crash-kill=1",
        "poison-site=mapp#0[3]", "poison-site=map#0", "poison-site=stats#1[2]",
        "poison-site=map#0[3]+oops",
    ])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            FaultSpec.parse(text)

    def test_roundtrip_to_dict(self):
        spec = FaultSpec(seed=3, transient_rate=0.1)
        assert dataclasses.asdict(spec)["seed"] == 3
        assert dataclasses.asdict(spec)["transient_rate"] == 0.1


def _schedule(injector, sites):
    """Which of *sites* fault on their first attempt, in order."""
    hit = []
    for site in sites:
        try:
            injector.fault_point(site)
        except InjectedFaultError:
            hit.append(site)
    return hit


class TestInjectorDeterminism:
    SITES = [f"map#0[{i}]" for i in range(64)]

    def test_same_seed_same_schedule(self):
        a = _schedule(FaultInjector(FaultSpec(seed=7, transient_rate=0.3)), self.SITES)
        b = _schedule(FaultInjector(FaultSpec(seed=7, transient_rate=0.3)), self.SITES)
        assert a == b
        assert 0 < len(a) < len(self.SITES)  # rate realised, not all-or-nothing

    def test_different_seed_different_schedule(self):
        a = _schedule(FaultInjector(FaultSpec(seed=7, transient_rate=0.3)), self.SITES)
        b = _schedule(FaultInjector(FaultSpec(seed=8, transient_rate=0.3)), self.SITES)
        assert a != b

    def test_retried_site_draws_fresh_attempt(self):
        spec = FaultSpec(seed=7, transient_rate=0.5)
        injector = FaultInjector(spec)
        outcomes = []
        for _ in range(8):  # same site, successive attempts
            try:
                injector.fault_point("stats#0")
                outcomes.append(False)
            except InjectedFaultError:
                outcomes.append(True)
        # attempts are independent draws: with rate 0.5 over 8 attempts a
        # constant sequence would mean the attempt number is being ignored
        assert len(set(outcomes)) == 2
        repeat = []
        injector2 = FaultInjector(spec)
        for _ in range(8):
            try:
                injector2.fault_point("stats#0")
                repeat.append(False)
            except InjectedFaultError:
                repeat.append(True)
        assert repeat == outcomes

    def test_slow_faults_sleep_on_injected_clock(self):
        clock = VirtualClock()
        injector = FaultInjector(
            FaultSpec(seed=1, slow_rate=1.0, slow_seconds=0.25), clock=clock
        )
        injector.fault_point("map#0[3]")
        assert clock.slept == [0.25]
        assert injector.counts() == {"slow": 1}

    def test_next_op_numbers_sites_in_call_order(self):
        injector = FaultInjector(FaultSpec())
        assert injector.next_op("shard_write") == "shard_write#0"
        assert injector.next_op("shard_write") == "shard_write#1"
        assert injector.next_op("stats") == "stats#0"


class TestFilesystemChaos:
    def test_tear_budget_and_garbage_file(self, tmp_path):
        injector = FaultInjector(FaultSpec(torn_shards=1))
        assert injector.maybe_tear_shard(tmp_path, "train-00000.rps", "shard_write#0")
        garbage = (tmp_path / "train-00000.rps").read_bytes()
        assert garbage.startswith(b"RPS1")
        assert b"torn" in garbage
        # budget exhausted: the retried write is left alone
        assert not injector.maybe_tear_shard(tmp_path, "train-00000.rps", "shard_write#1")
        assert injector.counts() == {"torn-shard": 1}

    def test_corrupt_checkpoint_only_scheduled_and_once(self, tmp_path):
        injector = FaultInjector(FaultSpec(corrupt_checkpoints=(2,)))
        path = tmp_path / "stage-2.snap"
        payload = bytes(range(200))
        path.write_bytes(payload)
        assert not injector.maybe_corrupt_checkpoint(tmp_path / "stage-1.snap", 1)
        assert injector.maybe_corrupt_checkpoint(path, 2)
        corrupted = path.read_bytes()
        assert len(corrupted) == 100  # truncated to half
        assert corrupted != payload[:100]  # and bit-flipped
        path.write_bytes(payload)
        assert not injector.maybe_corrupt_checkpoint(path, 2)  # once only
        assert path.read_bytes() == payload

    def test_unfired_names_what_the_log_never_saw(self, tmp_path):
        injector = FaultInjector(FaultSpec.parse(
            "torn-shards=2,corrupt-checkpoint=1+9,poison-site=map#0[1]+map#7[0],"
            "eio=journal:5+manifest:0,enospc=shard:4,crash-at=stage:9:post"
        ))
        everything = [
            "eio=journal:5", "eio=manifest:0", "enospc=shard:4", "crash-at=stage:9:post",
            "poison-site=map#0[1]", "poison-site=map#7[0]",
            "corrupt-checkpoint=1", "corrupt-checkpoint=9", "torn-shards=2",
        ]
        assert injector.unfired() == everything
        injector.maybe_tear_shard(tmp_path, "x.rps", "shard_write#0")
        (tmp_path / "stage-1.snap").write_bytes(bytes(64))
        injector.maybe_corrupt_checkpoint(tmp_path / "stage-1.snap", 1)
        with pytest.raises(Exception, match="poison task"):
            injector.fault_point("map#0[1]")
        assert injector.fault_for("manifest") == "eio"  # manifest:0
        assert injector.fault_for("shard") is None
        assert injector.unfired() == [
            "eio=journal:5", "enospc=shard:4", "crash-at=stage:9:post", "poison-site=map#7[0]",
            "corrupt-checkpoint=9", "torn-shards=1",
        ]
        injector.maybe_crash(9, "pre")  # not the scheduled phase
        assert "crash-at=stage:9:post" in injector.unfired()
        assert FaultInjector(FaultSpec(seed=1, transient_rate=0.5)).unfired() == []

    def test_describe_summarises_injections(self, tmp_path):
        injector = FaultInjector(FaultSpec(seed=9, torn_shards=1))
        assert injector.describe() == "fault injector: no faults injected"
        injector.maybe_tear_shard(tmp_path, "x.rps", "shard_write#0")
        assert injector.describe() == "fault injector (seed=9): torn-shard=1"


class TestInjectorHook:
    """The injector installed as the bare backend's one hook."""

    def test_map_faults_healed_by_task_retry_preserve_order(self):
        clock = VirtualClock()
        injector = FaultInjector(FaultSpec(seed=7, transient_rate=0.3), clock=clock)
        backend = SerialBackend()
        backend.configure_retry(
            RetryPolicy(max_attempts=8, jitter=0.0), clock=clock
        )
        backend.hooks = (injector,)
        result = backend.map(lambda x: x * 2, list(range(32)))
        assert result == [x * 2 for x in range(32)]
        assert injector.counts().get("transient", 0) > 0

    def test_map_fault_without_retry_escapes(self):
        injector = FaultInjector(FaultSpec(seed=7, transient_rate=1.0))
        backend = SerialBackend()
        backend.hooks = (injector,)
        with pytest.raises(InjectedFaultError):
            backend.map(lambda x: x, [1, 2, 3])


class TestForkSafety:
    """A process-backend worker forks while the checkpoint commit, on its
    own thread, may be inside ``fault_for`` holding the injector's lock."""

    @pytest.mark.filterwarnings("ignore::DeprecationWarning")  # fork with threads alive
    def test_a_child_forked_while_another_thread_holds_the_lock_can_fault(self):
        injector = FaultInjector(FaultSpec(seed=1, transient_rate=1.0))
        held, release = threading.Event(), threading.Event()

        def commit_thread():
            with injector._lock:
                held.set()
                release.wait(10)

        thread = threading.Thread(target=commit_thread)
        thread.start()
        assert held.wait(10)
        try:
            pid = os.fork()
            if pid == 0:  # the child exits 0 once its fault point fired
                code = 1
                try:
                    injector.fault_point("map#0[0]")
                except InjectedFaultError:
                    code = 0
                finally:
                    os._exit(code)
        finally:
            release.set()
            thread.join(10)
        assert not thread.is_alive()
        deadline = time.monotonic() + 10
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if done[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child deadlocked on the injector's lock")
        assert os.waitstatus_to_exitcode(done[1]) == 0
