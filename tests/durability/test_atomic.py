"""The atomic-commit primitive and its disk-fault mechanics."""

import json

import pytest

from repro.durability.atomic import (
    append_jsonl_durable,
    atomic_write_bytes,
    atomic_write_text,
    commit_file,
    heal_torn_tail,
    read_jsonl,
    sha256_path,
    staged_write,
)
from repro.durability.fsfaults import DiskFaultPoint, activate
from repro.faults import FaultInjector, FaultSpec


class TestAtomicWrite:
    def test_bytes_roundtrip_and_no_tmp_left(self, tmp_path):
        path = tmp_path / "a.bin"
        atomic_write_bytes(path, b"hello")
        assert path.read_bytes() == b"hello"
        assert [p.name for p in tmp_path.iterdir()] == ["a.bin"]

    def test_overwrite_is_atomic_replace(self, tmp_path):
        path = tmp_path / "a.txt"
        atomic_write_text(path, "one")
        atomic_write_text(path, "two")
        assert path.read_text() == "two"

    def test_staged_write_streams_then_commits_once(self, tmp_path):
        path = tmp_path / "deep" / "a.bin"
        # a fault on the site's second guarded commit: one write = one commit
        with activate(FaultInjector(FaultSpec.parse("eio=checkpoint:1"))):
            with staged_write(path, site="checkpoint") as fh:
                fh.write(b"one ")
                fh.write(memoryview(b"two"))
                assert not path.exists()  # nothing under the final name yet
            assert path.read_bytes() == b"one two"
            with pytest.raises(OSError):
                with staged_write(path, site="checkpoint") as fh:
                    fh.write(b"never lands")
        assert path.read_bytes() == b"one two"
        assert [p.name for p in path.parent.iterdir()] == ["a.bin"]

    def test_staged_write_failure_removes_the_partial_and_keeps_the_old(self, tmp_path):
        path = tmp_path / "a.bin"
        path.write_bytes(b"old")
        with pytest.raises(KeyboardInterrupt):
            with staged_write(path) as fh:
                fh.write(b"half of the new")
                raise KeyboardInterrupt
        assert path.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["a.bin"]

    def test_commit_file_replaces_and_consumes_tmp(self, tmp_path):
        tmp = tmp_path / "x.tmp"
        final = tmp_path / "x"
        tmp.write_bytes(b"payload")
        final.write_bytes(b"old")
        commit_file(tmp, final)
        assert final.read_bytes() == b"payload"
        assert not tmp.exists()

    def test_sha256_path_matches_hashlib(self, tmp_path):
        import hashlib

        path = tmp_path / "x"
        path.write_bytes(b"abc" * 1000)
        assert sha256_path(path) == hashlib.sha256(b"abc" * 1000).hexdigest()


class TestTornTailHealing:
    def test_heals_unterminated_tail(self, tmp_path):
        path = tmp_path / "log.jsonl"
        good = json.dumps({"i": 1}) + "\n"
        path.write_text(good + '{"i": 2, "tor')
        assert heal_torn_tail(path) == len('{"i": 2, "tor')  # bytes removed
        assert path.read_text() == good

    def test_heals_multiple_garbage_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        good = json.dumps({"i": 1}) + "\n"
        path.write_text(good + "\x00garbage\n{torn")
        healed = heal_torn_tail(path)
        assert healed >= 1
        assert path.read_text() == good

    def test_intact_file_untouched(self, tmp_path):
        path = tmp_path / "log.jsonl"
        body = "".join(json.dumps({"i": i}) + "\n" for i in range(3))
        path.write_text(body)
        assert heal_torn_tail(path) == 0
        assert path.read_text() == body

    def test_missing_file_is_noop(self, tmp_path):
        assert heal_torn_tail(tmp_path / "absent.jsonl") == 0

    def test_torn_tail_behind_several_blocks_of_clean_lines(self, tmp_path):
        # the scan reads 8 KiB blocks backwards from EOF: ~60 KiB of clean
        # lines sit in front of the tear and must survive byte for byte
        path = tmp_path / "log.jsonl"
        good = "".join(json.dumps({"i": i, "pad": "x" * 100}) + "\n" for i in range(500))
        assert len(good) > 7 * 8192
        path.write_text(good + '{"i": 500, "pad": "xx')
        assert heal_torn_tail(path) == len('{"i": 500, "pad": "xx')
        assert path.read_text() == good
        assert heal_torn_tail(path) == 0

    def test_tail_of_several_unparseable_lines(self, tmp_path):
        # whole-but-garbage lines (one longer than a block, so it spans a
        # block boundary) are dropped back to the last parseable record
        path = tmp_path / "log.jsonl"
        good = json.dumps({"i": 1}) + "\n" + json.dumps({"i": 2}) + "\n"
        garbage = "{not json\n" + "\x00" * 9000 + "\n" + "\xff\xfe\n" + '{"i": 3, "to'
        path.write_bytes(good.encode() + garbage.encode("latin-1"))
        assert heal_torn_tail(path) == len(garbage)
        assert path.read_text() == good

    def test_blank_line_stops_the_scan(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text("not json\n\n")
        assert heal_torn_tail(path) == 0
        path.write_text("not json\n\n{torn")
        assert heal_torn_tail(path) == len("{torn")
        assert path.read_text() == "not json\n\n"

    def test_file_of_only_garbage_is_emptied(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text("garbage\nmore garbage")
        assert heal_torn_tail(path) == len("garbage\nmore garbage")
        assert path.read_bytes() == b""


_LINES = "".join(json.dumps({"i": i}) + "\n" for i in range(3)).encode()

#: every damaged-log shape TestTornTailHealing covers, as
#: ``name -> (file bytes, the "i" of each record a reader must return)``
DAMAGED_LOGS = {
    "missing": (None, []),
    "intact": (_LINES, [0, 1, 2]),
    "unterminated-tail": (_LINES + b'{"i": 3, "tor', [0, 1, 2]),
    "garbage-lines": (_LINES + b"\x00garbage\n{torn", [0, 1, 2]),
    "unparseable-lines-spanning-a-block": (
        _LINES + b"{not json\n" + b"\x00" * 9000 + b"\n\xff\xfe\n" + b'{"i": 3, "to',
        [0, 1, 2],
    ),
    "tail-behind-several-blocks": (_LINES * 3000 + b'{"i": 3, "pad": "xx', [0, 1, 2] * 3000),
    "blank-line-stops-the-scan": (b"not json\n\n{torn", []),
    "only-garbage": (b"garbage\nmore garbage", []),
}


class TestOneCodec:
    """The reader, the healer and the appender agree on what a line is."""

    @pytest.mark.parametrize("case", sorted(DAMAGED_LOGS))
    def test_read_heal_and_append_agree(self, case, tmp_path):
        data, expected = DAMAGED_LOGS[case]
        path, twin = tmp_path / "log.jsonl", tmp_path / "twin.jsonl"
        if data is not None:
            path.write_bytes(data)
            twin.write_bytes(data)
        before = read_jsonl(path)
        assert [row["i"] for row in before] == expected
        heal_torn_tail(path)
        assert read_jsonl(path) == before  # healing drops only what reading skips
        append_jsonl_durable(path, [{"i": 99}])
        assert read_jsonl(path) == before + [{"i": 99}]
        append_jsonl_durable(twin, [{"i": 99}])  # append heals by itself
        assert twin.read_bytes() == path.read_bytes()

    def test_obs_reads_and_writes_with_the_same_functions(self, tmp_path):
        import repro.obs
        from repro.durability import atomic

        assert repro.obs.read_jsonl is repro.obs.sinks.read_jsonl is atomic.read_jsonl
        line = atomic.jsonl_line({"b": tmp_path, "a": "é"})
        assert line == b'{"a": "\\u00e9", "b": "%s"}\n' % str(tmp_path).encode()


class TestDurableAppend:
    def test_append_matches_write_jsonl_bytes(self, tmp_path):
        from repro.obs.sinks import write_jsonl

        rows = [{"b": 2, "a": 1}, {"x": "y"}]
        oracle = tmp_path / "oracle.jsonl"
        write_jsonl(oracle, rows)
        ours = tmp_path / "ours.jsonl"
        append_jsonl_durable(ours, rows[:1])
        append_jsonl_durable(ours, rows[1:])
        assert ours.read_bytes() == oracle.read_bytes()

    def test_append_heals_torn_tail_first(self, tmp_path):
        path = tmp_path / "log.jsonl"
        append_jsonl_durable(path, [{"i": 1}])
        with open(path, "a") as fh:
            fh.write('{"i": 2, "tor')  # simulated torn tail
        append_jsonl_durable(path, [{"i": 3}])
        assert [r["i"] for r in read_jsonl(path)] == [1, 3]


def _one_fault(kind, site="shard", index=0):
    return FaultInjector(FaultSpec(disk_faults=(DiskFaultPoint(kind, site, index),)))


def _fired(injector):
    return [(fault.kind, fault.site) for fault in injector.log]


class TestDiskFaultMechanics:
    @pytest.mark.parametrize("kind", ["enospc", "eio"])
    def test_failed_commit_leaves_previous_content(self, tmp_path, kind):
        path = tmp_path / "a.txt"
        atomic_write_text(path, "before", site="shard")
        injector = _one_fault(kind)
        with activate(injector):
            with pytest.raises(OSError):
                atomic_write_text(path, "after", site="shard")
        assert path.read_text() == "before"
        assert injector.counts() == {f"disk-{kind}": 1}

    def test_enospc_errno(self, tmp_path):
        import errno

        with activate(_one_fault("enospc")):
            with pytest.raises(OSError) as exc:
                atomic_write_text(tmp_path / "a", "x", site="shard")
        assert exc.value.errno == errno.ENOSPC

    def test_torn_rename_leaves_garbage_at_final_name(self, tmp_path):
        path = tmp_path / "a.bin"
        with activate(_one_fault("torn-rename")):
            with pytest.raises(OSError):
                atomic_write_bytes(path, b"full payload bytes", site="shard")
        # the final name holds torn garbage, not the payload — exactly
        # what the recovery scanner (or a retried write) must handle
        assert path.exists()
        assert path.read_bytes() != b"full payload bytes"

    def test_lost_write_truncates_final(self, tmp_path):
        path = tmp_path / "a.bin"
        with activate(_one_fault("lost-write")):
            with pytest.raises(OSError):
                atomic_write_bytes(path, b"full payload bytes", site="shard")
        assert path.exists()
        assert len(path.read_bytes()) < len(b"full payload bytes")

    def test_fault_fires_once_then_retry_succeeds(self, tmp_path):
        path = tmp_path / "a.txt"
        injector = _one_fault("eio")
        with activate(injector):
            with pytest.raises(OSError):
                atomic_write_text(path, "payload", site="shard")
            atomic_write_text(path, "payload", site="shard")  # retry draws a fresh op
        assert path.read_text() == "payload"
        assert injector.counts() == {"disk-eio": 1}

    def test_site_scoped_fault_skips_other_sites(self, tmp_path):
        injector = _one_fault("eio", site="manifest", index=0)
        with activate(injector):
            atomic_write_text(tmp_path / "s", "x", site="shard")
            with pytest.raises(OSError):
                atomic_write_text(tmp_path / "m", "y", site="manifest")
        assert _fired(injector) == [("disk-eio", "manifest")]

    def test_append_fault_tears_tail_and_raises(self, tmp_path):
        path = tmp_path / "log.jsonl"
        append_jsonl_durable(path, [{"i": 1}], site="journal")
        injector = _one_fault("enospc", site="journal")
        with activate(injector):
            with pytest.raises(OSError):
                append_jsonl_durable(path, [{"i": 2}], site="journal")
        # the torn tail is healed on the next (fault-free) append
        append_jsonl_durable(path, [{"i": 3}], site="journal")
        assert [r["i"] for r in read_jsonl(path)] == [1, 3]

    def test_no_active_injector_is_free(self, tmp_path):
        # activate(None) must be a transparent no-op
        with activate(None):
            atomic_write_text(tmp_path / "a", "x", site="shard")
        assert (tmp_path / "a").read_text() == "x"

    def test_per_site_op_numbering_is_deterministic(self, tmp_path):
        def ops(injector):
            failed = []
            with activate(injector):
                for i, site in enumerate(["shard", "manifest", "shard", "journal", "shard"]):
                    try:
                        atomic_write_text(tmp_path / f"f{i}", "x", site=site)
                    except OSError:
                        failed.append(i)
            return failed, _fired(injector)

        # shard:2 is the third shard commit, whatever other sites commit
        # in between (and on whichever thread)
        first = ops(_one_fault("eio", index=2))
        second = ops(_one_fault("eio", index=2))
        assert first == second == ([4], [("disk-eio", "shard")])

    def test_unknown_site_rejected_at_parse(self):
        # a typo'd site would never fire and the chaos run would
        # silently test nothing — fail fast instead; so would a site-less
        # index, which no per-site count can reach
        with pytest.raises(ValueError, match="unknown disk fault site"):
            DiskFaultPoint.parse("eio", "sharrd:1")
        with pytest.raises(ValueError, match="must be site:N.*known sites: audit"):
            DiskFaultPoint.parse("eio", "2")
        from repro.durability.fsfaults import KNOWN_SITES

        for site in KNOWN_SITES:
            assert DiskFaultPoint.parse("eio", f"{site}:0").site == site
