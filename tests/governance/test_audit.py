"""Audit log: hash chaining and tamper evidence."""

import json

import pytest

from repro.governance.audit import AuditError, AuditEvent, AuditLog


class TestChaining:
    def test_chain_verifies(self):
        log = AuditLog()
        for i in range(10):
            log.record("user", "action", f"subject-{i}", index=i)
        assert log.verify()
        assert len(log) == 10

    def test_empty_log_verifies(self):
        assert AuditLog().verify()

    def test_events_link_to_previous(self):
        log = AuditLog()
        first = log.record("a", "x", "s1")
        second = log.record("a", "y", "s2")
        assert second.prev_hash == first.entry_hash
        assert first.prev_hash == "0" * 64

    def test_detail_tampering_detected(self):
        log = AuditLog()
        log.record("alice", "read", "dataset", rows=10)
        log.record("alice", "export", "dataset")
        # forge the first event's detail
        forged = AuditEvent(
            sequence=0,
            actor="alice",
            action="read",
            subject="dataset",
            detail={"rows": 99999},
            timestamp=log._events[0].timestamp,
            prev_hash=log._events[0].prev_hash,
            entry_hash=log._events[0].entry_hash,
        )
        log._events[0] = forged
        with pytest.raises(AuditError, match="chain broken"):
            log.verify()

    def test_deletion_detected(self):
        log = AuditLog()
        for i in range(5):
            log.record("u", "a", f"s{i}")
        del log._events[2]
        with pytest.raises(AuditError):
            log.verify()

    def test_reordering_detected(self):
        log = AuditLog()
        for i in range(4):
            log.record("u", "a", f"s{i}")
        log._events[1], log._events[2] = log._events[2], log._events[1]
        with pytest.raises(AuditError):
            log.verify()


class TestQueries:
    def test_events_for_subject(self):
        log = AuditLog()
        log.record("a", "read", "ds1")
        log.record("b", "read", "ds2")
        log.record("a", "write", "ds1")
        assert len(log.events_for("ds1")) == 2


class TestPersistence:
    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        log = AuditLog(path)
        log.record("alice", "ingest", "climate", n=100)
        log.record("bob", "read", "climate")
        resumed = AuditLog(path)
        assert len(resumed) == 2
        assert resumed.verify()
        # chain continues across sessions
        resumed.record("carol", "export", "climate")
        assert AuditLog(path).verify()

    def test_tampered_file_rejected_on_load(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        log = AuditLog(path)
        log.record("alice", "read", "x", count=1)
        log.record("alice", "read", "y", count=2)
        lines = path.read_text().splitlines()
        blob = json.loads(lines[0])
        blob["detail"]["count"] = 42
        lines[0] = json.dumps(blob)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(AuditError):
            AuditLog(path)

    def test_torn_tail_is_dropped_and_the_surviving_chain_verifies(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        log = AuditLog(path)
        log.record("alice", "ingest", "climate")
        log.record("bob", "read", "climate")
        with open(path, "ab") as fh:
            fh.write(b'{"sequence": 2, "act')  # the driver died mid-append
        resumed = AuditLog(path)
        assert [e.actor for e in resumed] == ["alice", "bob"] and resumed.verify()
        # the next append heals the tail physically; the chain continues
        resumed.record("carol", "export", "climate")
        assert [e.sequence for e in AuditLog(path)] == [0, 1, 2]
        assert path.read_bytes().count(b"\n") == 3

    def test_damaged_middle_line_still_raises(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        log = AuditLog(path)
        for subject in ("x", "y", "z"):
            log.record("alice", "read", subject)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(lines[0] + lines[1][: len(lines[1]) // 2] + b"\n" + lines[2])
        with pytest.raises(AuditError, match="sequence gap"):
            AuditLog(path)

    def test_appends_are_guarded_commits_at_the_audit_site(self, tmp_path):
        from repro.durability.fsfaults import activate
        from repro.faults import FaultInjector, FaultSpec

        path = tmp_path / "audit.jsonl"
        log = AuditLog(path)
        log.record("alice", "ingest", "climate")
        injector = FaultInjector(FaultSpec.parse("eio=audit:0"))
        with activate(injector):
            with pytest.raises(OSError):
                log.record("bob", "read", "climate")
        assert injector.counts() == {"disk-eio": 1}
        assert [e.actor for e in AuditLog(path)] == ["alice"]  # torn tail skipped
        # the failed append left memory and file in step: a retry chains on
        assert len(log) == 1
        log.record("bob", "read", "climate")
        assert [e.actor for e in AuditLog(path)] == ["alice", "bob"]
