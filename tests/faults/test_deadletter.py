"""Dead-letter persistence: the JSONL save/load half of the re-drive story."""

import pytest

from repro.faults import (
    DEAD_LETTER_NAME,
    DeadLetterLog,
    DeadLetterRecord,
    FaultKind,
)


def _record(stage="stack", action="degraded", fingerprint="a" * 64):
    return DeadLetterRecord(
        pipeline="climate",
        stage_name=stage,
        stage_index=2,
        attempts=4,
        error_type="TransientFaultError",
        error="injected fault",
        fault_kind=FaultKind.TRANSIENT,
        input_fingerprint=fingerprint,
        action=action,
    )


def test_save_load_roundtrip(tmp_path):
    log = DeadLetterLog()
    log.append(_record())
    log.append(_record(stage="shard", action="failed", fingerprint="b" * 64))
    path = log.save(tmp_path / "dl" / DEAD_LETTER_NAME)
    assert path.exists()

    loaded = DeadLetterLog.load(path)
    assert loaded.records == log.records  # frozen dataclasses: deep equality


def test_append_accumulates_a_campaign_ledger(tmp_path):
    path = tmp_path / DEAD_LETTER_NAME
    first = DeadLetterLog()
    first.append(_record(fingerprint="a" * 64))
    first.save(path)
    second = DeadLetterLog()
    second.append(_record(fingerprint="b" * 64))
    second.save(path)

    fingerprints = [r.input_fingerprint for r in DeadLetterLog.load(path)]
    assert fingerprints == ["a" * 64, "b" * 64]


def test_load_tolerates_torn_lines_and_foreign_envelopes(tmp_path):
    path = tmp_path / DEAD_LETTER_NAME
    log = DeadLetterLog()
    log.append(_record())
    log.save(path)
    with open(path, "a") as fh:
        fh.write('{"type": "metric", "name": "not-a-dead-letter"}\n')
        fh.write('{"type": "dead-letter", "pipeline": "cli')  # torn tail

    assert len(DeadLetterLog.load(path)) == 1


def test_save_is_atomic_and_heals_a_torn_tail(tmp_path):
    """A prior tear is dropped: the tear does not grow silently at the tail.

    ``save`` appends durably: a torn trailing line from an earlier crash
    is cut off before the new lines are written, so readers see only
    complete lines.
    """
    path = tmp_path / DEAD_LETTER_NAME
    first = DeadLetterLog()
    first.append(_record(fingerprint="a" * 64))
    first.save(path)
    with open(path, "a") as fh:
        fh.write('{"type": "dead-letter", "pipeline": "cli')  # crash mid-write

    second = DeadLetterLog()
    second.append(_record(fingerprint="b" * 64))
    second.save(path)

    # the torn line is gone, both complete records survive, no tmp left
    assert not path.with_name(path.name + ".tmp").exists()
    raw = path.read_text()
    assert raw.endswith("\n")
    assert '"pipeline": "cli' + "\n" not in raw
    fingerprints = [r.input_fingerprint for r in DeadLetterLog.load(path)]
    assert fingerprints == ["a" * 64, "b" * 64]


def test_save_keeps_foreign_envelope_rows(tmp_path):
    """Rows written by other layers into the same ledger file survive a save."""
    path = tmp_path / DEAD_LETTER_NAME
    log = DeadLetterLog()
    log.append(_record())
    log.save(path)
    with open(path, "a") as fh:
        fh.write('{"type": "metric", "name": "not-a-dead-letter"}\n')
    DeadLetterLog().save(path)  # an empty append leaves them in place
    assert '"not-a-dead-letter"' in path.read_text()
    assert len(DeadLetterLog.load(path)) == 1


def test_from_dict_defaults_and_kind_coercion():
    blob = _record().to_dict()
    blob.pop("action")
    blob.pop("timestamp")
    rebuilt = DeadLetterRecord.from_dict(blob)
    assert rebuilt.action == "failed"
    assert rebuilt.timestamp == 0.0
    assert rebuilt.fault_kind is FaultKind.TRANSIENT


def test_from_dict_rejects_unknown_fault_kind():
    blob = _record().to_dict()
    blob["fault_kind"] = "gremlins"
    with pytest.raises(ValueError):
        DeadLetterRecord.from_dict(blob)
