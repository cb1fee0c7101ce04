"""One JSONL codec: the line bytes every store commits are frozen.

Each scenario writes fixed records through one JSONL-backed store (wall
clock pinned) and returns the log's path and what the store reads back
from it.  ``goldens/store-lines.json`` was generated at d92d17b — the last
commit with four hand-copied line encoders and three read loops — by
running this file as a script, so it pins the shared codec in
``repro.durability.atomic`` to the bytes each copy wrote.  Never regenerate
it to make a test pass.  (Three edits since, all of a record's content,
not its encoding: the ``journal`` scenario's ``"schema": 2`` became ``3``
when the snapshot format changed, and the ``calibration`` scenario was
re-frozen when observations became stage seconds filed by store key and
executed config.  Then both the ``calibration`` and ``run_index``
scenarios were re-frozen when both stores became the one ledger of finished runs:
each now writes ledger rows and reads them back the way the reader that
replaced its store does.)
"""

import json
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from repro.durability.journal import RunJournal
from repro.faults import DeadLetterLog, DeadLetterRecord, FaultKind
from repro.gates import QuarantineStore
from repro.governance.audit import AuditLog
from repro.provenance.record import ProvenanceRecord
from repro.provenance.store import ProvenanceStore
from repro.sched import CandidateConfig, Ledger, LedgerRow, StoreKey

GOLDEN = Path(__file__).parent / "goldens" / "store-lines.json"


def journal(root):
    log = RunJournal(root / "journal.jsonl")
    log.begin(pipeline="p", plan_fingerprint="f" * 8, backend="serial",
              payload_fingerprint="a" * 8)
    log.commit_stage(index=0, stage="ingest", input_fingerprint="a" * 8,
                     output_fingerprint="b" * 8, content_fingerprint="d" * 8,
                     artifacts={"checkpoint": "c" * 8})
    log.commit_run(output_fingerprint="b" * 8)
    return log.path, log.records()


def provenance(root):
    store = ProvenanceStore(root / "prov.jsonl")
    store.append(ProvenanceRecord(
        record_id="r1", activity="regrid", params_fingerprint="p" * 8, inputs=("a", "b"),
        output="c", agent="climate", timestamp=12.5,
        annotations={"n": 3, "où": "é", "path": Path("x/y")},
    ))
    return store.path, [record.to_dict() for record in store]


def calibration(root):
    """The planner's measurements: rows at one key, read as the chooser reads them."""
    key, log = StoreKey("p", 2, 24), Ledger(root)
    log.append(LedgerRow(key=key, config=CandidateConfig("serial", 1, 0), status="ok",
                         stages=(("regrid", 3.0, 4),)))
    log.append(LedgerRow(key=key, config=CandidateConfig("threaded", 2, 256), status="ok",
                         stages=(("stack", 0.125, 141),)))
    measured = {row.config.label(): row.stage_seconds()
                for row in Ledger(root).rows("p") if row.key == key}
    return log.path, measured


def run_index(root):
    """The runs index: two runs filed, the first twice; the reader counts it once."""
    key, log = StoreKey("p", 2, 24), Ledger(root)
    first = LedgerRow(
        key=key, config=CandidateConfig("serial", 1, 0), status="ok",
        stages=(("regrid", 3.0, 4), ("stack", 0.5, 141)), output_fingerprint="b" * 8,
        peak_rss_bytes=1 << 20,
    )
    second = LedgerRow(
        key=key, config=CandidateConfig("threaded", 2, 256), status="degraded",
        stages=(("regrid", 0.125, 4),), output_fingerprint="c" * 8, schedule_hash="d" * 8,
        certificate="degraded", peak_rss_bytes=1 << 21,
    )
    for row in (first, second, first):
        log.append(row)
    return log.path, [row.to_dict() for row in Ledger(root).rows()]


def _quarantined(root):
    store = QuarantineStore(root)
    for fingerprint in ("aa11", "bb22"):
        entry = {"pipeline": "p", "stage": "ingest", "boundary": "output",
                 "record_fingerprint": fingerprint,
                 "issues": [{"check": "finite", "column": "t", "message": "NaN"}]}
        store.add(entry, {"t": 1.0})
    return store


def quarantine(root):
    store = _quarantined(root)
    return store.path, store.entries()


def quarantine_discard(root):
    """``discard`` rewrites the file with the same line encoder."""
    store = _quarantined(root)
    store.discard(["aa11"])
    return store.path, store.entries()


def dead_letters(root):
    """Saved twice: the second save appends after the first."""
    path = root / "dead-letters.jsonl"
    for stage in ("regrid", "stack"):
        log = DeadLetterLog()
        log.append(DeadLetterRecord(
            pipeline="p", stage_name=stage, stage_index=1, attempts=3,
            error_type="OSError", error="[Errno 5] EIO", fault_kind=FaultKind.TRANSIENT,
            input_fingerprint="a" * 8, action="degraded", timestamp=7.0,
        ))
        log.save(path)
    return path, [r.to_dict() for r in DeadLetterLog.load(path).records]


def audit(root):
    path = root / "audit.jsonl"
    with mock.patch("time.time", lambda: 1000.0):
        log = AuditLog(path)
        log.record("climate", "stage-completed", "regrid", seconds=0.5, output="abc")
        log.record("enclave-admin", "authorize", "alice")
    return path, [event.to_dict() for event in AuditLog(path)]


SCENARIOS = {
    fn.__name__: fn
    for fn in (journal, provenance, calibration, quarantine, quarantine_discard,
               run_index, dead_letters, audit)
}


def committed(scenario, root):
    path, read_back = SCENARIOS[scenario](Path(root))
    return {"lines": path.read_text(), "read": json.loads(json.dumps(read_back))}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_store_commits_the_frozen_lines_and_reads_them_back(scenario, tmp_path):
    assert committed(scenario, tmp_path) == json.loads(GOLDEN.read_text())[scenario]


if __name__ == "__main__":  # regenerate the golden (parent commit only)
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(
        {name: committed(name, tempfile.mkdtemp()) for name in sorted(SCENARIOS)}, indent=1,
    ) + "\n")
