"""The measured choice: candidates, medians, tie-break, fallback, replay."""

import json

import pytest

from repro.core.backends import SerialBackend, SimSPMDBackend, ThreadedBackend
from repro.workers import ProcessBackend
from repro.sched import (
    FIXED_DEFAULT,
    CandidateConfig,
    Ledger,
    LedgerRow,
    ScheduleDecision,
    StoreKey,
    build_backend,
    choose_config,
)

KEY = StoreKey("demo", 2, 22)
STAGES = ("ingest", "map", "write")
SERIAL = CandidateConfig("serial", 1, 0)
THREADED = CandidateConfig("threaded", 2, 0)
SIMSPMD = CandidateConfig("simspmd", 2, 0)
PROCESS = CandidateConfig("process", 2, 0)


@pytest.fixture
def store(tmp_path):
    return Ledger(tmp_path / "store")


def _feed(store, config, *runs, key=KEY, stages=STAGES):
    """One ledger row per run; a run is one number (every stage took that
    long) or a tuple of per-stage seconds.  Rows are content-addressed, so
    a repeated run counts once."""
    for run in runs:
        seconds = run if isinstance(run, tuple) else (run,) * len(stages)
        store.append(LedgerRow(key=key, config=config, status="ok",
                               stages=tuple((s, sec, 1) for s, sec in zip(stages, seconds))))
    return store


def test_empty_store_equals_no_store(store):
    """A cold store and no store both run the fixed default, byte-identically."""
    bare = choose_config(KEY, STAGES, None)
    cold = choose_config(KEY, STAGES, store)
    assert bare.content_hash() == cold.content_hash()
    assert bare.mode == "fallback"
    assert bare.candidates == () and bare.predicted_stage_seconds == ()


def test_cold_store_falls_back_to_the_fixed_default(store):
    decision = choose_config(KEY, STAGES, store)
    assert decision.mode == "fallback"
    assert decision.chosen == FIXED_DEFAULT == CandidateConfig("serial", 1, 0)
    assert KEY.label() in decision.reason
    assert isinstance(build_backend(decision.chosen), SerialBackend)


def test_chooses_predicted_fastest_feasible(store):
    """The pick is the lowest sum of per-stage medians (not means)."""
    # serial's means are dragged up by one slow run; its medians are 1.0
    _feed(store, SERIAL, 0.9, 1.0, 9.0)
    _feed(store, THREADED, 1.4, 1.5, 1.6)
    _feed(store, PROCESS, (0.5, 2.0, 2.0))
    decision = choose_config(KEY, STAGES, store)
    assert decision.mode == "auto"
    assert decision.chosen == SERIAL
    assert decision.predicted_seconds == 3.0
    assert decision.stage_predictions() == {"ingest": 1.0, "map": 1.0, "write": 1.0}
    ranked = [(c.config, c.predicted_seconds, c.runs) for c in decision.candidates]
    # threaded and process tie at 4.5: the config tuple orders them
    assert ranked == [(SERIAL, 3.0, 3), (PROCESS, 4.5, 1), (THREADED, 4.5, 3)]


def test_ties_break_on_the_config_tuple(store):
    for config in (SIMSPMD, THREADED, CandidateConfig("threaded", 2, 64), PROCESS):
        _feed(store, config, 1.0)
    decision = choose_config(KEY, STAGES, store)
    assert decision.chosen == PROCESS  # "process" < "simspmd" < "threaded"
    assert [c.config for c in decision.candidates] == [
        PROCESS, SIMSPMD, THREADED, CandidateConfig("threaded", 2, 64),
    ]


def test_config_missing_a_stage_is_not_a_candidate(store):
    _feed(store, SERIAL, 1.0)
    _feed(store, THREADED, 0.1, stages=STAGES[:2])  # never reached "write"
    decision = choose_config(KEY, STAGES, store)
    assert [c.config for c in decision.candidates] == [SERIAL]
    assert decision.chosen == SERIAL


def test_other_cpu_count_or_size_bucket_is_not_a_candidate(store):
    _feed(store, THREADED, 0.1, key=StoreKey("demo", 8, 22))
    _feed(store, SIMSPMD, 0.1, key=StoreKey("demo", 2, 23))
    _feed(store, PROCESS, 0.1, key=StoreKey("other", 2, 22))
    assert choose_config(KEY, STAGES, store).mode == "fallback"
    _feed(store, SERIAL, 1.0)
    decision = choose_config(KEY, STAGES, store)
    assert [c.config for c in decision.candidates] == [SERIAL]


def test_process_is_picked_only_when_measured_fastest(store):
    _feed(store, SERIAL, 1.0, 1.1, 0.9)
    _feed(store, PROCESS, 1.4, 1.3, 1.5)
    assert choose_config(KEY, STAGES, store).chosen == SERIAL
    _feed(store, PROCESS, 0.2, 0.21, 0.22, 0.23)  # now its medians win
    assert choose_config(KEY, STAGES, store).chosen == PROCESS


def test_decision_is_byte_deterministic(tmp_path):
    """The same runs, fed in any order, give byte-identical decisions."""
    runs = {SERIAL: (1.0, 1.2, 0.9), THREADED: (0.8, 1.1, 1.3), PROCESS: (2.0, 1.9, 2.2)}
    blobs = set()
    for n, order in enumerate((list(runs), list(reversed(list(runs))))):
        store = Ledger(tmp_path / str(n))
        for config in order:
            _feed(store, config, *runs[config])
        blobs.add(json.dumps(choose_config(KEY, STAGES, store).to_dict(), sort_keys=True))
    assert len(blobs) == 1


def test_calibration_changes_the_prediction(store):
    _feed(store, SERIAL, 1.0)
    before = choose_config(KEY, STAGES, store)
    _feed(store, SERIAL, 3.0, 3.5)
    after = choose_config(KEY, STAGES, store)
    assert (before.predicted_seconds, after.predicted_seconds) == (3.0, 9.0)
    assert after.content_hash() != before.content_hash()


def test_build_backend_instantiates_the_chosen_config():
    assert isinstance(build_backend(SERIAL), SerialBackend)
    threaded = build_backend(CandidateConfig("threaded", 4, 0))
    assert isinstance(threaded, ThreadedBackend) and threaded.width == 4
    spmd = build_backend(CandidateConfig("simspmd", 8, 0))
    assert isinstance(spmd, SimSPMDBackend) and spmd.width == 8
    proc = build_backend(CandidateConfig("process", 4, 256))
    assert isinstance(proc, ProcessBackend) and proc.width == 4


def test_decision_roundtrips_through_dict(store):
    _feed(store, SERIAL, 1.0, 2.0)
    _feed(store, THREADED, 0.5)
    for decision in (choose_config(KEY, STAGES, store), choose_config(KEY, STAGES, None)):
        recovered = ScheduleDecision.from_dict(decision.to_dict())
        assert recovered == decision
        assert recovered.content_hash() == decision.content_hash()


def test_render_table_marks_the_chosen_row(store):
    _feed(store, SERIAL, 1.0)
    _feed(store, THREADED, 0.5)
    decision = choose_config(KEY, STAGES, store)
    table = decision.render_table(top=1)
    assert "->" in table and "threaded" in table and "serial" not in table
