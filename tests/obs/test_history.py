"""The ledger as a run archive, and cross-run diffing."""

import json

import pytest

from repro.obs.history import diff_stage_seconds, regression_limit
from repro.sched import CandidateConfig, Ledger, LedgerRow, StoreKey



class TestRegressionLimit:
    def test_single_sample_degrades_to_tolerance_plus_floor(self):
        # one measurement: MAD is zero, so the limit is the relative
        # floor (25 %) or the absolute one (5 ms), whichever is wider
        center, limit = regression_limit([2.0])
        assert center == 2.0
        assert limit == pytest.approx(2.5)
        center, limit = regression_limit([0.001])
        assert limit == pytest.approx(0.006)

    def test_mad_band_widens_with_spread(self):
        tight = regression_limit([1.0, 1.01, 0.99, 1.0])[1]
        loose = regression_limit([1.0, 1.5, 0.5, 1.0])[1]
        assert loose > tight

    def test_outlier_run_does_not_widen_band(self):
        # a single cold-cache run must not stretch the limit
        _, clean = regression_limit([1.0, 1.0, 1.0, 1.0, 1.0])
        _, with_outlier = regression_limit([1.0, 1.0, 1.0, 1.0, 50.0])
        assert with_outlier == pytest.approx(clean)


class TestDiff:
    HISTORY = [
        {"a": 1.0, "b": 0.5},
        {"a": 1.1, "b": 0.5},
        {"a": 0.9, "b": 0.5},
    ]

    def test_ok_when_within_band(self):
        diff = diff_stage_seconds({"a": 1.0, "b": 0.5}, self.HISTORY)
        assert not diff.regressed
        assert {s.verdict for s in diff.stages} == {"ok"}
        for s in diff.stages:
            values = [h[s.stage] for h in self.HISTORY]
            assert s.limit == regression_limit(values)[1]

    def test_regression_flagged(self):
        diff = diff_stage_seconds({"a": 5.0, "b": 0.5}, self.HISTORY)
        assert diff.regressed
        (reg,) = diff.regressions
        assert reg.stage == "a"
        assert reg.ratio > 4

    def test_improvement_flagged(self):
        diff = diff_stage_seconds({"a": 0.1, "b": 0.5}, self.HISTORY)
        verdicts = {s.stage: s.verdict for s in diff.stages}
        assert verdicts["a"] == "improved"

    def test_new_and_missing_stages(self):
        diff = diff_stage_seconds({"a": 1.0, "c": 2.0}, self.HISTORY)
        verdicts = {s.stage: s.verdict for s in diff.stages}
        assert verdicts == {"a": "ok", "b": "missing", "c": "new"}
        assert not diff.regressed

    def test_render_and_dict_deterministic(self):
        diff = diff_stage_seconds({"a": 5.0}, self.HISTORY)
        assert diff.render_table() == diff.render_table()
        a = json.dumps(diff.to_dict(), sort_keys=True)
        b = json.dumps(
            diff_stage_seconds({"a": 5.0}, self.HISTORY).to_dict(), sort_keys=True
        )
        assert a == b
        assert "REGRESSED" in diff.summary()


def _row(pipeline="ana", seconds=1.0):
    return LedgerRow(key=StoreKey(pipeline, 2, 10), config=CandidateConfig("serial", 1, 0),
                     status="ok", stages=(("fan", seconds, 4), ("double", seconds, 4)))


class TestArchive:
    """The ledger as the archive of finished runs."""

    def test_archive_and_read_back(self, tmp_path):
        import numpy as np

        from repro.core.runner import PipelineRunner

        from .test_analyze import ana_plan

        run = PipelineRunner(ana_plan(4), ledger=tmp_path / "store").run(np.ones(4))
        ledger = Ledger(tmp_path / "store")
        (row,) = ledger.rows()
        assert len(row.run_id) == 64
        assert row.key.pipeline == "ana"
        assert row.stage_seconds() == {r.stage_name: r.seconds for r in run.results}
        assert ledger.get(row.run_id[:6]) == row

    def test_rearchive_is_idempotent(self, tmp_path):
        ledger = Ledger(tmp_path / "store")
        assert ledger.append(_row()) == ledger.append(_row())
        assert ledger.rows() == [_row()]

    def test_different_traces_get_different_ids(self, tmp_path):
        ledger = Ledger(tmp_path / "store")
        assert ledger.append(_row(seconds=1.0)) != ledger.append(_row(seconds=2.0))
        assert len(ledger.rows()) == 2

    def test_get_unknown_and_ambiguous(self, tmp_path):
        ledger = Ledger(tmp_path / "store")
        with pytest.raises(KeyError, match="no run"):
            ledger.get("doesnotexist")
        ledger.append(_row(seconds=1.0))
        ledger.append(_row(seconds=2.0))
        with pytest.raises(KeyError, match="ambiguous"):
            ledger.get("")  # every id matches the empty prefix

    def test_records_filter_by_pipeline(self, tmp_path):
        ledger = Ledger(tmp_path / "store")
        ledger.append(_row())
        assert len(ledger.rows("ana")) == 1
        assert ledger.rows("other") == []

    def test_record_round_trip(self):
        row = _row()
        assert LedgerRow.from_dict(json.loads(json.dumps(row.to_dict()))) == row


class TestIndexDurability:
    """The ledger survives concurrent appenders and a torn tail left by a
    crashed one."""

    def test_concurrent_archivers_interleave_whole_lines(self, tmp_path):
        import sys
        import threading

        # the last two writers append the same run: it must count once
        rows = [_row(seconds=float(i)) for i in range(6)] + [_row(seconds=0.0)]
        ledger = Ledger(tmp_path / "store")
        barrier = threading.Barrier(len(rows), timeout=10)
        errors = []

        def worker(row):
            try:
                barrier.wait()
                ledger.append(row)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(r,)) for r in rows]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        lines = ledger.path.read_text().splitlines()
        assert len(lines) == len(rows)  # every append is a whole line
        assert sorted(json.loads(line)["id"] for line in lines) == sorted(
            r.run_id for r in rows
        )
        assert sorted(r.run_id for r in ledger.rows()) == sorted({r.run_id for r in rows})

    def test_torn_index_tail_recovered_on_next_archive(self, tmp_path):
        ledger = Ledger(tmp_path / "store")
        first = ledger.append(_row(seconds=1.0))
        with open(ledger.path, "a") as fh:
            fh.write('{"type": "run", "id": "torn-by-a-crash')
        second = ledger.append(_row(seconds=2.0))
        lines = ledger.path.read_text().splitlines()
        assert [json.loads(line)["id"] for line in lines] == [first, second]
        # the reader sees both runs and no phantom third
        assert [r.run_id for r in ledger.rows()] == [first, second]

