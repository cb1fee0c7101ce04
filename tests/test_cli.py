"""CLI surface: every subcommand runs and produces the expected artifact."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_validates_domain(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "astro", "--workdir", "/tmp/x"])

    def test_crosswalk_validates_level(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["crosswalk", "9"])


class TestCommands:
    def test_matrix(self, capsys):
        assert main(["matrix"]) == 0
        out = capsys.readouterr().out
        assert "1 - Raw" in out and "(n/a)" in out

    def test_archetypes(self, capsys):
        assert main(["archetypes"]) == 0
        out = capsys.readouterr().out
        assert "download -> regrid" in out
        assert "cross-cutting challenges" in out

    def test_templates_list(self, capsys):
        assert main(["templates"]) == 0
        out = capsys.readouterr().out
        assert "climate" in out and "materials" in out

    def test_templates_single(self, capsys):
        assert main(["templates", "bio"]) == 0
        out = capsys.readouterr().out
        assert "# Preprocessing template: bio" in out
        assert "anonymize" in out

    def test_crosswalk(self, capsys):
        assert main(["crosswalk", "3"]) == 0
        out = capsys.readouterr().out
        assert "provisional" in out
        assert "[ ] deployment-readiness" in out

    def test_run_and_inspect(self, tmp_path, capsys):
        assert main(["run", "materials", "--workdir", str(tmp_path), "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "Data Readiness Level: 5 / 5" in out
        assert "detected challenges" in out
        assert main(["inspect", str(tmp_path / "shards")]) == 0
        out = capsys.readouterr().out
        assert "checksums: OK" in out
        assert "materials-graph-descriptors" in out

    def test_inspect_missing_directory(self, tmp_path, capsys):
        assert main(["inspect", str(tmp_path / "nope")]) == 1
        assert "error" in capsys.readouterr().err

    def test_inspect_detects_corruption(self, tmp_path, capsys):
        assert main(["run", "materials", "--workdir", str(tmp_path)]) == 0
        capsys.readouterr()
        shard_dir = tmp_path / "shards"
        victim = next(shard_dir.glob("train-*.rps"))
        raw = bytearray(victim.read_bytes())
        raw[-1] ^= 0xFF
        victim.write_bytes(bytes(raw))
        assert main(["inspect", str(shard_dir)]) == 1
        assert "FAILED" in capsys.readouterr().err


class TestTelemetryCommands:
    """run --workdir DIR --trace plus the telemetry subcommand."""

    @pytest.fixture(scope="class")
    def traced_run(self, tmp_path_factory):
        """One checkpointed, traced, gated climate run filed in a store,
        shared by every telemetry CLI test; it runs from inside its base
        directory, so a relative path it wrote would land there too."""
        import os

        base = tmp_path_factory.mktemp("traced")
        work, store = base / "work", base / "store"
        cwd = os.getcwd()
        os.chdir(base)
        try:
            code = main([
                "run", "climate", "--workdir", str(work), "--store-dir", str(store),
                "--checkpoint", "--trace", "--gates", "quarantine",
                "--inject-bad-records", "1",
            ])
        finally:
            os.chdir(cwd)
        return code, work, work / "events.jsonl"

    def test_run_writes_only_its_run_directory_and_store(self, traced_run, capsys):
        code, work, _ = traced_run
        assert code == 0
        base, store = work.parent, work.parent / "store"
        assert sorted(p.name for p in base.iterdir()) == ["store", "work"]
        assert sorted(p.name for p in work.iterdir()) == [
            "ckpt", "events.jsonl", "metrics.jsonl", "shards", "source", "spans.jsonl",
        ]
        assert (work / "ckpt" / "journal.jsonl").exists()
        assert sorted(p.name for p in store.iterdir()) == [
            "ledger.jsonl", "quarantine.jsonl", "records",
        ]
        capsys.readouterr()
        assert main(["quarantine", "list", str(store)]) == 0
        assert "climate" in capsys.readouterr().out
        assert main(["runs", "list", str(store)]) == 0
        assert "degraded" in capsys.readouterr().out

    def test_run_with_trace_dir_writes_jsonl_trace(self, traced_run, capsys):
        code, trace_dir, _ = traced_run
        assert code == 0
        from repro.obs import SCHEMA_VERSION, read_trace

        trace = read_trace(trace_dir)
        assert trace["spans"] and trace["metrics"] and trace["events"]
        for record in trace["spans"] + trace["metrics"] + trace["events"]:
            assert record["schema"] == SCHEMA_VERSION
        span_names = {s["name"] for s in trace["spans"]}
        assert "run:climate" in span_names
        assert any(name.startswith("stage:") for name in span_names)

    def test_run_events_jsonl_reuses_the_sink_schema(self, traced_run):
        _, _, events_path = traced_run
        from repro.obs import SCHEMA_VERSION, read_jsonl

        events = read_jsonl(events_path)
        assert events
        assert all(e["schema"] == SCHEMA_VERSION for e in events)
        assert all(e["type"] == "event" for e in events)
        assert events[0]["kind"] == "run-started"
        assert events[-1]["kind"] == "run-completed"

    def test_run_prints_summary_table(self, tmp_path, capsys):
        assert main(["run", "climate", "--workdir", str(tmp_path / "w")]) == 0
        out = capsys.readouterr().out
        assert "(total)" in out
        assert "items/s" in out
        assert "canonical" in out

    def test_telemetry_summary_renders_span_groups(self, traced_run, capsys):
        _, trace_dir, _ = traced_run
        capsys.readouterr()
        assert main(["telemetry", "summary", str(trace_dir)]) == 0
        out = capsys.readouterr().out
        assert "run:climate" in out
        assert "total s" in out
        assert "slowest span groups" in out

    def test_telemetry_summary_top_limits_rows(self, traced_run, capsys):
        _, trace_dir, _ = traced_run
        capsys.readouterr()
        assert main(["telemetry", "summary", str(trace_dir), "--top", "1"]) == 0
        out = capsys.readouterr().out
        # header + exactly one data row in the span table
        table_lines = [line for line in out.splitlines() if line.startswith(("run:", "stage:", "backend."))]
        assert len(table_lines) == 1

    def test_telemetry_summary_missing_dir_fails_with_hint(self, tmp_path, capsys):
        assert main(["telemetry", "summary", str(tmp_path / "nothing")]) == 1
        err = capsys.readouterr().err
        assert "does not exist" in err
        assert "--trace" in err  # tells the user how to produce one

    def test_telemetry_summary_empty_dir_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["telemetry", "summary", str(empty)]) == 1
        assert "no spans" in capsys.readouterr().err

    def test_telemetry_export_merges_one_stream(self, traced_run, tmp_path, capsys):
        _, trace_dir, _ = traced_run
        out_path = tmp_path / "combined.jsonl"
        capsys.readouterr()
        assert main(["telemetry", "export", str(trace_dir), "--jsonl", str(out_path)]) == 0
        from repro.obs import read_jsonl, read_trace

        combined = read_jsonl(out_path)
        trace = read_trace(trace_dir)
        expected = len(trace["spans"]) + len(trace["metrics"]) + len(trace["events"])
        assert len(combined) == expected
        assert {r["type"] for r in combined} == {"span", "metric", "event"}

    def test_telemetry_export_missing_dir_fails_with_hint(self, tmp_path, capsys):
        out_path = tmp_path / "combined.jsonl"
        assert main(["telemetry", "export", str(tmp_path / "none"), "--jsonl", str(out_path)]) == 1
        assert "does not exist" in capsys.readouterr().err

    def test_telemetry_export_empty_dir_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        out_path = tmp_path / "combined.jsonl"
        assert main(["telemetry", "export", str(empty), "--jsonl", str(out_path)]) == 1
        assert "no telemetry records" in capsys.readouterr().err

    def test_telemetry_export_requires_a_format(self, traced_run, capsys):
        _, trace_dir, _ = traced_run
        capsys.readouterr()
        assert main(["telemetry", "export", str(trace_dir)]) == 2
        assert "--jsonl" in capsys.readouterr().err

    def test_telemetry_export_chrome_and_prometheus(self, traced_run, tmp_path, capsys):
        _, trace_dir, _ = traced_run
        chrome = tmp_path / "trace.chrome.json"
        prom = tmp_path / "metrics.prom"
        capsys.readouterr()
        assert main([
            "telemetry", "export", str(trace_dir),
            "--chrome", str(chrome), "--prom", str(prom),
        ]) == 0
        import json

        doc = json.loads(chrome.read_text())
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert xs and all(
            isinstance(e["ts"], (int, float)) and isinstance(e["dur"], (int, float))
            for e in xs
        )
        text = prom.read_text()
        assert "# TYPE" in text and "stage_seconds_bucket" in text


class TestAnalyticsCLI:
    """telemetry critical-path / diff plus the runs ledger commands."""

    @pytest.fixture(scope="class")
    def archived_run(self, tmp_path_factory):
        """One traced climate run filed in a ledger, shared by the analytics
        tests."""
        base = tmp_path_factory.mktemp("analytics")
        trace_dir = base / "work"
        store = base / "store"
        code = main([
            "run", "climate",
            "--workdir", str(trace_dir),
            "--trace",
            "--store-dir", str(store),
        ])
        return code, trace_dir, store

    def test_critical_path_renders(self, archived_run, capsys):
        code, trace_dir, _ = archived_run
        assert code == 0
        capsys.readouterr()
        assert main(["telemetry", "critical-path", str(trace_dir)]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "run:climate" in out
        assert "stage rollups" in out

    def test_critical_path_json_is_deterministic(self, archived_run, capsys):
        _, trace_dir, _ = archived_run
        capsys.readouterr()
        assert main(["telemetry", "critical-path", str(trace_dir), "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["telemetry", "critical-path", str(trace_dir), "--json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        import json

        report = json.loads(first)
        assert report["pipeline"] == "climate"
        assert report["critical_path"]

    def test_critical_path_missing_dir_fails(self, tmp_path, capsys):
        assert main(["telemetry", "critical-path", str(tmp_path / "no")]) == 1
        assert "does not exist" in capsys.readouterr().err

    @staticmethod
    def _ledger_with_history(archived_run, directory, scale):
        """``telemetry diff`` argv for the archived run against a ledger under
        *directory* that holds its row after an earlier run of its store key
        whose every stage took *scale* times as long."""
        import dataclasses

        from repro.obs import read_trace, trace_stage_seconds
        from repro.sched import Ledger

        _, trace_dir, store = archived_run
        current = trace_stage_seconds(read_trace(trace_dir)["metrics"])
        own = next(r for r in Ledger(store).rows() if r.stage_seconds() == current)
        ledger = Ledger(directory)
        ledger.append(dataclasses.replace(
            own, stages=tuple((name, s * scale, items) for name, s, items in own.stages)
        ))
        ledger.append(own)
        return ["telemetry", "diff", str(trace_dir), "--store-dir", str(ledger.directory)]

    def test_diff_output_is_deterministic(self, archived_run, tmp_path, capsys):
        diff = self._ledger_with_history(archived_run, tmp_path / "store", 1.1)
        capsys.readouterr()
        outs = []
        for _ in range(2):
            assert main(diff + ["--json"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_diff_fail_on_regress_gates(self, archived_run, tmp_path, capsys):
        # a history that claims every stage used to be ~instant
        diff = self._ledger_with_history(archived_run, tmp_path / "store", 1e-9)
        assert main(diff) == 0  # informational by default
        assert "REGRESSED" in capsys.readouterr().out
        assert main(diff + ["--fail-on-regress"]) == 3

    def test_diff_missing_dir_fails(self, tmp_path, capsys):
        assert main([
            "telemetry", "diff", str(tmp_path / "no"),
            "--store-dir", str(tmp_path / "store"),
        ]) == 1
        assert "does not exist" in capsys.readouterr().err

    def test_runs_list_and_show(self, archived_run, capsys):
        code, _, store = archived_run
        assert code == 0
        capsys.readouterr()
        assert main(["runs", "list", str(store)]) == 0
        out = capsys.readouterr().out
        assert "climate" in out
        assert "run id" in out
        run_id = next(
            line.split()[0] for line in out.splitlines()
            if line.strip() and "climate" in line
        )
        assert main(["runs", "show", str(store), run_id[:8]]) == 0
        import json

        record = json.loads(capsys.readouterr().out)
        assert record["pipeline"] == "climate"
        assert record["id"].startswith(run_id[:8])

    def test_runs_list_empty_root_fails(self, tmp_path, capsys):
        assert main(["runs", "list", str(tmp_path / "none")]) == 1
        assert "no runs in" in capsys.readouterr().err

    def test_runs_show_unknown_id_fails(self, archived_run, tmp_path, capsys):
        from repro.sched import CandidateConfig, Ledger, LedgerRow, StoreKey

        _, _, store = archived_run
        capsys.readouterr()
        assert main(["runs", "show", str(store), "ffffffff"]) == 1
        assert "error" in capsys.readouterr().err
        # ... and so is a prefix two runs share
        for seconds in (1.0, 2.0):
            Ledger(tmp_path / "two").append(LedgerRow(
                key=StoreKey("p", 1, 1), config=CandidateConfig("serial", 1, 0),
                status="ok", stages=(("s", seconds, 1),),
            ))
        assert main(["runs", "show", str(tmp_path / "two"), ""]) == 1
        assert "ambiguous" in capsys.readouterr().err

    def test_run_with_progress_and_archive(self, tmp_path, capsys):
        assert main([
            "run", "materials",
            "--workdir", str(tmp_path / "work"),
            "--progress",
            "--store-dir", str(tmp_path / "store"),
        ]) == 0
        captured = capsys.readouterr()
        assert "run filed in" in captured.out
        assert (tmp_path / "store" / "ledger.jsonl").exists()

    def test_diff_against_ledger_history(self, archived_run, tmp_path, capsys):
        """File a second run, then diff the first trace against the ledger:
        the first run's own row is not its history."""
        import json

        _, trace_dir, store = archived_run
        assert main([
            "run", "climate",
            "--workdir", str(tmp_path / "work2"),
            "--seed", "5",
            "--store-dir", str(store),
        ]) == 0
        capsys.readouterr()
        assert main([
            "telemetry", "diff", str(trace_dir), "--store-dir", str(store), "--json",
        ]) == 0
        assert json.loads(capsys.readouterr().out)["n_history"] == 1

    def test_diff_against_ledger_compares_only_the_runs_store_key(
        self, archived_run, tmp_path, capsys
    ):
        """Rows of another size bucket in the same store are not history,
        and a run with no row of its own in the store is an error."""
        import dataclasses
        import json

        from repro.obs import read_trace, trace_stage_seconds
        from repro.sched import Ledger

        _, trace_dir, store = archived_run
        current = trace_stage_seconds(read_trace(trace_dir)["metrics"])
        own = next(r for r in Ledger(store).rows() if r.stage_seconds() == current)
        ledger = Ledger(tmp_path / "store")
        ledger.append(own)
        for bucket, scale in ((own.key.size_bucket, 1.5), (own.key.size_bucket + 3, 9.0),
                              (own.key.size_bucket + 3, 11.0)):
            ledger.append(dataclasses.replace(
                own,
                key=dataclasses.replace(own.key, size_bucket=bucket),
                stages=tuple((name, seconds * scale, items) for name, seconds, items in own.stages),
            ))
        capsys.readouterr()
        assert main([
            "telemetry", "diff", str(trace_dir), "--store-dir", str(ledger.directory), "--json",
        ]) == 0
        assert json.loads(capsys.readouterr().out)["n_history"] == 1

        others = Ledger(tmp_path / "others")
        for row in ledger.rows()[1:]:
            others.append(row)
        assert main([
            "telemetry", "diff", str(trace_dir), "--store-dir", str(others.directory),
        ]) == 1
        err = capsys.readouterr().err
        assert "no row" in err and str(others.directory) in err


class TestFaultToleranceCLI:
    """run --retries/--inject-faults plus the fault counters in telemetry."""

    @pytest.fixture
    def chaos_run(self, tmp_path, capsys):
        trace_dir = tmp_path / "work"
        code = main([
            "run", "climate",
            "--workdir", str(trace_dir),
            "--seed", "3",
            "--retries", "3",
            "--inject-faults", "seed=7,rate=0.05,torn-shards=1",
            "--trace",
        ])
        return code, capsys.readouterr().out, trace_dir

    def test_chaos_run_completes_and_reports(self, chaos_run):
        code, out, _ = chaos_run
        assert code == 0
        assert "fault tolerance" in out
        assert "fault injector (seed=7):" in out
        assert "retries spent:" in out
        assert "never fired" not in out  # everything scheduled fired

    def test_scheduled_points_that_never_fired_are_named(self, tmp_path, capsys):
        code = main([
            "run", "materials", "--workdir", str(tmp_path), "--retries", "2",
            "--inject-faults", "eio=manifest:0+manifest:7,crash-at=stage:9:post",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fault injector (seed=0): disk-eio=1\n" in out
        assert "scheduled but never fired: eio=manifest:7, crash-at=stage:9:post\n" in out

    def test_fault_counters_reach_telemetry_summary(self, chaos_run, capsys):
        _, _, trace_dir = chaos_run
        assert main(["telemetry", "summary", str(trace_dir)]) == 0
        out = capsys.readouterr().out
        assert "fault tolerance counters:" in out
        assert "faults_injected_total" in out

    def test_bad_inject_spec_is_a_usage_error(self, tmp_path, capsys):
        code = main([
            "run", "materials", "--workdir", str(tmp_path),
            "--inject-faults", "bogus=1",
        ])
        assert code == 2
        assert "--inject-faults" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, message", [
        ("poison-site=mapp#0[3]", "poison site must look like"),
        ("crash-kill=1", "crash-kill needs a crash-at"),
        ("eio=3", "disk fault operand must be site:N, got '3'; known sites: audit, checkpoint"),
    ])
    def test_a_spec_that_could_never_fire_is_a_usage_error(self, spec, message, tmp_path, capsys):
        code = main(["run", "materials", "--workdir", str(tmp_path), "--inject-faults", spec])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_negative_retries_is_a_usage_error(self, tmp_path, capsys):
        code = main([
            "run", "materials", "--workdir", str(tmp_path), "--retries", "-1",
        ])
        assert code == 2
        assert "--retries" in capsys.readouterr().err


class TestPlanCLI:
    def _feed(self, tmp_path, *extra):
        """One fixed materials run recording into the store under tmp_path."""
        work = tmp_path / ("w" + "-".join(extra))
        assert main(["run", "materials", "--workdir", str(work),
                     "--store-dir", str(tmp_path / "store"), *extra]) == 0

    def test_plan_explain_ranks_candidates(self, tmp_path, capsys):
        self._feed(tmp_path)
        self._feed(tmp_path, "--backend", "threaded", "--workers", "2")
        capsys.readouterr()
        assert main([
            "plan", "explain", "materials", "--workdir", str(tmp_path / "explain"),
            "--store-dir", str(tmp_path / "store"), "--top", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "store key: pipeline 'materials' on" in out
        table = out.split("measured configurations")[1]
        assert " serial " in table and " threaded " in table
        assert table.count("->") == 1  # the pick is marked
        assert "auto: " in out
        assert "decision hash:" in out

    def test_plan_explain_leaves_nothing_behind(self, tmp_path, capsys, monkeypatch):
        import tempfile

        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setenv("TMPDIR", str(scratch))
        monkeypatch.setattr(tempfile, "tempdir", None)
        assert main(["plan", "explain", "materials",
                     "--store-dir", str(tmp_path / "store")]) == 0
        assert "fallback: serialx1/batch0" in capsys.readouterr().out
        # the synthesized source went, and reading the store created nothing
        assert list(scratch.iterdir()) == []
        assert not (tmp_path / "store").exists()

    def test_run_plan_auto_embeds_decision(self, tmp_path, capsys):
        self._feed(tmp_path)
        assert main([
            "run", "materials", "--workdir", str(tmp_path / "run"),
            "--plan", "auto", "--store-dir", str(tmp_path / "store"),
        ]) == 0
        out = capsys.readouterr().out
        assert "schedule decision" in out
        assert "prediction error" in out
        assert "run filed in" in out
        import json

        manifest = json.loads(
            (tmp_path / "run" / "shards" / "manifest.json").read_text()
        )
        assert manifest["metadata"]["schedule_decision"]["mode"] == "auto"
        assert len((tmp_path / "store" / "ledger.jsonl").read_text().splitlines()) == 2

    @pytest.mark.parametrize("override", [
        ["--backend", "serial"],
        ["--backend", "threaded", "--workers", "2"],
        ["--batch-size", "64"],
    ], ids=["backend", "workers", "batch_size"])
    def test_explicit_backend_under_auto_is_a_usage_error(self, tmp_path, capsys, override):
        code = main(["run", "materials", "--workdir", str(tmp_path), "--plan", "auto",
                     *override])
        assert code == 2
        assert "--plan auto picks the backend" in capsys.readouterr().err
        assert not (tmp_path / "shards").exists()


class TestProcessBackendCLI:
    """--backend process / --workers plus the capability-aware listings."""

    def test_backends_lists_capability_columns(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "preemptive timeout" in out
        assert "survives worker crash" in out
        for name in ("serial", "threaded", "simspmd", "process"):
            assert name in out
        process_row = next(
            line for line in out.splitlines() if line.startswith("process")
        )
        assert process_row.count("yes") == 2
        serial_row = next(
            line for line in out.splitlines() if line.startswith("serial")
        )
        assert "yes" not in serial_row

    def test_run_on_process_backend_with_workers(self, tmp_path, capsys):
        assert main([
            "run", "materials", "--workdir", str(tmp_path),
            "--backend", "process", "--workers", "2", "--seed", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "on the process (width 2) backend" in out
        assert "Data Readiness Level: 5 / 5" in out

    def test_chaos_run_reports_worker_supervision(self, tmp_path, capsys):
        assert main([
            "run", "climate",
            "--workdir", str(tmp_path),
            "--seed", "3",
            "--backend", "process", "--workers", "3",
            "--inject-faults", "seed=3,kill-rate=0.2",
            "--retries", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "worker supervision" in out
        assert "tasks_requeued=" in out
        assert "worker_restarts=" in out
        assert "dead-worker" in out  # per-crash lines ride along

    def test_workers_without_backend_is_a_usage_error(self, tmp_path, capsys):
        code = main(["run", "materials", "--workdir", str(tmp_path),
                     "--workers", "4"])
        assert code == 2
        assert "--workers requires --backend" in capsys.readouterr().err

    def test_workers_without_backend_is_a_usage_error_under_auto_too(
        self, tmp_path, capsys
    ):
        # the chooser picks its own width: a bare --workers used to be
        # silently ignored under --plan auto
        code = main(["run", "materials", "--workdir", str(tmp_path),
                     "--plan", "auto", "--workers", "7"])
        assert code == 2
        assert "--workers requires --backend" in capsys.readouterr().err
        assert not (tmp_path / "shards").exists()

    def test_workers_on_serial_is_a_usage_error(self, tmp_path, capsys):
        code = main(["run", "materials", "--workdir", str(tmp_path),
                     "--backend", "serial", "--workers", "4"])
        assert code == 2
        assert "not supported" in capsys.readouterr().err

    def test_stage_timeout_warns_when_not_preemptive(self, tmp_path, capsys):
        assert main([
            "run", "materials", "--workdir", str(tmp_path),
            "--backend", "threaded", "--stage-timeout", "60",
        ]) == 0
        err = capsys.readouterr().err
        assert "enforced post-hoc only" in err
        assert "--backend process" in err

    def test_stage_timeout_on_process_does_not_warn(self, tmp_path, capsys):
        assert main([
            "run", "materials", "--workdir", str(tmp_path),
            "--backend", "process", "--stage-timeout", "60",
        ]) == 0
        assert "post-hoc" not in capsys.readouterr().err

    def test_unenforceable_timeout_noted_in_fault_report(self, tmp_path, capsys):
        assert main([
            "run", "materials", "--workdir", str(tmp_path),
            "--backend", "threaded", "--stage-timeout", "60",
        ]) == 0
        out = capsys.readouterr().out
        assert "fault tolerance" in out
        assert "note:" in out and "cannot preempt" in out
