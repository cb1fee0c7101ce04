"""Self-tests of the readiness benchmark harness, at tiny sizes.

Run with ``python -m pytest benchmarks/readiness/tests`` (tier-1's
``testpaths`` does not collect them).
"""

import json
import os
import re
from pathlib import Path

import pytest

import child
import run
import spans
import workloads

SPEC = json.loads((Path(__file__).resolve().parents[3] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture
def tiny(monkeypatch):
    """A fusion workload and layer inputs small enough to run in a test."""
    monkeypatch.setitem(
        workloads.WORKLOADS, "tiny",
        workloads.Workload("tiny", "archetype", "fusion", {"n_shots": 6}, reps=3, records=0, why="test"),
    )
    monkeypatch.setitem(workloads.ABLATION_SOURCE, "quick", {"n_timesteps": 24})
    monkeypatch.setitem(workloads.PROBE_SIZES, "quick", {
        "shard_mib": 1, "commits": 20, "dispatch_tasks": 20, "ipc_tasks": 2, "fingerprint_mib": 1,
        "records": 50, "spans": 50, "regrid_fields": 4, "normalize_rows": 100,
        "encode_tokens": 100, "seal_mib": 1,
    })
    return "tiny"


def run_tiny(tmp_path, name, *extra):
    result = tmp_path / "result.json"
    code = child.main([
        "--workload", name, "--seed", "7", "--seconds", "0.01", "--workdir", str(tmp_path / "work"),
        "--result", str(result), *extra,
    ])
    assert code == 0
    return json.loads(result.read_text())


def test_benchmark_json_matches_the_definitions():
    assert SPEC["paths"] == ["benchmarks/readiness"]
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == list(workloads.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(workloads.PER_LAYER)
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in SPEC[key]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert all(w.reps % 2 == 1 for w in workloads.WORKLOADS.values())


def test_every_metric_is_reported_with_its_unit(tiny, tmp_path):
    original = os.fsync, os.replace
    plain = run.summarize(run_tiny(tmp_path / "a", tiny))
    traced = run_tiny(tmp_path / "b", tiny, "--trace", "1", "--sections", "reps,ablation,probes")
    assert plain["failed_fraction"] == 0.0
    for metric in SPEC["end_to_end"]:
        assert plain["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert plain["metrics"][metric["name"]]["value"] > 0
    layers = run.layer_metrics(traced)
    for metric in SPEC["per_layer"]:
        assert layers[metric["name"]]["unit"] == metric["unit"]
    # the traced run is accounted for: stages + runner overhead + post-run = rep
    reps = [s for s in traced["spans"] if s["name"] == "rep"]
    assert reps and all(s["workload"] == tiny for s in traced["spans"])
    for rep in reps:
        inside = [s for s in traced["spans"] if s["parent"] == rep["id"] and not s["name"].startswith("os.")]
        covered = sum(s["end"] - s["start"] for s in inside)
        assert covered == pytest.approx(rep["end"] - rep["start"], rel=0.02)
    # interposition is gone once the traced run ends, and the work dir with it
    assert (os.fsync, os.replace) == original
    assert not (tmp_path / "b" / "work").exists()


def test_seed_reaches_the_source_config(tmp_path):
    import adapter

    def source_digest(seed, where):
        adapter.synthesize("fusion", seed, tmp_path / where, {"n_shots": 3})
        return child.tree_digest(tmp_path / where)

    assert source_digest(1, "a") == source_digest(1, "b")
    assert source_digest(1, "a") != source_digest(2, "c")


def test_failing_workload_counts_every_rep_and_exits_nonzero(monkeypatch, tmp_path, capsys):
    def boom(index, recorder):
        raise RuntimeError("stub workload")

    reps = child.measure(boom, {"records": 1, "digest": "x"}, reps=3, seconds=None, recorder=None)
    result = {"reps": reps, "input_bytes": 1, "setup_s": 1.0, "peak_rss_mb": 1.0}
    summary = run.summarize(result)
    assert summary["failed_fraction"] == 1.0 and summary["attempted"] == 3
    monkeypatch.setattr(run, "run_child", lambda *a, **k: result)
    assert run.main(["--workload", "bio_secure", "--workdir-root", str(tmp_path / "w")]) != 0
    assert "stub workload" in capsys.readouterr().out
    # a child that died without a result is a failure too
    assert run.summarize(None)["failed_fraction"] == 1.0


def test_wrong_output_is_a_failed_rep():
    good = {"records": 5, "digest": "d", "wall_s": 1.0, "cpu_s": 1.0, "traced": False, "layer": {}}
    reps = child.measure(lambda i, r: dict(good, records=5 if i else 4), dict(good),
                         reps=3, seconds=None, recorder=None)
    assert [r["ok"] for r in reps] == [False, True, True]


def test_self_time_is_parent_minus_covered_children():
    def span(i, start, end, parent):
        return {"id": i, "name": f"s{i}", "start": start, "end": end, "parent": parent}

    tree = [
        span(0, 0.0, 10.0, None),
        span(1, 1.0, 4.0, 0),
        span(2, 3.0, 6.0, 0),    # overlaps span 1: the union 1..6 is covered once
        span(3, 9.0, 12.0, 0),   # sticks out of the parent: clipped at 10
        span(4, 1.5, 2.0, 1),
    ]
    own = spans.self_times(tree)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[1] == pytest.approx(3.0 - 0.5)
    assert own[2] == pytest.approx(3.0)
    assert own[4] == pytest.approx(0.5)


def test_os_tap_counts_and_restores_even_on_error(tmp_path):
    original = os.fsync, os.replace
    (tmp_path / "a").write_text("x")
    with pytest.raises(RuntimeError):
        with spans.OsTap() as tap:
            os.replace(tmp_path / "a", tmp_path / "b")
            with open(tmp_path / "b") as fh:
                os.fsync(fh.fileno())
            raise RuntimeError("body failed")
    assert [name for name, _, _ in tap.calls] == ["replace", "fsync"]
    assert (os.fsync, os.replace) == original
