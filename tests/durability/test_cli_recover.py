"""``repro run`` crash injection and ``--recover`` at the CLI surface."""

from repro.cli import main
from tests.parity import shard_digests


class TestCrashAndRecover:
    def test_crash_exits_137_with_recovery_hint(self, tmp_path, capsys):
        code = main([
            "run", "climate", "--workdir", str(tmp_path / "wd"), "--seed", "7",
            "--checkpoint",
            "--inject-faults", "crash-at=stage:2:post",
        ])
        assert code == 137
        err = capsys.readouterr().err
        assert "simulated driver crash at stage:2:post" in err
        assert "--recover" in err
        assert (tmp_path / "wd" / "ckpt" / "journal.jsonl").exists()
        # like the SIGKILL it stands in for, the crash writes no records
        assert not (tmp_path / "wd" / "events.jsonl").exists()

    def test_recover_resumes_to_bitwise_clean_output(self, tmp_path, capsys):
        # the CI durability-chaos-smoke flow, in-process: clean run,
        # crashed run, recover, diff hashes
        assert main([
            "run", "climate", "--workdir", str(tmp_path / "clean"), "--seed", "7",
        ]) == 0
        assert main([
            "run", "climate", "--workdir", str(tmp_path / "chaos"), "--seed", "7",
            "--checkpoint", "--inject-faults", "crash-at=stage:3:post",
        ]) == 137
        capsys.readouterr()
        assert main([
            "run", "climate", "--workdir", str(tmp_path / "chaos"), "--seed", "7",
            "--recover",
        ]) == 0
        out = capsys.readouterr().out
        assert "resume from stage 4" in out
        assert "restored" in out
        assert shard_digests(tmp_path / "chaos" / "shards") == shard_digests(
            tmp_path / "clean" / "shards"
        )

    def test_recover_on_clean_checkpoint_dir_is_benign(self, tmp_path, capsys):
        assert main([
            "run", "climate", "--workdir", str(tmp_path / "wd"), "--seed", "7", "--checkpoint",
        ]) == 0
        capsys.readouterr()
        assert main([
            "run", "climate", "--workdir", str(tmp_path / "wd"), "--seed", "7", "--recover",
        ]) == 0
        assert "run committed" in capsys.readouterr().out

    def test_disk_fault_spec_parses_at_cli(self, tmp_path, capsys):
        # a retried ENOSPC self-heals: the run still exits 0
        assert main([
            "run", "climate", "--workdir", str(tmp_path / "wd"), "--seed", "7",
            "--retries", "2",
            "--inject-faults", "enospc=shard:1",
        ]) == 0

    def test_bad_crash_spec_is_a_usage_error(self, tmp_path, capsys):
        code = main([
            "run", "climate", "--workdir", str(tmp_path / "wd"),
            "--inject-faults", "crash-at=banana",
        ])
        assert code == 2
        assert "crash point" in capsys.readouterr().err

    def test_a_drained_run_keeps_its_events(self, tmp_path, capsys, monkeypatch):
        from repro.obs import read_jsonl
        from repro.workers import DrainController

        monkeypatch.setattr(DrainController, "requested", property(lambda self: True))
        assert main(["run", "bio", "--workdir", str(tmp_path), "--checkpoint"]) == 130
        assert f"resume with: --workdir {tmp_path} --resume" in capsys.readouterr().err
        kinds = [e["kind"] for e in read_jsonl(tmp_path / "events.jsonl")]
        assert kinds == ["run-started", "run-interrupted"]

    def test_a_failed_ledger_append_fails_the_run_and_resume_files_it(self, tmp_path, capsys):
        from repro.obs import read_jsonl

        work, store = tmp_path / "w", tmp_path / "store"
        run = ["run", "bio", "--workdir", str(work), "--store-dir", str(store)]
        assert main([*run, "--checkpoint", "--inject-faults", "eio=ledger:0"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ledger append failed: ")
        kinds = [e["kind"] for e in read_jsonl(work / "events.jsonl")]
        assert kinds.count("run-failed") == 1 and "run-completed" not in kinds
        # the journal left the run open: resume restores every stage and
        # files the row the failed append lost
        assert main([*run, "--resume"]) == 0
        assert len((store / "ledger.jsonl").read_text().splitlines()) == 1
        assert main(["run", "bio", "--workdir", str(tmp_path / "clean")]) == 0
        assert shard_digests(work / "shards") == shard_digests(tmp_path / "clean" / "shards")
