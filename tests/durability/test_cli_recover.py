"""``repro run`` crash injection and ``--recover`` at the CLI surface."""

from repro.cli import main
from tests.parity import shard_digests


class TestCrashAndRecover:
    def test_crash_exits_137_with_recovery_hint(self, tmp_path, capsys):
        code = main([
            "run", "climate", "--workdir", str(tmp_path / "wd"), "--seed", "7",
            "--checkpoint-dir", str(tmp_path / "ckpt"),
            "--inject-faults", "crash-at=stage:2:post",
        ])
        assert code == 137
        err = capsys.readouterr().err
        assert "simulated driver crash at stage:2:post" in err
        assert "--recover" in err
        assert (tmp_path / "ckpt" / "journal.jsonl").exists()

    def test_recover_resumes_to_bitwise_clean_output(self, tmp_path, capsys):
        # the CI durability-chaos-smoke flow, in-process: clean run,
        # crashed run, recover, diff hashes
        assert main([
            "run", "climate", "--workdir", str(tmp_path / "clean"), "--seed", "7",
        ]) == 0
        assert main([
            "run", "climate", "--workdir", str(tmp_path / "chaos"), "--seed", "7",
            "--checkpoint-dir", str(tmp_path / "ckpt"),
            "--inject-faults", "crash-at=stage:3:post",
        ]) == 137
        capsys.readouterr()
        assert main([
            "run", "climate", "--workdir", str(tmp_path / "chaos"), "--seed", "7",
            "--checkpoint-dir", str(tmp_path / "ckpt"), "--recover",
        ]) == 0
        out = capsys.readouterr().out
        assert "resume from stage 4" in out
        assert "restored" in out
        assert shard_digests(tmp_path / "chaos" / "shards") == shard_digests(
            tmp_path / "clean" / "shards"
        )

    def test_recover_requires_checkpoint_dir(self, tmp_path, capsys):
        code = main([
            "run", "climate", "--workdir", str(tmp_path / "wd"), "--recover",
        ])
        assert code == 2
        assert "--recover requires --checkpoint-dir" in capsys.readouterr().err

    def test_recover_on_clean_checkpoint_dir_is_benign(self, tmp_path, capsys):
        assert main([
            "run", "climate", "--workdir", str(tmp_path / "wd"), "--seed", "7",
            "--checkpoint-dir", str(tmp_path / "ckpt"),
        ]) == 0
        capsys.readouterr()
        assert main([
            "run", "climate", "--workdir", str(tmp_path / "wd"), "--seed", "7",
            "--checkpoint-dir", str(tmp_path / "ckpt"), "--recover",
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
