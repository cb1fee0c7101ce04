"""Shard files, shard sets, manifests, and trainer-facing ingestion."""

import hashlib
import json
import struct
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import backends
from repro.core.backends import BACKENDS, SerialBackend, ThreadedBackend
from repro.core.dataset import Dataset, FieldRole
from repro.durability.fsfaults import activate
from repro.faults import FaultInjector, FaultSpec
from repro.faults.retry import RetryPolicy, VirtualClock
from repro.io import shards
from repro.io.compression import Codec, CodecError, RawCodec, get_codec
from repro.io.serialization import SerializationError, pack_array
from repro.io.shards import (
    MANIFEST_NAME,
    BlockPacker,
    ShardError,
    ShardSet,
    read_shard,
    schema_from_dicts,
    schema_to_dicts,
    shard_table,
    write_shard,
    write_shard_set,
    write_table_entry,
)


class TestSingleShard:
    def test_round_trip(self, tmp_path, rng):
        columns = {"x": rng.normal(size=(20, 3)), "y": rng.integers(0, 5, 20)}
        info = write_shard(columns, tmp_path / "s.rps")
        assert info.n_samples == 20
        back = read_shard(tmp_path / "s.rps")
        assert np.array_equal(back["x"], columns["x"])
        assert np.array_equal(back["y"], columns["y"])

    def test_inconsistent_sample_counts_rejected(self, tmp_path, rng):
        with pytest.raises(ShardError, match="disagree"):
            write_shard(
                {"x": rng.normal(size=4), "y": rng.normal(size=5)},
                tmp_path / "s.rps",
            )

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.rps"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ShardError, match="magic"):
            read_shard(path)

    def test_info_accounting(self, tmp_path, rng):
        columns = {"x": rng.normal(size=(8, 2))}
        info = write_shard(columns, tmp_path / "s.rps")
        assert info.nbytes == (tmp_path / "s.rps").stat().st_size
        assert len(info.checksum) == 64


class _CopyCodec(Codec):
    """The raw codec as a plain :class:`Codec`: writers reach ``compress``
    through the default ``compress_chunks``, so a subclass sees each call."""

    codec_id = RawCodec.codec_id
    name = RawCodec.name

    def compress(self, data):
        return bytes(data)

    def decompress(self, data):
        return bytes(data)


def _buffered_shard_bytes(columns, codec=None):
    """The historical fully-buffered writer, kept as the byte oracle."""
    codec = codec or RawCodec()
    lengths = {v.shape[0] for v in columns.values()}
    n_samples = lengths.pop() if lengths else 0
    blocks, index, offset = [], {}, 0
    for name in sorted(columns):
        block = pack_array(np.asarray(columns[name]), codec)
        index[name] = {"offset": offset, "length": len(block)}
        blocks.append(block)
        offset += len(block)
    header = json.dumps(
        {"n_samples": n_samples, "columns": index}, sort_keys=True
    ).encode()
    return b"".join((b"RPS1", struct.pack("<I", len(header)), header, *blocks))


@pytest.fixture
def peaks(monkeypatch):
    """The block stream's high-water mark after each shard write, in order."""
    seen, write = [], shards._write_blocks

    def recording(path, n_samples, stream):
        info = write(path, n_samples, stream)
        seen.append(stream.peak)
        return info

    monkeypatch.setattr(shards, "_write_blocks", recording)
    return seen


def _allocated_peak(write):
    """(what *write* returns, the peak bytes Python and NumPy held while it ran)."""
    tracemalloc.start()
    try:
        return write(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamingWrite:
    """The streaming writer must be byte-for-byte the buffered writer."""

    @pytest.mark.parametrize("codec_name", ["raw", "zlib"])
    def test_bytes_and_checksum_match_buffered_oracle(
        self, tmp_path, rng, codec_name
    ):
        columns = {
            "big": rng.normal(size=(500, 16, 32)),
            "small": rng.integers(0, 9, size=500),
            "ids": np.arange(500),
        }
        codec = get_codec(codec_name, 3 if codec_name == "zlib" else None)
        info = write_shard(columns, tmp_path / "s.rps", codec)
        expected = _buffered_shard_bytes(columns, codec)
        actual = (tmp_path / "s.rps").read_bytes()
        assert actual == expected
        assert info.checksum == hashlib.sha256(expected).hexdigest()
        assert info.nbytes == len(expected)

    def test_peak_buffer_is_bounded_not_the_shard(self, tmp_path, rng, monkeypatch, peaks):
        columns = {f"c{i}": rng.normal(size=(200, 64)) for i in range(8)}
        block = len(pack_array(columns["c0"], RawCodec()))
        # packed inline the writer holds one packed column block at a time;
        # with the spool's copy buffer made small, a raw-codec write
        # allocates less than that block in all
        monkeypatch.setattr(shards, "_COPY_BLOCK", 4096)
        info, allocated = _allocated_peak(lambda: write_shard(columns, tmp_path / "s.rps"))
        assert peaks == [block] and allocated <= block < info.nbytes / 4
        # packed ahead it holds the look-ahead: blocks are submitted while
        # under the budget, so the budget plus the block that crossed it
        # — three blocks here, of a shard of eight
        monkeypatch.setattr(shards, "PACK_AHEAD_BYTES", 2 * block)
        manifest = write_shard_set(
            Dataset.from_arrays(columns), tmp_path / "set", shards_per_split=1
        )
        (info,) = manifest.splits["all"]
        assert block <= peaks[-1] <= 3 * block < info.nbytes / 2

    def test_no_spool_or_tmp_left_behind(self, tmp_path, rng):
        write_shard({"x": rng.normal(size=32)}, tmp_path / "s.rps")
        leftovers = [p.name for p in tmp_path.iterdir() if p.name != "s.rps"]
        assert leftovers == []

    def test_empty_columns_dict(self, tmp_path):
        info = write_shard({}, tmp_path / "s.rps")
        assert info.n_samples == 0
        assert read_shard(tmp_path / "s.rps") == {}

    def test_failed_write_cleans_spool(self, tmp_path):
        class Boom:
            shape = (3,)

        with pytest.raises(Exception):
            write_shard({"x": Boom()}, tmp_path / "s.rps")
        assert [p.name for p in tmp_path.iterdir()] == []

    def test_failed_commit_cleans_both_siblings(self, tmp_path, rng):
        # regression: a raise *after* the spool→tmp copy (in the atomic
        # commit itself) used to leak the .tmp sibling
        with activate(FaultInjector(FaultSpec.parse("eio=shard:0"))):
            with pytest.raises(OSError):
                write_shard({"x": rng.normal(size=32)}, tmp_path / "s.rps")
        assert [p.name for p in tmp_path.iterdir()] == []

    def test_failed_pack_on_the_calling_thread_cleans_up(self, tmp_path, rng):
        columns = {"a": rng.normal(size=8), "b": np.asarray([object()] * 8)}
        with pytest.raises(SerializationError, match="object-dtype"):
            write_shard(columns, tmp_path / "s.rps")
        assert [p.name for p in tmp_path.iterdir()] == []

    @pytest.mark.parametrize("backend", [SerialBackend(), ThreadedBackend(2)],
                             ids=["pack-ahead", "inline"])
    def test_failed_pack_on_a_pool_thread_fails_fast_and_clean(
        self, tmp_path, rng, monkeypatch, backend
    ):
        # the codec raises on one column of the *second* shard — on a
        # compress thread when the packer runs ahead; the writer must see
        # the same exception at that column, having committed what came
        # before it and nothing after, and leave no sibling and no thread
        ran_on = set()

        class Exploding(_CopyCodec):
            def compress(self, data):
                ran_on.add(threading.current_thread().name.split("_")[0])
                if bytes(data[:1]) == b"\xee":
                    raise CodecError("exploding column")
                return super().compress(data)

        marked = np.zeros(40, dtype=np.uint8)
        marked[10:20] = 0xEE
        dataset = Dataset.from_arrays({"a": rng.normal(size=(40, 3)), "bad": marked})
        monkeypatch.setattr(backends, "get_codec", lambda name, level=None: Exploding())
        monkeypatch.setattr(shards, "PACK_AHEAD_BYTES", 64)  # a table this small packs inline
        threads_before = threading.active_count()
        with pytest.raises(CodecError, match="exploding column"):
            backend.shard_write(
                dataset, tmp_path / "out", {"all": np.arange(40)}, shards_per_split=4
            )
        left = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert all(name.endswith(".rps") for name in left), left
        assert "all-00000.rps" in left and "all-00001.rps" not in left
        if backend.packs_ahead:
            assert left == ["all-00000.rps"] and ran_on == {"shard-pack"}
        assert threading.active_count() == threads_before

    def test_injected_commit_fault_cleans_and_retry_heals(self, tmp_path, rng):
        # a torn rename leaves garbage under the shard's final name (and
        # no siblings); the retried write must atomically replace it
        columns = {"x": rng.normal(size=32)}
        with activate(FaultInjector(FaultSpec.parse("torn-rename=shard:0"))):
            with pytest.raises(OSError):
                write_shard(columns, tmp_path / "s.rps")
            assert [p.name for p in tmp_path.iterdir()] == ["s.rps"]  # garbage
            info = write_shard(columns, tmp_path / "s.rps")  # retry
        assert read_shard(tmp_path / "s.rps")["x"] == pytest.approx(columns["x"])
        assert info.n_samples == 32


def _directory_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _rows(manifest):
    return {split: [s.to_dict() for s in infos] for split, infos in manifest.splits.items()}


_DTYPES = ["<f4", "<f8", "<i8", "<i2", "|u1", "|b1", "|S3", "<U2"]


@st.composite
def _shard_cases(draw):
    """(dataset, splits, shards_per_split, codec): a few columns of mixed
    dtype and trailing shape — optionally one that dwarfs the rest —
    split three ways, one split possibly without rows."""
    n = draw(st.integers(1, 24))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    specs = draw(st.lists(
        st.tuples(st.sampled_from(_DTYPES), st.sampled_from([(), (3,), (2, 2)])),
        min_size=1, max_size=7,
    ))
    if draw(st.booleans()):
        specs.append(("<f4", (16, 8)))  # the dominant column
    columns = {}
    for i, (dtype, trailing) in enumerate(specs):
        values = rng.integers(0, 100, size=(n, *trailing))
        columns[f"c{i:02d}"] = values.astype("<i8").astype(dtype)
    cut = sorted(draw(st.tuples(st.integers(0, n), st.integers(0, n))))
    order = rng.permutation(n)
    splits = {
        "train": np.sort(order[: cut[0]]),
        "val": np.sort(order[cut[0] : cut[1]]),
        "test": np.sort(order[cut[1] :]),
    }
    codec = draw(st.sampled_from([("raw", None), ("zlib", 1), ("zlib", 0)]))
    return Dataset.from_arrays(columns), splits, draw(st.integers(1, 3)), codec


class TestPackAhead:
    """Compressing ahead of the writer changes when blocks are packed,
    never what is written: the serial backend (which packs ahead) against
    a one-thread ``threaded`` backend (same width, packs inline)."""

    @staticmethod
    def _write(backend, case, directory):
        dataset, splits, shards_per_split, (codec_name, level) = case
        return backend.shard_write(
            dataset, directory, splits, shards_per_split=shards_per_split,
            codec_name=codec_name, codec_level=level,
        )

    @settings(max_examples=25)
    @given(case=_shard_cases(), budget=st.sampled_from([0, 64, 4096]))
    def test_files_rows_and_manifest_equal_inline_packing(
        self, tmp_path_factory, case, budget
    ):
        # budgets far under one block and around one ("more columns than
        # the budget admits" at every size drawn), and one over most
        # tables drawn, which are then packed inline after all
        tmp_path = tmp_path_factory.mktemp("ahead")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(shards, "PACK_AHEAD_BYTES", budget)
            ahead = self._write(SerialBackend(), case, tmp_path / "ahead")
        inline = self._write(ThreadedBackend(1), case, tmp_path / "inline")
        assert _rows(ahead) == _rows(inline)
        assert _directory_bytes(tmp_path / "ahead") == _directory_bytes(tmp_path / "inline")
        assert MANIFEST_NAME in _directory_bytes(tmp_path / "ahead")

    @settings(max_examples=15)
    @given(case=_shard_cases(), victim=st.integers(0, 8))
    def test_a_retried_entry_is_packed_again(self, tmp_path_factory, case, victim):
        # eio=shard:N fails entry N's commit after its blocks were taken;
        # run_task re-invokes it, and the bytes must not notice
        tmp_path = tmp_path_factory.mktemp("retry")
        n_entries = len(shard_table(case[1], case[2]))
        backend = SerialBackend().configure_retry(
            RetryPolicy(max_attempts=2, jitter=0.0), clock=VirtualClock()
        )
        injector = FaultInjector(FaultSpec.parse(f"eio=shard:{victim}"))
        with activate(injector), pytest.MonkeyPatch.context() as patch:
            patch.setattr(shards, "PACK_AHEAD_BYTES", 64)
            retried = self._write(backend, case, tmp_path / "retried")
        assert bool(injector.counts()) == (victim < n_entries)
        clean = self._write(ThreadedBackend(1), case, tmp_path / "clean")
        assert _rows(retried) == _rows(clean)
        assert _directory_bytes(tmp_path / "retried") == _directory_bytes(tmp_path / "clean")

    def test_each_block_is_compressed_once_and_the_look_ahead_is_bounded(
        self, tmp_path, rng, monkeypatch, peaks
    ):
        class Recording(_CopyCodec):
            """Logs every compress call; the first one stalls until the
            packer has stopped feeding the pool, so when it returns the
            log holds exactly what was submitted ahead of the writer."""

            def __init__(self):
                self.lock = threading.Lock()
                self.sizes = []
                self.in_flight_at_saturation = None

            def compress(self, data):
                with self.lock:
                    self.sizes.append(len(data))
                    first = len(self.sizes) == 1
                seen = 1
                deadline = time.monotonic() + 5.0
                while first and time.monotonic() < deadline:
                    time.sleep(0.1)
                    with self.lock:
                        if len(self.sizes) == seen:
                            self.in_flight_at_saturation = sum(self.sizes)
                            break
                        seen = len(self.sizes)
                return super().compress(data)

        n = 64
        dataset = Dataset.from_arrays({
            "a": rng.normal(size=(n, 8)),              # 512 B a shard
            "big": rng.normal(size=(n, 32, 4)),        # 8 KiB a shard
            "c": rng.integers(0, 9, size=n),
            "d": rng.normal(size=(n, 16)).astype("f4"),
        })
        table = shard_table({"all": np.arange(n)}, 8)
        block_bytes = [dataset[name][rows].nbytes for _, _, rows in table
                       for name in sorted(dataset.schema.names)]
        budget = 12 * 1024
        monkeypatch.setattr(shards, "PACK_AHEAD_BYTES", budget)
        codec = Recording()
        threads_before = threading.active_count()
        with BlockPacker(dataset, dataset.schema.names, table, codec, ahead=True) as packer:
            threads = packer.threads
            for index in range(len(table)):
                write_table_entry(packer, tmp_path, index)
        assert threading.active_count() == threads_before
        # once per block: the digests cannot see wasted work, a count can
        assert sorted(codec.sizes) == sorted(block_bytes)
        # raw codec: packed bytes == raw bytes, so what was submitted and
        # not yet written is at most the budget plus the block crossing it
        bound = max(budget + max(block_bytes), sum(sorted(block_bytes)[-threads:]))
        assert codec.in_flight_at_saturation <= bound < sum(block_bytes) / 2
        assert max(peaks) <= bound
        if threads > 1:  # and the look-ahead is real: it reaches the budget
            assert codec.in_flight_at_saturation >= budget
        for split, i, rows in table:
            back = read_shard(tmp_path / f"{split}-{i:05d}.rps")
            assert np.array_equal(back["big"], dataset["big"][rows])

    def test_a_table_the_budget_would_swallow_is_packed_inline(self, small_dataset):
        # bio's and materials' shard sets are a few hundred KB: no pool,
        # no thread, the allocator behaves as it did single-threaded
        table = shard_table({"all": np.arange(small_dataset.n_samples)}, 4)
        with BlockPacker(
            small_dataset, small_dataset.schema.names, table, RawCodec(), ahead=True
        ) as packer:
            assert packer.pool is None and packer.threads == 0

    @pytest.mark.skipif("process" not in BACKENDS, reason="needs the fork start method")
    def test_process_backend_after_a_pack_ahead_in_the_same_interpreter(
        self, tmp_path, small_dataset, monkeypatch
    ):
        # a forked worker inherits no threads: a pool that outlived the
        # serial call would leave the children waiting on it for ever
        splits = {"all": np.arange(small_dataset.n_samples)}
        options = dict(shards_per_split=4, codec_name="zlib", codec_level=2)
        monkeypatch.setattr(shards, "PACK_AHEAD_BYTES", 64)
        SerialBackend().shard_write(small_dataset, tmp_path / "serial", splits, **options)
        BACKENDS["process"](workers=2).shard_write(
            small_dataset, tmp_path / "process", splits, **options
        )
        serial = _directory_bytes(tmp_path / "serial")
        process = _directory_bytes(tmp_path / "process")
        assert {k: v for k, v in serial.items() if k != MANIFEST_NAME} == {
            k: v for k, v in process.items() if k != MANIFEST_NAME
        }


class TestSchemaSerialization:
    def test_round_trip(self, small_dataset):
        rows = schema_to_dicts(small_dataset.schema)
        back = schema_from_dicts(rows)
        assert back == small_dataset.schema

    def test_roles_preserved(self, small_dataset):
        back = schema_from_dicts(schema_to_dicts(small_dataset.schema))
        assert back["label"].role is FieldRole.LABEL
        assert back["sample_id"].role is FieldRole.IDENTIFIER


class TestShardSet:
    @pytest.fixture
    def shard_dir(self, tmp_path, small_dataset):
        n = small_dataset.n_samples
        splits = {
            "train": np.arange(0, int(n * 0.8)),
            "test": np.arange(int(n * 0.8), n),
        }
        manifest = write_shard_set(
            small_dataset, tmp_path / "shards", splits=splits,
            shards_per_split=3, codec_name="zlib", codec_level=2,
        )
        return tmp_path / "shards", manifest

    def test_manifest_accounting(self, shard_dir, small_dataset):
        _, manifest = shard_dir
        assert manifest.n_samples == small_dataset.n_samples
        assert manifest.n_shards == 6
        assert manifest.split_samples("train") == 40

    def test_load_split_round_trip(self, shard_dir, small_dataset):
        directory, _ = shard_dir
        shard_set = ShardSet(directory)
        train = shard_set.load_split("train")
        assert train.n_samples == 40
        assert np.array_equal(train["x1"], small_dataset["x1"][:40])
        assert train.schema == small_dataset.schema

    def test_verify_passes_on_intact_set(self, shard_dir):
        directory, _ = shard_dir
        ShardSet(directory).verify()

    def test_verify_detects_corruption(self, shard_dir):
        directory, manifest = shard_dir
        victim = directory / manifest.splits["train"][0].path
        raw = bytearray(victim.read_bytes())
        raw[-1] ^= 0xFF
        victim.write_bytes(bytes(raw))
        with pytest.raises(ShardError, match="checksum"):
            ShardSet(directory).verify()

    def test_rank_strided_iteration_partitions_shards(self, shard_dir):
        directory, manifest = shard_dir
        shard_set = ShardSet(directory)
        world = 2
        seen = []
        for rank in range(world):
            for shard in shard_set.iter_shards("train", rank=rank, world=world):
                seen.append(shard["sample_id"][0])
        # both ranks together see every shard exactly once
        assert len(seen) == len(manifest.splits["train"])
        assert len(set(int(s) for s in seen)) == len(seen)

    def test_invalid_rank_rejected(self, shard_dir):
        directory, _ = shard_dir
        with pytest.raises(ShardError, match="rank"):
            list(ShardSet(directory).iter_shards("train", rank=2, world=2))

    def test_unknown_split_rejected(self, shard_dir):
        directory, _ = shard_dir
        with pytest.raises(ShardError, match="no split"):
            list(ShardSet(directory).iter_shards("validation"))

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(ShardError, match="manifest"):
            ShardSet(tmp_path)

    def test_default_single_split(self, tmp_path, small_dataset):
        manifest = write_shard_set(small_dataset, tmp_path / "one")
        assert list(manifest.splits) == ["all"]
        assert manifest.split_samples("all") == small_dataset.n_samples

    def test_metadata_round_trip(self, shard_dir):
        directory, _ = shard_dir
        shard_set = ShardSet(directory)
        loaded = shard_set.load_split("test")
        assert loaded.metadata.name == "unit-test"

    def test_manifest_json_round_trip(self, shard_dir):
        from repro.io.shards import ShardManifest

        _, manifest = shard_dir
        back = ShardManifest.from_json(manifest.to_json())
        assert back.n_samples == manifest.n_samples
        assert back.schema == manifest.schema
        assert back.codec == manifest.codec
