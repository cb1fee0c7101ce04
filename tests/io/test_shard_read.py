"""The shard reader's one decode path: ``load_split``, ``iter_shards`` and
``ShardStreamer`` read the same arrays whether shards are decoded inline or
ahead on the helper pool, fail at the shard that is bad, and leave no thread.

``python tests/io/test_shard_read.py`` prints :data:`LOAD_SPLIT_GOLDEN` as
the tree it runs on computes it.
"""

import contextlib
import hashlib
import json
import re
import struct
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import helper_pool
from repro.core.dataset import Dataset
from repro.domains.climate import ClimateArchetype
from repro.domains.climate.synthetic import ClimateSourceConfig
from repro.domains.fusion import FusionArchetype
from repro.domains.fusion.synthetic import FusionCampaignConfig
from repro.io.serialization import SerializationError
from repro.io.shards import MANIFEST_NAME, ShardError, ShardSet, read_shard, write_shard_set
from repro.io.stream import ShardStreamer


@contextlib.contextmanager
def decoding(mode):
    """Force the decode path: ``inline`` (a 1-CPU host, threadless) or
    ``ahead`` (a two-thread pool for any split of two or more shards)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(helper_pool, "_usable_cpus", lambda: [0] if mode == "inline" else [0, 1])
        yield


def _decode_threads():
    return [t for t in threading.enumerate() if t.name.startswith("shard-decode")]


# -- a golden taken before decode-ahead --------------------------------------------


def load_split_digests(directory):
    """sha256 of dtype, shape and bytes of every column of every split."""
    shard_set = ShardSet(directory)
    out = {}
    for split in shard_set.splits:
        dataset = shard_set.load_split(split)
        for name in dataset.schema.names:
            column = dataset[name]
            digest = hashlib.sha256(f"{column.dtype.str} {column.shape}".encode())
            digest.update(np.ascontiguousarray(column).tobytes())
            out[f"{split}/{name}"] = digest.hexdigest()
    return out


def build_golden_sets(root):
    """The zlib shards of the reference fusion run, and the reference climate
    dataset written raw: 3 shards a split, one split empty."""
    root = Path(root)
    FusionArchetype(seed=21, config=FusionCampaignConfig(n_shots=10, seed=21)).run(root / "fusion")
    climate = ClimateArchetype(
        seed=21, config=ClimateSourceConfig(n_models=2, n_timesteps=6, seed=21)
    ).run(root / "climate").dataset
    n = climate.n_samples
    write_shard_set(
        climate, root / "climate-raw", shards_per_split=3, codec_name="raw",
        splits={"train": np.arange(0, n - 5), "test": np.arange(n - 5, n),
                "val": np.arange(0)},
    )
    return {"fusion": root / "fusion" / "shards", "climate-raw": root / "climate-raw"}


#: :func:`load_split_digests` of :func:`build_golden_sets`, taken on the tree
#: before decode-ahead (a serial read, ``np.concatenate`` per split)
LOAD_SPLIT_GOLDEN = {
    "fusion": {
        "test/disruptive":
            "ed7aed15e93689492849938b42b9002fdc513222fa19adea15e70e610147437d",
        "test/features":
            "b573b965e1de6ed9a9cbea3e9c293848d98a61cf0f2a2e0d4a9c727f5eaa500e",
        "test/shot":
            "6d64ff7e5241319b2401b5c37f93b23e29aa5d21b7437010819f7685692d0a15",
        "test/t_start":
            "1597db92db7befc88cbeb3b65e7d2f991428ff3c6f1fd0848eda893a60954433",
        "test/window":
            "7ba11da85044f1089ceb031b8dced3a7e79ef72e679fa80ca0de7b1be49059cb",
        "train/disruptive":
            "837286a4bf5a259c4de5907773b9b11b59f9cad5ae642b01024fd55fa32f83a7",
        "train/features":
            "d229a9f9288c7e4ff4db85d07719435d06b596ccc6a83d687f8792571d1404f7",
        "train/shot":
            "5542d62bdb44889a602ad6ccfbaa7ed36e762c83144ca26dde058aff7a5b586d",
        "train/t_start":
            "068dc814420638b9791d0d2ece62e81148d7af2c8009088f5743643fd29fe1af",
        "train/window":
            "0a05458ca89f3dadb1d2e70dfcd5bc70488691f4bd4e025f306d13771ab9f748",
        "val/disruptive":
            "728c47ece5503ebad5f1801e54c0a74e0a3f6da3ffbe5ded038044c76ebfed37",
        "val/features":
            "e00e6a13e9458dbd3756ee372f4466c09524b05c5f95e5e57ff02b3509317a4f",
        "val/shot":
            "b0810d4da9a18c1839f754bee66db6eba86f67132e3a996540c34324f5eeb121",
        "val/t_start":
            "5e0d5b4cc26787c0025d1067f96a0352c38c40430613486bd82e4221eab640db",
        "val/window":
            "8e9f7d5375966ab0fcfa0b237c98b97aaff8b657f62fbc0fd025f1528921f360",
    },
    "climate-raw": {
        "test/pr":
            "17771f4aefb2e06222b351cb9b6c0b71b897cee65dfb39fcc86aae09a3598e36",
        "test/psl":
            "b8f51904f473765ba572da5b0a3edbb5d73346c2eb24362786dd33dc02b81b7e",
        "test/source_id":
            "ae5c75f2cedab6659f47df72ae22f57dcb50ef5c372de2662e434a3b1a152759",
        "test/tas":
            "9b47b2d6f9663ec75ff2ad784f5b305ff04437ac65a93dcfb1b22850ef5754fa",
        "test/tas_next":
            "86200ef329e00466b19e04970b15d05720ea7edc81e1c7bf67f03fb14c0bc2ff",
        "test/time_index":
            "153775531cc57b587a71e5afd96a4394caf85d4d7ca5880aad4a3ab2b06ba01c",
        "train/pr":
            "fb0493f6f05a2117ec360971b452238a0798b72cc4ab29ed63d23fb75acbeae3",
        "train/psl":
            "9b32c79d7173fa3f797eaee495396ab7a51b9583e72305bf0d9bade8adb9f2c7",
        "train/source_id":
            "61df8130a7c5ed668337a8a22a34700a6e84e50cf0a34cfb8283038c462465f9",
        "train/tas":
            "3e495b564518a4d75be2829f187e4b150529bba11b9e805525d369cf1179ac02",
        "train/tas_next":
            "1803b1e3aac66f9aefe8b4a527f1f43f61b0163fdcd76a2d6719099b45a7df6f",
        "train/time_index":
            "8660e0d97faa7571465c618f148c1ed3dbe2b7fdbb0eff8fa906f0cc26683afb",
        "val/pr":
            "a330a26836de7b57370e609fa389d75581833b0a2c7062862f8c13be978a4daf",
        "val/psl":
            "a330a26836de7b57370e609fa389d75581833b0a2c7062862f8c13be978a4daf",
        "val/source_id":
            "d9481c7dbfb38124a56c861fb83cb941a1ce3f72b30919e4a2ec3dcd2c4f8932",
        "val/tas":
            "a330a26836de7b57370e609fa389d75581833b0a2c7062862f8c13be978a4daf",
        "val/tas_next":
            "a330a26836de7b57370e609fa389d75581833b0a2c7062862f8c13be978a4daf",
        "val/time_index":
            "d9481c7dbfb38124a56c861fb83cb941a1ce3f72b30919e4a2ec3dcd2c4f8932",
    },
}


@pytest.fixture(scope="module")
def golden_sets(tmp_path_factory):
    return build_golden_sets(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("mode", ["inline", "ahead"])
@pytest.mark.parametrize("name", ["fusion", "climate-raw"])
def test_load_split_matches_the_golden(golden_sets, name, mode):
    with decoding(mode):
        assert load_split_digests(golden_sets[name]) == LOAD_SPLIT_GOLDEN[name]


# -- inline and ahead read the same arrays -----------------------------------------


_DTYPES = ["<f8", ">f4", "<i4", "|u1", "|b1", "|S3", "<U2"]
_TRAILING = [(), (3,), (2, 2), (0,), (2, 0)]


@st.composite
def _shard_sets(draw):
    """(dataset, splits, shards_per_split, codec, projection): up to five
    shards a split, one split possibly empty, zero-size and string columns."""
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    specs = draw(st.lists(st.tuples(st.sampled_from(_DTYPES), st.sampled_from(_TRAILING)),
                          min_size=1, max_size=5))
    columns = {
        f"c{i}": rng.integers(0, 100, size=(n, *trailing)).astype(dtype)
        for i, (dtype, trailing) in enumerate(specs)
    }
    cut = sorted(draw(st.tuples(st.integers(0, n), st.integers(0, n))))
    order = rng.permutation(n)
    splits = {
        "train": np.sort(order[: cut[0]]),
        "val": np.sort(order[cut[0] : cut[1]]),
        "test": np.sort(order[cut[1] :]),
    }
    codec = draw(st.sampled_from([("raw", None), ("zlib", 1), ("lzma", 0)]))
    projection = draw(st.lists(st.sampled_from(sorted(columns)), unique=True))
    return Dataset.from_arrays(columns), splits, draw(st.integers(1, 5)), codec, projection


def _same(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def _reads(shard_set, split, projection):
    """Everything the three readers return for *split*, as flat arrays."""
    out = [shard_set.load_split(split)[name] for name in shard_set.manifest.schema.names]
    for world in (1, 2, 3):
        for rank in range(world):
            out += [shard[name] for shard in shard_set.iter_shards(split, rank=rank, world=world)
                    for name in sorted(shard)]
    infos = shard_set.manifest.splits[split]
    out += [shard[name] for shard in shard_set.read_shards(infos[::-1], projection)
            for name in projection]
    streamer = ShardStreamer(shard_set, split, batch_size=4, columns=projection or None,
                             rank=0, world=2, shuffle=True, shuffle_buffer=6, seed=5)
    out += [batch[name] for batch in streamer for name in sorted(batch)]
    return out


@settings(max_examples=30, derandomize=True)
@given(case=_shard_sets())
def test_inline_and_ahead_read_the_same_arrays(tmp_path_factory, case):
    dataset, splits, shards_per_split, (codec, level), projection = case
    directory = tmp_path_factory.mktemp("set")
    write_shard_set(dataset, directory, splits=splits, shards_per_split=shards_per_split,
                    codec_name=codec, codec_level=level)
    shard_set = ShardSet(directory)
    for split, rows in splits.items():
        with decoding("inline"):
            inline = _reads(shard_set, split, projection)
        with decoding("ahead"):
            ahead = _reads(shard_set, split, projection)
        assert len(inline) == len(ahead)
        for a, b in zip(inline, ahead):
            _same(a, b)
        for name, column in zip(dataset.schema.names, inline):
            _same(column, dataset[name][rows])


# -- errors surface at the shard that is bad ---------------------------------------


def _four_shards(directory, codec="zlib"):
    rng = np.random.default_rng(3)
    dataset = Dataset.from_arrays({"x": rng.normal(size=(40, 64)), "y": np.arange(40)})
    return write_shard_set(dataset, directory, shards_per_split=4, codec_name=codec)


def _flip_last_byte(path):
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF
    path.write_bytes(bytes(raw))


def _clobber_magic(path):
    path.write_bytes(b"NOPE" + path.read_bytes()[4:])


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-7])


@pytest.mark.parametrize("mode", ["inline", "ahead"])
@pytest.mark.parametrize("corrupt, error, message", [
    (_flip_last_byte, SerializationError, "payload CRC mismatch (corrupt block)"),
    (_clobber_magic, ShardError, "bad magic b'NOPE'; not a shard file"),
    (_truncate, SerializationError, "truncated payload"),
], ids=["crc", "magic", "truncated"])
def test_an_error_in_shard_k_is_raised_where_shard_k_is_taken(
    tmp_path, mode, corrupt, error, message
):
    manifest = _four_shards(tmp_path)
    corrupt(tmp_path / manifest.splits["all"][2].path)
    threads_before = threading.active_count()
    with decoding(mode):
        taken = []
        with pytest.raises(error) as raised:
            for shard in ShardSet(tmp_path).iter_shards("all"):
                taken.append(shard["y"])
        assert str(raised.value) == message
        assert [rows.tolist() for rows in taken] == [list(range(10)), list(range(10, 20))]
        with pytest.raises(error, match=re.escape(message)):
            ShardSet(tmp_path).load_split("all")
        with pytest.raises(error):
            list(ShardStreamer(ShardSet(tmp_path), "all", batch_size=7))
    assert threading.active_count() == threads_before


# -- a shard must agree with its manifest entry ------------------------------------


def _edit_manifest(directory, edit):
    path = directory / MANIFEST_NAME
    blob = json.loads(path.read_text())
    edit(blob)
    path.write_text(json.dumps(blob))


def test_a_row_count_the_manifest_disagrees_with_is_refused(tmp_path, small_dataset):
    write_shard_set(small_dataset, tmp_path, splits={"train": np.arange(20)},
                    shards_per_split=2)

    def shrink(blob):
        blob["splits"]["train"][0]["n_samples"] = 3

    _edit_manifest(tmp_path, shrink)
    shard_set = ShardSet(tmp_path)
    shard_set.verify()  # the checksums cover the shards, not the manifest
    with pytest.raises(ShardError, match=r"train-00000\.rps: column '\w+' holds 10 rows, "
                                         r"the manifest says 3"):
        shard_set.load_split("train")
    with pytest.raises(ShardError, match="the manifest says 3"):
        list(shard_set.iter_shards("train"))


@pytest.mark.parametrize("field, value, says", [
    ("dtype", "<f4", r"'x1' is <f8 x \(\) per sample, the schema says <f4 x \(\)"),
    ("shape", [16], r"'grid' is <f4 x \(4, 4\) per sample, the schema says <f4 x \(16,\)"),
], ids=["dtype", "shape"])
def test_a_dtype_or_shape_the_schema_disagrees_with_is_refused(
    tmp_path, small_dataset, field, value, says
):
    write_shard_set(small_dataset, tmp_path, shards_per_split=2)
    name = "x1" if field == "dtype" else "grid"

    def retype(blob):
        (spec,) = [f for f in blob["schema"] if f["name"] == name]
        spec[field] = value

    _edit_manifest(tmp_path, retype)
    with pytest.raises(ShardError, match=says):
        ShardSet(tmp_path).load_split("all")


def test_a_block_length_past_the_end_of_the_shard_is_refused(tmp_path):
    """The shard's own column index must describe its blocks: a length that
    runs past the end of the file used to be read back all the same."""
    manifest = _four_shards(tmp_path, codec="raw")
    path = tmp_path / manifest.splits["all"][1].path
    raw = path.read_bytes()
    (size,) = struct.unpack_from("<I", raw, 4)
    header = json.loads(raw[8 : 8 + size])
    last = max(header["columns"], key=lambda name: header["columns"][name]["offset"])
    header["columns"][last]["length"] += 8
    text = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(raw[:4] + struct.pack("<I", len(text)) + text + raw[8 + size :])
    says = re.escape(f"all-00001.rps: column {last!r}: length ") + r"\d+ runs 8 bytes past"
    for mode in ("inline", "ahead"):
        with decoding(mode):
            with pytest.raises(ShardError, match=says):
                ShardSet(tmp_path).load_split("all")
            with pytest.raises(ShardError, match=says):
                read_shard(path)


def test_verify_names_a_truncated_shard_by_size(tmp_path):
    manifest = _four_shards(tmp_path)
    info = manifest.splits["all"][1]
    _truncate(tmp_path / info.path)
    with pytest.raises(ShardError, match=f"manifest says {info.nbytes} bytes, "
                                         f"file has {info.nbytes - 7}"):
        ShardSet(tmp_path).verify()


# -- threads: started per call, none left behind -----------------------------------


def test_no_decode_thread_outlives_a_call_or_a_generator(tmp_path):
    _four_shards(tmp_path)
    shard_set = ShardSet(tmp_path)
    before = threading.active_count()
    with decoding("ahead"):
        shard_set.load_split("all")
        assert threading.active_count() == before
        shards_iter = shard_set.iter_shards("all")
        next(shards_iter)
        assert _decode_threads()  # really ahead: the pool is up
        list(shards_iter)
        assert threading.active_count() == before
        closed = shard_set.iter_shards("all")
        next(closed)
        closed.close()
        assert threading.active_count() == before
        abandoned = ShardStreamer(shard_set, "all", batch_size=3)
        next(iter(abandoned))
        assert threading.active_count() == before
    _flip_last_byte(tmp_path / "all-00001.rps")
    with decoding("ahead"), pytest.raises(SerializationError):
        shard_set.load_split("all")
    assert threading.active_count() == before


@pytest.mark.parametrize("cpus, shards_per_split", [([0], 4), ([0, 1], 1)],
                         ids=["one-cpu", "one-shard"])
def test_nothing_to_overlap_starts_no_thread(tmp_path, monkeypatch, cpus, shards_per_split):
    rng = np.random.default_rng(5)
    write_shard_set(Dataset.from_arrays({"x": rng.normal(size=(40, 8))}), tmp_path,
                    shards_per_split=shards_per_split)
    monkeypatch.setattr(helper_pool, "_usable_cpus", lambda: cpus)

    def no_pool(*args):
        raise AssertionError("a helper pool was started")

    monkeypatch.setattr(helper_pool, "helper_pool", no_pool)
    shard_set = ShardSet(tmp_path)
    assert shard_set.load_split("all").n_samples == 40
    assert sum(len(shard["x"]) for shard in shard_set.iter_shards("all")) == 40


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        sets = build_golden_sets(scratch)
        print(json.dumps({name: load_split_digests(path) for name, path in sets.items()},
                         indent=4, sort_keys=True))
