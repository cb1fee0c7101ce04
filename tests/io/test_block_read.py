"""The block containers' one read path: NetCDF variables, h5lite datasets and
ADIOS variables come back as the arrays that were written — the same bytes
whether decoded inline or ahead on the helper pool — and a truncated or
corrupt file fails the way it always did, leaving no thread behind.

``python tests/io/test_block_read.py`` prints :data:`CORPUS_GOLDEN` and
:data:`TRUNCATION_GOLDEN` as the tree it runs on computes them.
"""

import contextlib
import hashlib
import json
import struct
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import helper_pool
from repro.io.adios import BPError, BPReader, BPWriter
from repro.io.compression import LzmaCodec, RawCodec, ZlibCodec
from repro.io.h5lite import H5LiteError, H5LiteFile
from repro.io import netcdf
from repro.io.netcdf import NCDataset, NetCDFError, read_netcdf, write_netcdf
from repro.io.serialization import SerializationError, read_block

CODECS = {"raw": RawCodec(), "zlib": ZlibCodec(1), "lzma": LzmaCodec(0)}
CONTAINERS = ["netcdf", "h5lite", "adios"]


@contextlib.contextmanager
def decoding(mode):
    """Force the decode path: ``inline`` (a 1-CPU host, threadless) or
    ``ahead`` (a two-thread pool for any read of two or more blocks)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(helper_pool, "_usable_cpus", lambda: [0] if mode == "inline" else [0, 1])
        yield


# -- three containers, one shape of test -------------------------------------------


def write(container, path, variables):
    """Write *variables* (name -> (array, codec name)) as one *container*
    file; NetCDF takes one codec per file, the first variable's (the writer
    packs raw blocks, so other codecs stand in for files written elsewhere)."""
    path = Path(path)
    if container == "netcdf":
        nc = NCDataset(attrs={"title": "block reads"})
        for name, (array, _) in variables.items():
            dims = [f"{name}_{axis}" for axis in range(array.ndim)]
            for dim, size in zip(dims, array.shape):
                nc.create_dimension(dim, size)
            nc.create_variable(name, dims, array, {"units": "1"})
        codec = next(iter(variables.values()))[1] if variables else "raw"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(netcdf, "CODEC", CODECS[codec])
            write_netcdf(nc, path)
    elif container == "h5lite":
        with H5LiteFile(path, "w") as fh:
            for name, (array, codec) in variables.items():
                fh.create_dataset(f"/{name}", array, codec=CODECS[codec])
    else:
        with BPWriter(path) as writer:
            writer.begin_step()
            for name, (array, codec) in variables.items():
                writer.write(name, array, codec=CODECS[codec])
            writer.end_step()
    return path


def read(container, path):
    """Every variable of *path*, by name."""
    if container == "netcdf":
        nc = read_netcdf(path)
        return {name: var.data for name, var in nc.variables.items()}
    if container == "h5lite":
        with H5LiteFile(path, "r") as fh:
            return {name[1:]: fh.read(name) for name in fh.datasets()}
    with BPReader(path) as reader:
        return {name: reader.read(0, name) for name in reader.variables(0)}


def index(container, path):
    """``(header, entries, rewrite)``: the file's decoded index, its
    name -> entry mapping (absolute ``offset``), and a function that writes
    the file back with an edited index."""
    raw = Path(path).read_bytes()
    if container == "netcdf":
        (size,) = struct.unpack_from("<I", raw, 4)
        header = json.loads(raw[8 : 8 + size])
        entries = {
            name: dict(meta, offset=8 + size + meta["offset"])
            for name, meta in header["variables"].items()
        }

        def rewrite(edited):
            text = json.dumps(edited, sort_keys=True).encode()
            Path(path).write_bytes(raw[:4] + struct.pack("<I", len(text)) + text + raw[8 + size :])

        return header, entries, rewrite
    if container == "h5lite":
        _, at, size = struct.unpack_from("<4sQQ", raw)
        header = json.loads(raw[at : at + size])
        entries = {name[1:]: meta for name, meta in header.items() if meta["kind"] == "dataset"}

        def rewrite(edited):
            text = json.dumps(edited, sort_keys=True).encode()
            Path(path).write_bytes(struct.pack("<4sQQ", b"H5L1", at, len(text)) + raw[20:at] + text)

        return header, entries, rewrite
    (at,) = struct.unpack_from("<Q", raw, len(raw) - 12)
    header = json.loads(raw[at:-12])

    def rewrite(edited):
        text = json.dumps(edited, sort_keys=True).encode()
        Path(path).write_bytes(raw[:at] + text + struct.pack("<Q4s", at, b"ABP1"))

    return header, header["steps"][0], rewrite


def entry_of(header, container, name):
    """The editable index entry of *name* inside *header*."""
    if container == "netcdf":
        return header["variables"][name]
    if container == "h5lite":
        return header[f"/{name}"]
    return header["steps"][0][name]


def digest(arrays):
    """sha256 over the dtype, shape and bytes of every array, by name."""
    out = hashlib.sha256()
    for name in sorted(arrays):
        array = arrays[name]
        out.update(f"{name} {array.dtype.str} {array.shape}".encode())
        out.update(np.ascontiguousarray(array).tobytes())
    return out.hexdigest()


def _array(rng, dtype, shape):
    if dtype == "|b1":
        return rng.integers(0, 2, size=shape).astype(bool)
    return rng.integers(0, 100, size=shape).astype(dtype)


# -- a golden taken before the planned block read ----------------------------------


_DTYPES = ["<f8", ">f4", "<i4", "|u1", "|b1", "|S3", "<U2"]
_SHAPES = [(), (5,), (3, 4), (0,), (2, 0), (4, 1, 2), (40, 50)]


def corpus(codec, seed):
    """Seven variables of mixed dtype and shape, all under *codec*."""
    rng = np.random.default_rng(seed)
    return {
        f"v{i}": (_array(rng, dtype, _SHAPES[i]), codec) for i, dtype in enumerate(_DTYPES)
    }


def corpus_digests(root):
    root = Path(root)
    cases = [(container, codec) for container in CONTAINERS for codec in sorted(CODECS)]
    return {
        f"{container}/{codec}": digest(
            read(container, write(container, root / f"{container}-{codec}", corpus(codec, seed)))
        )
        for seed, (container, codec) in enumerate(cases)
    }


#: :func:`corpus_digests`, taken on the tree before the planned block read
#: (``unpack_array`` of each block's ``read()``)
CORPUS_GOLDEN = {
    "adios/lzma": "87b2f53ad1808966f8cba442d4069f62fad4ab42a73a4485d9556a7427e28b14",
    "adios/raw": "4ed9224aa0fbc35cb73d2b229ea8b6942fdea1c87be99795220d2104ec3bb05e",
    "adios/zlib": "f424a335b725b0473898c7177946577ebe0597834f18f32b061a4aa8e4792206",
    "h5lite/lzma": "6816241fd94f30e97fd9275ec083d20c265f4c300db9997ee71f3f88ab7f3ac5",
    "h5lite/raw": "9ebcac6956939b783a7887c1f310c199f14901446395f259aea8f5926e6f17e0",
    "h5lite/zlib": "47c7f8ecd5c4bf2a6846f3e7620cc1993d2566b109470561fc37baea2724920b",
    "netcdf/lzma": "55917aa310031f8025202bc3c9bd33855881d2e16c759620338e1deaedd4a14a",
    "netcdf/raw": "4d2c44b31fd199a8268bf845a13641853f6ec7831706032b5ef796ca5de9b955",
    "netcdf/zlib": "8cb57850f8dedcf570d991790adbfdc750b799d17a1898371fccfdaf29b6f635",
}


@pytest.mark.parametrize("mode", ["inline", "ahead"])
def test_the_corpus_reads_back_as_the_golden(tmp_path, mode):
    with decoding(mode):
        assert corpus_digests(tmp_path) == CORPUS_GOLDEN


# -- inline and ahead read the written arrays -------------------------------------


@st.composite
def _variables(draw):
    """name -> (array, codec): one to six variables of mixed dtype, shape and codec."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    specs = draw(st.lists(
        st.tuples(st.sampled_from(_DTYPES), st.sampled_from(_SHAPES), st.sampled_from(sorted(CODECS))),
        min_size=1, max_size=6,
    ))
    return {f"v{i}": (_array(rng, dtype, shape), codec)
            for i, (dtype, shape, codec) in enumerate(specs)}


@pytest.mark.parametrize("container", CONTAINERS)
@settings(max_examples=25, derandomize=True, deadline=None)
@given(variables=_variables())
def test_inline_and_ahead_read_the_written_arrays(tmp_path_factory, container, variables):
    path = write(container, tmp_path_factory.mktemp(container) / "f", variables)
    with decoding("inline"):
        inline = read(container, path)
    with decoding("ahead"):
        ahead = read(container, path)
    assert sorted(inline) == sorted(ahead) == sorted(variables)
    for name, (array, _) in variables.items():
        for out in (inline[name], ahead[name]):
            assert out.dtype == array.dtype and out.shape == array.shape
            assert out.tobytes() == array.tobytes()
            assert out.flags.writeable and out.flags.c_contiguous and out.base is None


# -- a bad file fails as it always did ---------------------------------------------


def small(container, tmp_path, codec="zlib"):
    """Four small variables; v1 sits between two others in the file."""
    rng = np.random.default_rng(11)
    variables = {
        "v0": (rng.normal(size=3), codec),
        "v1": (rng.integers(0, 9, size=(2, 2)).astype("<i4"), codec),
        "v2": (np.asarray(["ab", "c"], dtype="<U2"), codec),
        "v3": (np.arange(4, dtype=">f4"), codec),
    }
    return write(container, tmp_path / f"{container}.bin", variables)


def _raised(container, path):
    try:
        read(container, path)
    except Exception as exc:  # noqa: BLE001 - the type is what is recorded
        return type(exc).__name__
    return None


def truncation_errors(container, path):
    """Run-length ``[first truncated length, exception type]`` pairs over
    every truncation of *path*."""
    data = Path(path).read_bytes()
    cut = Path(path).with_suffix(".cut")
    runs = []
    for end in range(len(data)):
        cut.write_bytes(data[:end])
        raised = _raised(container, cut)
        if not runs or runs[-1][1] != raised:
            runs.append([end, raised])
    return runs


#: :func:`truncation_errors` of :func:`small` files (zlib), taken on the tree
#: before the planned block read
TRUNCATION_GOLDEN = {
    "netcdf": [[0, "NetCDFError"], [8, "JSONDecodeError"], [577, "SerializationError"]],
    "h5lite": [[0, "H5LiteError"]],
    "adios": [[0, "BPError"], [4, "OSError"], [12, "BPError"]],
}


@pytest.mark.parametrize("container, mode", [
    ("netcdf", "inline"), ("netcdf", "ahead"), ("h5lite", "ahead"), ("adios", "ahead"),
])  # only a NetCDF read is more than one block: h5lite and ADIOS always read inline
def test_every_truncation_raises_what_it_always_did(tmp_path, container, mode):
    path = small(container, tmp_path)
    with decoding(mode):
        runs = truncation_errors(container, path)
    assert all(raised is not None for _, raised in runs)
    assert runs == TRUNCATION_GOLDEN[container]


def _payloads(container, path):
    """``(name, first payload byte, end)`` of every block of *path*."""
    raw = Path(path).read_bytes()
    out = []
    for name, entry in index(container, path)[1].items():
        block, end = read_block(memoryview(raw)[entry["offset"]:])
        end += entry["offset"]
        out.append((name, end - block.payload.nbytes, end))
    return out


@pytest.mark.parametrize("codec", ["raw", "zlib"])
@pytest.mark.parametrize("container", CONTAINERS)
def test_every_payload_byte_flip_is_a_serialization_error(tmp_path, container, codec):
    path = small(container, tmp_path, codec)
    data = Path(path).read_bytes()
    for _, start, end in _payloads(container, path):
        for at in range(start, end):
            corrupt = bytearray(data)
            corrupt[at] ^= 0x04
            path.write_bytes(bytes(corrupt))
            with decoding("ahead"), pytest.raises(SerializationError, match="CRC"):
                read(container, path)


def _flip_payload(data, start, end):
    data[end - 1] ^= 0x01


def _clobber_block_magic(data, start, end):
    data[start - 48 : start - 44] = b"NOPE"  # a 2-D <i4 block's header is 48 bytes


def _retoken(data, start, end):
    data[start - 3 : start] = b"<z4"


#: what the tree before the planned block read raised for v1, and its message
_V1_ERRORS = {
    "crc": (_flip_payload, "payload CRC mismatch (corrupt block)"),
    "magic": (_clobber_block_magic, "bad magic b'NOPE' at offset 0"),
    "dtype": (_retoken, "bad dtype token b'<z4'"),
}


@pytest.mark.parametrize("mode", ["inline", "ahead"])
@pytest.mark.parametrize("kind", sorted(_V1_ERRORS))
@pytest.mark.parametrize("container", CONTAINERS)
def test_an_error_in_variable_k_surfaces_with_its_old_type(tmp_path, container, kind, mode):
    path = small(container, tmp_path)
    (_, start, end), = [p for p in _payloads(container, path) if p[0] == "v1"]
    data = bytearray(path.read_bytes())
    corrupt, message = _V1_ERRORS[kind]
    corrupt(data, start, end)
    path.write_bytes(bytes(data))
    threads = threading.active_count()
    with decoding(mode), pytest.raises(SerializationError) as raised:
        read(container, path)
    assert str(raised.value) == message
    assert threading.active_count() == threads


_INDEX_ERRORS = {"netcdf": NetCDFError, "h5lite": H5LiteError, "adios": BPError}


@pytest.mark.parametrize("mode", ["inline", "ahead"])
@pytest.mark.parametrize("field, value", [("dtype", "<i2"), ("shape", [99])],
                         ids=["dtype", "shape"])
@pytest.mark.parametrize("container", CONTAINERS)
def test_an_index_entry_its_block_disagrees_with_is_refused(
    tmp_path, container, field, value, mode
):
    """v0 is a ``<f8 x (3,)`` block; an index that says otherwise names the
    file and the entry — it used to read back what the block held."""
    path = small(container, tmp_path)
    header, _, rewrite = index(container, path)
    entry_of(header, container, "v0")[field] = value
    rewrite(header)
    said = {"dtype": "<i2 x (3,)", "shape": "<f8 x (99,)"}[field]
    threads = threading.active_count()
    with decoding(mode), pytest.raises(_INDEX_ERRORS[container]) as raised:
        read(container, path)
    message = str(raised.value)
    assert message.startswith(str(path)) and "v0" in message
    assert message.endswith(f"the index says {said}, its block holds <f8 x (3,)")
    assert threading.active_count() == threads


def test_no_decode_thread_outlives_a_read(tmp_path):
    path = small("netcdf", tmp_path)
    threads = threading.active_count()
    with decoding("ahead"):
        assert len(read("netcdf", path)) == 4
        assert threading.active_count() == threads
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(SerializationError):
            read("netcdf", path)
    assert threading.active_count() == threads


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        print("CORPUS_GOLDEN =", json.dumps(corpus_digests(scratch), indent=4, sort_keys=True))
        print("TRUNCATION_GOLDEN =", json.dumps(
            {c: truncation_errors(c, small(c, Path(scratch))) for c in CONTAINERS}))
