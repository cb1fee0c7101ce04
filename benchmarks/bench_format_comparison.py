"""FMT — AI-ready storage formats (Figure 1's final box; Table 1's formats).

Paper artifact: "exported in a standard compressed and sharded format"
such as HDF5, ADIOS, or TFRecords.  The bench writes the same tensor
batch through every format substrate and reports write/read throughput
and on-disk size per codec — the trade study a facility would run before
standardizing (Section 5, "Fragmentation Across Domains").
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.report import format_bytes, render_table
from repro.io.adios import BPReader, BPWriter
from repro.io.compression import get_codec
from repro.io.h5lite import H5LiteFile
from repro.io.shards import read_shard, write_shard
from repro.io.tfrecord import Example, TFRecordReader, TFRecordWriter

N_SAMPLES = 800
WIDTH = 256


def make_batch(seed=0):
    rng = np.random.default_rng(seed)
    # smooth-ish data so compression has something to find
    base = np.cumsum(rng.normal(0, 0.1, size=(N_SAMPLES, WIDTH)), axis=1)
    return base.astype(np.float32), rng.integers(0, 10, N_SAMPLES)


def write_rps(path, features, labels, codec):
    write_shard({"features": features, "labels": labels}, path, codec)


def read_rps(path):
    return read_shard(path)["features"]


def write_h5(path, features, labels, codec):
    with H5LiteFile(path, "w") as fh:
        fh.create_dataset("/features", features, codec=codec)
        fh.create_dataset("/labels", labels, codec=codec)


def read_h5(path):
    with H5LiteFile(path, "r") as fh:
        return fh.read("/features")


def write_bp(path, features, labels, codec):
    with BPWriter(path) as writer:
        for start in range(0, N_SAMPLES, 100):
            writer.begin_step()
            writer.write("features", features[start : start + 100], codec)
            writer.write("labels", labels[start : start + 100], codec)
            writer.end_step()


def read_bp(path):
    with BPReader(path) as reader:
        return np.concatenate(reader.read_all("features"))


def write_tfr(path, features, labels, codec):
    # TFRecord does not compress payloads itself; codec ignored (like raw TF).
    # One Example built and encoded per record.
    with TFRecordWriter(path) as writer:
        for i in range(N_SAMPLES):
            writer.write_example(
                Example()
                .float_feature("features", features[i])
                .int64_feature("label", [int(labels[i])])
            )


def write_tfr_rows(path, features, labels, codec):
    # the same records encoded from whole columns, as the fusion export does
    with TFRecordWriter(path) as writer:
        writer.write_rows(
            {"features": ("float", features), "label": ("int64", labels)}, range(N_SAMPLES)
        )


def read_tfr(path):
    return np.stack([
        e.float_array("features") for e in TFRecordReader(path).read_examples()
    ])


FORMATS = {
    "rps-shard": (write_rps, read_rps),
    "h5lite": (write_h5, read_h5),
    "adios-bp": (write_bp, read_bp),
    "tfrecord": (write_tfr, read_tfr),
    "tfrecord-rows": (write_tfr_rows, read_tfr),
}


def run_matrix(tmp_path):
    features, labels = make_batch()
    payload = features.nbytes + labels.nbytes
    rows = []
    for fmt, (writer, reader) in FORMATS.items():
        for codec_name in ("raw", "zlib"):
            codec = get_codec(codec_name, 3)
            path = tmp_path / f"{fmt}-{codec_name}.bin"
            start = time.perf_counter()
            writer(path, features, labels, codec)
            write_s = time.perf_counter() - start
            start = time.perf_counter()
            back = reader(path)
            read_s = time.perf_counter() - start
            assert np.allclose(back, features)
            size = path.stat().st_size
            rows.append((
                fmt, codec_name, format_bytes(size),
                f"{payload / size:.2f}x",
                f"{payload / write_s / 1e6:.0f} MB/s",
                f"{payload / read_s / 1e6:.0f} MB/s",
            ))
    return rows, payload


def test_format_comparison(benchmark, tmp_path, write_report):
    rows, payload = benchmark.pedantic(
        run_matrix, args=(tmp_path,), rounds=1, iterations=1
    )
    report = (
        f"Format trade study ({N_SAMPLES} x {WIDTH} float32 samples, "
        f"{format_bytes(payload)} payload):\n\n"
        + render_table(
            ["format", "codec", "on disk", "ratio", "write", "read"],
            rows,
        )
        + "\n\nShape expectations that hold: columnar containers (rps/h5lite/"
        "adios) read faster than the per-record tfrecord stream; zlib trades "
        "write throughput for size on smooth scientific fields.  tfrecord "
        "encodes one Example per record; tfrecord-rows writes the same bytes "
        "from whole columns."
    )
    write_report("FMT_formats", report)
    assert (tmp_path / "tfrecord-raw.bin").read_bytes() == (
        tmp_path / "tfrecord-rows-raw.bin"
    ).read_bytes()
    by_key = {(r[0], r[1]): r for r in rows}
    # compression helps smooth data in every container format
    for fmt in ("rps-shard", "h5lite", "adios-bp"):
        raw_size = float(by_key[(fmt, "raw")][3][:-1])
        z_size = float(by_key[(fmt, "zlib")][3][:-1])
        assert z_size > raw_size
    # per-record tfrecord pays a throughput penalty vs columnar containers
    def mbps(row):
        return float(row[5].split()[0])
    assert mbps(by_key[("rps-shard", "raw")]) > mbps(by_key[("tfrecord", "raw")])
