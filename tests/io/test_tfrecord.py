"""TFRecord framing, CRC verification, and Example protobuf round-trips."""

import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.io.tfrecord import (
    Example,
    TFRecordError,
    TFRecordReader,
    TFRecordWriter,
    decode_example,
    encode_example,
)


class TestFraming:
    def test_write_read_raw_records(self, tmp_path):
        path = tmp_path / "r.tfrecord"
        payloads = [b"alpha", b"", b"x" * 1000]
        with TFRecordWriter(path) as writer:
            for p in payloads:
                writer.write(p)
        assert list(TFRecordReader(path)) == payloads

    def test_n_records_counter(self, tmp_path):
        path = tmp_path / "r.tfrecord"
        with TFRecordWriter(path) as writer:
            for _ in range(7):
                writer.write(b"data")
            assert writer.n_records == 7

    def test_payload_corruption_detected(self, tmp_path):
        path = tmp_path / "r.tfrecord"
        with TFRecordWriter(path) as writer:
            writer.write(b"sensitive-payload")
        raw = bytearray(path.read_bytes())
        raw[15] ^= 0xFF  # flip a payload byte
        path.write_bytes(bytes(raw))
        with pytest.raises(TFRecordError, match="CRC"):
            list(TFRecordReader(path))

    def test_length_corruption_detected(self, tmp_path):
        path = tmp_path / "r.tfrecord"
        with TFRecordWriter(path) as writer:
            writer.write(b"abcdef")
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0x01  # flip the length field
        path.write_bytes(bytes(raw))
        with pytest.raises(TFRecordError, match="length CRC"):
            list(TFRecordReader(path))

    def test_truncated_file_detected(self, tmp_path):
        path = tmp_path / "r.tfrecord"
        with TFRecordWriter(path) as writer:
            writer.write(b"abcdefgh" * 10)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 6])
        with pytest.raises(TFRecordError, match="truncated"):
            list(TFRecordReader(path))

    def test_empty_file_yields_nothing(self, tmp_path):
        path = tmp_path / "empty.tfrecord"
        path.write_bytes(b"")
        assert list(TFRecordReader(path)) == []

    def test_framing_layout_matches_spec(self, tmp_path):
        """length:u64le comes first — interoperability-critical detail."""
        path = tmp_path / "r.tfrecord"
        with TFRecordWriter(path) as writer:
            writer.write(b"hello")
        raw = path.read_bytes()
        (length,) = struct.unpack("<Q", raw[:8])
        assert length == 5
        assert raw[12:17] == b"hello"


class TestExample:
    def test_float_feature_round_trip(self):
        example = Example().float_feature("x", [1.5, -2.25, 0.0])
        back = decode_example(encode_example(example))
        assert np.allclose(back.float_array("x"), [1.5, -2.25, 0.0])

    def test_int64_feature_round_trip_with_negatives(self):
        example = Example().int64_feature("y", [0, -1, 2**40, -(2**40)])
        back = decode_example(encode_example(example))
        assert back["y"] == [0, -1, 2**40, -(2**40)]

    def test_bytes_feature_round_trip(self):
        example = Example({"s": ("bytes", [b"", b"abc", bytes(range(256))])})
        back = decode_example(encode_example(example))
        assert back["s"] == [b"", b"abc", bytes(range(256))]

    def test_multiple_features_round_trip(self):
        example = (
            Example({"b": ("bytes", [b"tag"])})
            .float_feature("f", np.arange(4, dtype=np.float32))
            .int64_feature("i", [7])
        )
        back = decode_example(encode_example(example))
        assert set(back.features) == {"f", "i", "b"}
        assert back.kind("f") == "float"
        assert back.kind("i") == "int64"
        assert back.kind("b") == "bytes"

    def test_kind_mismatch_raises(self):
        example = Example().int64_feature("x", [1])
        with pytest.raises(TFRecordError, match="not float"):
            decode_example(encode_example(example)).float_array("x")  # wrong kind
        with pytest.raises(TFRecordError, match="not float"):
            example.float_array("x")

    def test_example_equality(self):
        a = Example().float_feature("x", [1.0])
        b = Example().float_feature("x", [1.0])
        assert a == b

    @given(st.lists(st.integers(-(2**62), 2**62), max_size=30))
    def test_property_int64_round_trip(self, values):
        back = decode_example(encode_example(Example().int64_feature("v", values)))
        assert back["v"] == values

    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=32), max_size=30
        )
    )
    def test_property_float_round_trip(self, values):
        back = decode_example(encode_example(Example().float_feature("v", values)))
        assert np.allclose(
            back.float_array("v"), np.asarray(values, dtype=np.float32), rtol=0
        )

    def test_write_read_examples_through_file(self, tmp_path):
        path = tmp_path / "e.tfrecord"
        with TFRecordWriter(path) as writer:
            for i in range(5):
                writer.write_example(Example().int64_feature("i", [i]))
        values = [e["i"][0] for e in TFRecordReader(path).read_examples()]
        assert values == [0, 1, 2, 3, 4]

    def test_malformed_protobuf_raises(self):
        with pytest.raises(TFRecordError):
            decode_example(b"\xff\xff\xff\xff")
