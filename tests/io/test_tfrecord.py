"""TFRecord framing, CRC verification, Example protobuf round-trips, and
the column encoder the framed rows come from."""

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.io import tfrecord
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


def example_of(**features):
    """An Example holding *features* (``name=(kind, values)``) as given."""
    example = Example()
    example.features.update(features)
    return example


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
        example = example_of(s=("bytes", [b"", b"abc", bytes(range(256))]))
        back = decode_example(encode_example(example))
        assert back["s"] == [b"", b"abc", bytes(range(256))]

    def test_multiple_features_round_trip(self):
        example = (
            example_of(b=("bytes", [b"tag"]))
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

    @pytest.mark.parametrize("value", [3, "abc", 1.5, None, [b"x"]])
    def test_bytes_feature_refuses_what_is_not_bytes(self, value, tmp_path):
        """``bytes(3)`` is three zero bytes: a non-bytes value must not be
        written as some other value's bytes."""
        with pytest.raises(TFRecordError, match="not bytes"):
            encode_example(example_of(b=("bytes", [b"ok", value])))
        with pytest.raises(TFRecordError, match="not bytes"), \
                TFRecordWriter(tmp_path / "r.tfrecord") as writer:
            writer.write_example(example_of(b=("bytes", [value])))

    def test_bytes_feature_takes_any_bytes_like_value(self):
        example = example_of(b=("bytes", [bytearray(b"ab"), memoryview(b"cd")]))
        assert decode_example(encode_example(example))["b"] == [b"ab", b"cd"]

    def test_int64_outside_the_type_is_refused(self):
        with pytest.raises(TFRecordError, match="int64 feature 'i'"):
            encode_example(example_of(i=("int64", [2**63])))


# -- the column encoder --------------------------------------------------------------

#: float32 bit patterns the generator must reach: both zeros, the smallest
#: and largest subnormals, both infinities, NaNs with payload and sign bits
SPECIAL_FLOAT_BITS = [
    0x00000000, 0x80000000, 0x00000001, 0x807FFFFF, 0x7F800000, 0xFF800000,
    0x7FC00000, 0xFFC00001, 0x7FFFFFFF, 0x3F800000,
]
INT64_EXTREMES = [-(2**63), 2**63 - 1, -1, 0, 127, 128, -129]


def _quiet(bits):
    """A signalling NaN becomes quiet: decoded values are Python floats,
    and widening a float32 sNaN to a double sets its quiet bit."""
    if bits & 0x7F800000 == 0x7F800000 and bits & 0x007FFFFF:
        return bits | 0x00400000
    return bits


FLOAT_BITS = (st.sampled_from(SPECIAL_FLOAT_BITS) | st.integers(0, 2**32 - 1)).map(_quiet)
INT64S = st.sampled_from(INT64_EXTREMES) | st.integers(-(2**63), 2**63 - 1)


@st.composite
def column_sets(draw):
    """``(columns, rows)``: float32, int64 and bytes columns (zero-width
    included) of one row count, and row indices into them in any order,
    repeats allowed (zero rows is an explicit example)."""
    n = draw(st.integers(1, 5))
    columns = {}
    for name in draw(st.lists(st.text(max_size=3), max_size=4, unique=True)):
        kind = draw(st.sampled_from(["float", "int64", "bytes"]))
        width = draw(st.integers(0, 4))
        if kind == "float":
            bits = draw(st.lists(FLOAT_BITS, min_size=n * width, max_size=n * width))
            values = np.asarray(bits, dtype=np.uint32).view(np.float32).reshape(n, width)
        elif kind == "int64":
            ints = draw(st.lists(INT64S, min_size=n * width, max_size=n * width))
            values = np.asarray(ints, dtype=np.int64).reshape(n, width)
        else:
            values = draw(st.lists(st.lists(st.binary(max_size=5), max_size=3),
                                   min_size=n, max_size=n))
        columns[name] = (kind, values)
    return columns, draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6))


#: columns that hold no row at all
ZERO_ROW_COLUMNS = {
    "b": ("bytes", []),
    "f": ("float", np.zeros((0, 3), dtype=np.float32)),
    "i": ("int64", np.zeros((0, 2), dtype=np.int64)),
}


def _row_example(columns, row):
    """Row *row* as one Example (a float row stays a float32 array, every bit kept)."""
    return example_of(**{
        name: (kind, values[row].tolist() if kind == "int64" else values[row])
        for name, (kind, values) in columns.items()
    })


def _write_rows(path, columns, rows):
    with TFRecordWriter(path) as writer:
        writer.write_rows(columns, rows)
        assert writer.n_records == len(rows)
    return path.read_bytes()


class TestRowEncoder:
    @settings(max_examples=60, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(column_sets())
    @example((ZERO_ROW_COLUMNS, []))
    def test_rows_round_trip_equal_one_example_each_and_detect_every_flip(self, case):
        columns, rows = case
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "rows.tfrecord"
            framed = _write_rows(path, columns, rows)
            records = list(TFRecordReader(path))
            assert len(records) == len(rows)
            for record, row in zip(records, rows):
                example = _row_example(columns, row)
                assert record == encode_example(example)
                back = decode_example(record)
                assert set(back.features) == set(columns)
                for name, (kind, values) in columns.items():
                    assert back.kind(name) == kind
                    if kind == "float":
                        assert np.asarray(back[name], "<f4").tobytes() == values[row].tobytes()
                    else:
                        assert back[name] == example[name]
            # one batch per row frames exactly the same bytes
            small, tfrecord.BATCH_BYTES = tfrecord.BATCH_BYTES, 1
            try:
                assert _write_rows(path, columns, rows) == framed
            finally:
                tfrecord.BATCH_BYTES = small
            for at in range(len(framed)):
                flipped = bytearray(framed)
                flipped[at] ^= 0xFF
                path.write_bytes(flipped)
                with pytest.raises(TFRecordError):
                    list(TFRecordReader(path))

    def test_rows_are_raveled_sub_arrays(self, tmp_path):
        window = np.arange(2 * 3 * 2, dtype=np.float64).reshape(2, 3, 2)
        columns = {"w": ("float", window), "i": ("int64", np.array([7, -7]))}
        framed = _write_rows(tmp_path / "r.tfrecord", columns, np.array([1, 0]))
        with TFRecordWriter(tmp_path / "one.tfrecord") as writer:
            for row in (1, 0):
                writer.write_example(
                    Example().float_feature("w", window[row]).int64_feature("i", [columns["i"][1][row]])
                )
        assert framed == (tmp_path / "one.tfrecord").read_bytes()

    def test_unknown_kind_is_refused(self, tmp_path):
        with pytest.raises(TFRecordError, match="unknown feature kind"):
            _write_rows(tmp_path / "r.tfrecord", {"x": ("double", np.zeros((1, 1)))}, [0])
