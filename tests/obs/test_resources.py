"""Resource sampling and payload size/count heuristics."""

import networkx as nx
import numpy as np

from repro.core.dataset import Dataset, DatasetMetadata, FieldSpec, Schema
from repro.obs.resources import (
    ResourceProfiler,
    payload_items,
    payload_nbytes,
    sample_resources,
    throughput,
)


class TestSampling:
    def test_sample_fields_nonnegative(self):
        s = sample_resources()
        assert s.wall_s > 0
        assert s.cpu_user_s >= 0
        assert s.cpu_system_s >= 0
        assert s.max_rss_bytes >= 0
        assert s.cpu_s == s.cpu_user_s + s.cpu_system_s

    def test_profiler_delta(self):
        profiler = ResourceProfiler().start()
        # burn a little CPU so the delta is measurable but fast
        sum(i * i for i in range(20000))
        delta = profiler.stop()
        assert delta.wall_s > 0
        assert delta.cpu_s >= 0
        assert delta.max_rss_growth_bytes >= 0
        assert 0 <= delta.cpu_fraction


class TestPayloadNbytes:
    def test_ndarray(self):
        arr = np.zeros((10, 4), dtype=np.float64)
        assert payload_nbytes(arr) == arr.nbytes

    def test_bytes_and_str(self):
        assert payload_nbytes(b"abcd") == 4
        assert payload_nbytes("hello") == len("hello".encode())

    def test_containers_recurse(self):
        arr = np.zeros(8, dtype=np.float32)
        assert payload_nbytes([arr, arr]) == 2 * arr.nbytes
        # dict keys count too: "a" and "b" are one encoded byte each
        assert payload_nbytes({"a": arr, "b": b"xy"}) == arr.nbytes + 2 + 2

    def test_dataset_uses_nbytes_attr(self):
        ds = Dataset(
            {"x": np.arange(6, dtype=np.float64)},
            Schema([FieldSpec("x", np.dtype(np.float64))]),
            DatasetMetadata(name="t", domain="test"),
        )
        assert payload_nbytes(ds) >= ds["x"].nbytes

    def test_opaque_objects_are_zero(self):
        assert payload_nbytes(object()) == 0
        assert payload_nbytes([object(), b"ab"]) == 2

    def test_cached_views_are_not_content(self):
        """Regression: counting a graph's edges makes networkx cache a
        ``DegreeView`` in the graph's ``__dict__`` whose ``_graph`` points back
        at the graph; the size walk used to re-count the whole graph through
        it (3x)."""
        graph = nx.Graph()
        graph.add_nodes_from(range(4), species="Fe")
        graph.add_edges_from([(0, 1), (0, 2), (0, 3)], distance=2.0)
        attrs_before = set(vars(graph))
        before = payload_nbytes(graph)
        assert graph.number_of_edges() > 0
        assert set(vars(graph)) > attrs_before  # a cached view was written
        assert payload_nbytes(graph) == before
        assert before == sum(payload_nbytes(vars(graph)[name]) for name in attrs_before)

    def test_cycles_terminate_and_count_once(self):
        class Ring:
            def __init__(self):
                self.data = np.zeros(4, dtype=np.float64)
                self.me = self

        assert payload_nbytes(Ring()) == 32
        loop = [b"abcd"]
        loop.append(loop)
        assert payload_nbytes(loop) == 4

    def test_slotted_objects_count_their_slots(self):
        class Slotted:
            __slots__ = ("a", "never_assigned")

            def __init__(self):
                self.a = b"12345"

        assert payload_nbytes(Slotted()) == 5


class TestPayloadItems:
    def test_dataset_counts_samples(self):
        ds = Dataset(
            {"x": np.arange(5, dtype=np.float64)},
            Schema([FieldSpec("x", np.dtype(np.float64))]),
            DatasetMetadata(name="t", domain="test"),
        )
        assert payload_items(ds) == 5

    def test_ndarray_leading_dim(self):
        assert payload_items(np.zeros((7, 3))) == 7

    def test_sequence_len(self):
        assert payload_items([1, 2, 3]) == 3
        assert payload_items({"a": 1, "b": 2}) == 2

    def test_scalar_and_strings_count_one(self):
        assert payload_items("whole-file-contents") == 1
        assert payload_items(42) == 1


class TestThroughput:
    def test_normal(self):
        assert throughput(10, 2.0) == 5.0

    def test_zero_seconds_is_zero_not_inf(self):
        assert throughput(10, 0.0) == 0.0
