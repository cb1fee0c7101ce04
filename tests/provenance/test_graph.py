"""Lineage graph queries: chains, impact, recipes, cycles."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.provenance.graph import LineageError, LineageGraph
from repro.provenance.record import ProvenanceRecord


def rec(activity, inputs, output, params=None):
    return ProvenanceRecord.create(activity, inputs, output, params=params)


@pytest.fixture
def diamond():
    """raw -> clean -> {norm, label} -> merged."""
    graph = LineageGraph()
    graph.add(rec("acquire", [], "raw"))
    graph.add(rec("clean", ["raw"], "clean"))
    graph.add(rec("normalize", ["clean"], "norm"))
    graph.add(rec("label", ["clean"], "labeled"))
    graph.add(rec("merge", ["norm", "labeled"], "merged"))
    return graph


class TestStructure:
    def test_roots_and_leaves(self, diamond):
        assert diamond.roots() == ["raw"]

    def test_ancestors(self, diamond):
        assert diamond.ancestors("merged") == {"raw", "clean", "norm", "labeled"}
        assert diamond.ancestors("raw") == set()

    def test_verify_connected(self, diamond):
        assert diamond.verify_connected("merged")
        assert diamond.verify_connected("raw")

    def test_unknown_entity(self, diamond):
        with pytest.raises(LineageError, match="unknown"):
            diamond.ancestors("nope")

    def test_cycle_rejected_and_rolled_back(self, diamond):
        with pytest.raises(LineageError, match="cycle"):
            diamond.add(rec("bad", ["merged"], "raw"))
        # graph unchanged after rollback
        assert diamond.roots() == ["raw"]
        assert len(diamond) == 5

    def test_record_for_latest(self, diamond):
        record = diamond.record_for("norm")
        assert record is not None and record.activity == "normalize"
        assert diamond.record_for("unknown-entity") is None


class TestRecipes:

    def test_extend(self, diamond):
        extra = [rec("export", ["merged"], "shards")]
        diamond.extend(extra)
        assert "shards" in diamond.entities


#: a handful of entity names, so random records share nodes and close cycles
ENTITIES = st.sampled_from(["raw", "a", "b", "c", "d", "e"])


class TestNetworkxReference:
    """The parent-set graph against a networkx DAG of the records it accepts."""

    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(records=st.lists(st.tuples(st.lists(ENTITIES, max_size=3), ENTITIES), max_size=12))
    def test_queries_match_a_networkx_dag(self, records):
        graph, reference = LineageGraph(), nx.MultiDiGraph()
        for i, (inputs, output) in enumerate(records):
            candidate = reference.copy()
            candidate.add_node(output)
            candidate.add_edges_from((src, output) for src in inputs)
            acyclic = nx.is_directed_acyclic_graph(candidate)
            if acyclic:
                graph.add(rec(f"step{i}", inputs, output))
                reference = candidate
            else:
                with pytest.raises(LineageError, match="cycle"):
                    graph.add(rec(f"step{i}", inputs, output))
        assert graph.entities == sorted(reference.nodes)
        assert graph.roots() == sorted(n for n in reference.nodes if reference.in_degree(n) == 0)
        for entity in reference.nodes:
            assert graph.ancestors(entity) == nx.ancestors(reference, entity)
            assert graph.verify_connected(entity)

