"""Lineage graph queries: chains, impact, recipes, cycles."""

import pytest

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
