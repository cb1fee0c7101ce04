"""JSONL provenance store: durability, replay, crash tolerance."""

from repro.provenance.graph import LineageGraph
from repro.provenance.record import ProvenanceRecord
from repro.provenance.store import ProvenanceStore


def chain_records():
    r1 = ProvenanceRecord.create("acquire", [], "raw")
    r2 = ProvenanceRecord.create("clean", ["raw"], "cleaned")
    r3 = ProvenanceRecord.create("shard", ["cleaned"], "shards")
    return [r1, r2, r3]


class TestStore:
    def test_append_and_load(self, tmp_path):
        store = ProvenanceStore(tmp_path / "p.jsonl")
        records = chain_records()
        for record in records:
            store.append(record)
        loaded = store.load()
        assert loaded == records
        assert len(store) == 3

    def test_rebuild_graph(self, tmp_path):
        store = ProvenanceStore(tmp_path / "p.jsonl")
        for record in chain_records():
            store.append(record)
        graph = store.build_graph()
        assert isinstance(graph, LineageGraph)
        assert graph.roots() == ["raw"]
        assert "shards" in graph.entities

    def test_verify_chain(self, tmp_path):
        store = ProvenanceStore(tmp_path / "p.jsonl")
        for record in chain_records():
            store.append(record)
        assert store.verify_chain("shards")

    def test_survives_new_session(self, tmp_path):
        path = tmp_path / "p.jsonl"
        store = ProvenanceStore(path)
        for record in chain_records():
            store.append(record)
        del store
        resumed = ProvenanceStore(path)
        assert len(resumed) == 3

    def test_torn_final_line_ignored(self, tmp_path):
        path = tmp_path / "p.jsonl"
        store = ProvenanceStore(path)
        for record in chain_records():
            store.append(record)
        with open(path, "a") as fh:
            fh.write('{"record_id": "incomplete...')  # crash mid-write
        assert len(ProvenanceStore(path).load()) == 3

    def test_load_physically_heals_torn_tail(self, tmp_path):
        # tolerating a torn line on read is not enough: load() truncates
        # it away so the file itself is clean for the next writer
        path = tmp_path / "p.jsonl"
        store = ProvenanceStore(path)
        for record in chain_records():
            store.append(record)
        clean_bytes = path.read_bytes()
        with open(path, "a") as fh:
            fh.write('{"record_id": "incomplete...')
        assert len(ProvenanceStore(path).load()) == 3
        assert path.read_bytes() == clean_bytes

    def test_append_after_torn_tail_keeps_log_parseable(self, tmp_path):
        path = tmp_path / "p.jsonl"
        store = ProvenanceStore(path)
        records = chain_records()
        store.append(records[0])
        with open(path, "a") as fh:
            fh.write('{"torn')  # crash mid-append
        store.append(records[1])
        loaded = ProvenanceStore(path).load()
        assert loaded == records[:2]
        import json

        for line in path.read_text().splitlines():
            json.loads(line)  # every physical line is whole

    def test_heal_reports_bytes_removed(self, tmp_path):
        path = tmp_path / "p.jsonl"
        store = ProvenanceStore(path)
        store.append(chain_records()[0])
        with open(path, "a") as fh:
            fh.write("junk")
        assert store.heal() == 4
        assert store.heal() == 0

    def test_empty_store(self, tmp_path):
        store = ProvenanceStore(tmp_path / "missing.jsonl")
        assert store.load() == []
        assert len(store) == 0

    def test_parent_dirs_created(self, tmp_path):
        store = ProvenanceStore(tmp_path / "deep" / "nested" / "p.jsonl")
        store.append(ProvenanceRecord.create("a", [], "o"))
        assert len(store) == 1
