"""Materials archetype: structures, graphs, fidelity correction, imbalance."""

import hashlib
import json
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.backends import get_backend
from repro.core.plan import fingerprint_payload
from repro.core.runner import PipelineContext
from repro.domains.base import SHARDS_DIR
from repro.domains.materials.graphs import (
    BLOCK,
    DESCRIPTOR_NAMES,
    SPECIES_CODES,
    build_batch,
    describe_batch,
)
from repro.domains.materials.pipeline import MaterialsArchetype
from repro.gates import QuarantineStore
from repro.domains.materials.synthetic import (
    SPECIES,
    MaterialsSourceConfig,
    generate_structure,
    synthesize_materials_archive,
)
from repro.io.adios import BPReader

CONFIG = MaterialsSourceConfig(n_structures=100, seed=13)


@pytest.fixture(scope="module")
def result(tmp_path_factory):
    arch = MaterialsArchetype(seed=13, config=CONFIG)
    return arch.run(tmp_path_factory.mktemp("materials"))


class TestSyntheticArchive:
    def test_jsonl_records_well_formed(self, tmp_path):
        manifest = synthesize_materials_archive(tmp_path, CONFIG)
        with open(manifest["calculations"]) as fh:
            records = [json.loads(line) for line in fh]
        assert len(records) == CONFIG.n_structures
        record = records[0]
        assert set(record) >= {"id", "lattice", "species", "positions",
                               "energy_ev", "forces", "fidelity"}

    def test_family_distribution_imbalanced(self, rng):
        config = MaterialsSourceConfig(n_structures=400, seed=0)
        families = [
            generate_structure(i, config, rng)["crystal_family"]
            for i in range(400)
        ]
        counts = {f: families.count(f) for f in set(families)}
        assert counts.get("cubic", 0) > counts.get("triclinic", 1) * 5

    def test_atoms_not_overlapping(self, rng):
        record = generate_structure(0, CONFIG, rng)
        lattice = np.asarray(record["lattice"])
        positions = np.asarray(record["positions"])
        n = positions.shape[0]
        for i in range(n):
            for j in range(i + 1, n):
                frac = positions[i] - positions[j]
                frac -= np.round(frac)
                assert np.linalg.norm(frac @ lattice) > 1.0

    def test_energies_physical_scale(self, rng):
        energies = [
            generate_structure(i, CONFIG, rng)["energy_ev"] for i in range(30)
        ]
        assert np.abs(energies).max() < 500  # no astronomic repulsion

    def test_experimental_offset_planted(self, rng):
        config = MaterialsSourceConfig(
            n_structures=1, experimental_fraction=1.0, experimental_offset=5.0, seed=0
        )
        rng_a = np.random.default_rng(0)
        rng_b = np.random.default_rng(0)
        experimental = generate_structure(0, config, rng_a)
        dft_config = MaterialsSourceConfig(
            n_structures=1, experimental_fraction=0.0, seed=0
        )
        dft = generate_structure(0, dft_config, rng_b)
        assert experimental["energy_ev"] > dft["energy_ev"] + 3.0


def padded(structures):
    """``(n_atoms, species, lattice, positions, fan_out)``: the columns of
    a structure table built from ``(lattice, species, positions)`` triples,
    padded to the widest structure the way the parse stage pads them, and
    a serial fan-out."""
    n_atoms = np.asarray([len(species) for _, species, _ in structures], dtype=np.int64)
    width = int(n_atoms.max(initial=0))
    codes = np.full((len(structures), width), -1, dtype=np.int64)
    positions = np.zeros((len(structures), width, 3))
    for row, (_, species, xyz) in enumerate(structures):
        codes[row, :len(species)] = [SPECIES_CODES[s] for s in species]
        positions[row, :len(species)] = xyz
    lattice = np.stack([np.asarray(l, dtype=np.float64) for l, _, _ in structures])
    return n_atoms, codes, lattice.reshape(-1, 3, 3), positions, get_backend("serial").map


def generated(count, seed=0):
    rng = np.random.default_rng(seed)
    records = [generate_structure(i, CONFIG, rng) for i in range(count)]
    return [(r["lattice"], r["species"], r["positions"]) for r in records]


class TestGraphs:
    def test_build_graph_has_bonds(self):
        structures = generated(4)
        batch = build_batch(*padded(structures))
        assert batch.n_atoms.tolist() == [len(s) for _, s, _ in structures]
        assert batch.offsets.shape == (5,) and batch.offsets[0] == 0
        assert (batch.n_bonds >= 0).all() and batch.offsets[-1] == len(batch.edges) > 0

    def test_descriptor_fixed_size(self):
        descriptors = describe_batch(build_batch(*padded(generated(3))))
        assert descriptors.shape == (3, len(DESCRIPTOR_NAMES))
        assert np.all(np.isfinite(descriptors))

    def test_composition_fractions_sum_to_one(self):
        descriptors = describe_batch(build_batch(*padded(generated(3))))
        assert descriptors[:, 9:].sum(axis=1) == pytest.approx(np.ones(3))


def per_pair_graph(lattice, species, positions, cutoff_scale=1.4):
    """The per-pair loop the vectorised kernel replaced, body unchanged."""
    lattice = np.asarray(lattice, dtype=np.float64)
    positions = np.asarray(positions, dtype=np.float64)
    n = positions.shape[0]
    graph = nx.Graph()
    for i in range(n):
        radius, _ = SPECIES[species[i]]
        graph.add_node(i, species=species[i], radius=radius)
    for i in range(n):
        for j in range(i + 1, n):
            delta = positions[i] - positions[j]
            delta -= np.round(delta)
            distance = float(np.linalg.norm(delta @ lattice))
            ri, _ = SPECIES[species[i]]
            rj, _ = SPECIES[species[j]]
            if distance < cutoff_scale * (ri + rj):
                graph.add_edge(i, j, distance=distance)
    return graph


def networkx_descriptor(graph, lattice, species):
    """The networkx descriptor the array kernel replaced, body unchanged."""
    n = graph.number_of_nodes()
    degrees = np.asarray([d for _, d in graph.degree()]) if n else np.zeros(0)
    bond_lengths = np.asarray(
        [data["distance"] for _, _, data in graph.edges(data=True)]
    )
    volume = abs(float(np.linalg.det(lattice)))
    composition = np.asarray(
        [species.count(s) / max(n, 1) for s in SPECIES]
    )
    values = [
        float(n),
        float(graph.number_of_edges()),
        float(degrees.mean()) if degrees.size else 0.0,
        float(degrees.max()) if degrees.size else 0.0,
        float(bond_lengths.mean()) if bond_lengths.size else 0.0,
        float(bond_lengths.std()) if bond_lengths.size else 0.0,
        float(n / volume) if volume > 0 else 0.0,
        float(nx.number_connected_components(graph)) if n else 0.0,
        float(nx.average_clustering(graph)) if n else 0.0,
    ]
    return np.concatenate([np.asarray(values), composition])


def ragged(count, seed, scale=1.0):
    """*count* structures of 1-16 atoms in sheared cells (lengths times
    *scale*), positions that wrap (outside ``[0, 1)`` too), and about one
    cell in ten too sparse for any bond."""
    rng = np.random.default_rng(seed)
    structures = []
    for _ in range(count):
        n = int(rng.integers(1, 17))
        lengths = rng.uniform(2.0, 9.0, 3) * (10.0 if rng.uniform() < 0.1 else 1.0)
        shear = rng.choice([0.0, 0.3, 1.5])
        lengths = lengths * scale
        lattice = np.diag(lengths) + np.triu(rng.uniform(-shear, shear, (3, 3)), 1) * lengths
        species = [list(SPECIES)[k] for k in rng.integers(0, len(SPECIES), n)]
        structures.append((lattice, species, rng.uniform(-1.5, 2.5, (n, 3))))
    return structures


@st.composite
def batches(draw):
    """Ragged batches, with cells from too sparse for any bond through
    isolated atoms to the complete graph."""
    return ragged(
        draw(st.integers(1, 8)),
        draw(st.integers(0, 2**32 - 1)),
        draw(st.sampled_from([100.0, 1.75, 1.0, 0.56, 0.014])),
    )


CUBE = np.eye(3) * 4.0


class TestGraphKernels:
    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(case=batches())
    @example(case=[(CUBE, [], np.zeros((0, 3))), (CUBE, ["Fe"], np.zeros((1, 3)))])
    @example(case=[(CUBE * 100, ["O"] * 5, np.linspace(0.0, 0.9, 15).reshape(5, 3))])
    @example(case=[(CUBE / 100, ["Ti"] * 6, np.linspace(0.0, 0.9, 18).reshape(6, 3))])
    # block edges: one short of a block, exactly one, one past it
    @example(case=ragged(BLOCK - 1, seed=1))
    @example(case=ragged(BLOCK, seed=2, scale=0.56))
    @example(case=ragged(BLOCK + 1, seed=3))
    def test_array_kernels_are_bitwise_the_networkx_graph(self, case):
        structures = case
        batch = build_batch(*padded(structures))
        graphs = [per_pair_graph(*structure) for structure in structures]
        edges = np.concatenate(
            [np.asarray(list(g.edges), dtype=np.int64).reshape(-1, 2) for g in graphs]
        )
        distances = np.asarray(
            [data["distance"] for g in graphs for _, _, data in g.edges(data=True)],
            dtype=np.float64,
        )
        offsets = np.cumsum([0] + [g.number_of_edges() for g in graphs], dtype=np.int64)
        assert batch.edges.dtype == np.int64 and batch.edges.shape == edges.shape
        assert batch.edges.tobytes() == edges.tobytes()
        assert batch.distances.dtype == np.float64
        assert batch.distances.tobytes() == distances.tobytes()
        assert batch.offsets.dtype == np.int64
        assert batch.offsets.tobytes() == offsets.tobytes()
        reference = np.stack([
            networkx_descriptor(g, np.asarray(lattice), species)
            for g, (lattice, species, _) in zip(graphs, structures)
        ])
        assert describe_batch(batch).tobytes() == reference.tobytes()


#: a record the parent's parse admitted and encode could not encode
UNENCODABLE = {
    "more-species": lambda r: dict(r, species=r["species"] + ["O", "O"]),
    "fewer-species": lambda r: dict(r, species=r["species"][:-1]),
    "unknown-species": lambda r: dict(r, species=["Xx"] + r["species"][1:]),
    "lattice-not-3x3": lambda r: dict(r, lattice=r["lattice"][:2]),
}


@pytest.mark.parametrize("defect", sorted(UNENCODABLE))
def test_parse_rejects_and_counts_what_encode_cannot_encode(defect, tmp_path):
    good = generate_structure(0, CONFIG, np.random.default_rng(5))
    bad = dict(UNENCODABLE[defect](good), id="bad")
    path = tmp_path / "calculations.jsonl"
    path.write_text("".join(json.dumps(record) + "\n" for record in (good, bad)))
    ctx = PipelineContext()
    table = MaterialsArchetype(seed=5)._parse({"calculations": str(path)}, ctx)
    assert table["id"].tolist() == [good["id"]]
    assert "1 calculations parsed (1 rejected)" in [item.detail for item in ctx.evidence]


def test_normalize_leaves_the_parse_output_untouched(tmp_path):
    config = MaterialsSourceConfig(n_structures=12, seed=3)
    manifest = synthesize_materials_archive(tmp_path, config)
    archetype, ctx = MaterialsArchetype(seed=3), PipelineContext()
    parsed = archetype._parse(manifest, ctx)
    committed = fingerprint_payload(parsed)
    normalized = archetype._normalize(parsed, ctx)
    assert fingerprint_payload(parsed) == committed
    assert "target_energy" in normalized and "target_energy" not in parsed


def test_quarantine_sheds_one_structure_row_and_ships_the_rest(tmp_path, monkeypatch):
    archetype = MaterialsArchetype(seed=21, config=MaterialsSourceConfig(n_structures=20, seed=21))
    synthesize = archetype.synthesize_source

    def one_nan_force(directory, **params):
        manifest = synthesize(directory, **params)
        path = Path(manifest["calculations"])
        lines = path.read_text().splitlines()
        record = json.loads(lines[7])
        record["forces"][1][2] = float("nan")
        lines[7] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        return manifest

    monkeypatch.setattr(archetype, "synthesize_source", one_nan_force)
    result = archetype.run(tmp_path / "work", gates="quarantine", quarantine_dir=tmp_path / "q")
    assert result.run.degraded and result.run.records_quarantined == 1
    (entry,) = QuarantineStore(tmp_path / "q").entries()
    assert (entry["stage"], entry["record_index"]) == ("parse", 7)
    assert entry["issues"][0]["column"] == "forces"
    quarantined = QuarantineStore(tmp_path / "q").load_record(str(entry["record_fingerprint"]))
    assert str(quarantined["id"]) == "mat-000007"
    shipped = result.dataset.take(result.dataset["is_synthetic"] == 0)
    assert shipped.n_samples == 19
    with BPReader(result.run.context.artifacts["bp_path"]) as reader:
        assert reader.n_steps == 19


#: sha256 of every file under ``shards/`` for ``GOLDEN_CONFIG``, taken with the
#: networkx graph encoding (the array kernels must not move a byte)
GOLDEN_CONFIG = MaterialsSourceConfig(n_structures=60, seed=21)
GOLDEN_SHARDS = {
    "graphs.bp": "fb370b836a408803aa8a6e76c86555a2e0a5ed0e6ed47e8ada37f0335c626aaf",
    "manifest.json": "29ec72a22cf782cd52d69e71bb82db8bb4238797b16ebb5c9a3d821458ccfdd9",
    "test-00000.rps": "ea61b55372a8997415f4cea392dfab78f1ae7c8948a19585727a4feb868b790e",
    "test-00001.rps": "8f03e87922331f3805bbfb8f8417b5c5830916b4d1fb64907d9c65aa97e4383f",
    "test-00002.rps": "6d15c177dc436bf60fa3630e66ff549b3b265ce3b97682bdcc18fe9c5e2d871f",
    "train-00000.rps": "f53673136da2bedc033981f24f291663449d92d078395d8f9a71e5a3d2d7c679",
    "train-00001.rps": "5c0e497ed8d0dac5e487d50ddea6994638cbed73effd380b3e774094eea0044c",
    "train-00002.rps": "b9b20ea81357b90c1cb55d0fb54cf2d4ddfe3d3aa8e76ea74cd5141a1ecfdbc9",
    "val-00000.rps": "f305f248c0adf156d0bb774a61285dd2e7f62deafd59c1e641e0ac1be9c8b776",
    "val-00001.rps": "77744570ed5126710295452b7634ecf8f0deac72f0e68de6e6da1e1bf605d759",
    "val-00002.rps": "142de481da9bb8bba57570a87a57cd8d295ca0bd22f25d31050af03630056cbe",
}


def test_shard_set_matches_golden(tmp_path):
    MaterialsArchetype(seed=21, config=GOLDEN_CONFIG).run(tmp_path)
    shards = tmp_path / SHARDS_DIR
    digests = {
        path.relative_to(shards).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(shards.rglob("*"))
        if path.is_file()
    }
    assert digests == GOLDEN_SHARDS


class TestPipeline:
    def test_reaches_level_5(self, result):
        assert result.readiness_level == 5, result.assessment.gap_report()

    def test_fidelity_offset_recovered(self, result):
        """The regression recovers the planted +0.8 eV offset."""
        offset = result.run.context.artifacts["fidelity_offset_ev"]
        assert offset == pytest.approx(CONFIG.experimental_offset, abs=0.4)

    def test_imbalance_reduced(self, result):
        before = result.run.context.artifacts["imbalance_before"]
        after = result.run.context.artifacts["imbalance_after"]
        assert before > after
        assert after <= 4.5

    def test_synthetic_samples_flagged(self, result):
        ds = result.dataset
        synthetic = ds["is_synthetic"]
        assert synthetic.sum() > 0
        originals = ds.take(synthetic == 0)
        assert originals.n_samples == CONFIG.n_structures

    def test_descriptor_standardized(self, result):
        originals = result.dataset.take(result.dataset["is_synthetic"] == 0)
        descriptors = originals["descriptor"].astype(np.float64)
        assert np.abs(descriptors.mean(axis=0)).max() < 0.5

    def test_adios_export_one_step_per_structure(self, result):
        bp_path = result.run.context.artifacts["bp_path"]
        with BPReader(bp_path) as reader:
            assert reader.n_steps == CONFIG.n_structures
            assert "edges" in reader.variables(0)
            lattice = reader.read(0, "lattice")
            assert lattice.shape == (3, 3)

    def test_energy_target_learnable(self, result):
        """Descriptors carry real signal for the energy target: a linear
        fit beats the mean predictor."""
        originals = result.dataset.take(result.dataset["is_synthetic"] == 0)
        features = originals["descriptor"].astype(np.float64)
        target = originals["energy_per_atom"]
        design = np.column_stack([features, np.ones(len(target))])
        coefficients, *_ = np.linalg.lstsq(design, target, rcond=None)
        residual = target - design @ coefficients
        assert residual.var() < target.var() * 0.8

    def test_challenges_detected(self, result):
        text = " ".join(result.detected_challenges)
        assert "class imbalance" in text
        assert "fidelity mismatch" in text
        assert "graph complexity" in text

    def test_stratified_split_covers_rare_classes(self, result):
        manifest = result.manifest
        assert manifest is not None
        assert manifest.split_samples("train") > manifest.split_samples("test")
