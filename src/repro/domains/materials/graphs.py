"""Graph encoding of atomic structures (the HydraGNN-style representation).

"Materials science pipelines increasingly rely on graph-based models to
represent atomic structures, bonding interactions, and electronic
properties" (Section 3.4).  This module turns a periodic structure into a
bond graph held the way GNN loaders take one — an edge list plus a
per-edge feature, two arrays (atoms as nodes, within-cutoff pairs as
edges under the minimum-image convention) — and derives the fixed-size
descriptor vector the structure stage needs, since GNN-ready ragged
graphs and fixed-tensor shards are both required outputs.

Both kernels are one vectorised pass per structure, and both must agree
bit for bit with a per-pair ``np.linalg.norm`` loop and the
:mod:`networkx` descriptor (the shard bytes are pinned, and the tests
compare against those references): ``sqrt(vecdot(c, c))`` does,
``einsum`` and ``(c * c).sum(1)`` do not; and clustering is summed the
way ``nx.average_clustering`` sums it, with Python's ``sum`` in node
order.
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

import numpy as np

from repro.domains.materials.synthetic import SPECIES

__all__ = ["StructureGraph", "build_graph", "graph_descriptor", "DESCRIPTOR_NAMES"]


@dataclasses.dataclass
class StructureGraph:
    """One encoded structure: bonds as an edge list and their lengths."""

    structure_id: str
    #: ``(m, 2)`` int64 ``i < j`` atom pairs, in lexicographic order
    edges: np.ndarray
    #: ``(m,)`` float64 minimum-image bond lengths, one per edge
    distances: np.ndarray
    lattice: np.ndarray
    species: List[str]

    @property
    def n_atoms(self) -> int:
        return len(self.species)

    @property
    def n_bonds(self) -> int:
        return len(self.edges)


def build_graph(
    structure_id: str,
    lattice: np.ndarray,
    species: List[str],
    positions: np.ndarray,
    *,
    cutoff_scale: float = 1.4,
) -> StructureGraph:
    """Bond graph: edge when distance < cutoff_scale * (r_i + r_j)."""
    lattice = np.asarray(lattice, dtype=np.float64)
    positions = np.asarray(positions, dtype=np.float64)
    radii = np.asarray([SPECIES[s][0] for s in species], dtype=np.float64)
    first, second = np.triu_indices(positions.shape[0], 1)
    delta = positions[first] - positions[second]
    delta -= np.round(delta)
    cart = delta @ lattice
    distance = np.sqrt(np.vecdot(cart, cart))
    bonded = distance < cutoff_scale * (radii[first] + radii[second])
    return StructureGraph(
        structure_id=structure_id,
        edges=np.stack([first[bonded], second[bonded]], axis=1).astype(np.int64, copy=False),
        distances=distance[bonded],
        lattice=lattice,
        species=list(species),
    )


#: names of the fixed descriptor vector entries, in order
DESCRIPTOR_NAMES: Tuple[str, ...] = (
    "n_atoms",
    "n_bonds",
    "mean_degree",
    "max_degree",
    "mean_bond_length",
    "std_bond_length",
    "density",
    "n_components",
    "clustering",
    *(f"frac_{s}" for s in SPECIES),
)


def graph_descriptor(sg: StructureGraph) -> np.ndarray:
    """Fixed-size descriptor vector for one structure graph.

    Graph-topological statistics plus composition fractions — the standard
    move for turning ragged graphs into shardable fixed tensors while the
    raw graphs ship separately for GNN consumers.
    """
    n = sg.n_atoms
    adjacency = np.zeros((n, n), dtype=np.int64)
    adjacency[sg.edges[:, 0], sg.edges[:, 1]] = 1
    adjacency[sg.edges[:, 1], sg.edges[:, 0]] = 1
    degrees = adjacency.sum(axis=1)
    bond_lengths = sg.distances
    volume = abs(float(np.linalg.det(sg.lattice)))
    composition = np.asarray(
        [sg.species.count(s) / max(n, 1) for s in SPECIES]
    )
    values = [
        float(n),
        float(sg.n_bonds),
        float(degrees.mean()) if degrees.size else 0.0,
        float(degrees.max()) if degrees.size else 0.0,
        float(bond_lengths.mean()) if bond_lengths.size else 0.0,
        float(bond_lengths.std()) if bond_lengths.size else 0.0,
        float(n / volume) if volume > 0 else 0.0,
        float(_n_components(adjacency)) if n else 0.0,
        _average_clustering(adjacency, degrees) if n else 0.0,
    ]
    return np.concatenate([np.asarray(values), composition])


def _n_components(adjacency: np.ndarray) -> int:
    """Connected components: the atoms that are the lowest index they reach."""
    n = len(adjacency)
    reach = (adjacency > 0) | np.eye(n, dtype=bool)
    for _ in range(n.bit_length()):  # paths of up to 2**k bonds after k squarings
        reach = reach @ reach
    return int((reach.argmax(axis=1) == np.arange(n)).sum())


def _average_clustering(adjacency: np.ndarray, degrees: np.ndarray) -> float:
    """``nx.average_clustering``, term for term: ``t`` is twice the triangles
    through a node (``diag(A^3)``), and the per-node values are summed with
    Python's ``sum`` in node order (compensated from Python 3.12 on, so
    ``np.sum`` is not the same number)."""
    closed_walks = ((adjacency @ adjacency) * adjacency).sum(axis=1)
    per_node = [
        0 if t == 0 else t / (d * (d - 1))
        for t, d in zip(closed_walks.tolist(), degrees.tolist())
    ]
    return sum(per_node) / len(per_node)
