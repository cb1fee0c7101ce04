"""Graph encoding of atomic structures (the HydraGNN-style representation).

"Materials science pipelines increasingly rely on graph-based models to
represent atomic structures, bonding interactions, and electronic
properties" (Section 3.4).  This module turns a table of periodic
structures into bond graphs held the way GNN loaders batch them — one
concatenated edge list plus a per-edge feature, cut into structures by
an offsets array (atoms as nodes, within-cutoff pairs as edges under the
minimum-image convention) — and derives the fixed-size descriptor
vector the structure stage needs, since GNN-ready ragged graphs and
fixed-tensor shards are both required outputs.

Structures arrive padded to the widest one, ``W`` atoms: species codes
padded with ``-1``, positions with zeros.  Both kernels work on fixed
blocks of :data:`BLOCK` structures at a time, and both must agree bit
for bit with a per-pair ``np.linalg.norm`` loop and the :mod:`networkx`
descriptor (the shard bytes are pinned, and the tests compare against
those references): a batched ``np.matmul`` followed by
``sqrt(vecdot(c, c))`` does, ``einsum`` and ``(c * c).sum(1)`` do not;
bond-length mean and std stay per-structure NumPy reductions
(``reduceat`` and ``cumsum`` sum in another order); and clustering is
summed the way ``nx.average_clustering`` sums it, with Python's ``sum``
in node order.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.core.backends import batch_slices
from repro.domains.materials.synthetic import SPECIES

__all__ = [
    "BLOCK",
    "DESCRIPTOR_NAMES",
    "GraphBatch",
    "SPECIES_CODES",
    "build_batch",
    "describe_batch",
]

#: structures per kernel block: the block grid is a pure function of the
#: structure count, so every backend cuts the same blocks
BLOCK = 128

#: species -> its code in the structure table and the ADIOS-like export
#: (alphabetical order)
SPECIES_CODES = {s: i for i, s in enumerate(sorted(SPECIES))}
#: covalent-ish radius per species code
_RADII = np.asarray([SPECIES[s][0] for s in sorted(SPECIES)], dtype=np.float64)
#: two atoms bond when they are closer than this times the sum of their radii
CUTOFF_SCALE = 1.4

#: ``fan_out(fn, items) -> [fn(item) for item in items]``, in order
FanOut = Callable[[Callable[[slice], object], Sequence[slice]], List[object]]


@dataclasses.dataclass
class GraphBatch:
    """The bond graphs of ``n`` structures, CSR-style.

    Structure ``s`` owns rows ``offsets[s]:offsets[s + 1]`` of ``edges``
    and ``distances``; ``n_atoms``, ``species`` and ``lattice`` are the
    structure table's columns (shared, not copied).
    """

    #: ``(n + 1,)`` int64 row offsets into ``edges`` / ``distances``
    offsets: np.ndarray
    #: ``(M, 2)`` int64 ``i < j`` atom pairs, lexicographic per structure
    edges: np.ndarray
    #: ``(M,)`` float64 minimum-image bond lengths, one per edge
    distances: np.ndarray
    #: ``(n,)`` int64 atoms per structure
    n_atoms: np.ndarray
    #: ``(n, W)`` int64 :data:`SPECIES_CODES` codes, padded with ``-1``
    species: np.ndarray
    #: ``(n, 3, 3)`` float64 lattice vectors (rows)
    lattice: np.ndarray

    @property
    def n_bonds(self) -> np.ndarray:
        """``(n,)`` bonds per structure."""
        return np.diff(self.offsets)


def build_batch(
    n_atoms: np.ndarray,
    species: np.ndarray,
    lattice: np.ndarray,
    positions: np.ndarray,
    fan_out: FanOut,
) -> GraphBatch:
    """Bond graphs of a padded structure table, :data:`BLOCK` structures
    per task; ``fan_out`` runs the tasks (an execution backend's ``map``).
    An edge joins two atoms whose minimum-image distance is below
    ``CUTOFF_SCALE * (r_i + r_j)``."""
    first, second = np.triu_indices(positions.shape[1], 1)

    def block(rows: slice) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(bonds per structure, edges, distances)`` of one block."""
        delta = positions[rows, first] - positions[rows, second]
        delta -= np.round(delta)
        cart = np.matmul(delta, lattice[rows])
        distance = np.sqrt(np.vecdot(cart, cart))
        radii = _RADII[species[rows]]
        bonded = (second < n_atoms[rows, None]) & (
            distance < CUTOFF_SCALE * (radii[:, first] + radii[:, second])
        )
        # row-major: structure by structure, each one's pairs in order
        structure, pair = np.nonzero(bonded)
        edges = np.stack([first[pair], second[pair]], axis=1).astype(np.int64, copy=False)
        return bonded.sum(axis=1), edges, distance[structure, pair]

    parts = fan_out(block, batch_slices(len(n_atoms), BLOCK))
    counts = [np.zeros(1, dtype=np.int64)] + [part[0] for part in parts]
    return GraphBatch(
        offsets=np.cumsum(np.concatenate(counts)),
        edges=np.concatenate([np.empty((0, 2), dtype=np.int64)] + [p[1] for p in parts]),
        distances=np.concatenate([np.empty(0)] + [p[2] for p in parts]),
        n_atoms=n_atoms,
        species=species,
        lattice=lattice,
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


def describe_batch(batch: GraphBatch) -> np.ndarray:
    """``(n, len(DESCRIPTOR_NAMES))`` descriptor matrix, block by block.

    Graph-topological statistics plus composition fractions — the standard
    move for turning ragged graphs into shardable fixed tensors while the
    raw graphs ship separately for GNN consumers.
    """
    blocks = [np.empty((0, len(DESCRIPTOR_NAMES)))]
    blocks += [_describe_block(batch, rows) for rows in batch_slices(len(batch.n_atoms), BLOCK)]
    return np.concatenate(blocks)


def _describe_block(batch: GraphBatch, rows: slice) -> np.ndarray:
    n = batch.n_atoms[rows]
    species = batch.species[rows]
    offsets = batch.offsets[rows.start:rows.stop + 1]
    size, width = species.shape
    bonds = np.diff(offsets)
    edges = batch.edges[offsets[0]:offsets[-1]]
    owner = np.repeat(np.arange(size), bonds)
    # 0/1 entries: every sum and product below is a small integer, exact in
    # float64 whatever order BLAS adds in
    adjacency = np.zeros((size, width, width))
    adjacency[owner, edges[:, 0], edges[:, 1]] = 1
    adjacency[owner, edges[:, 1], edges[:, 0]] = 1
    degrees = adjacency.sum(axis=2)
    mean_degree = np.divide(degrees.sum(axis=1), n, out=np.zeros(size), where=n > 0)
    volume = np.abs(np.linalg.det(batch.lattice[rows]))
    density = np.divide(n, volume, out=np.zeros(size), where=volume > 0)
    bond_stats = np.zeros((size, 2))
    for s in range(size):
        lengths = batch.distances[offsets[s]:offsets[s + 1]]
        if lengths.size:
            bond_stats[s] = lengths.mean(), lengths.std()
    values = np.column_stack([
        n,
        bonds,
        mean_degree,
        degrees.max(axis=1, initial=0),
        bond_stats,
        density,
        _n_components(adjacency, n),
        _average_clustering(adjacency, degrees, n),
    ])
    composition = np.stack(
        [(species == SPECIES_CODES[s]).sum(axis=1) for s in SPECIES], axis=1
    ) / np.maximum(n, 1)[:, None]
    return np.concatenate([values, composition], axis=1)


def _n_components(adjacency: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Connected components per structure: the atoms that are the lowest
    index they reach (padding atoms reach only themselves and are not
    counted)."""
    width = adjacency.shape[1]
    reach = np.maximum(adjacency, np.eye(width))
    for _ in range(width.bit_length()):  # paths of up to 2**k bonds after k squarings
        reach = np.minimum(reach @ reach, 1.0)
    atom = np.arange(width)
    lowest = (reach.argmax(axis=2) == atom) & (atom < n[:, None])
    return lowest.sum(axis=1)


def _average_clustering(
    adjacency: np.ndarray, degrees: np.ndarray, n: np.ndarray
) -> List[float]:
    """``nx.average_clustering``, term for term: ``t`` is twice the triangles
    through a node (``diag(A^3)``), and each structure's per-node values are
    summed with Python's ``sum`` in node order (compensated from Python 3.12
    on, so ``np.sum`` is not the same number)."""
    closed_walks = ((adjacency @ adjacency) * adjacency).sum(axis=2)
    pairs = degrees * (degrees - 1)
    per_node = np.divide(
        closed_walks, pairs, out=np.zeros(closed_walks.shape), where=closed_walks != 0
    )
    return [
        sum(row[:atoms]) / atoms if atoms else 0.0
        for row, atoms in zip(per_node.tolist(), n.tolist())
    ]
