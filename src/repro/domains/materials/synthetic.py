"""Synthetic DFT-like materials source: OMat24/AFLOW-style structures.

Stands in for open materials archives (DESIGN.md substitutions).  Each
record is a relaxed "calculation output": a periodic lattice, atomic
species and fractional positions, a total energy from a simple pair
potential (so energies are a *learnable function of structure*, not
noise), per-atom forces, and a stability label.  The archetype's Table 1
challenges are built in:

* **class imbalance** — crystal families are sampled with a heavy-tailed
  distribution (cubic structures dominate, triclinic is rare);
* **fidelity mismatch** — a subset of records is tagged "experimental"
  and carries a systematic energy offset plus larger noise, the classic
  multi-fidelity integration problem;
* **graph complexity** — structure sizes vary widely, so graph encodings
  are ragged until the structure stage fixes a descriptor layout.

Records are serialized as JSON-lines, one calculation per line — the
"parse simulations" ingest step has real parsing to do.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, List, Tuple, Union

import numpy as np

__all__ = [
    "MaterialsSourceConfig",
    "CRYSTAL_FAMILIES",
    "SPECIES",
    "generate_structure",
    "synthesize_materials_archive",
]

#: crystal family -> sampling weight (heavy-tailed: the imbalance knob)
CRYSTAL_FAMILIES: Dict[str, float] = {
    "cubic": 0.55,
    "hexagonal": 0.2,
    "tetragonal": 0.12,
    "orthorhombic": 0.08,
    "monoclinic": 0.04,
    "triclinic": 0.01,
}

#: species -> (covalent-ish radius, pair-potential epsilon)
SPECIES: Dict[str, Tuple[float, float]] = {
    "Si": (1.11, 1.0),
    "O": (0.66, 1.4),
    "Fe": (1.32, 2.0),
    "Al": (1.21, 1.2),
    "Mg": (1.41, 0.9),
    "Ti": (1.60, 1.8),
}


@dataclasses.dataclass(frozen=True)
class MaterialsSourceConfig:
    n_structures: int = 150
    min_atoms: int = 4
    max_atoms: int = 16
    experimental_fraction: float = 0.2  # multi-fidelity subset
    experimental_offset: float = 0.8  # systematic eV offset
    seed: int = 0


def _lattice_for_family(family: str, rng: np.random.Generator) -> np.ndarray:
    """A 3x3 lattice matrix with the family's symmetry flavour."""
    a = rng.uniform(3.5, 6.5)
    if family == "cubic":
        lengths = (a, a, a)
        angles = (90.0, 90.0, 90.0)
    elif family == "hexagonal":
        lengths = (a, a, rng.uniform(1.2, 1.8) * a)
        angles = (90.0, 90.0, 120.0)
    elif family == "tetragonal":
        lengths = (a, a, rng.uniform(0.7, 1.5) * a)
        angles = (90.0, 90.0, 90.0)
    elif family == "orthorhombic":
        lengths = (a, rng.uniform(0.8, 1.3) * a, rng.uniform(0.8, 1.3) * a)
        angles = (90.0, 90.0, 90.0)
    elif family == "monoclinic":
        lengths = (a, rng.uniform(0.8, 1.3) * a, rng.uniform(0.8, 1.3) * a)
        angles = (90.0, rng.uniform(95.0, 115.0), 90.0)
    else:  # triclinic
        lengths = tuple(a * rng.uniform(0.8, 1.3, 3))
        angles = tuple(rng.uniform(80.0, 110.0, 3))
    alpha, beta, gamma = np.deg2rad(angles)
    ax, ay, az = lengths
    # standard crystallographic lattice construction
    lattice = np.zeros((3, 3))
    lattice[0] = [ax, 0.0, 0.0]
    lattice[1] = [ay * np.cos(gamma), ay * np.sin(gamma), 0.0]
    cx = az * np.cos(beta)
    cy = az * (np.cos(alpha) - np.cos(beta) * np.cos(gamma)) / np.sin(gamma)
    cz = np.sqrt(max(az**2 - cx**2 - cy**2, 1e-6))
    lattice[2] = [cx, cy, cz]
    return lattice


def _packed_positions(n_atoms: int, lattice: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Fractional positions with a minimum pair separation of 1.9 (200 tries per atom).

    Rejection sampling under the minimum-image convention keeps the pair
    potential in its physical regime — fully random placements produce
    overlapping atoms and astronomically repulsive energies no relaxed
    calculation would report.
    """
    inv_check = np.linalg.inv(lattice)  # noqa: F841 - documents invertibility
    placed: List[np.ndarray] = []
    for _ in range(n_atoms):
        best = None
        for _ in range(200):
            candidate = rng.uniform(0.0, 1.0, size=3)
            ok = True
            for other in placed:
                frac = candidate - other
                frac -= np.round(frac)
                if np.linalg.norm(frac @ lattice) < 1.9:
                    ok = False
                    break
            if ok:
                best = candidate
                break
        if best is None:
            # cell too crowded for the separation constraint: take the last
            # candidate anyway; the clamped potential keeps energy finite
            best = rng.uniform(0.0, 1.0, size=3)
        placed.append(best)
    return np.stack(placed)


def _pair_energy(
    positions: np.ndarray, species: List[str], lattice: np.ndarray
) -> Tuple[float, np.ndarray]:
    """Lennard-Jones-flavoured energy and forces (minimum-image, cartesian)."""
    cart = positions @ lattice
    n = cart.shape[0]
    energy = 0.0
    forces = np.zeros((n, 3))
    inv = np.linalg.inv(lattice)
    for i in range(n):
        for j in range(i + 1, n):
            delta = cart[i] - cart[j]
            # minimum-image convention in fractional space
            frac = delta @ inv
            frac -= np.round(frac)
            delta = frac @ lattice
            r = float(np.linalg.norm(delta))
            r = max(r, 1.2)
            ri, ei = SPECIES[species[i]]
            rj, ej = SPECIES[species[j]]
            sigma = 0.45 * (ri + rj)
            eps = float(np.sqrt(ei * ej))
            sr6 = (sigma / r) ** 6
            energy += 4 * eps * (sr6**2 - sr6)
            magnitude = 24 * eps * (2 * sr6**2 - sr6) / r
            direction = delta / r
            forces[i] += magnitude * direction
            forces[j] -= magnitude * direction
    return energy, forces


def generate_structure(
    index: int, config: MaterialsSourceConfig, rng: np.random.Generator
) -> Dict[str, object]:
    """One calculation record as a JSON-serializable dict."""
    families = list(CRYSTAL_FAMILIES)
    weights = np.asarray(list(CRYSTAL_FAMILIES.values()))
    family = families[int(rng.choice(len(families), p=weights / weights.sum()))]
    n_atoms = int(rng.integers(config.min_atoms, config.max_atoms + 1))
    lattice = _lattice_for_family(family, rng)
    # cap occupancy so the separation constraint is satisfiable (about one
    # atom per 14 cubic angstroms, a realistic solid-state density)
    volume = abs(float(np.linalg.det(lattice)))
    n_atoms = max(config.min_atoms, min(n_atoms, int(volume / 14.0) or config.min_atoms))
    species = [
        list(SPECIES)[int(rng.integers(0, len(SPECIES)))] for _ in range(n_atoms)
    ]
    positions = _packed_positions(n_atoms, lattice, rng)
    energy, forces = _pair_energy(positions, species, lattice)
    fidelity = "experimental" if rng.uniform() < config.experimental_fraction else "dft"
    if fidelity == "experimental":
        energy += config.experimental_offset + float(rng.normal(0, 0.3))
        forces = forces + rng.normal(0, 0.2, forces.shape)
    else:
        energy += float(rng.normal(0, 0.02))
    return {
        "id": f"mat-{index:06d}",
        "crystal_family": family,
        "lattice": lattice.tolist(),
        "species": species,
        "positions": positions.tolist(),
        "energy_ev": energy,
        "forces": forces.tolist(),
        "fidelity": fidelity,
        "code": "synthetic-dft 1.0" if fidelity == "dft" else "beamline-fit 0.3",
    }


def synthesize_materials_archive(
    directory: Union[str, Path], config: MaterialsSourceConfig
) -> Dict[str, object]:
    """Write a JSON-lines calculation archive; returns the source manifest."""
    rng = np.random.default_rng(config.seed)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "calculations.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(config.n_structures):
            fh.write(json.dumps(generate_structure(i, config, rng)))
            fh.write("\n")
    return {
        "domain": "materials",
        "calculations": str(path),
        "n_structures": config.n_structures,
        "config_seed": config.seed,
    }
