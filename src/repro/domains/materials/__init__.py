"""Materials archetype: parse -> normalize -> encode -> shard."""

from repro.domains.materials.graphs import (
    DESCRIPTOR_NAMES,
    GraphBatch,
    build_batch,
    describe_batch,
)
from repro.domains.materials.pipeline import MaterialsArchetype
from repro.domains.materials.synthetic import (
    CRYSTAL_FAMILIES,
    SPECIES,
    MaterialsSourceConfig,
    synthesize_materials_archive,
)

__all__ = [
    "DESCRIPTOR_NAMES",
    "GraphBatch",
    "build_batch",
    "describe_batch",
    "MaterialsArchetype",
    "CRYSTAL_FAMILIES",
    "SPECIES",
    "MaterialsSourceConfig",
    "synthesize_materials_archive",
]
