"""Climate archetype: download -> regrid -> normalize -> shard."""

from repro.domains.climate.pipeline import ClimateArchetype, GriddedSource
from repro.domains.climate.synthetic import (
    ClimateSourceConfig,
    generate_model_dataset,
    synthesize_climate_archive,
)

__all__ = [
    "ClimateArchetype",
    "GriddedSource",
    "ClimateSourceConfig",
    "generate_model_dataset",
    "synthesize_climate_archive",
]
