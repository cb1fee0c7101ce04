"""The climate archetype: ``download -> regrid -> normalize -> shard``.

Reproduces the ClimaX/Pangu-style preprocessing of Section 3.1: community
formats (NetCDF-like + packed GRIB-like) are decoded, every source is
regridded onto one target grid (conservative remapping for flux-like
precipitation, bilinear for state fields), variables are normalized with
*distributed* statistics (the SPMD partial-merge path), redundant fields
are detected and dropped, samples are stacked into fixed tensors with a
next-step forecasting target, and the result is temporally split and
sharded.
"""

from __future__ import annotations

import dataclasses
import statistics
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.dataset import (
    Dataset,
    DatasetMetadata,
    FieldRole,
    FieldSpec,
    Modality,
    Schema,
)
from repro.core.evidence import EvidenceKind
from repro.core.levels import DataProcessingStage
from repro.core.plan import Parallelism, PipelineStage
from repro.core.runner import Pipeline, PipelineContext
from repro.domains.base import DomainArchetype
from repro.domains.climate.synthetic import (
    VARIABLES,
    ClimateSourceConfig,
    synthesize_climate_archive,
)
from repro.gates import ColumnCheck, DriftCheck, StageContract
from repro.io.grib import read_grib
from repro.io.netcdf import read_netcdf
from repro.quality.validation import check_finite, check_monotonic
from repro.transforms.cleaning import UnitConverter
from repro.transforms.normalize import ZScoreNormalizer
from repro.transforms.regrid import Regridder, RegularGrid, regrid
from repro.transforms.split import SplitSpec, temporal_split

__all__ = ["ClimateArchetype", "GriddedSource", "CONTRACTS"]

#: the variables every training sample must carry
CORE_VARIABLES = ("tas", "pr", "psl")

#: frozen standard-normal reference sample for the advisory drift check
#: (stack output is z-scored, so its healthy distribution is ~N(0, 1))
_TAS_BASELINE = tuple(
    round(statistics.NormalDist().inv_cdf((i + 0.5) / 128.0), 6)
    for i in range(128)
)

#: data contracts enforced at stage boundaries when gating is enabled
#: (keyed ``(stage_name, boundary)``; also the re-drive contract registry)
CONTRACTS: Dict[Tuple[str, str], StageContract] = {
    ("download", "output"): StageContract(
        name="climate-ingest",
        checks=(
            ColumnCheck("finite", "tas"),
            ColumnCheck("bounds", "tas", lo=150.0, hi=400.0),
            ColumnCheck("finite", "pr", required=False),
            ColumnCheck("bounds", "pr", lo=0.0, hi=1000.0, required=False),
            ColumnCheck("finite", "psl", required=False),
        ),
    ),
    ("stack", "output"): StageContract(
        name="climate-structure",
        checks=(
            ColumnCheck("finite", "tas"),
            ColumnCheck("finite", "pr"),
            ColumnCheck("finite", "psl"),
            ColumnCheck("finite", "tas_next"),
        ),
        drift=(DriftCheck("tas", baseline=_TAS_BASELINE, threshold=0.75),),
        validate_schema=True,
    ),
}


@dataclasses.dataclass
class GriddedSource:
    """One decoded source: a grid plus (T, nlat, nlon) variables."""

    name: str
    grid: RegularGrid
    variables: Dict[str, np.ndarray]
    units: Dict[str, str]

    @property
    def n_timesteps(self) -> int:
        first = next(iter(self.variables.values()))
        return first.shape[0]


class ClimateArchetype(DomainArchetype):
    """Executable Table 1 climate row."""

    domain = "climate"
    #: partitions of the normalize stage's distributed statistics
    n_ranks = 4

    def __init__(
        self,
        seed: int = 0,
        *,
        config: Optional[ClimateSourceConfig] = None,
        target_resolution: Tuple[int, int] = (16, 32),
    ):
        super().__init__(seed)
        self.config = config or ClimateSourceConfig(seed=seed)
        self.target_grid = RegularGrid.global_grid(*target_resolution)

    # -- source ------------------------------------------------------------------
    def synthesize_source(self, directory: Union[str, Path], **params: Any) -> Dict[str, Any]:
        config = dataclasses.replace(self.config, **params) if params else self.config
        return synthesize_climate_archive(directory, config)

    # -- stages ------------------------------------------------------------------
    def _ingest(self, manifest: Dict[str, Any], ctx: PipelineContext) -> List[GriddedSource]:
        """download: decode NetCDF-like + GRIB-like archives, validate."""
        sources: List[GriddedSource] = []
        #: the file each source was decoded from, for error messages
        origins: List[str] = []
        converter = UnitConverter()
        for path in manifest.get("netcdf", []):
            nc = read_netcdf(path)
            grid = RegularGrid(lat=nc["lat"].data, lon=nc["lon"].data)
            for axis in ("lat", "lon", "time"):
                issues = check_monotonic(nc[axis].data, column=axis)
                if issues:
                    raise ValueError(f"{path}: {issues[0]}")
            variables: Dict[str, np.ndarray] = {}
            units: Dict[str, str] = {}
            for name in nc.data_variables():
                var = nc[name]
                if var.dims != ("time", "lat", "lon"):
                    continue
                variables[name] = var.data.astype(np.float64, copy=False)
                units[name] = var.units or ""
            sources.append(
                GriddedSource(
                    name=Path(path).stem, grid=grid, variables=variables, units=units
                )
            )
            origins.append(str(path))
        if "grib" in manifest:
            messages = list(read_grib(manifest["grib"]))
            by_name: Dict[str, List] = {}
            for msg in messages:
                by_name.setdefault(msg.short_name, []).append(msg)
            first = messages[0]
            grid = RegularGrid(lat=first.grid.latitudes(), lon=first.grid.longitudes())
            variables = {
                name: np.stack([m.values for m in sorted(msgs, key=lambda m: m.valid_time)])
                for name, msgs in by_name.items()
            }
            units = {name: msgs[0].units for name, msgs in by_name.items()}
            sources.append(
                GriddedSource(name="reanalysis", grid=grid, variables=variables, units=units)
            )
            origins.append(str(manifest["grib"]))
        if not sources:
            raise ValueError("climate manifest lists no sources")
        # unit harmonization at ingest: everything to the canonical units
        for path, source in zip(origins, sources):
            for name in list(source.variables):
                canonical = VARIABLES.get(_canonical_name(name))
                if canonical is None:
                    continue
                target_units = canonical[0]
                current = source.units.get(name, "")
                if not converter.can_convert(current, target_units):
                    raise ValueError(
                        f"{path}: variable {name!r} has units {current!r}, which do not "
                        f"convert to the canonical {target_units!r}"
                    )
                if current != target_units:
                    source.variables[name] = converter.convert(
                        source.variables[name], current, target_units
                    )
                    source.units[name] = target_units
        missing = float(
            np.mean([
                np.count_nonzero(np.isnan(v)) / v.size
                for s in sources
                for v in s.variables.values()
            ])
        )
        grids = sorted({s.grid.shape for s in sources})
        ctx.add_artifact("source_grids", grids)
        ctx.record(EvidenceKind.ACQUIRED, f"{len(sources)} sources decoded")
        ctx.record(
            EvidenceKind.VALIDATED_INGEST,
            "coords monotonic, units harmonized to canonical",
            missing_fraction=missing,
        )
        ctx.record(
            EvidenceKind.METADATA_ENRICHED,
            f"grids catalogued: {grids}; variables tagged with units",
        )
        ctx.record(
            EvidenceKind.HIGH_THROUGHPUT_INGEST,
            "decoders stream per-message/per-variable without full-archive buffering",
        )
        ctx.record(
            EvidenceKind.INGEST_AUTOMATED,
            "manifest-driven ingest; no per-source manual steps",
        )
        return sources

    def _regrid(self, sources: List[GriddedSource], ctx: PipelineContext) -> List[GriddedSource]:
        """regrid: every source onto the target grid (method per variable).

        Individual fields are independent, so the per-field remaps fan
        out through the backend (Parallelism.MAP).  The stage declares
        the ``batch`` capability: when a batch size is configured the
        fan-out goes through ``ctx.backend.map_batches`` with a chunk
        function that builds each :class:`Regridder` once per (grid,
        method) within the chunk — the per-field einsum is identical
        either way, so batched and per-record runs are bitwise equal.
        """
        tasks: List[Tuple[int, str, np.ndarray, RegularGrid]] = []
        passthrough: Dict[int, GriddedSource] = {}
        for i, source in enumerate(sources):
            if source.grid.shape == self.target_grid.shape and np.allclose(
                source.grid.lat, self.target_grid.lat
            ):
                passthrough[i] = source
                continue
            for name, field in source.variables.items():
                tasks.append((i, name, field, source.grid))

        def remap(task: Tuple[int, str, np.ndarray, RegularGrid]) -> Tuple[int, str, np.ndarray]:
            i, name, field, grid = task
            method = "conservative" if _canonical_name(name) == "pr" else "bilinear"
            return i, name, regrid(field, grid, self.target_grid, method)

        def remap_batch(
            chunk: List[Tuple[int, str, np.ndarray, RegularGrid]]
        ) -> List[Tuple[int, str, np.ndarray]]:
            # amortize weight construction: one Regridder per distinct
            # (source grid, method) in the chunk; the application itself
            # stays the per-field einsum of regrid()
            regridders: Dict[Tuple[int, str], Regridder] = {}
            results: List[Tuple[int, str, np.ndarray]] = []
            for i, name, field, grid in chunk:
                method = "conservative" if _canonical_name(name) == "pr" else "bilinear"
                key = (id(grid), method)
                regridder = regridders.get(key)
                if regridder is None:
                    regridder = Regridder(grid, self.target_grid, method)
                    regridders[key] = regridder
                results.append((i, name, regridder(field)))
            return results

        regridded: Dict[int, Dict[str, np.ndarray]] = {}
        for i, name, field in ctx.backend.map_batches(
            remap_batch,
            tasks,
            batch_size=getattr(ctx, "stage_batch_size", None),
            record_fn=remap,
        ):
            regridded.setdefault(i, {})[name] = field
        n_regridded = len(tasks)
        ctx.annotate_span(
            patches_regridded=n_regridded,
            passthrough_sources=len(passthrough),
            target_grid=str(self.target_grid.shape),
        )
        out: List[GriddedSource] = []
        for i, source in enumerate(sources):
            if i in passthrough:
                out.append(passthrough[i])
                continue
            out.append(
                GriddedSource(
                    name=source.name,
                    grid=self.target_grid,
                    variables=regridded.get(i, {}),
                    units=dict(source.units),
                )
            )
        ctx.record(
            EvidenceKind.INITIAL_ALIGNMENT,
            f"{n_regridded} fields regridded to {self.target_grid.shape}",
        )
        ctx.record(
            EvidenceKind.GRIDS_STANDARDIZED,
            "single target grid across all sources",
        )
        ctx.record(
            EvidenceKind.ALIGNMENT_STANDARDIZED,
            "conservative remap for fluxes, bilinear for state fields",
        )
        ctx.record(
            EvidenceKind.ALIGNMENT_AUTOMATED,
            "method selection keyed by variable kind; no manual regridding",
        )
        return out

    def _normalize(
        self, sources: List[GriddedSource], ctx: PipelineContext
    ) -> Dict[str, Any]:
        """normalize: per-variable z-score from distributed statistics."""
        trainable = [
            s for s in sources if all(v in s.variables for v in CORE_VARIABLES)
        ]
        if not trainable:
            raise ValueError("no source carries the full core variable set")
        normalizers: Dict[str, ZScoreNormalizer] = {}
        normalized: Dict[str, np.ndarray] = {}
        source_ids: List[np.ndarray] = []
        for name in CORE_VARIABLES:
            stacked = np.concatenate(
                [s.variables[name] for s in trainable], axis=0
            )
            flat = stacked.reshape(stacked.shape[0], -1)
            stats = ctx.backend.stats(flat, partitions=self.n_ranks)
            norm = ZScoreNormalizer()
            # grid-wide scalar statistics (ClimaX normalizes per variable)
            norm.mean = np.array(float(np.mean(stats.mean)))
            norm.std = np.array(float(np.sqrt(np.mean(stats.moments.variance))))
            norm.fitted = True
            normalizers[name] = norm
            normalized[name] = norm.transform(stacked)
        # redundant variables ride along for detection at the structure stage
        extras: Dict[str, np.ndarray] = {}
        for source in trainable:
            for name, field in source.variables.items():
                if name in CORE_VARIABLES:
                    continue
                extras.setdefault(name, []).append(field)  # type: ignore[arg-type]
        extras = {
            name: np.concatenate(fields, axis=0) for name, fields in extras.items()
        }
        for i, source in enumerate(trainable):
            source_ids.append(np.full(source.n_timesteps, i, dtype=np.int64))
        ctx.add_artifact("normalizers", {k: v.params() for k, v in normalizers.items()})
        ctx.record(
            EvidenceKind.INITIAL_NORMALIZATION,
            f"z-score over {len(CORE_VARIABLES)} variables",
        )
        ctx.record(
            EvidenceKind.NORMALIZATION_FINALIZED,
            "statistics from exact distributed Welford merge "
            f"({self.n_ranks} ranks)",
        )
        # forecasting target: next-step tas exists for every non-final step
        ctx.record(EvidenceKind.BASIC_LABELS, "self-supervised next-step target",
                   labeled_fraction=1.0)
        ctx.record(EvidenceKind.COMPREHENSIVE_LABELS,
                   "every retained sample has a target", labeled_fraction=1.0)
        ctx.record(
            EvidenceKind.TRANSFORM_AUDITED,
            "normalization parameters captured in provenance artifacts",
            sensitive_remaining=0,
        )
        return {
            "normalized": normalized,
            "extras": extras,
            "source_id": np.concatenate(source_ids),
            "n_sources": len(trainable),
        }

    def _structure(self, payload: Dict[str, Any], ctx: PipelineContext) -> Dataset:
        """stack: drop redundant fields, build fixed-tensor samples + target."""
        normalized: Dict[str, np.ndarray] = payload["normalized"]
        extras: Dict[str, np.ndarray] = payload["extras"]
        source_id: np.ndarray = payload["source_id"]
        # redundant-field detection: near-perfect correlation with a core
        # variable (catches exact aliases and unit-variant duplicates)
        dropped: List[str] = []
        core_flat = {
            name: (field - field.mean()).ravel()
            for name, field in normalized.items()
        }
        for name, field in extras.items():
            centred = (field - field.mean()).ravel()
            denom = np.linalg.norm(centred)
            redundant = False
            for core_name, core_vec in core_flat.items():
                core_norm = np.linalg.norm(core_vec)
                if denom == 0 or core_norm == 0:
                    continue
                corr = abs(float(core_vec @ centred) / (core_norm * denom))
                if corr > 0.999:
                    dropped.append(f"{name} (~ {core_name})")
                    redundant = True
                    break
            if not redundant:
                dropped.append(f"{name} (not in core set)")
        ctx.add_artifact("redundant_dropped", dropped)
        nlat, nlon = self.target_grid.shape
        tas = normalized["tas"]
        keep = np.ones(tas.shape[0], dtype=bool)
        # the last step of each source has no next-step target
        boundaries = np.flatnonzero(np.diff(source_id) != 0)
        keep[boundaries] = False
        keep[-1] = False
        target = np.roll(tas, -1, axis=0)
        columns: Dict[str, np.ndarray] = {}
        fields = []
        for name in CORE_VARIABLES:
            columns[name] = normalized[name][keep].astype(np.float32)
            fields.append(
                FieldSpec(
                    name=name,
                    dtype=np.dtype(np.float32),
                    shape=(nlat, nlon),
                    role=FieldRole.FEATURE,
                    description=f"normalized {name}",
                )
            )
        columns["tas_next"] = target[keep].astype(np.float32)
        fields.append(
            FieldSpec(
                name="tas_next",
                dtype=np.dtype(np.float32),
                shape=(nlat, nlon),
                role=FieldRole.LABEL,
                description="next-step tas (forecasting target)",
            )
        )
        columns["source_id"] = source_id[keep]
        fields.append(
            FieldSpec("source_id", np.dtype(np.int64), role=FieldRole.METADATA)
        )
        columns["time_index"] = np.arange(tas.shape[0], dtype=np.int64)[keep]
        fields.append(
            FieldSpec("time_index", np.dtype(np.int64), role=FieldRole.COORDINATE)
        )
        dataset = Dataset(
            columns,
            Schema(fields),
            DatasetMetadata(
                name="climate-ai-ready",
                domain="climate",
                source="synthetic CMIP/ERA5-like archive",
                modality=Modality.GRID,
                description="Regridded, normalized, next-step-labelled climate tensors.",
            ),
        )
        issues = []
        for name in CORE_VARIABLES:
            issues.extend(check_finite(dataset[name], name))
        if issues:
            raise ValueError(f"structure validation failed: {issues[0]}")
        ctx.record(
            EvidenceKind.FEATURES_EXTRACTED,
            f"stacked {len(CORE_VARIABLES)} variables; dropped {len(dropped)} redundant",
        )
        ctx.record(
            EvidenceKind.FEATURES_VALIDATED,
            "finite-value validation on every tensor column",
        )
        ctx.add_artifact("dataset", dataset)
        return dataset

    def _shard(self, dataset: Dataset, ctx: PipelineContext) -> Dataset:
        """shard: temporal split + compressed binary shard set."""
        splits = temporal_split(dataset["time_index"], SplitSpec(0.8, 0.1, 0.1))
        manifest = ctx.backend.shard_write(
            dataset,
            self._output_dir,
            splits,
            shards_per_split=4,
            codec_name="zlib",
            codec_level=3,
            certificate=ctx.readiness_certificate(),
            schedule=ctx.schedule_record(),
        )
        ctx.add_artifact("manifest", manifest)
        ctx.record(
            EvidenceKind.SPLIT_PARTITIONED,
            f"temporal split: { {k: len(v) for k, v in splits.items()} }",
        )
        ctx.record(
            EvidenceKind.SHARDED_BINARY,
            f"{manifest.n_shards} zlib shards, manifest with checksums",
        )
        return dataset

    # -- pipeline assembly -----------------------------------------------------------
    def build_pipeline(self, output_dir: Union[str, Path]) -> Pipeline:
        self._output_dir = Path(output_dir)
        return Pipeline(
            "climate",
            [
                PipelineStage("download", DataProcessingStage.INGEST, self._ingest,
                              description="decode NetCDF-like + GRIB-like sources",
                              retry=True,
                              output_contract=CONTRACTS[("download", "output")]),
                PipelineStage("regrid", DataProcessingStage.PREPROCESS, self._regrid,
                              params={"target": self.target_grid.shape},
                              parallelism=Parallelism.MAP,
                              batch=True),
                PipelineStage("normalize", DataProcessingStage.TRANSFORM, self._normalize,
                              params={"method": "zscore", "ranks": self.n_ranks},
                              parallelism=Parallelism.REDUCE),
                PipelineStage("stack", DataProcessingStage.STRUCTURE, self._structure,
                              output_contract=CONTRACTS[("stack", "output")]),
                PipelineStage("shard", DataProcessingStage.SHARD, self._shard,
                              params={"codec": "zlib"},
                              parallelism=Parallelism.WRITE,
                              retry=True),
            ],
        )

    # -- challenge detection -----------------------------------------------------------
    def detect_challenges(self, dataset: Dataset, context: PipelineContext) -> List[str]:
        challenges: List[str] = []
        grids = context.artifacts.get("source_grids", [])
        if len(grids) > 1:
            challenges.append(
                f"spatial misalignment: {len(grids)} distinct source grids {grids}"
            )
        dropped = context.artifacts.get("redundant_dropped", [])
        if dropped:
            challenges.append(f"redundant fields: dropped {dropped}")
        manifest = context.artifacts.get("manifest")
        if manifest is not None:
            total_bytes = sum(
                s.nbytes for shards in manifest.splits.values() for s in shards
            )
            seconds = max(context.audit.events_for("shard")[-1].detail.get("seconds", 0.0), 1e-9) \
                if context.audit.events_for("shard") else 1e-9
            rate = total_bytes / seconds
            hours_for_10tb = 10e12 / rate / 3600
            challenges.append(
                f"pipeline throughput: {rate / 1e6:.0f} MB/s single-node shard write "
                f"=> {hours_for_10tb:.1f} h for a 10 TB archive (parallel I/O required)"
            )
        return challenges


def _canonical_name(name: str) -> str:
    """Map variable aliases onto canonical names for unit lookup."""
    aliases = {
        "air_temperature": "tas",
        "tas_celsius": "tas",
    }
    return aliases.get(name, name)
