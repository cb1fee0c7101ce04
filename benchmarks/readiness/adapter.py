"""The only module of the benchmark that imports ``repro``.

It touches the program through the entry points the roadmap keeps:
``DomainArchetype.run`` / ``synthesize_source``, ``Telemetry``,
``get_backend``, ``ShardSet``, ``write_shard`` / ``read_shard``,
``read_netcdf``, ``atomic_write_bytes`` / ``append_jsonl_durable``,
``fingerprint_payload``, ``payload_nbytes``, ``SecureEnclave``, the
batched transform entry points and one ``StageContract`` — and none of
the names scheduled for deletion (``core.pipeline``, ``RunCheckpointer``,
the two fault injectors).
"""

from __future__ import annotations

import hashlib
import statistics
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.backends import get_backend
from repro.core.dataset import Dataset
from repro.core.plan import fingerprint_payload
from repro.domains import BioArchetype, ClimateArchetype, FusionArchetype, MaterialsArchetype
from repro.durability.atomic import append_jsonl_durable, atomic_write_bytes
from repro.gates import ColumnCheck, StageContract, evaluate_contract
from repro.governance.enclave import SecureEnclave
from repro.io.compression import ZlibCodec
from repro.io.netcdf import read_netcdf
from repro.io.shards import ShardSet, read_shard, write_shard
from repro.obs import Telemetry, payload_nbytes
from repro.transforms.encode import Vocabulary
from repro.transforms.normalize import ZScoreNormalizer
from repro.transforms.regrid import RegularGrid, Regridder

_ARCHETYPES = {
    "climate": ClimateArchetype,
    "fusion": FusionArchetype,
    "bio": BioArchetype,
    "materials": MaterialsArchetype,
}

MB = 1e6


def synthesize(domain: str, seed: int, directory: Path, source: Dict[str, Any]) -> Dict[str, Any]:
    """Write the raw source for *seed* under *directory*; returns its manifest."""
    directory.mkdir(parents=True, exist_ok=True)
    return _ARCHETYPES[domain](seed=seed).synthesize_source(directory, **source)


def archetype(domain: str, seed: int, manifest: Dict[str, Any]) -> Any:
    """An archetype whose ``synthesize_source`` hook returns the pre-built
    *manifest*, so a timed ``run`` starts from raw files already on disk."""

    class Prebuilt(_ARCHETYPES[domain]):  # type: ignore[misc, valid-type]
        def synthesize_source(self, directory: Any, **params: Any) -> Dict[str, Any]:
            return manifest

    return Prebuilt(seed=seed)


def run_config(
    work_dir: Path,
    *,
    backend: Optional[str] = None,
    workers: int = 1,
    batch_size: Optional[int] = None,
    telemetry: bool = False,
    gates: bool = False,
    checkpoint: bool = False,
) -> Dict[str, Any]:
    """Keyword arguments of ``DomainArchetype.run`` for one configuration."""
    config: Dict[str, Any] = {}
    if backend is not None:
        config["backend"] = get_backend(backend, workers=workers)
    if batch_size is not None:
        config["batch_size"] = batch_size
    if telemetry:
        config["telemetry"] = Telemetry()
    if gates:
        config.update(gates="quarantine", quarantine_dir=work_dir / "quarantine")
    if checkpoint:
        config["checkpoint_dir"] = work_dir / "ckpt"
    return config


def verify_shards(directory: Path) -> int:
    """Checksum every shard against the manifest; returns committed records."""
    shard_set = ShardSet(directory)
    shard_set.verify()
    return shard_set.manifest.n_samples


def read_pass(directory: Path, epochs: int) -> Tuple[int, List[Dataset]]:
    """One reader rep: verify, then *epochs* loads of every split.

    Returns records read and the last epoch's datasets (for ``datasets_digest``).
    """
    shard_set = ShardSet(directory)
    shard_set.verify()
    records = 0
    loaded: List[Dataset] = []
    for _ in range(epochs):
        loaded = [shard_set.load_split(split) for split in shard_set.splits]
        records += sum(len(dataset) for dataset in loaded)
    return records, loaded


def datasets_digest(datasets: Sequence[Dataset]) -> str:
    digest = hashlib.sha256()
    for dataset in datasets:
        for name in dataset.schema.names:
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(dataset[name]).tobytes())
    return digest.hexdigest()


# -- direct probes of public functions ------------------------------------------


def _seconds(fn: Callable[[], Any]) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _materials_records(rng: np.random.Generator, n: int) -> List[Dict[str, Any]]:
    """Dict records shaped like the materials pipeline's parsed calculations."""
    records = []
    for i in range(n):
        atoms = int(rng.integers(4, 17))
        records.append({
            "id": f"calc-{i:06d}",
            "crystal_family": "cubic",
            "lattice": rng.normal(size=(3, 3)),
            "species": ["Si"] * atoms,
            "positions": rng.normal(size=(atoms, 3)),
            "energy_ev": float(rng.normal()),
            "forces": rng.normal(size=(atoms, 3)),
            "fidelity": "dft",
        })
    return records


def probe_layers(tmp: Path, seed: int, sizes: Dict[str, int]) -> Dict[str, float]:
    """Time each layer's public functions on fixed seeded inputs."""
    rng = np.random.default_rng(seed)
    out: Dict[str, float] = {}
    tmp.mkdir(parents=True, exist_ok=True)

    # io.shards: 8 float32 columns
    rows = sizes["shard_mib"] * 2**20 // (8 * 64 * 4)
    columns = {f"c{i}": rng.normal(size=(rows, 64)).astype(np.float32) for i in range(8)}
    shard_mb = sum(c.nbytes for c in columns.values()) / MB
    out["io.shards.write_mb_per_s"] = shard_mb / _seconds(lambda: write_shard(columns, tmp / "raw.rps"))
    out["io.shards.write_zlib_mb_per_s"] = shard_mb / _seconds(
        lambda: write_shard(columns, tmp / "zlib.rps", ZlibCodec())
    )
    out["io.shards.read_mb_per_s"] = shard_mb / _seconds(lambda: read_shard(tmp / "raw.rps"))
    del columns

    # io.netcdf: one synthesized model file
    model = synthesize(
        "climate", seed, tmp / "nc",
        {"n_models": 1, "include_reanalysis": False, "n_timesteps": 120},
    )["netcdf"][0]
    out["io.netcdf.read_mb_per_s"] = Path(model).stat().st_size / MB / _seconds(lambda: read_netcdf(model))

    # durability: 4 KiB atomic commits and one-record durable appends
    block = rng.bytes(4096)
    commits = [
        _seconds(lambda: atomic_write_bytes(tmp / "commits" / f"{i:04d}.bin", block))
        for i in range(sizes["commits"])
    ]
    out["durability.commit_ms"] = statistics.median(commits) * 1e3
    out["durability.commit_p95_ms"] = statistics.quantiles(commits, n=20)[-1] * 1e3
    appends = [
        _seconds(lambda: append_jsonl_durable(tmp / "log.jsonl", [{"i": i, "kind": "probe"}]))
        for i in range(sizes["commits"])
    ]
    out["durability.append_ms"] = statistics.median(appends) * 1e3

    # core.backends / workers: per-task dispatch and result IPC
    tasks = range(sizes["dispatch_tasks"])
    for metric, name, options in (
        ("core.backends.dispatch_us.serial", "serial", {}),
        ("core.backends.dispatch_us.threaded", "threaded", {"workers": 2}),
        ("workers.dispatch_us", "process", {"workers": 2}),
    ):
        backend = get_backend(name, **options)
        out[metric] = _seconds(lambda: backend.map(lambda item: item, tasks)) / len(tasks) * 1e6
    process = get_backend("process", workers=2)
    mib = 2**20 // 8
    out["workers.ipc_mb_per_s"] = sizes["ipc_tasks"] * 2**20 / MB / _seconds(
        lambda: process.map(lambda i: np.full(mib, float(i)), range(sizes["ipc_tasks"]))
    )

    # core.plan / obs.resources: the runner's per-stage bookkeeping
    big = rng.normal(size=sizes["fingerprint_mib"] * 2**20 // 8)
    out["core.plan.fingerprint_mb_per_s"] = big.nbytes / MB / _seconds(lambda: fingerprint_payload(big))
    del big
    records = _materials_records(rng, sizes["records"])
    out["core.plan.fingerprint_us_per_record"] = (
        _seconds(lambda: fingerprint_payload(records)) / len(records) * 1e6
    )
    out["obs.resources.payload_nbytes_us_per_record"] = (
        _seconds(lambda: payload_nbytes(records)) / len(records) * 1e6
    )

    # obs: open + close a span and bump one counter
    telemetry = Telemetry()

    def spans() -> None:
        for _ in range(sizes["spans"]):
            with telemetry.tracer.span("probe"):
                telemetry.metrics.counter("probe_total").inc()

    out["obs.span_us"] = _seconds(spans) / sizes["spans"] * 1e6

    # gates: one declared contract over a Dataset
    dataset = Dataset.from_arrays({"x": rng.normal(size=(sizes["records"], 8))})
    contract = StageContract(
        name="probe",
        checks=(ColumnCheck("finite", "x"), ColumnCheck("bounds", "x", lo=-100.0, hi=100.0)),
    )
    out["gates.check_us_per_record"] = (
        _seconds(lambda: evaluate_contract(contract, dataset)) / sizes["records"] * 1e6
    )

    # transforms: the batched paths
    regridder_grids = RegularGrid.global_grid(24, 48), RegularGrid.global_grid(32, 64)
    fields = rng.normal(size=(sizes["regrid_fields"], 24, 48))

    def regrid() -> None:
        regridder = Regridder(*regridder_grids, "conservative")
        for field in fields:
            regridder(field)

    out["transforms.regrid_fields_per_s"] = len(fields) / _seconds(regrid)
    stacked = rng.normal(size=(sizes["normalize_rows"], 64))
    out["transforms.normalize_mb_per_s"] = stacked.nbytes / MB / _seconds(
        lambda: ZScoreNormalizer().fit_transform(stacked)
    )
    del stacked
    vocabulary = Vocabulary([f"tok{i:03d}" for i in range(64)])
    tokens = np.asarray(vocabulary.values)[rng.integers(0, 64, size=sizes["encode_tokens"])]
    out["transforms.encode_tokens_per_s"] = len(tokens) / _seconds(lambda: vocabulary.encode(tokens))

    # governance: seal a dataset into the enclave
    secret = Dataset.from_arrays({"x": rng.normal(size=(sizes["seal_mib"] * 2**20 // 64, 8))})
    enclave = SecureEnclave(key=bytes(32))
    out["governance.seal_mb_per_s"] = secret.nbytes / MB / _seconds(lambda: enclave.ingest("probe", secret))
    return out
