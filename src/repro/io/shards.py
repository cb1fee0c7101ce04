"""Sharded dataset containers and the shard-set manifest.

This is the terminal artifact of the fifth processing stage: a directory of
fixed-layout binary shard files plus a JSON *manifest* that makes the shard
set self-describing (schema, split membership, per-shard checksums and
sample counts).  Parallel trainers open the manifest, claim shards, and
stream columns without coordination — the "sharded into binary formats for
scalable ingestion" cell of Table 2.

Shard file layout (``RPS1``)::

    MAGIC 'RPS1' | u32 header_len | JSON column index | column array blocks

Columns are whole-shard arrays (columnar within a shard), each a
checksummed, optionally compressed block from
:mod:`repro.io.serialization`.

The writer compresses blocks ahead of itself (:class:`BlockPacker`); the
reader decodes shards ahead of its caller (``ShardSet._decode``): one path
under :meth:`ShardSet.load_split`, :meth:`ShardSet.iter_shards` and the
streamer, which reads, checks and inflates the next shards on the helper
pool while the caller takes earlier ones, straight into the arrays the
caller allocated — for ``load_split``, the rows of the split's columns.
"""

from __future__ import annotations

import collections
import concurrent.futures
import contextlib
import dataclasses
import functools
import hashlib
import json
import math
import struct
from pathlib import Path
from typing import (
    Any,
    BinaryIO,
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.dataset import (
    Dataset,
    DatasetMetadata,
    FieldRole,
    FieldSpec,
    Modality,
    Schema,
)
from repro.core.helper_pool import decode_ahead, helper_pool, helper_threads
from repro.durability.atomic import atomic_write_text, staged_write
from repro.io.compression import Codec, RawCodec, get_codec
from repro.io.serialization import BlockRead, frame_block, prepare_block

__all__ = [
    "ShardError",
    "write_shard",
    "read_shard",
    "ShardInfo",
    "ShardManifest",
    "shard_table",
    "BlockPacker",
    "write_table_entry",
    "commit_manifest",
    "write_shard_set",
    "ShardSet",
    "schema_to_dicts",
    "schema_from_dicts",
]

MAGIC = b"RPS1"
_HEADER_LEN = struct.Struct("<I")
MANIFEST_NAME = "manifest.json"

#: spool -> final copy granularity for the streaming shard writer
_COPY_BLOCK = 1 << 20

#: a pack-ahead whose threads are all busy still submits the next block
#: while the raw bytes it has in flight are under this
PACK_AHEAD_BYTES = 4 << 20

class ShardError(ValueError):
    """Corrupt shard file or inconsistent manifest."""


# ---------------------------------------------------------------------------
# schema (de)serialization
# ---------------------------------------------------------------------------

def schema_to_dicts(schema: Schema) -> List[Dict[str, object]]:
    """JSON-serializable form of a schema."""
    return [
        {
            "name": f.name,
            "dtype": f.dtype.str,
            "shape": list(f.shape),
            "role": f.role.value,
            "units": f.units,
            "sensitive": f.sensitive,
            "categories": list(f.categories) if f.categories is not None else None,
            "description": f.description,
        }
        for f in schema
    ]


def schema_from_dicts(rows: Sequence[Dict[str, object]]) -> Schema:
    """Inverse of :func:`schema_to_dicts`."""
    fields = []
    for row in rows:
        categories = row.get("categories")
        fields.append(
            FieldSpec(
                name=str(row["name"]),
                dtype=np.dtype(str(row["dtype"])),
                shape=tuple(row.get("shape", ())),  # type: ignore[arg-type]
                role=FieldRole(str(row.get("role", "feature"))),
                units=row.get("units"),  # type: ignore[arg-type]
                sensitive=bool(row.get("sensitive", False)),
                categories=tuple(categories) if categories is not None else None,
                description=str(row.get("description", "")),
            )
        )
    return Schema(fields)


# ---------------------------------------------------------------------------
# single shard files
# ---------------------------------------------------------------------------

class BlockPacker:
    """Packs the column blocks of one shard table, entry by entry.

    ``stream(k).blocks()`` yields entry *k*'s ``(column, block)`` pairs in
    sorted-column order, each block — a list of pieces to write out — exactly
    :func:`~repro.io.serialization.pack_array` of the gathered column.
    Gathering, framing and every error surface on the calling thread, at
    the block they belong to; only ``codec.compress_chunks`` may run
    elsewhere:

    * inline (the default) each call packs its own entry, one block at a
      time, and shares nothing — safe under backends that fan the table
      out over threads, ranks or forked workers;
    * with ``ahead=True`` — and a table of more raw bytes than
      ``PACK_AHEAD_BYTES``; a smaller one is packed inline all the same —
      the packer owns a pool of ``min(2, usable CPUs)`` threads and one
      stream over the whole table, which keeps compressing ahead of the
      writer — across shard boundaries — while fewer than that many
      blocks are in flight or their raw bytes are under
      ``PACK_AHEAD_BYTES``.  So what waits between gather and writer is at
      most *threads* blocks, or the budget plus the one block that crossed
      it, whichever is larger.  It is for one consumer walking the table
      in order; an entry asked for out of order, or again after a failed
      attempt, drops the look-ahead and is packed afresh from there.

    Close it (it is a context manager) before the call that made it
    returns: no thread outlives that, whatever unwinds through it.
    """

    def __init__(
        self,
        columns: Union[Dataset, Mapping[str, np.ndarray]],
        names: Iterable[str],
        table: Sequence["ShardEntry"],
        codec: Codec,
        *,
        ahead: bool = False,
    ):
        self.columns = columns
        self.names = sorted(names)
        self.table = table
        self.codec = codec
        if ahead:
            # a table the look-ahead would swallow whole has nothing to
            # run ahead of: it is packed inline, threadless
            row_nbytes = sum(
                columns[name].dtype.itemsize * math.prod(columns[name].shape[1:])
                for name in self.names
            )
            ahead = row_nbytes * sum(len(rows) for _, _, rows in table) > PACK_AHEAD_BYTES
        #: compress threads (0: inline) and the pool that runs them
        self.threads = helper_threads() if ahead else 0
        #: raw bytes in flight under which one more block is submitted
        self.budget = PACK_AHEAD_BYTES if ahead else 0
        self.pool = helper_pool("shard-pack", self.threads) if ahead else None
        self._stream: Optional[_BlockStream] = None

    def __enter__(self) -> "BlockPacker":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        if self._stream is not None:
            self._stream.close()
            # the stream points back here: left in place, the cycle would
            # keep the dataset alive until the collector next runs
            self._stream = None
        if self.pool is not None:
            self.pool.shutdown(wait=True, cancel_futures=True)

    def stream(self, index: int) -> "_BlockStream":
        """The stream whose next blocks are those of entry *index*."""
        if self.pool is None:
            return _BlockStream(self, index, index + 1)
        if self._stream is None or self._stream.head != index * len(self.names):
            if self._stream is not None:
                self._stream.close()
            self._stream = _BlockStream(self, index, len(self.table))
        return self._stream


class _BlockStream:
    """The blocks of table entries ``[start, stop)`` in order, packed ahead
    of their consumer as far as the packer's bound admits."""

    def __init__(self, packer: BlockPacker, start: int, stop: int):
        self._packer = packer
        n_columns = len(packer.names)
        #: flat ``entry * n_columns + column`` positions: the next block the
        #: consumer gets, the next to submit, one past the last
        self.head = self._cursor = start * n_columns
        self._end = stop * n_columns
        #: submitted, not yet consumed: (raw view, head, dtype token, chunks)
        self._pending: Deque[
            Tuple[Optional[memoryview], bytes, bytes, concurrent.futures.Future]
        ] = collections.deque()
        self._held = 0
        #: high-water mark of the stream: raw bytes gathered but not yet
        #: handed to the writer, or the largest single packed block,
        #: whichever is larger (the copy loop adds at most one fixed
        #: ``_COPY_BLOCK`` buffer on top).  Packed inline that is one
        #: block; under a pack-ahead it is the look-ahead, bounded by
        #: :class:`BlockPacker` — never the whole shard
        self.peak = 0

    def _submit(self, position: int) -> None:
        packer = self._packer
        entry, column = divmod(position, len(packer.names))
        head = token = b""
        raw = None
        try:
            values = np.asarray(packer.columns[packer.names[column]])
            rows = packer.table[entry][2]
            head, token, raw = prepare_block(
                values if rows is None else values[rows], packer.codec
            )
            if packer.pool is not None:
                chunks = packer.pool.submit(packer.codec.compress_chunks, raw)
            else:
                chunks = concurrent.futures.Future()
                chunks.set_result(packer.codec.compress_chunks(raw))
        except Exception as exc:
            # like a pool thread's, a calling-thread error is raised where
            # its block is consumed: everything before it still commits
            chunks = concurrent.futures.Future()
            chunks.set_exception(exc)
        # the raw view stays referenced here so that the calling thread,
        # not whichever pool thread finishes with it, frees the gather
        self._pending.append((raw, head, token, chunks))
        self._held += raw.nbytes if raw is not None else 0
        self.peak = max(self.peak, self._held)

    def blocks(self) -> Iterator[Tuple[str, List[bytes]]]:
        """``(column, pieces of its block)`` for the entry at the stream's head."""
        for name in self._packer.names:
            while self._cursor < self._end and (
                len(self._pending) < max(1, self._packer.threads)
                or self._held < self._packer.budget
            ):
                self._submit(self._cursor)
                self._cursor += 1
            raw, head, token, chunks = self._pending.popleft()
            nbytes = raw.nbytes if raw is not None else 0
            self.head += 1
            self._held -= nbytes
            pieces = frame_block(head, token, nbytes, chunks.result())
            del raw
            self.peak = max(self.peak, sum(map(len, pieces)))
            yield name, pieces

    def close(self) -> None:
        """Drop the look-ahead: cancel what has not started, wait out what
        has (a running job still holds its raw buffer)."""
        futures = [chunks for *_, chunks in self._pending]
        for future in futures:
            future.cancel()
        concurrent.futures.wait(futures)
        self._pending.clear()
        self._held = 0


def _write_blocks(path: Path, n_samples: int, stream: _BlockStream) -> "ShardInfo":
    """Spool the next entry's blocks off *stream*, then commit them as *path*."""
    index: Dict[str, Dict[str, object]] = {}
    offset = 0
    digest = hashlib.sha256()
    spool = path.with_name(path.name + ".spool")
    try:
        with open(spool, "wb") as sp:
            for name, pieces in stream.blocks():
                length = sum(map(len, pieces))
                index[name] = {"offset": offset, "length": length}
                sp.writelines(pieces)
                offset += length
                del pieces
        header = json.dumps(
            {"n_samples": n_samples, "columns": index}, sort_keys=True
        ).encode()
        with staged_write(path, site="shard") as fh, open(spool, "rb") as sp:
            for chunk in (MAGIC, _HEADER_LEN.pack(len(header)), header):
                fh.write(chunk)
                digest.update(chunk)
            while True:
                chunk = sp.read(_COPY_BLOCK)
                if not chunk:
                    break
                fh.write(chunk)
                digest.update(chunk)
    finally:
        # a raise anywhere above — packing, the copy loop, or the commit —
        # must not leak the spool; staged_write removes its own .tmp
        spool.unlink(missing_ok=True)
    nbytes = 4 + _HEADER_LEN.size + len(header) + offset
    return ShardInfo(
        path=path.name,
        n_samples=n_samples,
        nbytes=nbytes,
        checksum=digest.hexdigest(),
    )


def write_shard(
    columns: Dict[str, np.ndarray],
    path: Union[str, Path],
    codec: Optional[Codec] = None,
) -> "ShardInfo":
    """Write one shard file; returns its :class:`ShardInfo` accounting.

    The write *streams*: each column is packed and immediately spooled to
    a ``.spool`` sibling (the ``RPS1`` header precedes the blocks, so
    every block length must be known before any block byte can land in
    the final file), then the spool is copied block-wise into the ``.tmp``
    sibling behind the header.  Peak memory is one packed column block
    plus a fixed copy buffer — never the sum of all blocks — so RSS stays
    bounded as shard (or batch) sizes grow.  (The shards of a table
    written through a pack-ahead :class:`BlockPacker` take the same path
    with a wider bound: that packer's *threads* blocks, or
    ``PACK_AHEAD_BYTES`` of raw columns plus the block that crossed it,
    whichever is larger — still not the shard.)  Bytes and
    checksum are identical to a buffered write of the same columns.

    The write is crash-safe: bytes land in a ``.tmp`` sibling which is
    atomically renamed over *path* only once complete, so a crashed (or
    chaos-injected) writer leaves either the previous shard intact or
    stray ``.tmp``/``.spool`` siblings — never a torn file under the real
    shard name — and a retried write heals any garbage a torn attempt
    left at *path*.
    """
    lengths = {v.shape[0] for v in columns.values()}
    if len(lengths) > 1:
        raise ShardError(f"columns disagree on sample count: {sorted(lengths)}")
    n_samples = lengths.pop() if lengths else 0
    packer = BlockPacker(columns, columns, [("", 0, None)], codec or RawCodec())
    return _write_blocks(Path(path), n_samples, packer.stream(0))


def _read_header(fh: BinaryIO) -> Tuple[Dict[str, Any], int]:
    """The ``RPS1`` header of the open shard *fh*, and where its blocks start."""
    magic = fh.read(4)
    if magic != MAGIC:
        raise ShardError(f"bad magic {magic!r}; not a shard file")
    raw = fh.read(_HEADER_LEN.size)
    if len(raw) < _HEADER_LEN.size:
        raise ShardError("truncated shard header")
    (header_len,) = _HEADER_LEN.unpack(raw)
    header = json.loads(fh.read(header_len).decode("utf-8"))
    return header, fh.tell()


def _plan_block(
    fd: int, data_start: int, meta: Mapping[str, Any], shard: str, name: str
) -> BlockRead:
    """The planned read of column *name*'s block, as the shard's index
    entry *meta* places it."""

    def refuse(why: str) -> ShardError:
        return ShardError(f"{shard}: column {name!r}: {why}")

    return BlockRead(fd, data_start + int(meta["offset"]), int(meta["length"]), refuse)


def read_shard(path: Union[str, Path]) -> Dict[str, np.ndarray]:
    """Load every column of a shard, decoded ahead."""
    path = Path(path)
    with open(path, "rb") as fh:
        header, data_start = _read_header(fh)
        wanted = list(header["columns"])
        fd = fh.fileno()

        def plan(k: int) -> Callable[[], np.ndarray]:
            meta = header["columns"][wanted[k]]
            read = _plan_block(fd, data_start, meta, path.name, wanted[k])
            return functools.partial(read.into(np.empty(read.shape, read.dtype)).run, fd)

        with contextlib.closing(decode_ahead("shard-decode", len(wanted), plan)) as arrays:
            return dict(zip(wanted, arrays))


# ---------------------------------------------------------------------------
# shard sets + manifest
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class ShardInfo:
    """Accounting for one shard file, as stored in the manifest."""

    path: str
    n_samples: int
    nbytes: int
    checksum: str

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, row: Dict[str, object]) -> "ShardInfo":
        return cls(
            path=str(row["path"]),
            n_samples=int(row["n_samples"]),  # type: ignore[arg-type]
            nbytes=int(row["nbytes"]),  # type: ignore[arg-type]
            checksum=str(row["checksum"]),
        )


@dataclasses.dataclass
class ShardManifest:
    """The self-describing record of a complete shard set."""

    dataset_name: str
    schema: Schema
    splits: Dict[str, List[ShardInfo]]
    codec: str = "raw"
    metadata: Dict[str, object] = dataclasses.field(default_factory=dict)

    @property
    def n_samples(self) -> int:
        return sum(s.n_samples for shards in self.splits.values() for s in shards)

    @property
    def n_shards(self) -> int:
        return sum(len(shards) for shards in self.splits.values())

    def split_samples(self, split: str) -> int:
        return sum(s.n_samples for s in self.splits.get(split, []))

    def to_json(self) -> str:
        return json.dumps(
            {
                "dataset_name": self.dataset_name,
                "schema": schema_to_dicts(self.schema),
                "codec": self.codec,
                "metadata": self.metadata,
                "splits": {
                    split: [s.to_dict() for s in shards]
                    for split, shards in self.splits.items()
                },
            },
            sort_keys=True,
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "ShardManifest":
        blob = json.loads(text)
        return cls(
            dataset_name=blob["dataset_name"],
            schema=schema_from_dicts(blob["schema"]),
            codec=blob.get("codec", "raw"),
            metadata=blob.get("metadata", {}),
            splits={
                split: [ShardInfo.from_dict(r) for r in rows]
                for split, rows in blob["splits"].items()
            },
        )


#: one row of the global shard table: (split, shard index, row indices —
#: ``None`` inside :func:`write_shard`, whose columns are the shard)
ShardEntry = Tuple[str, int, Optional[np.ndarray]]


def shard_table(splits: Mapping[str, np.ndarray], shards_per_split: int) -> List[ShardEntry]:
    """The global shard table: one ``(split, index, rows)`` entry per file.

    The only place a shard set's layout is decided, so every writer and
    backend cuts identical files: each split becomes *shards_per_split*
    near-equal contiguous shards.  An empty split contributes no file —
    ``np.array_split`` would yield an orphan zero-sample shard — but still
    appears, empty, in the manifest.
    """
    table: List[ShardEntry] = []
    for split, indices in splits.items():
        indices = np.asarray(indices)
        if indices.size == 0:
            continue
        n_shards = max(1, min(shards_per_split, indices.size))
        chunks = np.array_split(indices, n_shards)
        table.extend((split, i, chunk) for i, chunk in enumerate(chunks))
    return table


def write_table_entry(
    packer: BlockPacker, directory: Path, index: int
) -> Tuple[str, int, ShardInfo]:
    """Write the shard file of entry *index* of *packer*'s shard table."""
    split, i, rows = packer.table[index]
    path = directory / f"{split}-{i:05d}.rps"
    return split, i, _write_blocks(path, len(rows), packer.stream(index))


def commit_manifest(
    dataset: Dataset,
    directory: Path,
    splits: Iterable[str],
    written: Iterable[Tuple[str, int, ShardInfo]],
    *,
    codec_name: str,
    certificate: Optional[Mapping[str, Any]] = None,
    schedule: Optional[Mapping[str, Any]] = None,
) -> ShardManifest:
    """Assemble the manifest of a written shard set and commit it atomically.

    *written* is what :func:`write_table_entry` returned, in any order;
    every requested split is listed, its shards in index order.  Optional
    metadata keys appear only when supplied, so ungated, fixed-plan
    manifests keep their bytes.  The commit is the guarded ``manifest`` site.
    """
    by_split: Dict[str, List[Tuple[int, ShardInfo]]] = {s: [] for s in splits}
    for split, i, info in written:
        by_split.setdefault(split, []).append((i, info))
    metadata: Dict[str, Any] = {
        "domain": dataset.metadata.domain,
        "source": dataset.metadata.source,
        "version": dataset.metadata.version,
        "modality": dataset.metadata.modality.value,
    }
    if certificate is not None:
        metadata["readiness_certificate"] = dict(certificate)
    if schedule is not None:
        metadata["schedule_decision"] = dict(schedule)
    manifest = ShardManifest(
        dataset_name=dataset.metadata.name,
        schema=dataset.schema,
        splits={split: [info for _, info in sorted(rows)] for split, rows in by_split.items()},
        codec=codec_name,
        metadata=metadata,
    )
    atomic_write_text(directory / MANIFEST_NAME, manifest.to_json(), site="manifest")
    return manifest


def write_shard_set(
    dataset: Dataset,
    directory: Union[str, Path],
    *,
    splits: Optional[Dict[str, np.ndarray]] = None,
    shards_per_split: int = 4,
    codec_name: str = "raw",
    codec_level: Optional[int] = None,
) -> ShardManifest:
    """Export *dataset* as a sharded directory with a manifest.

    *splits* maps split name to row indices (default: one ``"all"`` split
    covering every sample); each split is cut into *shards_per_split*
    near-equal shards.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    codec = get_codec(codec_name, codec_level)
    if splits is None:
        splits = {"all": np.arange(dataset.n_samples)}
    table = shard_table(splits, shards_per_split)
    with BlockPacker(dataset, dataset.schema.names, table, codec, ahead=True) as packer:
        written = [
            write_table_entry(packer, directory, index) for index in range(len(table))
        ]
    return commit_manifest(dataset, directory, splits, written, codec_name=codec_name)


class ShardSet:
    """Reader over a sharded directory: the trainer-facing ingestion API."""

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        manifest_path = self.directory / MANIFEST_NAME
        if not manifest_path.exists():
            raise ShardError(f"no {MANIFEST_NAME} in {self.directory}")
        self.manifest = ShardManifest.from_json(manifest_path.read_text())

    @property
    def splits(self) -> List[str]:
        return sorted(self.manifest.splits)

    def verify(self) -> None:
        """Verify every shard against its manifest entry; raise on mismatch.

        Two independent checks per shard: the on-disk byte size must equal
        the manifest's ``nbytes`` (a cheap torn/truncated-write detector),
        and the recomputed sha256 must match the recorded checksum.  The
        file is hashed through one ``_COPY_BLOCK`` buffer, never held whole.
        """
        block = memoryview(bytearray(_COPY_BLOCK))
        for split, shards in self.manifest.splits.items():
            for info in shards:
                path = self.directory / info.path
                size = path.stat().st_size
                if size != info.nbytes:
                    raise ShardError(
                        f"size mismatch for {info.path} in split {split!r}: "
                        f"manifest says {info.nbytes} bytes, file has {size}"
                    )
                digest = hashlib.sha256()
                with open(path, "rb") as fh:
                    while n := fh.readinto(block):
                        digest.update(block[:n])
                if digest.hexdigest() != info.checksum:
                    raise ShardError(
                        f"checksum mismatch for {info.path} in split {split!r}"
                    )

    def _shards(self, split: str) -> List[ShardInfo]:
        shards = self.manifest.splits.get(split)
        if shards is None:
            raise ShardError(f"no split {split!r}; have {self.splits}")
        return shards

    def read_shards(
        self, infos: Sequence[ShardInfo], columns: Optional[Sequence[str]] = None
    ) -> Iterator[Dict[str, np.ndarray]]:
        """Yield the columns (all, or a projection) of each shard of *infos*
        in order, decoded ahead of the caller (see :meth:`_decode`)."""
        schema = self.manifest.schema
        names = list(schema.names if columns is None else columns)

        def fresh(k: int) -> Dict[str, np.ndarray]:
            return {
                name: np.empty((infos[k].n_samples, *schema[name].shape), schema[name].dtype)
                for name in names
            }

        return self._decode(infos, names, fresh)

    def iter_shards(
        self, split: str, *, rank: int = 0, world: int = 1
    ) -> Iterator[Dict[str, np.ndarray]]:
        """Yield shard columns for *split*, strided across ranks.

        ``rank``/``world`` implement the standard distributed-loader
        contract: rank *r* of *w* reads shards ``r, r+w, r+2w, ...``.
        """
        shards = self._shards(split)
        if not 0 <= rank < world:
            raise ShardError(f"invalid rank {rank} for world size {world}")
        yield from self.read_shards(shards[rank::world])

    def load_split(self, split: str) -> Dataset:
        """Materialize an entire split back into a :class:`Dataset`.

        Each column is allocated once, from the manifest's row counts, and
        every shard's block is decoded straight into its rows.
        """
        shards = self._shards(split)
        schema = self.manifest.schema
        starts = np.cumsum([0] + [info.n_samples for info in shards]).tolist()
        columns = {
            f.name: np.empty((starts[-1], *f.shape), dtype=f.dtype) for f in schema
        }

        def rows(k: int) -> Dict[str, np.ndarray]:
            return {name: column[starts[k] : starts[k + 1]] for name, column in columns.items()}

        for _ in self._decode(shards, schema.names, rows):
            pass
        meta = DatasetMetadata(
            name=self.manifest.dataset_name,
            domain=str(self.manifest.metadata.get("domain", "generic")),
            source=str(self.manifest.metadata.get("source", "shards")),
            version=str(self.manifest.metadata.get("version", "0")),
            modality=Modality(
                self.manifest.metadata.get("modality", Modality.TABULAR.value)
            ),
        )
        return Dataset(columns, schema, meta)

    def _decode(
        self,
        infos: Sequence[ShardInfo],
        names: Sequence[str],
        target: Callable[[int], Dict[str, np.ndarray]],
    ) -> Iterator[Dict[str, np.ndarray]]:
        """Decode-ahead: yield ``target(k)`` for each shard *k* of *infos*,
        in order, with the shard's *names* blocks decoded into it.

        The one read path of :meth:`load_split`, :meth:`iter_shards` and
        :class:`~repro.io.stream.ShardStreamer`, run by
        :func:`~repro.core.helper_pool.decode_ahead`: a shard is planned
        on the calling thread (:meth:`_plan`) and read, CRC-checked and
        inflated on the helper pool, at most ``min(2, usable CPUs)`` shards
        ahead of the caller; an error in shard *k* is raised when shard *k*
        is taken.
        """
        return decode_ahead(
            "shard-decode", len(infos), lambda k: self._plan(infos[k], names, lambda: target(k))
        )

    def _plan(
        self,
        info: ShardInfo,
        names: Sequence[str],
        target: Callable[[], Dict[str, np.ndarray]],
    ) -> Callable[[], Dict[str, np.ndarray]]:
        """Plan one shard's wanted blocks, in file order, and return the job
        that reads them.

        Everything a shard read allocates is allocated here — *target*'s
        arrays and the compressed payloads' read buffers — and every block
        is checked against its manifest entry and the schema (row count,
        dtype, per-sample shape) before any byte lands in *target*.
        """
        path = self.directory / info.path
        with open(path, "rb") as fh:
            header, data_start = _read_header(fh)
            metas = header["columns"]
            for name in names:
                if name not in metas:
                    raise ShardError(f"shard has no column {name!r}")
            out = target()
            reads = []
            for _, name in sorted((int(metas[name]["offset"]), name) for name in names):
                read = _plan_block(fh.fileno(), data_start, metas[name], info.path, name)
                column = out[name]
                if not read.shape or (read.dtype, read.shape[1:]) != (
                    column.dtype, column.shape[1:]
                ):
                    raise ShardError(
                        f"{info.path}: column {name!r} is {read.dtype.str} x "
                        f"{read.shape[1:]} per sample, the schema says {column.dtype.str} x "
                        f"{column.shape[1:]}"
                    )
                if read.shape[0] != column.shape[0]:
                    raise ShardError(
                        f"{info.path}: column {name!r} holds {read.shape[0]} rows, "
                        f"the manifest says {info.n_samples}"
                    )
                reads.append(read.into(column))

        def run() -> Dict[str, np.ndarray]:
            with open(path, "rb") as fh:
                for read in reads:
                    read.run(fh.fileno())
            return out

        return run
