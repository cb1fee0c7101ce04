"""The one atomic-commit primitive every artifact store goes through.

A pipeline artifact is only trustworthy if its commit is all-or-nothing
*and* survives power loss.  ``os.replace`` alone gives the first half;
the second needs the full fsync discipline — flush and fsync the temp
file, rename it over the final name, then fsync the parent directory so
the rename itself is durable.  Before this module, six stores each did
some subset of that dance (most skipped fsync entirely); now they all
call the same functions:

* :func:`atomic_write_bytes` / :func:`atomic_write_text` — whole-file
  commit: tmp + fsync + ``os.replace`` + dir fsync;
* :func:`staged_write` — the same commit for a caller that *streams* the
  file (the checkpoint snapshot): it yields the open ``.tmp`` sibling,
  commits it on a clean exit and removes it on any failure;
* :func:`commit_file` — the guarded fsync + rename + dir-fsync step
  itself, for a temp file the caller already wrote;
* :func:`append_jsonl_durable` — append-only logs: heal any torn tail
  left by a previous crash, append, fsync.

The module that owns the commit owns the log format: :func:`jsonl_line`
and :func:`read_jsonl` are the one line encoder and the one
torn-line-tolerant reader every JSONL-backed store and telemetry sink
uses, so what :func:`heal_torn_tail` would drop no reader returns.

Every commit consults the process-global fault tap
(:mod:`repro.durability.fsfaults`) so chaos tests exercise ENOSPC, EIO,
torn renames, and lost unfsynced writes at exactly these choke points —
one primitive to guard means one place to inject.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from pathlib import Path
from typing import BinaryIO, Dict, Iterable, Iterator, List, Mapping, Tuple, Union

from repro.durability import fsfaults

__all__ = [
    "fsync_path",
    "fsync_dir",
    "commit_file",
    "staged_write",
    "atomic_write_bytes",
    "atomic_write_text",
    "jsonl_line",
    "read_jsonl",
    "heal_torn_tail",
    "append_jsonl_durable",
    "sha256_path",
]

PathLike = Union[str, Path]


def fsync_path(path: PathLike) -> None:
    """fsync a file by path (reopened read-only; Linux permits this)."""
    fd = os.open(str(path), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def fsync_dir(path: PathLike) -> None:
    """fsync a directory so a rename inside it survives power loss.

    Best-effort: some filesystems refuse directory fsync; the commit is
    still atomic there, just not provably durable.
    """
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def commit_file(tmp: PathLike, final: PathLike, *, site: str) -> None:
    """Atomically commit an already-written temp file over *final*.

    fsync(tmp) → ``os.replace`` → fsync(parent dir).  *site* names the
    logical store for the disk-fault injector's op numbering.
    """
    tmp = Path(tmp)
    final = Path(final)
    injector = fsfaults.active_injector()
    if injector is not None:
        kind = injector.fault_for(site)
        if kind is not None:
            fsfaults.apply_commit_fault(kind, tmp, final)
    fsync_path(tmp)
    os.replace(tmp, final)
    fsync_dir(final.parent)


@contextlib.contextmanager
def staged_write(path: PathLike, *, site: str) -> Iterator[BinaryIO]:
    """Stream a file into its ``.tmp`` sibling, then commit it over *path*.

    Yields the open temp file; a clean exit closes it and runs
    :func:`commit_file` (one guarded commit under *site*), any failure —
    in the caller's writes or in the commit — removes the partial and
    re-raises, so *path* only ever holds a complete file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        commit_file(tmp, path, site=site)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise


def atomic_write_bytes(path: PathLike, data: bytes, *, site: str = "artifact") -> Path:
    """Commit *data* under *path* atomically and durably."""
    with staged_write(path, site=site) as fh:
        fh.write(data)
    return Path(path)


def atomic_write_text(path: PathLike, text: str, *, site: str) -> Path:
    return atomic_write_bytes(path, text.encode("utf-8"), site=site)


def jsonl_line(record: Mapping[str, object]) -> bytes:
    """The one JSONL line encoder: sorted keys, ``str()`` for anything
    JSON cannot express, UTF-8, one trailing newline."""
    return (json.dumps(record, sort_keys=True, default=str) + "\n").encode("utf-8")


def _parse_line(line: bytes) -> object:
    """Decode one log line; ``ValueError`` marks it torn or garbage."""
    return json.loads(line.decode("utf-8"))


def read_jsonl(path: PathLike) -> List[Dict[str, object]]:
    """Read a JSONL file, skipping blank and torn (crash-truncated) lines,
    so a log reads the same before and after :func:`heal_torn_tail`."""
    path = Path(path)
    if not path.exists():
        return []
    out: List[Dict[str, object]] = []
    with open(path, "rb") as fh:
        for line in fh:
            if line.strip():
                try:
                    out.append(_parse_line(line))
                except ValueError:
                    pass  # torn or garbage: exactly what healing would drop
    return out


def _lines_backwards(fh: BinaryIO, end: int) -> Iterator[Tuple[int, bytes]]:
    """``(offset, line)`` for each line of ``fh[:end]``, last line first.

    Reads fixed 8 KiB blocks from the end, so a caller that stops at the
    first whole line touches one block however long the log has grown.
    Every line keeps its newline; only the file's last may lack one.
    """
    buffer, pos = b"", end
    while pos > 0:
        step = min(1 << 13, pos)
        pos -= step
        fh.seek(pos)
        buffer = fh.read(step) + buffer
        while True:
            # the newline that ends the line *before* the buffer's last one
            cut = buffer.rfind(b"\n", 0, len(buffer) - 1)
            if cut < 0:
                break  # the last line may continue into the previous block
            yield pos + cut + 1, buffer[cut + 1 :]
            buffer = buffer[: cut + 1]
    if buffer:
        yield 0, buffer


def heal_torn_tail(path: PathLike) -> int:
    """Truncate a JSONL file back to its last complete, parseable line.

    A crash mid-append (or a lost unfsynced tail) leaves either a
    partial final line or trailing garbage; both are physically removed
    so subsequent appends produce a clean log.  Returns the number of
    bytes removed (0 when the file is absent or already clean).  The
    file is inspected backwards from EOF — every durable append heals
    first, and must not pay for the whole log each time.
    """
    path = Path(path)
    if not path.exists():
        return 0
    with open(path, "rb") as fh:
        size = keep = fh.seek(0, os.SEEK_END)
        for start, line in _lines_backwards(fh, size):
            if line.endswith(b"\n"):
                if not line.strip():
                    break  # blank line: harmless, stop here
                try:
                    _parse_line(line)
                    break  # last line is whole: the file is clean to `keep`
                except ValueError:
                    pass
            # an unterminated tail, or a whole line of garbage: drop it
            keep = start
    removed = size - keep
    if removed:
        with open(path, "rb+") as fh:
            fh.truncate(keep)
            fh.flush()
            os.fsync(fh.fileno())
        fsync_dir(path.parent)
    return removed


def append_jsonl_durable(
    path: PathLike,
    records: Iterable[Mapping[str, object]],
    *,
    site: str = "append",
) -> Path:
    """Append records to a JSONL log, durably.

    Heals any torn tail first (so one crashed append can never poison
    the log for every later writer), encodes each record with
    :func:`jsonl_line`, then writes + fsyncs.  The parent directory is
    fsynced when the file is first created, making the creation itself
    durable.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    created = not path.exists()
    if not created:
        heal_torn_tail(path)
    payload = b"".join(map(jsonl_line, records))
    injector = fsfaults.active_injector()
    kind = injector.fault_for(site) if injector is not None else None
    with open(path, "ab") as fh:
        start = fh.tell()
        if kind is not None:
            fsfaults.apply_append_fault(kind, fh, payload, start)
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    if created:
        fsync_dir(path.parent)
    return path


def sha256_path(path: PathLike) -> str:
    """Streaming sha256 of a file's contents (hex)."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()
