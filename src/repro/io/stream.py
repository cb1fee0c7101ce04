"""Trainer-facing streaming ingestion over shard sets.

The last mile of Table 2's level-5 Shard cell: "sharded into binary
formats *for scalable ingestion*."  :class:`ShardStreamer` turns a shard
set into the iterator a training loop actually consumes:

* rank-strided shard assignment (the distributed-loader contract);
* shard-order shuffling per epoch plus an in-memory shuffle buffer, so
  batches are well mixed without ever holding the full split;
* fixed-size batches with an explicit drop-last/keep-last policy;
* deterministic given a seed, as reproducible training requires.

Shards are read through :meth:`ShardSet.read_shards`, the shard set's one
decode path, so the next shards inflate while the current one is batched.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.io.shards import ShardSet

__all__ = ["ShardStreamer", "StreamError"]

Batch = Dict[str, np.ndarray]


class StreamError(ValueError):
    """Invalid streaming parameters."""


def _concat(parts: List[Batch]) -> Batch:
    if not parts:
        return {}
    if len(parts) == 1:
        return parts[0]
    return {
        key: np.concatenate([p[key] for p in parts], axis=0) for key in parts[0]
    }


def _rows(batch: Batch) -> int:
    if not batch:
        return 0
    return next(iter(batch.values())).shape[0]


class ShardStreamer:
    """Iterate batches from one split of a shard set.

    Parameters
    ----------
    shard_set:
        The sharded dataset to stream from.
    split:
        Which split to iterate.
    batch_size:
        Rows per yielded batch.
    columns:
        Optional projection; by default every column streams.
    rank, world:
        This consumer's position in a distributed job; rank *r* of *w*
        reads shards ``r, r+w, ...``.
    shuffle:
        Shuffle shard order each epoch and mix rows through a shuffle
        buffer of ``shuffle_buffer`` rows.
    drop_last:
        Drop a final partial batch (train) or keep it (eval).
    seed:
        Base seed; the epoch number is mixed in so every epoch reshuffles
        deterministically.  Call :meth:`set_epoch` between epochs (or just
        re-iterate: the epoch auto-increments).
    """

    def __init__(
        self,
        shard_set: ShardSet,
        split: str,
        *,
        batch_size: int = 32,
        columns: Optional[Sequence[str]] = None,
        rank: int = 0,
        world: int = 1,
        shuffle: bool = False,
        shuffle_buffer: int = 1024,
        drop_last: bool = False,
        seed: int = 0,
    ):
        if batch_size < 1:
            raise StreamError("batch_size must be >= 1")
        if shuffle_buffer < 1:
            raise StreamError("shuffle_buffer must be >= 1")
        if not 0 <= rank < world:
            raise StreamError(f"invalid rank {rank} for world size {world}")
        if split not in shard_set.manifest.splits:
            raise StreamError(
                f"no split {split!r}; available: {sorted(shard_set.manifest.splits)}"
            )
        self.shard_set = shard_set
        self.split = split
        self.batch_size = batch_size
        self.columns = list(columns) if columns is not None else None
        self.rank = rank
        self.world = world
        self.shuffle = shuffle
        self.shuffle_buffer = shuffle_buffer
        self.drop_last = drop_last
        self.seed = seed
        self._epoch = 0

    # -- epoch control ---------------------------------------------------------
    def set_epoch(self, epoch: int) -> None:
        """Select the epoch (changes the shuffle order deterministically)."""
        self._epoch = int(epoch)

    def samples_per_epoch(self) -> int:
        """Rows this rank will see per epoch (before batching)."""
        infos = self.shard_set.manifest.splits[self.split]
        return sum(info.n_samples for info in infos[self.rank :: self.world])

    def batches_per_epoch(self) -> int:
        n = self.samples_per_epoch()
        if self.drop_last:
            return n // self.batch_size
        return -(-n // self.batch_size) if n else 0

    # -- iteration ------------------------------------------------------------------
    def _emit_full_batches(
        self, buffered: Batch, rng: np.random.Generator
    ) -> Tuple[List[Batch], Batch]:
        """Split *buffered* into full batches plus a remainder.

        Rows are permuted first when shuffling, so the remainder carried
        to the next buffer is a random subset, not a suffix.
        """
        n = _rows(buffered)
        order = rng.permutation(n) if self.shuffle else np.arange(n)
        n_full = (n // self.batch_size) * self.batch_size
        batches = [
            {k: v[order[start : start + self.batch_size]] for k, v in buffered.items()}
            for start in range(0, n_full, self.batch_size)
        ]
        remainder_rows = order[n_full:]
        remainder = {k: v[remainder_rows] for k, v in buffered.items()}
        return batches, remainder

    def __iter__(self) -> Iterator[Batch]:
        rng = np.random.default_rng((self.seed, self._epoch))
        infos = list(self.shard_set.manifest.splits[self.split])
        my_indices = list(range(self.rank, len(infos), self.world))
        if self.shuffle:
            rng.shuffle(my_indices)

        pending: List[Batch] = []
        pending_rows = 0
        threshold = self.shuffle_buffer if self.shuffle else self.batch_size
        mine = [infos[shard_idx] for shard_idx in my_indices]
        for info, shard in zip(mine, self.shard_set.read_shards(mine, self.columns)):
            pending.append(shard)
            pending_rows += info.n_samples
            if pending_rows >= threshold:
                batches, remainder = self._emit_full_batches(_concat(pending), rng)
                yield from batches
                pending = [remainder] if _rows(remainder) else []
                pending_rows = _rows(remainder)
        if pending_rows:
            batches, remainder = self._emit_full_batches(_concat(pending), rng)
            yield from batches
            if _rows(remainder) and not self.drop_last:
                yield remainder
        self._epoch += 1
