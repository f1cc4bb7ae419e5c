"""Sparse teacher-logit extraction and its on-disk dataset format.

Storing only the top-k logits per position keeps distillation datasets
small (size scales with k, not vocabulary) while preserving the teacher's
dominant probability mass. A sequence's sparse logits are one (P, k)
`SPARSE_DTYPE` array: row j holds the teacher's top k (id, logit) pairs
for the token after position j, in descending-logit order, ties broken by
the smaller id. File layout: magic "SFKD", u32 version, u32 k,
u32 vocab_size, then per-sequence blocks of (u32 length, u32 token ids,
the length-1 rows of k (u32 id, f32 logit) pairs). Round-trips are bit
exact.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import shards
from .checkpoint import atomic_write
from .errors import ConfigError, ContractError, DataError, NumericError
from .model import ModelState, forward

MAGIC = b"SFKD"
VERSION = 1
SPARSE_DTYPE = np.dtype([("id", "<u4"), ("logit", "<f4")])


def top_k(logits: np.ndarray, k: int) -> np.ndarray:
    """Exact top-k of each logits row (the last axis) as `SPARSE_DTYPE`
    pairs, descending, smaller id wins ties: the first k of a stable
    argsort of the negated row, without sorting the row. `np.partition`
    gives each row's k-th largest logit; every id above it is taken, then
    the smallest ids equal to it, and only those k are stable-sorted. A
    row holding a NaN takes fewer than k ids and raises NumericError."""
    V = logits.shape[-1]
    if k <= 0:
        raise ConfigError("k must be positive")
    if k > V:
        raise ConfigError("k exceeds vocabulary size")
    kth = np.partition(logits, V - k, axis=-1)[..., V - k:V - k + 1]
    above, ties = logits > kth, logits == kth
    # the first k - (ids above) ties of each row
    take = np.cumsum(ties, axis=-1) <= k - np.add.reduce(above, axis=-1, keepdims=True)
    take &= ties
    take |= above
    ids = np.flatnonzero(take) % V  # ascending in each row
    if ids.size != kth.size * k:
        raise NumericError("cannot take the top k of logits holding NaN")
    ids = ids.reshape(logits.shape[:-1] + (k,))
    order = np.argsort(-np.take_along_axis(logits, ids, axis=-1), axis=-1, kind="stable")
    ids = np.take_along_axis(ids, order, axis=-1)
    pairs = np.empty(ids.shape, dtype=SPARSE_DTYPE)
    pairs["id"] = ids
    pairs["logit"] = np.take_along_axis(logits, ids, axis=-1)
    return pairs


def extract_sparse_logits(
    teacher: ModelState,
    sequences: Iterable[list[int]],
    k: int,
) -> Iterator[tuple[list[int], np.ndarray]]:
    """Yield (tokens, (len(tokens) - 1, k) pairs) per sequence, in order.

    Each sequence is one teacher forward, so one longer than the teacher's
    max_seq_len raises LengthError; callers truncate first. The first item
    waits for every forward: sequence i runs on shard i mod n of the n that
    `shards.count` gives, as the jobs of `data.generate_alignment_set` do.
    """
    if k <= 0:
        raise ConfigError("k must be positive")
    if k > teacher.config.vocab_size:
        raise ConfigError("k exceeds teacher vocabulary size")
    seqs = [[int(t) for t in seq] for seq in sequences]
    if any(len(seq) < 2 for seq in seqs):
        raise ContractError("sequences need at least two tokens to supervise")
    n = shards.count(len(seqs))
    if n == 1:
        parts = [_extract(teacher, seqs, k)]
    else:
        shards.start(n - 1)
        parts = shards.run([(_extract, (teacher, seqs[i::n], k)) for i in range(n)])
    for j in range(len(seqs)):
        yield parts[j % n][j // n]


def _extract(teacher: ModelState, seqs: list[list[int]],
             k: int) -> list[tuple[list[int], np.ndarray]]:
    """The (tokens, pairs) of each sequence, one teacher forward each."""
    return [(seq, top_k(forward(teacher, seq)[0][:-1], k)) for seq in seqs]


def write_sparse_dataset(
    path: str | Path,
    items: Iterable[tuple[list[int], np.ndarray]],
    k: int,
    vocab_size: int,
) -> int:
    """Write sequences with their sparse pairs; returns sequences written."""
    count = 0
    with atomic_write(path) as f:
        f.write(MAGIC + struct.pack("<III", VERSION, k, vocab_size))
        for tokens, pairs in items:
            if pairs.shape != (len(tokens) - 1, k):
                raise ContractError(f"expected ({len(tokens) - 1}, {k}) sparse pairs, "
                                    f"got {pairs.shape}")
            f.write(struct.pack("<I", len(tokens))
                    + np.asarray(tokens, dtype="<u4").tobytes()
                    + pairs.astype(SPARSE_DTYPE, copy=False).tobytes())
            count += 1
    return count


def read_sparse_dataset(path: str | Path):
    """Read back (k, vocab_size, [(tokens, pairs), ...]); pairs are
    read-only views of the file's bytes. Damaged files raise DataError."""
    buf = Path(path).read_bytes()
    if len(buf) < 16:
        raise DataError(f"{path}: truncated header")
    if buf[:4] != MAGIC:
        raise ConfigError(f"{path}: not a sparse logit dataset")
    version, k, vocab_size = struct.unpack_from("<III", buf, 4)
    if version != VERSION:
        raise ConfigError(f"{path}: unsupported version {version}")
    if k < 1:
        raise DataError(f"{path}: k must be positive")
    items: list[tuple[list[int], np.ndarray]] = []
    max_token = 0
    off = 16
    while off < len(buf):
        length = struct.unpack_from("<I", buf, off)[0] if off + 4 <= len(buf) else 0
        end = off + 4 + 4 * length + SPARSE_DTYPE.itemsize * k * (length - 1)
        if length < 1 or end > len(buf):
            raise DataError(f"{path}: truncated or damaged sequence {len(items)}")
        tokens = np.frombuffer(buf, "<u4", length, off + 4)
        pairs = np.frombuffer(buf, SPARSE_DTYPE, k * (length - 1), off + 4 + 4 * length)
        items.append((tokens.tolist(), pairs.reshape(length - 1, k)))
        max_token = max(max_token, int(tokens.max()))
        off = end
    pairs = np.concatenate([np.empty((0, k), SPARSE_DTYPE)] + [p for _, p in items])
    ids = np.sort(pairs["id"], axis=1)
    if max(max_token, ids.max(initial=0)) >= vocab_size:
        raise DataError(f"{path}: token id outside the vocabulary of {vocab_size}")
    if np.any(ids[:, 1:] == ids[:, :-1]):
        raise DataError(f"{path}: duplicate token ids in a sparse row")
    if np.any(pairs["logit"][:, 1:] > pairs["logit"][:, :-1]):
        raise DataError(f"{path}: sparse rows must be sorted by descending logit")
    return k, vocab_size, items
