"""Versioned binary model checkpoints.

Layout: magic "SFMD", u32 version, u32 length + canonical JSON config,
u32 tensor count, then each tensor as (u16 name length, name bytes,
u8 ndim, u32 dims..., little-endian float32 data) in declared order.
Round-trips are bit exact.

The atomic writer, the JSON writer and the JSON-lines reader and writer
here are shared by every on-disk format of the package.
"""

from __future__ import annotations

import json
import os
import struct
from collections.abc import Iterable
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .config import read
from .errors import ConfigError, DataError
from .model import ModelConfig, ModelState, tensor_shapes

MAGIC = b"SFMD"
VERSION = 1


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@contextmanager
def atomic_write(path: str | Path):
    """Binary file handle on a temp file that replaces `path` only once
    the block finishes; on error `path` is left as it was."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            yield f
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_json(path: str | Path, obj) -> None:
    """`obj` as strict JSON (a NaN or infinity raises ValueError) indented by
    2 plus a newline, written through `atomic_write`."""
    with atomic_write(path) as f:
        f.write((json.dumps(obj, indent=2, allow_nan=False) + "\n").encode("utf-8"))


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    """One strict JSON object per line, written through `atomic_write`."""
    with atomic_write(path) as f:
        for rec in records:
            f.write((json.dumps(rec, allow_nan=False) + "\n").encode("utf-8"))


def read_jsonl(path: str | Path, schema: dict) -> list[SimpleNamespace]:
    """The objects of a JSON-lines file, blank lines skipped, each read by
    `config.read` as a namespace of `schema`'s keys; keys outside it are
    ignored. A line that is not JSON, not an object or rejected by the
    schema raises DataError naming the file and the line (and the key)."""
    records = []
    with open(path, "rb") as f:
        for n, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except ValueError as exc:  # bad JSON or bad utf-8
                raise DataError(f"{path}:{n}: not JSON ({exc})") from exc
            if not isinstance(rec, dict):
                raise DataError(f"{path}:{n}: not a JSON object")
            try:
                records.append(read("line", {k: v for k, v in rec.items() if k in schema},
                                    schema))
            except ConfigError as exc:
                raise DataError(f"{path}:{n}: {exc}") from None
    return records


def save_checkpoint(state: ModelState, path: str | Path) -> None:
    cfg_blob = canonical_json(state.config.to_dict()).encode("utf-8")
    with atomic_write(path) as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<I", len(cfg_blob)))
        f.write(cfg_blob)
        names = list(tensor_shapes(state.config))
        f.write(struct.pack("<I", len(names)))
        for name in names:
            arr = np.ascontiguousarray(state.tensors[name], dtype="<f4")
            nb = name.encode("utf-8")
            f.write(struct.pack("<H", len(nb)))
            f.write(nb)
            f.write(struct.pack("<B", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.tobytes())


def _read_header(path: str | Path, f):
    """The open checkpoint `f`'s config and `take(n)`, its next n bytes or DataError."""
    size = os.fstat(f.fileno()).st_size

    def take(n: int) -> bytes:
        if f.tell() + n > size:
            raise DataError(f"{path}: truncated checkpoint")
        return f.read(n)

    if take(4) != MAGIC:
        raise ConfigError(f"{path}: not a model checkpoint")
    version = struct.unpack("<I", take(4))[0]
    if version != VERSION:
        raise ConfigError(f"{path}: unsupported checkpoint version {version}")
    cfg_blob = take(struct.unpack("<I", take(4))[0])
    try:
        return ModelConfig.from_dict(json.loads(cfg_blob.decode("utf-8"))), take
    except ValueError as exc:  # bad utf-8 or JSON, or a config the reader rejects
        raise DataError(f"{path}: damaged config block ({exc})") from exc


def checkpoint_config(path: str | Path) -> ModelConfig:
    """A checkpoint's model config, read from its header without its tensors."""
    with open(path, "rb") as f:
        return _read_header(path, f)[0]


def load_checkpoint(path: str | Path) -> ModelState:
    """Read a checkpoint back; a truncated or damaged file raises DataError."""
    with open(path, "rb") as f:
        config, take = _read_header(path, f)
        expected = tensor_shapes(config)
        if struct.unpack("<I", take(4))[0] != len(expected):
            raise DataError(f"{path}: tensor count mismatch")
        tensors: dict[str, np.ndarray] = {}
        for _ in expected:
            name = take(struct.unpack("<H", take(2))[0]).decode("utf-8", errors="replace")
            ndim = take(1)[0]
            shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
            if expected.get(name) != shape or name in tensors:
                raise DataError(f"{path}: unexpected tensor {name} with shape {shape}")
            data = np.frombuffer(take(4 * int(np.prod(shape))), dtype="<f4")
            tensors[name] = data.reshape(shape).astype(np.float32)
        if f.read(1):
            raise DataError(f"{path}: trailing bytes after the last tensor")
    return ModelState(config=config, tensors=tensors)
