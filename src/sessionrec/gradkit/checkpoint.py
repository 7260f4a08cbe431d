"""Versioned binary serialization of a ParamStore plus a JSON metadata blob.

Layout, little-endian, all offsets fixed by the preceding fields:

    magic   4 bytes  b"SGRK"
    version u8       currently 1
    u32              metadata length in bytes
    bytes            UTF-8 JSON metadata object
    u32              tensor count
    per tensor, in store order:
        u16   name length,  UTF-8 name
        u8    group length, UTF-8 group
        u8    ndim
        u32 * ndim dims
        float64 little-endian data, C order

Writes are deterministic for identical stores and metadata, so identical runs
produce byte-identical checkpoints.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Optional, Union

import numpy as np

from ..errors import CheckpointError
from ..files import write_atomic
from .params import ParamStore

MAGIC = b"SGRK"
CHECKPOINT_VERSION = 1


def save_params(
    path: Union[str, Path], store: ParamStore, meta: Optional[dict] = None
) -> None:
    """Write every parameter tensor (with its group) and the metadata blob."""
    meta_bytes = json.dumps(
        meta or {}, ensure_ascii=False, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
    parts = [MAGIC, struct.pack("<BI", CHECKPOINT_VERSION, len(meta_bytes)), meta_bytes]
    parts.append(struct.pack("<I", len(store)))
    for name, tensor in store.items():
        name_b = name.encode("utf-8")
        group_b = store.group(name).encode("utf-8")
        arr = np.ascontiguousarray(tensor.values, dtype="<f8")
        parts += [struct.pack("<H", len(name_b)), name_b, struct.pack("<B", len(group_b)), group_b]
        parts += [struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape), memoryview(arr)]
    write_atomic(path, parts)


def load_params(path: Union[str, Path]) -> tuple[ParamStore, dict]:
    """Read a checkpoint written by :func:`save_params`."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from None
    if len(blob) < 9 or blob[:4] != MAGIC:
        raise CheckpointError(f"not a checkpoint file: {path}")
    version, meta_len = struct.unpack_from("<BI", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    offset = 9
    try:
        meta = json.loads(blob[offset : offset + meta_len].decode("utf-8"))
        if not isinstance(meta, dict):
            raise CheckpointError("checkpoint metadata is not a JSON object")
        offset += meta_len
        (count,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        store = ParamStore()
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", blob, offset)
            offset += 2
            name = blob[offset : offset + name_len].decode("utf-8")
            offset += name_len
            (group_len,) = struct.unpack_from("<B", blob, offset)
            offset += 1
            group = blob[offset : offset + group_len].decode("utf-8")
            offset += group_len
            (ndim,) = struct.unpack_from("<B", blob, offset)
            offset += 1
            shape = struct.unpack_from(f"<{ndim}I", blob, offset)
            offset += 4 * ndim
            n_bytes = 8 * int(np.prod(shape, dtype=np.int64)) if ndim else 8
            data = np.frombuffer(blob, dtype="<f8", count=n_bytes // 8, offset=offset)
            offset += n_bytes
            store.add(name, data.reshape(shape).copy(), group)
    except (struct.error, ValueError, RecursionError) as exc:
        raise CheckpointError(f"corrupt checkpoint: {exc}") from None
    if offset != len(blob):
        raise CheckpointError("checkpoint has trailing bytes")
    return store, meta
