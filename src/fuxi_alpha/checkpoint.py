"""Checkpoint file: JSON manifest + raw little-endian float64 arrays + sha256,
and the atomic writer every run artifact goes through.

Layout: magic, u32 header length, header JSON (config, variant kind, array
table), the arrays in table order, then a 32-byte sha256 of everything
before it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import struct
from dataclasses import asdict
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .model import ModelConfig, ModelParams, init_params

MAGIC = b"FXCK\x01\x00"


class CheckpointError(ValueError):
    """Corrupt or structurally invalid checkpoint file."""


def write_atomic(path: str | Path, data: bytes | str) -> None:
    """Write data (str as UTF-8) to path through a synced temporary file and a
    rename, so a crash mid-write leaves the previous file whole."""
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_csv(path: str | Path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """A CSV file of the header and rows, written atomically."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    write_atomic(path, text.getvalue())


def save_checkpoint(path: str | Path, params: ModelParams, cfg: ModelConfig, extra: dict | None = None) -> None:
    named = list(params.named())
    header = {
        "kind": params.kind,
        "config": asdict(cfg),
        "arrays": [{"name": name, "shape": list(t.shape)} for name, t in named],
        "extra": extra or {},
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    chunks = [MAGIC, struct.pack("<I", len(header_bytes)), header_bytes]
    for _, t in named:
        chunks.append(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
    body = b"".join(chunks)
    write_atomic(path, body + hashlib.sha256(body).digest())


def load_checkpoint(path: str | Path) -> tuple[ModelParams, ModelConfig, dict]:
    blob = Path(path).read_bytes()
    if len(blob) < len(MAGIC) + 4 + 32 or not blob.startswith(MAGIC):
        raise CheckpointError(f"{path}: not a checkpoint file")
    body, digest = blob[:-32], blob[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise CheckpointError(f"{path}: checksum mismatch, file is corrupt")
    header_len = struct.unpack_from("<I", body, len(MAGIC))[0]
    start = len(MAGIC) + 4
    try:
        header = json.loads(body[start : start + header_len].decode("utf-8"))
        cfg = ModelConfig(**header["config"])
        params = init_params(cfg, header["kind"], seed=0)
        table = [(a["name"], tuple(a["shape"])) for a in header["arrays"]]
        extra = dict(header["extra"])
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: malformed header: {type(e).__name__}: {e}") from None
    offset = start + header_len
    named = dict(params.named())
    if [name for name, _ in table] != list(named):
        raise CheckpointError(f"{path}: array table does not match the {header['kind']} layout")
    for name, shape in table:
        t = named[name]
        if shape != t.shape:
            raise CheckpointError(f"{path}: array {name} has shape {shape}, expected {t.shape}")
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        nbytes = count * 8
        if offset + nbytes > len(body):
            raise CheckpointError(f"{path}: truncated at array {name}")
        t.data = np.frombuffer(body[offset : offset + nbytes], dtype="<f8").reshape(shape).copy()
        offset += nbytes
    if offset != len(body):
        raise CheckpointError(f"{path}: trailing bytes after arrays")
    params.item_emb.data[0, :] = 0.0
    return params, cfg, extra
