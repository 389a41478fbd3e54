"""Checkpoint container: JSON header + little-endian float32 tensor payloads.

Layout:

    bytes 0..7    magic  b"EEGPCKPT"
    bytes 8..11   format version, uint32 little-endian (currently 1)
    bytes 12..15  header length H, uint32 little-endian
    bytes 16..16+H  UTF-8 JSON header
    remainder     concatenated float32le payloads, in header manifest order

Header JSON: {"config": {...}, "meta": {...}, "tensors": [{"name", "shape"}],
"adam": null | {"t": int, "tensors": [{"name", "shape"}]}}. Adam payloads
(first moment then second moment per entry) follow the parameter payloads.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .errors import BadConfig, DataFileError, NonFiniteValue
from .model import ModelConfig

MAGIC = b"EEGPCKPT"
VERSION = 1


def save_checkpoint(
    path,
    config: ModelConfig,
    params: dict[str, Tensor],
    adam_state=None,
    meta: dict | None = None,
) -> Path:
    path = Path(path)
    names = sorted(params)
    header = {
        "config": config.to_dict(),
        "meta": meta or {},
        "tensors": [{"name": n, "shape": list(params[n].data.shape)} for n in names],
        "adam": None
        if adam_state is None
        else {
            "t": adam_state.t,
            "tensors": [{"name": n, "shape": list(params[n].data.shape)} for n in names],
        },
    }
    blob = json.dumps(header, sort_keys=True).encode()
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<II", VERSION, len(blob)))
            fh.write(blob)
            for n in names:
                fh.write(params[n].data.astype("<f4").tobytes())
            if adam_state is not None:
                for n in names:
                    fh.write(np.asarray(adam_state.m[n]).astype("<f4").tobytes())
                    fh.write(np.asarray(adam_state.v[n]).astype("<f4").tobytes())
    except OSError as exc:
        raise DataFileError(f"cannot write checkpoint {path}: {exc}") from exc
    return path


def _manifest(entries, path) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of each entry of a header's tensor list."""
    if type(entries) is not list:
        raise DataFileError(f"{path}: tensor list must be a list, got {entries!r}")
    for e in entries:
        if not (
            type(e) is dict and type(e.get("name")) is str and type(e.get("shape")) is list
            and all(type(d) is int and d >= 0 for d in e["shape"])
        ):
            raise DataFileError(f"{path}: bad tensor entry {e!r}")
    return [(e["name"], tuple(e["shape"])) for e in entries]


def _read_tensor(buf: memoryview, offset: int, shape, path) -> tuple[np.ndarray, int]:
    nbytes = 4 * math.prod(shape)
    if offset + nbytes > len(buf):
        raise DataFileError(f"{path}: checkpoint truncated")
    arr = np.frombuffer(buf[offset : offset + nbytes], dtype="<f4").reshape(shape)
    return arr.astype(np.float32), offset + nbytes


def load_checkpoint(path):
    """Returns (config, params, adam_fields, meta).

    adam_fields is None or (t, m_dict, v_dict).
    """
    path = Path(path)
    if not path.is_file():
        raise DataFileError(f"checkpoint not found: {path}")
    raw = path.read_bytes()
    if len(raw) < 16 or raw[:8] != MAGIC:
        raise DataFileError(f"{path}: not a checkpoint file")
    version, hlen = struct.unpack("<II", raw[8:16])
    if version != VERSION:
        raise DataFileError(f"{path}: unsupported version {version}")
    if len(raw) < 16 + hlen:
        raise DataFileError(f"{path}: checkpoint truncated")
    try:
        header = json.loads(raw[16 : 16 + hlen].decode())
    except ValueError as exc:
        raise DataFileError(f"{path}: bad header: {exc}") from exc
    if type(header) is not dict:
        raise DataFileError(f"{path}: bad header: not a JSON object")
    try:
        config = ModelConfig.from_dict(header.get("config"))
    except BadConfig as exc:
        raise DataFileError(f"{path}: bad header: {exc}") from exc
    adam, meta = header.get("adam"), header.get("meta", {})
    if adam and not (type(adam) is dict and type(adam.get("t")) is int):
        raise DataFileError(f"{path}: bad adam section {adam!r}")
    if type(meta) is not dict:
        raise DataFileError(f"{path}: meta must be a JSON object, got {meta!r}")
    buf = memoryview(raw)
    offset = 16 + hlen
    params: dict[str, Tensor] = {}
    for name, shape in _manifest(header.get("tensors"), path):
        arr, offset = _read_tensor(buf, offset, shape, path)
        try:
            params[name] = Tensor(arr, requires_grad=True)
        except NonFiniteValue as exc:
            raise NonFiniteValue(f"{path}: {name}: {exc}") from exc
    adam_fields = None
    if adam:
        m: dict[str, np.ndarray] = {}
        v: dict[str, np.ndarray] = {}
        for name, shape in _manifest(adam.get("tensors"), path):
            m[name], offset = _read_tensor(buf, offset, shape, path)
            v[name], offset = _read_tensor(buf, offset, shape, path)
        adam_fields = (adam["t"], m, v)
    if offset != len(raw):
        raise DataFileError(f"{path}: {len(raw) - offset} trailing bytes")
    return config, params, adam_fields, meta
