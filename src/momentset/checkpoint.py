"""Binary checkpoint format (little-endian):

  "MALC" | u32 version | u32 config-json length | config JSON (utf8) |
  u64 epochs_done | u64 optimizer step | u32 tensor count |
  per tensor: u32 name length | name utf8 | u32 ndim | u32 dims... |
              float64 payload row-major

Model parameters are stored under their own names, Adam moments under
"opt.m.<name>" / "opt.v.<name>". Round trips are bit-exact.
"""
from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .errors import BadMagicError, CheckpointError, TruncatedFileError, VersionMismatchError
from .model import ModelConfig, MomentSetModel
from .optim import Adam

MAGIC = b"MALC"
VERSION = 1

# RunConfig fields a checkpoint must share with the run that restores it:
# the model and the optimizer schedule. The dataset, the epoch count and the
# eval settings (workers included) may differ.
IDENTITY_FIELDS = (*(f.name for f in dataclasses.fields(ModelConfig)),
                   "lr", "beta1", "beta2", "epsilon", "batch_size",
                   "freeze_intervals")


@dataclass
class CheckpointData:
    config: dict
    epochs_done: int
    step: int
    tensors: dict[str, np.ndarray]


def save_checkpoint(path, config: RunConfig, model: MomentSetModel,
                    optimizer: Adam, epochs_done: int):
    tensors: dict[str, np.ndarray] = {k: p.data for k, p in model.params.items()}
    for k in model.params:
        tensors[f"opt.m.{k}"] = optimizer.m[k]
        tensors[f"opt.v.{k}"] = optimizer.v[k]
    cfg_bytes = config.to_json().encode("utf-8")
    # write a temp file beside the target and rename it into place, so a
    # failed save leaves the previous checkpoint as it was
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(struct.pack("<4sII", MAGIC, VERSION, len(cfg_bytes)))
            f.write(cfg_bytes)
            f.write(struct.pack("<QQI", epochs_done, optimizer.step_count, len(tensors)))
            for name, arr in tensors.items():
                nb = name.encode("utf-8")
                f.write(struct.pack("<I", len(nb)))
                f.write(nb)
                f.write(struct.pack("<I", arr.ndim))
                f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
                f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _unpack(fmt: str, blob: bytes, off: int, path, what: str):
    """struct.unpack_from after checking that the file holds all of fmt;
    returns the values and the offset just past them."""
    end = off + struct.calcsize(fmt)
    if len(blob) < end:
        raise TruncatedFileError(f"{path}: truncated {what}")
    return struct.unpack_from(fmt, blob, off), end


def load_checkpoint(path) -> CheckpointData:
    with open(path, "rb") as f:
        blob = f.read()
    (magic, version, cfg_len), off = _unpack("<4sII", blob, 0, path, "header")
    if magic != MAGIC:
        raise BadMagicError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise VersionMismatchError(f"{path}: version {version}, expected {VERSION}")
    (cfg_bytes,), off = _unpack(f"<{cfg_len}s", blob, off, path, "config block")
    try:
        config = json.loads(cfg_bytes.decode("utf-8"))
    except ValueError as e:  # UnicodeDecodeError and JSONDecodeError
        raise CheckpointError(f"{path}: unreadable config block ({e})") from e
    if not isinstance(config, dict):
        raise CheckpointError(f"{path}: config block is not a JSON object")
    (epochs_done, step, count), off = _unpack("<QQI", blob, off, path, "counters")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,), off = _unpack("<I", blob, off, path, "tensor table")
        (name_bytes,), off = _unpack(f"<{name_len}s", blob, off, path, "tensor table")
        name = name_bytes.decode("utf-8", errors="replace")
        (ndim,), off = _unpack("<I", blob, off, path, "tensor table")
        shape, off = _unpack(f"<{ndim}I", blob, off, path, "tensor table")
        size = math.prod(shape)
        if len(blob) < off + size * 8:
            raise TruncatedFileError(f"{path}: truncated payload for '{name}'")
        arr = np.frombuffer(blob, dtype="<f8", count=size, offset=off).copy()
        tensors[name] = arr.reshape(shape)
        off += size * 8
    return CheckpointData(config, epochs_done, step, tensors)


def restore(data: CheckpointData, config: RunConfig, model: MomentSetModel,
            optimizer: Adam):
    """Load checkpointed tensors into an existing model/optimizer pair.

    Only IDENTITY_FIELDS of the two configs must match. Every tensor is
    checked before any is assigned, so a bad checkpoint changes nothing.
    """
    differ = [k for k in IDENTITY_FIELDS
              if data.config.get(k) != getattr(config, k)]
    if differ:
        raise CheckpointError(
            f"checkpoint config does not match the run config ({', '.join(differ)})")
    for name, p in model.params.items():
        for key in (name, f"opt.m.{name}", f"opt.v.{name}"):
            if key not in data.tensors:
                raise CheckpointError(f"checkpoint is missing tensor '{key}'")
            if data.tensors[key].shape != p.data.shape:
                raise CheckpointError(f"shape mismatch for tensor '{key}'")
    for name, p in model.params.items():
        p.data = data.tensors[name].copy()
        optimizer.m[name] = data.tensors[f"opt.m.{name}"].copy()
        optimizer.v[name] = data.tensors[f"opt.v.{name}"].copy()
    optimizer.params = model.params
    optimizer.step_count = data.step
