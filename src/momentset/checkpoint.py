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
# the model, and for a resumed run also the optimizer schedule. The dataset,
# the epoch count and workers may differ. Fields are read by name, so keys
# that a config snapshot has and RunConfig no longer does are ignored.
MODEL_FIELDS = tuple(f.name for f in dataclasses.fields(ModelConfig))
IDENTITY_FIELDS = (*MODEL_FIELDS, "lr", "batch_size", "freeze_intervals")


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
        tensors[f"opt.m.{k}"], tensors[f"opt.v.{k}"] = optimizer.moments(k)
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
                # a C-contiguous <f8 array is its own payload: write its
                # buffer, no bytes copy
                f.write(np.ascontiguousarray(arr, dtype="<f8").data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _unpack(f, size: int, fmt: str, path, what: str):
    """Read and unpack fmt from f after checking that the file holds all of it."""
    n = struct.calcsize(fmt)
    if size - f.tell() < n:
        raise TruncatedFileError(f"{path}: truncated {what}")
    return struct.unpack(fmt, f.read(n))


def load_checkpoint(path) -> CheckpointData:
    """Read each tensor once, into its own array; every size is checked
    against the rest of the file before any read or allocation."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        magic, version, cfg_len = _unpack(f, size, "<4sII", path, "header")
        if magic != MAGIC:
            raise BadMagicError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise VersionMismatchError(f"{path}: version {version}, expected {VERSION}")
        (cfg_bytes,) = _unpack(f, size, f"<{cfg_len}s", path, "config block")
        try:
            config = json.loads(cfg_bytes.decode("utf-8"))
        except ValueError as e:  # UnicodeDecodeError and JSONDecodeError
            raise CheckpointError(f"{path}: unreadable config block ({e})") from e
        if not isinstance(config, dict):
            raise CheckpointError(f"{path}: config block is not a JSON object")
        epochs_done, step, count = _unpack(f, size, "<QQI", path, "counters")
        tensors: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = _unpack(f, size, "<I", path, "tensor table")
            (name_bytes,) = _unpack(f, size, f"<{name_len}s", path, "tensor table")
            name = name_bytes.decode("utf-8", errors="replace")
            (ndim,) = _unpack(f, size, "<I", path, "tensor table")
            shape = _unpack(f, size, f"<{ndim}I", path, "tensor table")
            if size - f.tell() < 8 * math.prod(shape):
                raise TruncatedFileError(f"{path}: truncated payload for '{name}'")
            try:
                arr = np.empty(shape, dtype="<f8")
            except ValueError as e:  # more axes than numpy supports
                raise CheckpointError(f"{path}: bad shape for '{name}' ({e})") from e
            if f.readinto(arr) != arr.nbytes:
                raise TruncatedFileError(f"{path}: short read for '{name}'")
            tensors[name] = arr
    return CheckpointData(config, epochs_done, step, tensors)


def restore(data: CheckpointData, config: RunConfig, model: MomentSetModel,
            optimizer: Adam | None = None):
    """Load checkpointed tensors into an existing model, and into its
    optimizer when one is given.

    Takes ownership of ``data``'s arrays: the model and the optimizer hold
    them afterwards, uncopied, so ``data`` must not be restored again. The
    ModelConfig fields of the two configs must match, and with an optimizer
    all of IDENTITY_FIELDS. Every tensor is checked before any is assigned,
    so a bad checkpoint changes nothing.
    """
    fields = MODEL_FIELDS if optimizer is None else IDENTITY_FIELDS
    differ = [k for k in fields if data.config.get(k) != getattr(config, k)]
    if differ:
        raise CheckpointError(
            f"checkpoint config does not match the run config ({', '.join(differ)})")
    prefixes = ("",) if optimizer is None else ("", "opt.m.", "opt.v.")
    for name, p in model.params.items():
        for key in (prefix + name for prefix in prefixes):
            if key not in data.tensors:
                raise CheckpointError(f"checkpoint is missing tensor '{key}'")
            if data.tensors[key].shape != p.data.shape:
                raise CheckpointError(f"shape mismatch for tensor '{key}'")
    for name, p in model.params.items():
        p.data = data.tensors[name]
    if optimizer is not None:
        optimizer.m = {k: data.tensors[f"opt.m.{k}"] for k in model.params}
        optimizer.v = {k: data.tensors[f"opt.v.{k}"] for k in model.params}
        optimizer.step_count = data.step
