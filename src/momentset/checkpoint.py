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
from .errors import (BadMagicError, CheckpointError, ConfigError, TruncatedFileError,
                     VersionMismatchError)
from .model import ModelConfig, MomentSetModel, param_shapes
from .optim import Adam

MAGIC = b"MALC"
VERSION = 1

# Eval builds its model from the snapshot's model fields (load_model); a
# resumed run must also share the optimizer schedule (restore). Fields are
# read by name, so keys that a snapshot has and RunConfig no longer does are
# ignored.
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


def load_checkpoint(path, moments: bool = True) -> CheckpointData:
    """Read each tensor once, into its own array; every size is checked
    against the rest of the file before any read or allocation.

    With ``moments=False`` the Adam moments ("opt.*") are size-checked the
    same way and then skipped unread, so ``tensors`` holds the model only.
    """
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
            nbytes = 8 * math.prod(shape)
            if size - f.tell() < nbytes:
                raise TruncatedFileError(f"{path}: truncated payload for '{name}'")
            if not moments and name.startswith("opt."):
                f.seek(nbytes, os.SEEK_CUR)
                continue
            try:
                arr = np.empty(shape, dtype="<f8")
            except ValueError as e:  # more axes than numpy supports
                raise CheckpointError(f"{path}: bad shape for '{name}' ({e})") from e
            if f.readinto(arr) != arr.nbytes:
                raise TruncatedFileError(f"{path}: short read for '{name}'")
            tensors[name] = arr
    return CheckpointData(config, epochs_done, step, tensors)


def _check_tensors(data: CheckpointData, shapes, where: str):
    """Raise CheckpointError unless the tensor table holds exactly the
    (name, shape) pairs of ``shapes``. ``shapes`` is read lazily, so the
    check stops at the first name the table lacks."""
    names = set()
    for name, shape in shapes:
        if name not in data.tensors:
            raise CheckpointError(f"{where}: checkpoint is missing tensor '{name}'")
        if data.tensors[name].shape != shape:
            raise CheckpointError(f"{where}: shape mismatch for tensor '{name}'")
        names.add(name)
    extra = sorted(data.tensors.keys() - names)
    if extra:
        raise CheckpointError(f"{where}: {len(extra)} tensors, first '{extra[0]}', "
                              "are not in the model")


def load_model(path, config: RunConfig) -> tuple[RunConfig, MomentSetModel]:
    """The model a checkpoint holds, for eval: ``config`` with its
    ModelConfig fields replaced by the snapshot's, and a model of that
    config holding the checkpoint's parameters. Adam moments are skipped
    unread.

    Raises CheckpointError when the snapshot lacks a model field, has one
    of the wrong type or fails ``validate``, or when the tensor table's
    parameters are not exactly that model's names and shapes. All of it is
    checked before any model array is allocated.
    """
    data = load_checkpoint(path, moments=False)
    try:  # a missing field reads as None, which from_dict rejects by type
        config = RunConfig.from_dict(
            {**config.to_dict(), **{k: data.config.get(k) for k in MODEL_FIELDS}})
        config.validate()
    except ConfigError as e:
        raise CheckpointError(f"{path}: bad config snapshot ({e})") from e
    _check_tensors(data, param_shapes(config), path)
    model = MomentSetModel(config.model_config(), rng=None)
    for name, p in model.params.items():
        p.data = data.tensors[name]
    return config, model


def restore(data: CheckpointData, config: RunConfig, model: MomentSetModel,
            optimizer: Adam):
    """Load a checkpoint into the model and optimizer of a resumed run.

    Takes ownership of ``data``'s arrays: the model and the optimizer hold
    them afterwards, uncopied, so ``data`` must not be restored again. The
    IDENTITY_FIELDS of the snapshot and ``config`` must match, and the
    tensor table must hold exactly the parameters and their moments. All of
    it is checked before anything is assigned, so a bad checkpoint changes
    nothing.
    """
    differ = [k for k in IDENTITY_FIELDS if data.config.get(k) != getattr(config, k)]
    if differ:
        raise CheckpointError(
            f"checkpoint config does not match the run config ({', '.join(differ)})")
    _check_tensors(data, ((key, p.data.shape) for name, p in model.params.items()
                          for key in (name, f"opt.m.{name}", f"opt.v.{name}")), "resume")
    for name, p in model.params.items():
        p.data = data.tensors[name]
    optimizer.m = {k: data.tensors[f"opt.m.{k}"] for k in model.params}
    optimizer.v = {k: data.tensors[f"opt.v.{k}"] for k in model.params}
    optimizer.step_count = data.step
