"""Binary checkpoint format, version 2 (little-endian):

  "MALC" | u32 version | u32 config-json length | config JSON (utf8) |
  u64 epochs_done | u64 optimizer step |
  float64 payloads, row-major, back to back: every model parameter in
  model.param_shapes order, then each parameter's Adam "opt.m" and "opt.v"

The file states no tensor names or shapes: the config snapshot's model
fields fix them through model.param_shapes, and the loader requires the
file to be exactly as long as that layout. A version 1 file (which had a
per-tensor name and shape table) is refused with FormatError.
``tensors`` keeps parameters under their own names and Adam moments under
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
from .errors import ConfigError, DataFileError, FormatError
from .model import ModelConfig, MomentSetModel, param_shapes
from .optim import Adam

MAGIC = b"MALC"
VERSION = 2

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


@contextlib.contextmanager
def replace_file(path):
    """A binary file to write in place of ``path``: it is a temp file beside
    ``path``, renamed over it when the block ends cleanly and removed when
    the block raises, so a failed write leaves ``path`` as it was."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def save_checkpoint(path, config: RunConfig, model: MomentSetModel,
                    optimizer: Adam, epochs_done: int):
    arrays = [p.data for p in model.params.values()]
    for k in model.params:
        arrays += optimizer.m[k], optimizer.v[k]
    cfg_bytes = config.to_json().encode("utf-8")
    with replace_file(path) as f:
        f.write(struct.pack("<4sII", MAGIC, VERSION, len(cfg_bytes)))
        f.write(cfg_bytes)
        f.write(struct.pack("<QQ", epochs_done, optimizer.step_count))
        for arr in arrays:
            # a C-contiguous <f8 array is its own payload: write its
            # buffer, no bytes copy
            f.write(np.ascontiguousarray(arr, dtype="<f8").data)


def _unpack(f, size: int, fmt: str, path, what: str):
    """Read and unpack fmt from f after checking that the file holds all of it."""
    n = struct.calcsize(fmt)
    if size - f.tell() < n:
        raise FormatError(f"{path}: truncated {what}")
    return struct.unpack(fmt, f.read(n))


def _layout(snapshot: dict, payload_bytes: int, path) -> list[tuple[str, tuple]]:
    """The parameter (name, shape) list of the snapshot's model, after
    checking that its parameters and their two moments fill exactly
    ``payload_bytes``. The sum stops at the first overrun, so a snapshot
    that claims a huge model is refused without listing it."""
    try:  # a missing field reads as None, which from_dict rejects by type
        config = RunConfig.from_dict({k: snapshot.get(k) for k in MODEL_FIELDS})
    except ConfigError as e:
        raise DataFileError(f"{path}: bad config snapshot ({e})") from e
    shapes, need = [], 0
    for name, shape in param_shapes(config):
        need += 3 * 8 * math.prod(shape)
        if need > payload_bytes:
            raise DataFileError(f"{path}: the snapshot's model needs more than the "
                                f"file's {payload_bytes} payload bytes")
        shapes.append((name, shape))
    if need != payload_bytes:
        raise DataFileError(f"{path}: {payload_bytes - need} bytes after the "
                            "snapshot's model and its moments")
    return shapes


def load_checkpoint(path, moments: bool = True) -> CheckpointData:
    """Read each tensor once, into its own array, in the layout that the
    snapshot's model fields imply; the snapshot and the file size are
    checked against that layout before any array is allocated.

    With ``moments=False`` the read stops after the model parameters, so
    ``tensors`` holds the model only.
    """
    try:
        f = open(path, "rb")
    except OSError as e:
        raise DataFileError(f"{path}: unreadable checkpoint ({e.strerror})") from e
    with f:
        size = os.fstat(f.fileno()).st_size
        magic, version, cfg_len = _unpack(f, size, "<4sII", path, "header")
        if magic != MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise FormatError(f"{path}: version {version}, expected {VERSION}")
        (cfg_bytes,) = _unpack(f, size, f"<{cfg_len}s", path, "config block")
        try:
            config = json.loads(cfg_bytes.decode("utf-8"))
        except ValueError as e:  # UnicodeDecodeError and JSONDecodeError
            raise DataFileError(f"{path}: unreadable config block ({e})") from e
        if not isinstance(config, dict):
            raise DataFileError(f"{path}: config block is not a JSON object")
        epochs_done, step = _unpack(f, size, "<QQ", path, "counters")
        layout = _layout(config, size - f.tell(), path)
        if moments:
            layout += [(f"opt.{m}.{name}", shape) for name, shape in layout for m in "mv"]
        tensors: dict[str, np.ndarray] = {}
        for name, shape in layout:
            arr = np.empty(shape, dtype="<f8")
            if f.readinto(arr) != arr.nbytes:
                raise FormatError(f"{path}: short read for '{name}'")
            tensors[name] = arr
    return CheckpointData(config, epochs_done, step, tensors)


def load_model(path, config: RunConfig) -> tuple[RunConfig, MomentSetModel]:
    """The model a checkpoint holds, for eval: ``config`` with its
    ModelConfig fields replaced by the snapshot's, and a model of that
    config that wraps the checkpoint's parameter arrays. Adam moments are
    not read.

    Raises DataFileError when the snapshot lacks a model field, has one
    of the wrong type or fails ModelConfig.validate, or when the file is not
    exactly as long as that model's layout. All of it is checked before any
    model array is allocated. ``dataclasses.replace`` checks the merged
    config again, and as no check mixes model and run fields it passes
    whenever ``config`` did; the dataset's chunks are checked against the
    model by the caller (ModelConfig.check_input).
    """
    data = load_checkpoint(path, moments=False)
    config = dataclasses.replace(config, **{k: data.config[k] for k in MODEL_FIELDS})
    return config, MomentSetModel(config, data.tensors)


def restore(data: CheckpointData, config: RunConfig) -> tuple[MomentSetModel, Adam]:
    """The model and the optimizer of a run resumed from ``data``.

    The IDENTITY_FIELDS of the snapshot and ``config`` must match, which
    fixes the parameter layout too, or DataFileError is raised. The model
    and an Adam with ``config.lr`` hold ``data``'s parameter and moment
    arrays, uncopied, and the optimizer its step count; so ``data`` must
    not be restored again.
    """
    differ = [k for k in IDENTITY_FIELDS if data.config.get(k) != getattr(config, k)]
    if differ:
        raise DataFileError(
            f"checkpoint config does not match the run config ({', '.join(differ)})")
    model = MomentSetModel(config, data.tensors)
    optimizer = Adam(model.params, lr=config.lr,
                     m={k: data.tensors[f"opt.m.{k}"] for k in model.params},
                     v={k: data.tensors[f"opt.v.{k}"] for k in model.params},
                     step_count=data.step)
    return model, optimizer
