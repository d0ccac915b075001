"""Learnable temporal-embedding table with interpolation and timestamp codec.

Rows of the table correspond to relative positions in a video: row 0 is the
start, the last row the end. Interpolation uses the align-corners
convention so those endpoints are preserved at any target length.
"""
from __future__ import annotations

import numpy as np

from . import kernels
from .errors import ConfigError, NumericError, TimestampRangeError
from .tensor import Tensor, _record


def _interp_coords(coords: np.ndarray, rows: int):
    """Split continuous row coordinates into (lo, hi, frac)."""
    x = np.clip(coords, 0.0, rows - 1.0)
    lo = np.floor(x).astype(np.int64)
    hi = np.minimum(lo + 1, rows - 1)
    frac = x - lo
    return lo, hi, frac


def _durations(duration, shape) -> np.ndarray:
    """``duration`` broadcast to ``shape``; TimestampRangeError unless every
    one is positive and finite (a NaN fails the test as written)."""
    dur = np.broadcast_to(np.asarray(duration, dtype=np.float64), shape)
    bad = ~(np.isfinite(dur) & (dur > 0))
    if bad.any():
        raise TimestampRangeError(
            f"duration must be positive and finite, got {dur[bad][0]}")
    return dur


def interp_table_rows(table: Tensor, coords: np.ndarray) -> Tensor:
    """Linear interpolation of table rows at continuous coordinates of any
    shape; the result is coords.shape x d.

    Differentiable with respect to the table (scatter-add adjoint).
    """
    rows, dim = table.data.shape
    coords = np.asarray(coords, dtype=np.float64)
    lo, hi, frac = _interp_coords(coords.reshape(-1), rows)
    out = Tensor(kernels.interp_rows(table.data, lo, hi, frac).reshape(*coords.shape, dim))

    def bwd(g):
        return (kernels.interp_rows_grad(g.reshape(-1, dim), lo, hi, frac, rows),)

    return _record(out, (table,), bwd)


class TemporalTable:
    """T0 x d learnable table of relative-time embeddings."""

    def __init__(self, table: Tensor):
        self.table = table

    @property
    def rows(self) -> int:
        return self.table.data.shape[0]

    @classmethod
    def init_sinusoidal(cls, rows: int, dim: int) -> "TemporalTable":
        """Classic 1D sin/cos position table, marked learnable."""
        if rows < 2:
            raise ConfigError(f"temporal table needs >= 2 rows, got {rows}")
        if dim % 2 != 0:
            raise ConfigError(f"temporal embedding width must be even, got {dim}")
        pos = np.arange(rows, dtype=np.float64)[:, None]
        i = np.arange(dim // 2, dtype=np.float64)[None, :]
        angle = pos / np.power(10000.0, 2.0 * i / dim)
        data = np.empty((rows, dim))
        data[:, 0::2] = np.sin(angle)
        data[:, 1::2] = np.cos(angle)
        return cls(Tensor(data, requires_grad=True))

    def interpolate(self, target_len: int) -> Tensor:
        """Resample the table to target_len rows (align-corners linear)."""
        if target_len == 1:
            coords = np.array([(self.rows - 1) / 2.0])
        else:
            coords = np.arange(target_len, dtype=np.float64) * (
                (self.rows - 1) / (target_len - 1)
            )
        return interp_table_rows(self.table, coords)

    def _coords(self, ts, duration) -> np.ndarray:
        """Row coordinates of timestamps; ``duration`` broadcasts against
        ``ts``, so each row of a batch can have its own."""
        t = np.asarray(ts, dtype=np.float64)
        dur = _durations(duration, t.shape)
        # each test is written so that a NaN fails it
        bad = ~(np.isfinite(t) & (t >= 0) & (t <= dur))
        if bad.any():
            raise TimestampRangeError(
                f"timestamp {t[bad][0]} outside [0, {dur[bad][0]}]")
        return (t / dur) * (self.rows - 1)

    def embed_timestamps(self, ts, duration) -> Tensor:
        """Embeddings of timestamps of any shape at once; ts.shape x d."""
        return interp_table_rows(self.table, self._coords(ts, duration))

    def decode_timestamps(self, preds: np.ndarray, duration) -> np.ndarray:
        """Map ... x d predicted embeddings back to ... seconds, ``duration``
        broadcasting over the leading axes as in embed_timestamps: argmax of
        cosine similarity against the base table rows, as one stacked
        ... x T0 matrix product; ties go to the smaller index."""
        p = np.asarray(preds, dtype=np.float64)
        dur = _durations(duration, p.shape[:-1])
        norms = np.linalg.norm(p, axis=-1, keepdims=True)
        if not np.all(np.isfinite(norms) & (norms >= 1e-12)):
            raise NumericError(
                "decode_timestamps: zero-norm or non-finite prediction")
        rows = self.table.data
        row_norms = np.maximum(np.linalg.norm(rows, axis=1), 1e-12)
        sims = ((p / norms) @ rows.T) / row_norms
        idx = np.argmax(sims, axis=-1)  # argmax returns the first maximal index
        return (idx / (self.rows - 1)) * dur

    def decode_timestamp(self, pred: np.ndarray, duration: float) -> float:
        """Map one predicted embedding back to seconds; see decode_timestamps."""
        return float(self.decode_timestamps(np.reshape(pred, (1, -1)), duration)[0])
