"""Dense float64 tensors with tape-based reverse-mode autodiff.

Data lives in numpy arrays. Every differentiable op appends one node to a
global tape in execution order, so nodes are already topologically sorted
and ``backward`` is a single reverse sweep. A node keeps only what its
backward formula reads, and gradient slots in place of its output and
input tensors, so an intermediate array lives only while the caller or a
later node's formula holds it. ``backward`` consumes the tape, freeing
each node as the sweep passes it. The tape is per-process; ``clear_tape``
empties it after a step that fails before ``backward``.
"""
from __future__ import annotations

import contextlib
import math
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

from .errors import NumericError, ShapeError

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


class Tensor:
    """A numpy array plus an optional gradient of the same shape."""

    __slots__ = ("data", "grad", "requires_grad", "slot")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.slot: _Slot | None = None  # an op output's gradient slot (_record)

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # operator sugar; all real work happens in the module-level functions
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __mul__(self, other):
        return mul(self, _as_tensor(other))


class _Slot:
    """Where backward accumulates an op output's gradient. The node holds
    this, not the output, so the output's array is not kept alive by the
    tape."""

    __slots__ = ("grad",)
    requires_grad = True

    def __init__(self):
        self.grad: np.ndarray | None = None


def _slot_of(t: Tensor):
    """The gradient slot of ``t``: its ``_Slot`` for an op output, and the
    tensor itself for a leaf."""
    return t if t.slot is None else t.slot


class _Node:
    """One op on the tape: the gradient slots of its output and inputs and
    its backward formula, a closure over only what the formula reads."""

    __slots__ = ("out", "inputs", "backward_fn")

    def __init__(self, out, inputs, backward_fn):
        self.out = out
        self.inputs = inputs
        self.backward_fn = backward_fn


_TAPE: list[_Node] = []
_GRAD_ENABLED = True


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _records(inputs: Sequence[Tensor]) -> bool:
    """Whether an op on ``inputs`` puts a node on the tape."""
    return _GRAD_ENABLED and any(t.requires_grad for t in inputs)


def _record(out: Tensor, inputs: Sequence[Tensor], backward_fn: Callable):
    """Mark ``out`` differentiable and put its node on the tape."""
    if _records(inputs):
        out.requires_grad = True
        out.slot = _Slot()
        _TAPE.append(_Node(out.slot, tuple(_slot_of(t) for t in inputs), backward_fn))
    return out


def tape_size() -> int:
    return len(_TAPE)


def clear_tape():
    """Empty the tape; ``backward`` leaves it empty, so this is for a step
    that fails before it."""
    _TAPE.clear()


@contextlib.contextmanager
def no_grad():
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (adjoint of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def backward(loss: Tensor):
    """Populate .grad of every reachable requires_grad leaf (a tensor no op
    produced, such as a parameter), consuming the tape.

    The sweep pops each node as it reaches it, so the node's formula and
    all it saved are freed before the next node runs, and the tape is empty
    on return. An op output's gradient is complete once the sweep reaches
    its node, because every consumer sits later on the tape; its slot drops
    it there so that intermediate gradients do not pile up.

    A tensor keeps the first gradient array it is handed as its ``.grad``
    and adds later ones into it in place. The array is copied only when
    it is read-only (a broadcast view), not C-contiguous (a transposed
    view would change the reduction order of every op that reads it), or
    may share memory with an array this node already handed to another
    input (the ``+=`` would write into both). So backward functions make
    no defensive copies.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    _slot_of(loss).grad = np.ones_like(loss.data)
    while _TAPE:
        node = _TAPE.pop()
        g_out = node.out.grad
        if g_out is None:
            continue
        node.out.grad = None
        handed: list[np.ndarray] = []
        for t, g in zip(node.inputs, node.backward_fn(g_out)):
            if g is None or not t.requires_grad:
                continue
            if t.grad is not None:
                t.grad += g
                continue
            # the first gradient is taken as it is; a later += writes into it
            if (not isinstance(g, np.ndarray) or not g.flags.writeable
                    or not g.flags.c_contiguous
                    or any(np.may_share_memory(g, h) for h in handed)):
                g = np.array(g, order="C")
            t.grad = g
            handed.append(g)


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data)
    a_shape, b_shape = a.data.shape, b.data.shape
    return _record(out, (a, b), lambda g: (
        _unbroadcast(g, a_shape),
        _unbroadcast(g, b_shape),
    ))


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data)
    return _record(out, (a, b), lambda g: (
        _unbroadcast(g * b.data, a.data.shape),
        _unbroadcast(g * a.data, b.data.shape),
    ))


def neg(a: Tensor) -> Tensor:
    out = Tensor(-a.data)
    return _record(out, (a,), lambda g: (-g,))


def scale(a: Tensor, c: float) -> Tensor:
    out = Tensor(a.data * c)
    return _record(out, (a,), lambda g: (g * c,))


def _fold_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` for a 2-D ``w`` as one BLAS call: x's leading axes are
    folded into rows (numpy's ``@`` would loop over them)."""
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(*x.shape[:-1], w.shape[-1])


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast as in
    numpy's ``@``."""
    if (a.data.ndim < 2 or b.data.ndim < 2
            or a.data.shape[-1] != b.data.shape[-2]):
        raise ShapeError(
            f"matmul: incompatible shapes {a.data.shape} x {b.data.shape}"
        )
    try:
        out = Tensor(a.data @ b.data)
    except ValueError as e:  # leading axes that do not broadcast
        raise ShapeError(
            f"matmul: incompatible leading axes {a.data.shape} x {b.data.shape}"
        ) from e

    def bwd(g):
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape)
        if b.requires_grad:
            gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)
        return ga, gb

    return _record(out, (a, b), bwd)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` for a 2-D weight as one node; for a 2-D ``x``, the same
    arithmetic as ``add(matmul(x, w), b)``, forward and backward. The
    leading axes of ``x`` are folded into rows, one BLAS call each way."""
    if w.data.ndim != 2 or x.data.shape[-1] != w.data.shape[0]:
        raise ShapeError(
            f"linear: incompatible shapes {x.data.shape} x {w.data.shape}")
    y = _fold_matmul(x.data, w.data)
    y += b.data
    out = Tensor(y)

    def bwd(g):
        gx = _fold_matmul(g, w.data.T) if x.requires_grad else None
        gw = (x.data.reshape(-1, x.data.shape[-1]).T @ g.reshape(-1, g.shape[-1])
              if w.requires_grad else None)
        return gx, gw, _unbroadcast(g, b.data.shape)

    return _record(out, (x, w, b), bwd)


def sigmoid(a: Tensor) -> Tensor:
    # split by sign to avoid overflow in exp
    x = a.data
    e = np.exp(-np.abs(x))
    y = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    out = Tensor(y)
    return _record(out, (a,), lambda g: (g * y * (1.0 - y),))


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise NumericError("log: non-positive entry")
    out = Tensor(np.log(a.data))
    return _record(out, (a,), lambda g: (g / a.data,))


def exp(a: Tensor) -> Tensor:
    y = np.exp(a.data)
    out = Tensor(y)
    return _record(out, (a,), lambda g: (g * y,))


def gelu(a: Tensor) -> Tensor:
    """``x * Φ(x)``, Φ the standard normal CDF. A recorded node keeps only
    the derivative ``Φ + x * pdf(x)``, formed in the forward, so ``x`` and
    Φ are freed once the forward moves on; without a node (``no_grad``, or
    an input that needs no gradient) no derivative is formed."""
    x = a.data
    phi = erf(x * _INV_SQRT2)  # phi = 0.5 * (1 + erf(x / sqrt 2)), in place
    phi += 1.0
    phi *= 0.5
    out = Tensor(x * phi)
    if not _records((a,)):
        return out
    # phi + x * exp(-0.5 * x * x) * (1 / sqrt(2 pi)), in that order, in place
    d = np.multiply(x, -0.5, out=np.empty(x.shape))  # an array even for 0-d x
    d *= x
    np.exp(d, out=d)
    d *= x
    d *= _INV_SQRT2PI
    d += phi
    return _record(out, (a,), lambda g: (g * d,))


def tsum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))
    shape = a.data.shape

    def bwd(g):
        gg = g if keepdims or axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, shape),)

    return _record(out, (a,), bwd)


def tmean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    n = a.data.size if axis is None else a.data.shape[axis]
    return scale(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def transpose(a: Tensor, axes=None) -> Tensor:
    """Permute axes as ``np.transpose``; the default reverses them (``.T``)."""
    out = Tensor(np.transpose(a.data, axes))
    inverse = None if axes is None else np.argsort(axes)
    return _record(out, (a,), lambda g: (np.transpose(g, inverse),))


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape))
    a_shape = a.data.shape
    return _record(out, (a,), lambda g: (g.reshape(a_shape),))


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out = Tensor(a.data[idx])
    shape = a.data.shape

    def bwd(g):
        full = np.zeros(shape)
        full[idx] = g
        return (full,)

    return _record(out, (a,), bwd)


def cat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return _record(out, tuple(tensors), bwd)


def take(a: Tensor, index) -> Tensor:
    """Rows ``a[index]`` along the first axis; a repeated row's gradients add."""
    index = np.asarray(index)
    out = Tensor(a.data[index])
    shape = a.data.shape

    def bwd(g):
        full = np.zeros(shape)
        np.add.at(full, index, g)
        return (full,)

    return _record(out, (a,), bwd)


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis."""
    x = a.data
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y)

    def bwd(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return _record(out, (a,), bwd)


def layernorm(a: Tensor, gain: Tensor | None = None, bias: Tensor | None = None,
              eps: float = 1e-6) -> Tensor:
    """Normalize the last axis to mean 0 / variance 1; with ``gain`` and
    ``bias``, also the affine ``y * gain + bias`` in the same node (the
    arithmetic of ``add(mul(layernorm(a), gain), bias)``)."""
    x = a.data
    # np.var's own arithmetic, keeping its centred copy for y
    d = x - x.mean(axis=-1, keepdims=True)
    var = (d * d).sum(axis=-1, keepdims=True) / x.shape[-1]
    inv = 1.0 / np.sqrt(var + eps)
    y = d * inv
    if gain is None:
        out, inputs = Tensor(y), (a,)
    else:
        out, inputs = Tensor(y * gain.data), (a, gain, bias)
        out.data += bias.data

    def bwd(g):
        gy = g if gain is None else g * gain.data
        gm = gy.mean(axis=-1, keepdims=True)
        gym = (gy * y).mean(axis=-1, keepdims=True)
        ga = inv * (gy - gm - y * gym)
        if gain is None:
            return (ga,)
        return ga, _unbroadcast(g * y, gain.data.shape), _unbroadcast(g, bias.data.shape)

    return _record(out, inputs, bwd)


def l2_normalize(a: Tensor) -> Tensor:
    """Scale each row (last axis) to unit Euclidean norm. A row whose norm
    is near zero, or not finite (a NaN or inf entry, or squares that
    overflow), has no unit direction and raises NumericError."""
    x = a.data
    norm = np.sqrt((x * x).sum(axis=-1, keepdims=True))
    if not np.all((norm >= 1e-12) & (norm < np.inf)):
        raise NumericError("l2_normalize: row with near-zero or non-finite norm")
    y = x / norm
    out = Tensor(y)

    def bwd(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return ((g - y * dot) / norm,)

    return _record(out, (a,), bwd)
