"""Adam optimizer over named parameter tensors."""
from __future__ import annotations

import numpy as np

from .errors import ContractError, NumericError
from .tensor import Tensor

# Plain Adam (Kingma & Ba, ICLR 2015) with its published defaults.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8

# Elements per block of the in-place update: 16 K float64 values, so one
# block of each operand and both scratch buffers stay in cache together.
BLOCK = 16384


class Adam:
    """Standard Adam with bias correction; only the learning rate is set per
    run (BETA1, BETA2 and EPS are fixed). Moment buffers are keyed by
    parameter name so they can round-trip through checkpoints. Every
    parameter has its ``m`` and ``v`` from construction: those given, as a
    resume passes a checkpoint's (checkpoint.restore) with its step count,
    or zeros, whose pages np.zeros leaves untouched until an update writes
    them.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 5e-4,
                 m: dict[str, np.ndarray] | None = None,
                 v: dict[str, np.ndarray] | None = None, step_count: int = 0):
        self.params = params
        self.lr = lr
        self.step_count = step_count
        self.m = m if m is not None else {k: np.zeros(p.data.shape) for k, p in params.items()}
        self.v = v if v is not None else {k: np.zeros(p.data.shape) for k, p in params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self):
        """One update. Every gradient is checked first, so a non-finite one
        raises NumericError (and non-contiguous storage ContractError) with
        no parameter, moment or count changed.

        The check is one ``g . g`` per parameter, which allocates nothing. It
        is not finite for a NaN or an inf, and also when the sum of squares
        overflows: the refusal threshold is a gradient norm of about 1.3e154.
        An entry whose ``(1-b2)*g*g`` would make ``v`` inf, and so freeze it
        for good, is above about 4e155 and always refused.

        Each parameter is updated in place, block by block, through two
        block-sized scratch buffers. Every element goes through the same
        operations in the same order as the unblocked update
        ``m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
        p -= lr*(m/bc1) / (sqrt(v/bc2) + eps)``, so results are bit-identical.
        """
        t = self.step_count + 1
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad.reshape(-1)
            with np.errstate(over="ignore"):  # an overflow is refused below
                sq = np.dot(g, g)
            if not np.isfinite(sq):
                raise NumericError(
                    f"non-finite or overflowing gradient in parameter '{name}' "
                    f"at step {t}"
                )
            # the update writes through flat views, and reshape would
            # silently copy a non-contiguous array
            if not all(a.flags.c_contiguous for a in (p.data, self.m[name], self.v[name])):
                raise ContractError(f"parameter '{name}' or its moments are not C-contiguous")
        self.step_count = t
        b1, b2, lr, eps = BETA1, BETA2, self.lr, EPS
        bc1 = 1.0 - b1 ** t
        bc2 = 1.0 - b2 ** t
        scratch_a = np.empty(BLOCK)
        scratch_b = np.empty(BLOCK)
        for name, p in self.params.items():
            if p.grad is None:
                continue
            data, grad, m, v = (a.reshape(-1) for a in (
                p.data, p.grad, self.m[name], self.v[name]))
            for lo in range(0, data.size, BLOCK):
                hi = min(lo + BLOCK, data.size)
                g, mb, vb = grad[lo:hi], m[lo:hi], v[lo:hi]
                a, b = scratch_a[:hi - lo], scratch_b[:hi - lo]
                mb *= b1
                np.multiply(g, 1.0 - b1, out=a)
                mb += a
                vb *= b2
                np.multiply(g, 1.0 - b2, out=a)
                a *= g
                vb += a
                np.divide(vb, bc2, out=b)
                np.sqrt(b, out=b)
                b += eps
                np.divide(mb, bc1, out=a)
                a *= lr
                a /= b
                data[lo:hi] -= a
