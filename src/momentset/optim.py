"""Adam optimizer over named parameter tensors."""
from __future__ import annotations

import numpy as np

from .errors import OptimizerError
from .tensor import Tensor


class Adam:
    """Standard Adam with bias correction.

    Defaults beta1=0.9, beta2=0.999, eps=1e-8. Moment buffers are keyed by
    parameter name so they can round-trip through checkpoints.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 5e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self):
        """One update. Every gradient is checked first, so a non-finite one
        raises OptimizerError with no parameter, moment or count changed."""
        t = self.step_count + 1
        for name, p in self.params.items():
            if p.grad is not None and not np.all(np.isfinite(p.grad)):
                raise OptimizerError(
                    f"non-finite gradient in parameter '{name}' at step {t}"
                )
        self.step_count = t
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
