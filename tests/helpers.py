"""Shared test utilities: finite-difference gradient checking."""
import numpy as np

from momentset import tensor as tt


def finite_diff_check(build_loss, params, rng, probes_per_param=3,
                      h=1e-5, tol=1e-4):
    """Compare analytic gradients of ``build_loss()`` against central
    differences at randomly probed entries of each parameter.

    ``build_loss`` must rebuild the graph from the parameters' current
    .data on every call and return a scalar Tensor. The analytic pass runs
    inside ``tt.recording()``; the probes run outside it and record nothing.
    """
    for p in params:
        p.grad = None
    with tt.recording():
        tt.backward(build_loss())
    grads = [None if p.grad is None else p.grad.copy() for p in params]

    worst = 0.0
    for p, g in zip(params, grads):
        assert g is not None, "parameter received no gradient"
        flat = p.data.reshape(-1)
        n = flat.size
        idxs = rng.choice(n, size=min(probes_per_param, n), replace=False)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + h
            up = build_loss().item()
            flat[i] = orig - h
            down = build_loss().item()
            flat[i] = orig
            fd = (up - down) / (2 * h)
            an = g.reshape(-1)[i]
            rel = abs(an - fd) / max(abs(an), abs(fd), 1e-8)
            worst = max(worst, rel)
            assert rel < tol, f"grad mismatch: analytic {an}, fd {fd}, rel {rel}"
    return worst
