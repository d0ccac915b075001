import numpy as np

from momentset import kernels


def random_interp_args(rng, rows=9, length=14, d=5):
    table = rng.standard_normal((rows, d))
    lo = rng.integers(0, rows - 1, length)
    hi = lo + 1
    frac = rng.uniform(0, 1, length)
    return table, lo.astype(np.int64), hi.astype(np.int64), frac


def interp_rows_loop(table, lo, hi, frac):
    out = np.empty((len(lo), table.shape[1]))
    for k in range(len(lo)):
        for c in range(table.shape[1]):
            out[k, c] = (1.0 - frac[k]) * table[lo[k], c] + frac[k] * table[hi[k], c]
    return out


def interp_rows_grad_loop(grad_out, lo, hi, frac, rows):
    grad_table = np.zeros((rows, grad_out.shape[1]))
    for k in range(len(lo)):
        for c in range(grad_out.shape[1]):
            grad_table[lo[k], c] += (1.0 - frac[k]) * grad_out[k, c]
            grad_table[hi[k], c] += frac[k] * grad_out[k, c]
    return grad_table


def test_interp_rows_paths_agree():
    rng = np.random.default_rng(1)
    for _ in range(20):
        table, lo, hi, frac = random_interp_args(rng)
        np.testing.assert_allclose(
            kernels.interp_rows(table, lo, hi, frac),
            interp_rows_loop(table, lo, hi, frac), atol=1e-14)


def test_interp_rows_grad_paths_agree():
    rng = np.random.default_rng(2)
    for _ in range(20):
        table, lo, hi, frac = random_interp_args(rng)
        g = rng.standard_normal((len(lo), table.shape[1]))
        np.testing.assert_allclose(
            kernels.interp_rows_grad(g, lo, hi, frac, table.shape[0]),
            interp_rows_grad_loop(g, lo, hi, frac, table.shape[0]),
            atol=1e-14)


def test_interp_grad_accumulates_duplicate_indices():
    table = np.zeros((3, 2))
    lo = np.array([0, 0], dtype=np.int64)
    hi = np.array([1, 1], dtype=np.int64)
    frac = np.array([0.25, 0.25])
    g = np.ones((2, 2))
    out = kernels.interp_rows_grad(g, lo, hi, frac, 3)
    np.testing.assert_allclose(out[0], [1.5, 1.5])
    np.testing.assert_allclose(out[1], [0.5, 0.5])
    np.testing.assert_allclose(out[2], [0.0, 0.0])
