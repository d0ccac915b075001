"""Row interpolation of the temporal table and its adjoint, in numpy.

``interp_rows`` gathers two table rows per output row and blends them;
``interp_rows_grad`` scatter-adds the output gradient back onto the table.
"""
from __future__ import annotations

import numpy as np


def interp_rows(table, lo, hi, frac):
    """out[k] = (1-frac[k]) * table[lo[k]] + frac[k] * table[hi[k]]."""
    w = frac[:, None]
    return (1.0 - w) * table[lo] + w * table[hi]


def interp_rows_grad(grad_out, lo, hi, frac, rows):
    """Adjoint of interp_rows: a rows x d table gradient; duplicate indices
    accumulate."""
    grad_table = np.zeros((rows, grad_out.shape[1]))
    w = frac[:, None]
    np.add.at(grad_table, lo, (1.0 - w) * grad_out)
    np.add.at(grad_table, hi, w * grad_out)
    return grad_table
