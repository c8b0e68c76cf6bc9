"""Small numerical helpers used across the recursion modules.

Entropy terms follow the 0*log(0) = 0 convention throughout, and divisions
of posterior quantities use the 0/0 = 0 convention (a vanishing numerator
always comes with a vanishing denominator in the recursions here).
"""

import math

import numpy as np
from scipy.special import entr, xlogy

__all__ = ["entr", "xlogy", "safe_div", "entropy", "fsum", "compensated_cumsum"]

# numbers per block of the blocked array expressions: 128 KiB per temporary
BLOCK_CELLS = 2 ** 14


def _blocks(start, stop, cells_per_row):
    """(lo, hi) bounds of consecutive row blocks covering start..stop, each
    block holding about BLOCK_CELLS numbers (at least one row)."""
    rows = max(1, BLOCK_CELLS // cells_per_row)
    return ((lo, min(stop, lo + rows)) for lo in range(start, stop, rows))


def safe_div(num, den):
    """Elementwise num/den with 0 wherever den == 0 (broadcasting)."""
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    out = np.zeros(np.broadcast(num, den).shape)
    np.divide(num, den, out=out, where=den != 0)
    return out


def entropy(p):
    """Shannon entropy of a probability vector in nats, 0 log 0 = 0."""
    return float(entr(np.asarray(p, dtype=float)).sum())


def fsum(values):
    """Exactly rounded sum of a 1-D array (deterministic across platforms)."""
    return math.fsum(np.asarray(values, dtype=float))


def compensated_cumsum(values):
    """Running sum with Neumaier compensation.

    Keeps cumulative entropy profiles accurate enough for the 1e-9
    decomposition identities at sequence lengths of 1e5.
    """
    values = np.asarray(values, dtype=float)
    out = np.empty_like(values)
    total = 0.0
    comp = 0.0
    for i, v in enumerate(values):
        t = total + v
        if abs(total) >= abs(v):
            comp += (total - t) + v
        else:
            comp += (v - t) + total
        total = t
        out[i] = total + comp
    return out
