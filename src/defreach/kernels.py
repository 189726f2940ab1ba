"""Scatter/gather sum kernels used by message passing and graph readout.

Both scatter with one ``np.bincount`` over the flattened positions
``index * m + column`` of an (n, m) output. bincount adds its weights in
input order, so every output entry sums its rows in index order and the
results are deterministic (and equal to an ``np.add.at`` scatter).
"""

from __future__ import annotations

import numpy as np


def _scatter_rows(x: np.ndarray, index: np.ndarray, n: int) -> np.ndarray:
    """out[i] = sum of x[r] over rows r with index[r] == i, shape (n, m)."""
    m = x.shape[1]
    flat = (index[:, None] * m + np.arange(m)).ravel()
    return np.bincount(flat, weights=x.ravel(), minlength=n * m).reshape(n, m)


def edge_sum(h: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """out[v] = sum of h[u] over edges (u, v)."""
    return _scatter_rows(h[src], dst, h.shape[0])


def segment_sum(x: np.ndarray, seg: np.ndarray, num_segments: int) -> np.ndarray:
    """out[g] = sum of x rows with segment id g."""
    return _scatter_rows(x, seg, num_segments)


def backend_name() -> str:
    return "numpy"
