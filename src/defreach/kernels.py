"""Scatter/gather sum kernels used by message passing and graph readout.

Both accumulate with ``np.add.at``, which adds repeated indices one at a
time in index order, so results are deterministic.
"""

from __future__ import annotations

import numpy as np


def edge_sum(h: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """out[v] = sum of h[u] over edges (u, v)."""
    out = np.zeros_like(h)
    if src.shape[0]:
        np.add.at(out, dst, h[src])
    return out


def segment_sum(x: np.ndarray, seg: np.ndarray, num_segments: int) -> np.ndarray:
    """out[g] = sum of x rows with segment id g."""
    out = np.zeros((num_segments, x.shape[1]), dtype=x.dtype)
    if x.shape[0]:
        np.add.at(out, seg, x)
    return out


def backend_name() -> str:
    return "numpy"
