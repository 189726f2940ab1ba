"""Scatter/gather sum kernels used by message passing and graph readout.

Both scatter with one ``np.bincount`` over the flattened positions
``index * m + column`` of an (n, m) output. bincount adds its weights in
input order, so every output entry sums its rows in index order and the
results are deterministic (and equal to an ``np.add.at`` scatter).

Those positions depend only on the index and the row width. ``Edges``
builds them once for a batch's edges, in both directions, and every
message-passing step of that batch, forward and backward, hands them to
``edge_sum``. Nothing caches them beyond that: they go with the batch's
forward, or with its tape when the forward was recorded.
"""

from __future__ import annotations

import numpy as np


def _scatter_index(index: np.ndarray, m: int) -> np.ndarray:
    """The flat positions ``index[r] * m + column`` of every entry of rows of width m."""
    return (index[:, None] * m + np.arange(m)).ravel()


def _scatter_rows(x: np.ndarray, flat: np.ndarray, n: int) -> np.ndarray:
    """out[i] = sum of x[r] over rows r with index[r] == i, shape (n, m);
    ``flat`` is _scatter_index(index, m)."""
    m = x.shape[1]
    # bincount returns int64 zeros when it is given no weights at all
    out = np.bincount(flat, weights=x.ravel(), minlength=n * m).astype(np.float64, copy=False)
    return out.reshape(n, m)


class Edges:
    """A batch's edges (src[i], dst[i]) with the scatter positions of rows of
    ``width`` columns into dst (``into_dst``, the forward sum) and into src
    (``into_src``, the reverse sum of a backward pass, built on first use:
    inference never needs it)."""

    __slots__ = ("src", "dst", "width", "into_dst", "_into_src")

    def __init__(self, src: np.ndarray, dst: np.ndarray, width: int):
        self.src, self.dst, self.width = src, dst, width
        self.into_dst = _scatter_index(dst, width)
        self._into_src = None

    @property
    def into_src(self) -> np.ndarray:
        if self._into_src is None:
            self._into_src = _scatter_index(self.src, self.width)
        return self._into_src


def edge_sum(h: np.ndarray, src: np.ndarray, into: np.ndarray) -> np.ndarray:
    """out[v] = sum of h[u] over edges (u, v), ``into`` being the scatter
    positions of their v: ``Edges.into_dst`` with the edges' src, or
    ``Edges.into_src`` with their dst for the reversed edges."""
    return _scatter_rows(h[src], into, h.shape[0])


def segment_sum(x: np.ndarray, seg: np.ndarray, num_segments: int) -> np.ndarray:
    """out[g] = sum of x rows with segment id g."""
    return _scatter_rows(x, _scatter_index(seg, x.shape[1]), num_segments)


def backend_name() -> str:
    return "numpy"
