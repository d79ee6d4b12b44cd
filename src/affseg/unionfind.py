"""Connected components of integer-id graphs.

Offline array code only: `jump` finds the roots of parent pointers
(watershed ascent trees, `agglo.threshold_lookups`, the trees of first
edges in each Borůvka step of MALIS), `components` groups ids when every
edge is known first (basins, stitch classes).
"""

from __future__ import annotations

import numpy as np


def index_dtype(n: int):
    """Smallest integer dtype that holds the ids 0..n-1 (int32 or int64)."""
    return np.int32 if n < 2**31 else np.int64


def components(n: int, u, v) -> np.ndarray:
    """Per id in 0..n-1, the smallest id of its component under edges (u, v).

    Array hooking plus pointer jumping (Shiloach & Vishkin 1982): each round
    hooks every root onto the smallest root it shares an edge with, then
    jumps pointers until every id points at its root, so that the next
    round again re-points roots only.  Each edge is carried as the pair of
    its ends' current roots and dropped once they meet.  parent[i] <= i
    throughout, so the surviving root is the component's smallest id.
    """
    dtype = index_dtype(n)
    parent = np.arange(n, dtype=dtype)
    u, v = np.asarray(u, dtype=dtype), np.asarray(v, dtype=dtype)
    while (live := u != v).any():
        u, v = u[live], v[live]
        np.minimum.at(parent, np.maximum(u, v), np.minimum(u, v))
        parent = jump(parent)
        u, v = parent[u], parent[v]
    return parent


def jump(parent: np.ndarray) -> np.ndarray:
    """Per id, the root of its tree of parent pointers, in log2(depth) rounds."""
    while not np.array_equal(jumped := parent[parent], parent):
        parent = jumped
    return parent

