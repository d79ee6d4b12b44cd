"""Connected components of integer-id graphs.

Offline array code only: `components` groups ids when every edge is known
before any lookup (watershed basins, stitch classes).  The MALIS Kruskal
loop, which must find the two roots of each edge before it merges them or
skips the edge, keeps its own list-based union-find.
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
    round again re-points roots only.  parent[i] <= i throughout, so the
    surviving root is the component's smallest id.
    """
    dtype = index_dtype(n)
    parent = np.arange(n, dtype=dtype)
    u, v = np.asarray(u, dtype=dtype), np.asarray(v, dtype=dtype)
    while True:
        pu, pv = parent[u], parent[v]
        live = pu != pv
        if not live.any():
            return parent
        u, v, pu, pv = u[live], v[live], pu[live], pv[live]
        np.minimum.at(parent, np.maximum(pu, pv), np.minimum(pu, pv))
        jumped = parent[parent]
        while not np.array_equal(jumped, parent):
            parent, jumped = jumped, jumped[jumped]

