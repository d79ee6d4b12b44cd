"""Connected components and spanning forests of integer-id graphs.

Offline array code only: `components` and `spanning_forest` group ids when
every edge is known before any lookup (watershed basins, size-filter
absorptions, stitch classes, the MALIS forest).
The MALIS merge loop, which must find the two roots of each forest edge
before it records their merge, keeps its own list-based union-find.
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


def spanning_forest(n: int, u, v) -> np.ndarray:
    """Mask of the edges (u, v) that Kruskal accepts taking them in the given order.

    Borůvka rounds: every component takes its earliest live incident edge
    (`np.minimum.at` of edge positions onto both endpoint roots), those
    edges join the forest, `components` merges along them, and edges inside
    one component drop out.  Each live edge carries its endpoints' roots
    from round to round, so a round gathers roots for live edges only.
    Position is a strict total order, so the minimum spanning forest under
    it is unique and equals Kruskal's, with self-loops and later duplicates
    rejected alike.
    """
    m = len(u)
    keep = np.zeros(m, dtype=bool)
    pos = np.arange(m, dtype=index_dtype(m + 1))  # m marks "no edge"
    dtype = index_dtype(n)
    ru, rv = np.asarray(u, dtype=dtype), np.asarray(v, dtype=dtype)
    while True:
        live = np.flatnonzero(ru != rv)
        if not len(live):
            return keep
        ru, rv, pos = ru[live], rv[live], pos[live]
        best = np.full(n, m, dtype=pos.dtype)
        np.minimum.at(best, ru, pos)
        np.minimum.at(best, rv, pos)
        keep[best[best < m]] = True
        joined = keep[pos]
        root = components(n, ru[joined], rv[joined])
        ru, rv = root[ru], root[rv]
