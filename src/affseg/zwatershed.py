"""Over-segmentation of an affinity volume by thresholded union and ascent.

The segmentation is built in four fixed stages:

  (a) every edge with affinity >= t_high is unioned unconditionally;
  (b) every voxel is unioned with the far end of its single strongest
      incident edge when that affinity is >= t_low (ties: lower channel
      first, then the neighbour at the lower coordinate);
  (c) voxels with no incident edge >= t_low stay background (label 0);
  (d) basins smaller than size_min merge into the neighbour behind their
      strongest boundary edge (ties: the smaller neighbour label), provided
      that edge is >= t_merge, processed to a fixpoint in decreasing order
      of that boundary affinity (ties: smaller label first); the merged
      basin keeps the neighbour's label and the stronger of the two
      boundaries to each third basin; leftovers below size_min with no
      qualifying neighbour drop to background.

Output labels are densified to 1..K in order of each segment's first voxel
(flat index, x fastest), so identical inputs give identical volumes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from affseg.unionfind import components, index_dtype
from affseg.volume import (AffinityVolume, LabelVolume, boundary_edges, dense_relabel,
                           edge_ends, require_same_shape)


@dataclass(frozen=True)
class WatershedParams:
    t_high: float = 0.98
    t_low: float = 0.2
    size_min: int = 25
    t_merge: float = 0.3

    def __post_init__(self):
        for name in ("t_high", "t_low", "t_merge"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if not self.t_low <= self.t_merge <= self.t_high:
            raise ValueError(
                f"need t_low <= t_merge <= t_high, got "
                f"{self.t_low}, {self.t_merge}, {self.t_high}"
            )
        if self.size_min < 0:
            raise ValueError(f"size_min must be >= 0, got {self.size_min}")


@dataclass(frozen=True)
class BasinStats:
    """Voxel counts per output label, plus the background count."""

    sizes: dict[int, int]
    background: int

    @property
    def total(self) -> int:
        return self.background + sum(self.sizes.values())

    @property
    def n_segments(self) -> int:
        return len(self.sizes)


def _incident_best(aff: AffinityVolume):
    """Per voxel: the strongest incident edge and the step to its far end.

    Returns (best_aff, best_offset) flat arrays.  Candidate order encodes
    the tie rule: channel ascending, minus direction before plus.  Absent
    edges are marked -1 so any real edge beats them.
    """
    a = aff.data
    Z, Y, X = a.shape[1:]
    n = Z * Y * X
    cand = np.full((6, Z, Y, X), -1.0, dtype=np.float32)
    for c in range(3):
        w = edge_ends(a[c], c)[0]
        edge_ends(cand[2 * c], c)[1][...] = w
        edge_ends(cand[2 * c + 1], c)[0][...] = w
    cand = cand.reshape(6, n)
    offs = np.array([-Y * X, Y * X, -X, X, -1, 1], dtype=np.int64)
    pick = np.argmax(cand, axis=0)
    best = cand[pick, np.arange(n)]
    return best.astype(np.float64), offs[pick]


def _size_filter_flat(flat_labels: np.ndarray, aff: AffinityVolume,
                      size_min: int, t_merge: float) -> np.ndarray:
    """Rule (d): absorb under-sized segments, then drop unsalvageable ones."""
    u_all, inv_all, cnt_all = np.unique(flat_labels, return_inverse=True,
                                        return_counts=True)
    nz = u_all != 0
    uniq = u_all[nz]
    if len(uniq) == 0:
        return flat_labels.copy()
    m = len(uniq)
    sizes = cnt_all[nz].astype(np.int64).tolist()

    # strongest boundary lattice edge per pair of adjacent segments
    lo, hi, _, av = boundary_edges(flat_labels.reshape(aff.data.shape[1:]), aff.data)
    pairs, inv = np.unique(np.searchsorted(uniq, lo) * m + np.searchsorted(uniq, hi),
                           return_inverse=True)
    vmax = np.full(len(pairs), -1.0)
    np.maximum.at(vmax, inv, av)
    adj: list[dict[int, float]] = [dict() for _ in range(m)]
    for i, j, v in zip((pairs // m).tolist(), (pairs % m).tolist(), vmax.tolist()):
        adj[i][j] = v
        adj[j][i] = v

    absorbed: list[tuple[int, int]] = []
    alive = [True] * m
    version = [0] * m

    def best_neighbour(i):
        """Strongest live boundary of i; ties go to the smaller neighbour id."""
        bv, bj = -1.0, -1
        for j, v in adj[i].items():
            if v > bv or (v == bv and j < bj):
                bv, bj = v, j
        return bv, bj

    heap = []
    for i in range(m):
        if sizes[i] < size_min:
            bv, bj = best_neighbour(i)
            if bj >= 0 and bv >= t_merge:
                heapq.heappush(heap, (-bv, i, version[i]))

    while heap:
        negv, i, ver = heapq.heappop(heap)
        if not alive[i] or ver != version[i] or sizes[i] >= size_min:
            continue
        bv, bj = best_neighbour(i)
        if bj < 0 or bv < t_merge:
            continue
        if -negv != bv:
            heapq.heappush(heap, (-bv, i, ver))
            continue
        # absorb i into bj
        absorbed.append((bj, i))
        alive[i] = False
        sizes[bj] += sizes[i]
        nbrs = adj[i]
        adj[i] = {}
        for k, v in nbrs.items():
            del adj[k][i]
            if k == bj:
                continue
            merged = max(v, adj[bj].get(k, -1.0))
            adj[bj][k] = merged
            adj[k][bj] = merged
        version[bj] += 1
        if sizes[bj] < size_min:
            bv2, bj2 = best_neighbour(bj)
            if bj2 >= 0 and bv2 >= t_merge:
                heapq.heappush(heap, (-bv2, bj, version[bj]))

    # resolve every original label to its component's smallest id; components
    # below size_min had no qualifying neighbour and drop to background
    root = components(m, *np.array(absorbed, dtype=np.int64).reshape(-1, 2).T)
    total = np.bincount(root, weights=cnt_all[nz], minlength=m)[root]
    mapping = np.zeros(len(u_all), dtype=np.uint64)
    mapping[nz] = np.where(total < size_min, 0, uniq[root])
    return mapping[inv_all]


def size_filter(labels: LabelVolume, aff: AffinityVolume,
                size_min: int, t_merge: float) -> LabelVolume:
    """Re-apply the size filter (rules d/e) to an existing labeling.

    size_min == 0 is a no-op and returns the input labels unchanged.
    """
    if size_min < 0:
        raise ValueError(f"size_min must be >= 0, got {size_min}")
    if not 0.0 <= t_merge <= 1.0:
        raise ValueError(f"t_merge must be in [0, 1], got {t_merge}")
    shape = require_same_shape(labels, aff)
    if size_min == 0:
        return LabelVolume(labels.data.copy())
    flat = labels.data.ravel()
    filtered = _size_filter_flat(flat, aff, size_min, t_merge)
    dense = dense_relabel(filtered)
    return LabelVolume(dense.reshape(shape.as_tuple()))


def zwatershed(aff: AffinityVolume, params: WatershedParams) -> tuple[LabelVolume, BasinStats]:
    """Run the full four-stage watershed on an affinity volume."""
    shape = aff.shape3
    n = shape.voxels

    # (a) edges >= t_high (compared in float64, like stages (b) and (d)) and
    # (b) each voxel's steepest-ascent link >= t_low, joined in one pass
    ids = np.arange(n, dtype=index_dtype(n)).reshape(shape.as_tuple())
    strong = [edge_ends(aff.data[c], c)[0] >= np.float64(params.t_high) for c in range(3)]
    best, step = _incident_best(aff)
    grow = best >= params.t_low
    linked = np.flatnonzero(grow).astype(ids.dtype)
    u = np.concatenate([edge_ends(ids, c)[0][strong[c]] for c in range(3)] + [linked])
    v = np.concatenate([edge_ends(ids, c)[1][strong[c]] for c in range(3)]
                       + [linked + step[grow].astype(ids.dtype)])

    # (c) voxels with nothing >= t_low stay background; they have no
    # incident edge >= t_low, so they are singletons.  Each voxel's root is
    # its segment's first voxel, so numbering roots in flat order densifies.
    root = components(n, u, v)
    dense = np.cumsum(grow & (root == ids.ravel()), dtype=np.uint64)[root]
    dense[~grow] = 0

    # (d)/(e) size filtering and final densification
    if params.size_min > 0:
        filtered = _size_filter_flat(dense, aff, params.size_min, params.t_merge)
        dense = dense_relabel(filtered)

    vol = LabelVolume(dense.reshape(shape.as_tuple()))
    cnts = np.bincount(dense.astype(np.intp), minlength=1).tolist()
    return vol, BasinStats(sizes=dict(enumerate(cnts[1:], 1)), background=cnts[0])
