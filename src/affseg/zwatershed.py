"""Over-segmentation of an affinity volume by thresholded union and ascent.

The segmentation is built in four fixed stages:

  (a) every edge with affinity >= t_high is unioned unconditionally;
  (b) every voxel is unioned with the far end of its single strongest
      incident edge when that affinity is >= t_low (ties: lower channel
      first, then the neighbour at the lower coordinate);
  (c) voxels with no incident edge >= t_low stay background (label 0);
  (d) on the region adjacency graph of `agglo.build_rag`, basins smaller
      than size_min merge into the neighbour behind their strongest
      boundary edge (ties: the smaller neighbour label), provided that edge
      is >= t_merge, processed to a fixpoint in decreasing order of that
      boundary affinity (ties: smaller label first); the merged basin keeps
      the neighbour's label and the stronger of the two boundaries to each
      third basin (`Rag.relink`); leftovers below size_min with no
      qualifying neighbour drop to background.

Output labels are densified to 1..K in order of each segment's first voxel
(flat index, x fastest), so identical inputs give identical volumes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from affseg.agglo import build_rag, threshold_lookups
from affseg.unionfind import components, index_dtype
from affseg.volume import (AffinityVolume, LabelVolume, dense_relabel, edge_ends,
                           require_same_shape, unique_inverse)


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


def _size_filter(labels: LabelVolume, aff: AffinityVolume,
                 size_min: int, t_merge: float) -> LabelVolume:
    """Rule (d) on the RAG of `labels`, a boundary weighing its strongest
    lattice edge; `dense_relabel` numbers the result 1..K by first voxel."""
    rag = build_rag(labels, aff, ("vmax",))
    weight = rag.table.vmax.max(-1).tolist()
    sizes = rag.nodes

    def best_neighbour(i):
        """Strongest boundary of i; ties go to the smaller neighbour label."""
        bv, bj = -1.0, -1
        for j, row in rag.adj[i].items():
            v = weight[row]
            if v > bv or (v == bv and j < bj):
                bv, bj = v, j
        return bv, bj

    heap = [(-bv, i) for i in sizes if sizes[i] < size_min
            for bv, bj in [best_neighbour(i)] if bj >= 0 and bv >= t_merge]
    heapq.heapify(heap)
    merges = []
    while heap:
        negv, i = heapq.heappop(heap)
        if sizes.get(i, size_min) >= size_min:
            continue  # absorbed, or grown big enough
        bv, bj = best_neighbour(i)
        if bj < 0 or bv < t_merge:
            continue
        if -negv != bv:
            heapq.heappush(heap, (-bv, i))
            continue
        # bj absorbs i and keeps the stronger boundary to each third basin
        merges.append((bj, i, bv))
        _, dropped, into = rag.relink(bj, i)
        for kept, row in zip(into, dropped[1:]):
            weight[kept] = max(weight[kept], weight[row])
        # a still small bj has best <= bv (or it would have gone before i),
        # so this entry pops no later than bj's turn and re-weighs it then
        heapq.heappush(heap, (negv, bj))

    # survivors below size_min had no qualifying neighbour: background
    uniq, inv = unique_inverse(labels.data)
    final = next(threshold_lookups(merges, uniq, [t_merge]))
    final[[sizes.get(l, 0) < size_min for l in final.tolist()]] = 0
    return LabelVolume(dense_relabel(final[inv]))


def size_filter(labels: LabelVolume, aff: AffinityVolume,
                size_min: int, t_merge: float) -> LabelVolume:
    """Re-apply the size filter (rules d/e) to an existing labeling.

    size_min == 0 is a no-op and returns the input labels unchanged.
    """
    if size_min < 0:
        raise ValueError(f"size_min must be >= 0, got {size_min}")
    if not 0.0 <= t_merge <= 1.0:
        raise ValueError(f"t_merge must be in [0, 1], got {t_merge}")
    require_same_shape(labels, aff)
    if size_min == 0:
        return LabelVolume(labels.data.copy())
    return _size_filter(labels, aff, size_min, t_merge)


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

    # (d)/(e) size filtering, renumbered by first voxel
    vol = LabelVolume(dense.reshape(shape.as_tuple()))
    if params.size_min > 0:
        vol = _size_filter(vol, aff, params.size_min, params.t_merge)
    cnts = np.bincount(vol.data.ravel().astype(np.intp), minlength=1).tolist()
    return vol, BasinStats(sizes=dict(enumerate(cnts[1:], 1)), background=cnts[0])
