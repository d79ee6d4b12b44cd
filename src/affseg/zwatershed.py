"""Over-segmentation of an affinity volume by thresholded union and ascent.

The segmentation is built in four fixed stages:

  (a) every edge with affinity >= t_high is unioned unconditionally;
  (b) every voxel is unioned with the far end of its single strongest
      incident edge when that affinity is >= t_low (ties: lower channel
      first, then the neighbour at the lower coordinate);
  (c) voxels with no incident edge >= t_low stay background (label 0);
  (d) on the region adjacency graph of `agglo.build_rag`, a boundary weighing
      its strongest lattice edge, one sweep takes the boundaries >= t_merge
      in decreasing weight, a group of equal weights at a time, and visits
      the group's basins in label order: each basin still smaller than
      size_min merges into its smallest-labelled neighbour across a boundary
      of that weight, which keeps its label and takes over the absorbed
      basin's boundaries of that weight; leftovers below size_min merge into
      background (0).  The merges are relabeled by agglomeration's replay.
      This is the size-dependent single linkage of Zlateski & Seung (2015);
      ties go smallest small label first, into its smallest neighbour.

Stages (a)-(c) are computed on ascent trees.  A voxel of (b) links to the
far end of its strongest edge, found without masked writes: its six
neighbours, in tie order, are places 1..6, and one pass per place keeps
the running maximum of the voxel's strongest weight and, before that is
updated, of the place where the weight is strictly stronger than every
earlier one; places only rise, so the last such place is the first that
holds the maximum.  The far end's own strongest edge is no weaker, so
chains of links end in cycles of links of one weight.  No cycle is longer
than 2: if i -> j moves minus along the lowest axis c of a cycle, j's move
back has that weight too, so by the tie rule j moves back or minus along c
again, and a longer cycle could never close.  Mutual pairs are rooted at
their smaller voxel, `unionfind.jump` finds each voxel's root, a cumulative
sum ranks the growing trees 1..k, and `unionfind.components` hooks the
ranks at the ends of slots >= t_high that join two trees, over those k
ids, not the n voxels.  Thresholds are compared as float32 ceilings:
exactly as in float64.

Output labels are densified to 1..K in order of each segment's first voxel
(flat index, x fastest), so identical inputs give identical volumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from affseg.agglo import _chase, _replay, build_rag
from affseg.unionfind import components, index_dtype, jump
from affseg.volume import (AffinityVolume, LabelVolume, as_real, dense_relabel, edge_ends,
                           label_index, require_affinity_range, require_same_shape)


@dataclass(frozen=True)
class WatershedParams:
    t_high: float = 0.98
    t_low: float = 0.2
    size_min: int = 25
    t_merge: float = 0.3

    def __post_init__(self):
        for name in ("t_high", "t_low", "t_merge"):
            v = getattr(self, name)
            if not 0.0 <= as_real(v) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if not self.t_low <= self.t_merge <= self.t_high:
            raise ValueError(
                f"need t_low <= t_merge <= t_high, got "
                f"{self.t_low}, {self.t_merge}, {self.t_high}"
            )
        if not as_real(self.size_min) >= 0:
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


def _float32_ceil(t: float) -> np.float32:
    """The smallest float32 >= t: float32 values x have x >= it iff x >= t."""
    c = np.float32(t)  # the nearest float32, which may lie below t
    return np.nextafter(c, np.float32(np.inf)) if float(c) < t else c


def _ascent_trees(aff: AffinityVolume, t_low: float):
    """Stages (b)-(c): per voxel the rank 1..k of its ascent tree, in order of
    the tree's root, or 0 if it does not grow (strongest edge below t_low);
    and k.  Neighbours are visited in tie-rule order, channel ascending, minus
    before plus, as places 1..6: a place is recorded where its edge is strictly
    stronger than every earlier one, so the running maximum of the recorded
    places is the first neighbour that holds the voxel's strongest edge."""
    Z, Y, X = aff.data.shape[1:]
    best = np.full((Z, Y, X), -1.0, dtype=np.float32)
    place, step = np.zeros((Z, Y, X), dtype=np.uint8), [0]  # place 0: no neighbour
    for c, stride in enumerate((Y * X, X, 1)):
        w = edge_ends(aff.data[c], c)[0]
        for end, s in ((1, -stride), (0, stride)):  # the upper end steps down
            b, p = edge_ends(best, c)[end], edge_ends(place, c)[end]
            step.append(s)
            np.maximum(p, (w > b) * np.uint8(len(step) - 1), out=p)
            np.maximum(b, w, out=b)
    grow = (best >= _float32_ceil(t_low)).ravel()
    link = np.array(step, dtype=index_dtype(grow.size))[place.ravel()]
    del best, b, place, p  # b and p are views of them
    link *= grow  # voxels that do not grow: roots
    ids = np.arange(grow.size, dtype=link.dtype)
    link += ids
    pair = np.flatnonzero((link[link] == ids) & (link > ids))  # mutual pairs' smaller ends
    link[pair] = pair
    link = jump(link)  # each voxel's root
    rank = np.cumsum(grow & (link == ids), dtype=link.dtype)  # of the growing roots
    rank *= grow  # a voxel that does not grow is its own root, of rank 0
    return rank[link].reshape(Z, Y, X), int(rank.max())


def _tree_edges(tree: np.ndarray, aff: AffinityVolume, t_high: float):
    """Stage (a): the tree ranks (u, v) at the ends of edges >= t_high joining
    two trees, marked per channel through the lower-end view of a mask."""
    _, Y, X = tree.shape
    flat, ends, t_high = tree.ravel(), [], _float32_ceil(t_high)
    for c, stride in enumerate((Y * X, X, 1)):
        cut = np.zeros(tree.shape, dtype=bool)
        mark = edge_ends(cut, c)[0]
        np.not_equal(*edge_ends(tree, c), out=mark)
        mark &= edge_ends(aff.data[c], c)[0] >= t_high
        slot = np.flatnonzero(cut)
        ends.append((flat[slot], flat[slot + stride]))
    return tuple(map(np.concatenate, zip(*ends)))


def _size_filter(labels: LabelVolume, aff: AffinityVolume,
                 size_min: int, t_merge: float) -> LabelVolume:
    """Rule (d) on the RAG of `labels`, a boundary weighing its strongest
    lattice edge; `_replay` and `dense_relabel` (1..K by first voxel) apply its
    merges, `_chase` maps a label to the basin that absorbed it.  One pass
    suffices: no merge lifts a boundary above the weight being swept, since
    each heavier one merged or joins two basins >= size_min, which stay so
    (so only boundaries with a side below size_min are swept).  Within
    one weight a basin that absorbs and is still small has the larger label,
    so visiting labels in order merges in the order of a heap keyed by
    (-weight, small label, neighbour label)."""
    if size_min == 0:
        return labels
    rag = build_rag(labels, aff, ("vmax",))
    weight, sizes, parent, merges = rag.table.vmax.max(-1).tolist(), rag.nodes, {}, []
    edges = sorted((-w, i, j) for w, a, b in zip(weight, rag.lo, rag.hi) if w >= t_merge
                   for i, j in ((a, b), (b, a)) if sizes[i] < size_min)
    for negw, group in groupby(edges, lambda e: e[0]):
        near = {}  # {basin: its neighbours across this weight}, chased when read
        for _, i, j in group:
            for a, b in ((i, j), (j, i)):
                near.setdefault(_chase(parent, a), []).append(b)
        for i in sorted(near):
            if sizes.get(i, size_min) >= size_min:
                continue  # absorbed, or big for good
            far = {_chase(parent, x) for x in near[i]} - {i}
            if far:  # its smallest neighbour absorbs it and its boundaries of this weight
                j = parent[i] = min(far)
                sizes[j] += sizes.pop(i)
                near[j] += near[i]
                merges.append((j, i, -negw))
    del rag, edges

    # survivors below size_min had no qualifying neighbour: merged into 0 at the replay's t_merge
    merges += [(0, l, t_merge) for l, n in sizes.items() if n < size_min]
    return LabelVolume._adopt(dense_relabel(_replay(labels, merges, t_merge)))


def size_filter(labels: LabelVolume, aff: AffinityVolume,
                size_min: int, t_merge: float) -> LabelVolume:
    """Re-apply the size filter (rule (d)) to an existing labeling.

    size_min == 0 is a no-op that returns `labels` itself.  Both
    parameters are checked as `WatershedParams` checks them (ValueError).
    """
    WatershedParams(1.0, 0.0, size_min, t_merge)
    require_same_shape(labels, aff)
    require_affinity_range(aff.data)
    return _size_filter(labels, aff, size_min, t_merge)


def zwatershed(aff: AffinityVolume, params: WatershedParams) -> tuple[LabelVolume, BasinStats]:
    """Run the four-stage watershed on finite affinities in [0, 1] (else ValueError)."""
    require_affinity_range(aff.data)
    tree, k = _ascent_trees(aff, params.t_low)  # (b)-(c); frees its temporaries
    basin = components(k + 1, *_tree_edges(tree, aff, params.t_high))  # smallest tree ranks
    # numbered by a running count of the roots, so dense_relabel's table spans the basins only
    basin = (np.cumsum(basin == np.arange(k + 1), dtype=basin.dtype) - 1)[basin]
    vol = LabelVolume._adopt(dense_relabel(basin[tree]))
    del tree, basin  # (d) builds its RAG with only the stage-(c) labels alive

    # (d) size filtering, renumbered by first voxel
    vol = _size_filter(vol, aff, params.size_min, params.t_merge)
    cnts = np.bincount(label_index(vol.data)[1].ravel(), minlength=1).tolist()  # ids 0..K
    return vol, BasinStats(sizes=dict(enumerate(cnts[1:], 1)), background=cnts[0])
