"""Maximin affinities and per-edge pair counts for affinity training signals.

For a pair of voxels the maximin affinity is the best achievable bottleneck:
the maximum over all connecting paths of the minimum edge affinity along the
path.  Every ordered-once pair of ground-truth-labeled voxels contributes one
count to its unique maximin edge -- to the positive channel when the labels
agree, to the negative channel when they differ.  Maximin edges are exactly
the edges of the maximum spanning forest (Turaga et al. 2009), so the forest
is found once, by array Borůvka rounds, and pair counts fall out of one
sweep of its edges in decreasing affinity, carrying per-component label
histograms through the sweep's own union-find.  A maximin query is that
sweep over a volume labeling just its two voxels.

Ties are broken by processing edges in affinity descending, then slot
ascending (= channel, z, y, x) order, which pins down the maximin edge of
every pair exactly and makes the forest unique.
All in-bounds lattice edges are candidates, including ones with zero
affinity, so every labeled pair lands on some edge.

Voxels labeled 0 are glue: paths may run through them but they never pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from affseg.unionfind import spanning_forest
from affseg.volume import AffinityVolume, LabelVolume, edge_table, require_same_shape


class OutOfBounds(Exception):
    """A voxel coordinate lies outside the volume (or a degenerate pair was given)."""


@dataclass(frozen=True)
class PairCounts:
    """Per-edge positive / negative pair counts, each shaped like the affinities."""

    pos: np.ndarray  # (3, z, y, x) uint64
    neg: np.ndarray  # (3, z, y, x) uint64

    @property
    def total_pairs(self) -> int:
        return int(self.pos.sum()) + int(self.neg.sum())


@dataclass(frozen=True)
class MalisResult:
    loss: float
    gradient: AffinityVolume  # d loss / d affinity, unrestricted range


def maximin_affinity(aff: AffinityVolume, v1, v2) -> float:
    """Best bottleneck affinity between two voxels.

    Read off the pair-count sweep: with `v1` labeled 1, `v2` labeled 2 and
    every other voxel glue, the one edge charged a negative pair is the
    pair's maximin edge.  Every in-bounds edge is a candidate (zero-affinity
    edges included), so the result is always defined.
    """
    shape = aff.shape3
    for v in (v1, v2):
        if not shape.contains(*v):
            raise OutOfBounds(f"voxel {tuple(v)} outside {shape}")
    if tuple(v1) == tuple(v2):
        raise OutOfBounds("maximin affinity requires two distinct voxels")
    gt = np.zeros(shape.as_tuple(), dtype=np.uint64)
    gt[tuple(v1)], gt[tuple(v2)] = 1, 2
    return float(aff.data[malis_edge_counts(aff, LabelVolume(gt)).neg != 0][0])


def _forest_in_sweep_order(aff: AffinityVolume):
    """Slots and endpoints of the maximum spanning forest's edges, in sweep order.

    A function of its own frees the whole-lattice arrays before the
    pair-count sweep starts.
    """
    c, u, v = edge_table(aff.shape3)
    order = np.argsort(-aff.data.reshape(3, -1)[c, u], kind="stable")
    u, v = u[order], v[order]
    forest = spanning_forest(aff.shape3.voxels, u, v)
    # edge slot == channel * voxels + flat index of the lower endpoint
    slots = (c[order] * aff.shape3.voxels + u)[forest]
    return slots, u[forest], v[forest]


def malis_edge_counts(aff: AffinityVolume, gt: LabelVolume) -> PairCounts:
    """Attribute every labeled voxel pair to its maximin edge.

    The maximum spanning forest comes from Borůvka rounds
    (`spanning_forest`); a sweep of its edges in decreasing affinity then
    joins two components per edge, which is by construction the maximin
    edge of exactly the pairs that straddle it, so the pair counts are
    products of the components' label histograms.
    """
    shape = require_same_shape(aff, gt)
    slots, forest_u, forest_v = _forest_in_sweep_order(aff)

    labels = gt.data.ravel().tolist()
    labeled_n = (gt.data.ravel() != 0).astype(np.int64).tolist()
    parent = list(range(shape.voxels))
    size = [1] * shape.voxels
    # root -> histogram of nonzero gt labels (label -> count), kept only for
    # components of 2+ voxels with a labeled voxel; a labeled singleton's
    # histogram is {its label: 1}
    hist: dict[int, dict[int, int]] = {}
    pos_at: list[int] = []
    neg_at: list[int] = []

    # memoryviews yield Python ints one at a time, where tolist() would
    # hold all of them at once
    for a, b in zip(memoryview(forest_u), memoryview(forest_v)):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if size[a] < size[b]:
            a, b = b, a
        parent[b] = a
        size[a] += size[b]
        na, nb = labeled_n[a], labeled_n[b]
        p = 0
        if na and nb:
            ha = hist.pop(a, None) or {labels[a]: 1}
            hb = hist.pop(b, None) or {labels[b]: 1}
            if len(ha) < len(hb):
                ha, hb = hb, ha
            for lab, cnt in hb.items():
                o = ha.get(lab, 0)
                p += cnt * o
                ha[lab] = o + cnt
            hist[a] = ha
        elif na or nb:
            r = a if na else b
            hist[a] = hist.pop(r, None) or {labels[r]: 1}
        labeled_n[a] = na + nb
        pos_at.append(p)
        neg_at.append(na * nb - p)

    # each forest slot is written once
    pos = np.zeros((3,) + shape.as_tuple(), dtype=np.uint64)
    neg = np.zeros((3,) + shape.as_tuple(), dtype=np.uint64)
    pos.reshape(-1)[slots] = np.array(pos_at, dtype=np.uint64)
    neg.reshape(-1)[slots] = np.array(neg_at, dtype=np.uint64)
    return PairCounts(pos=pos, neg=neg)


def malis_gradient(aff: AffinityVolume, gt: LabelVolume, normalize: bool = False) -> MalisResult:
    """Quadratic pair loss and its gradient over the affinity volume.

    loss = sum_e pos(e) * (a_e - 1)^2 + neg(e) * a_e^2
    grad_e = 2 * pos(e) * (a_e - 1) + 2 * neg(e) * a_e

    With ``normalize`` both are divided by the total pair count;
    a volume with no labeled pairs has loss 0 and a zero gradient.
    """
    counts = malis_edge_counts(aff, gt)
    a = aff.data.astype(np.float64)
    pos = counts.pos.astype(np.float64)
    neg = counts.neg.astype(np.float64)
    loss = float(np.sum(pos * (a - 1.0) ** 2) + np.sum(neg * a**2))
    grad = 2.0 * pos * (a - 1.0) + 2.0 * neg * a
    if normalize:
        total = counts.total_pairs
        if total == 0:
            loss = 0.0
            grad = np.zeros_like(grad)
        else:
            loss /= total
            grad /= total
    return MalisResult(
        loss=loss,
        gradient=AffinityVolume(grad.astype(np.float32), check_range=False),
    )
