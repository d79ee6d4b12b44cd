"""Maximin affinities and per-edge pair counts for affinity training signals.

For a pair of voxels the maximin affinity is the best achievable bottleneck:
the maximum over all connecting paths of the minimum edge affinity along the
path.  Every ordered-once pair of ground-truth-labeled voxels contributes one
count to its unique maximin edge -- to the positive channel when the labels
agree, to the negative channel when they differ.  Maximin edges are exactly
the edges of the maximum spanning forest (Turaga et al. 2009), so the forest
is found first, by array Borůvka rounds, and counts fall out of a sweep of
the forest edges alone in decreasing affinity, carrying per-component label
histograms through a union-find.

Ties are broken by processing edges in affinity descending, then slot
ascending (= channel, z, y, x) order, which pins down the maximin edge of
every pair exactly and makes the forest unique.
All in-bounds lattice edges are candidates, including ones with zero
affinity, so every labeled pair lands on some edge.

Voxels labeled 0 are glue: paths may run through them but they never pair.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from affseg.unionfind import UnionFind, spanning_forest
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

    Widest-path search over the 6-neighbour lattice; every in-bounds edge
    exists (zero-affinity edges included), so the result is always defined.
    """
    shape = aff.shape3
    for v in (v1, v2):
        if not shape.contains(*v):
            raise OutOfBounds(f"voxel {tuple(v)} outside {shape}")
    if tuple(v1) == tuple(v2):
        raise OutOfBounds("maximin affinity requires two distinct voxels")
    Z, Y, X = shape.as_tuple()
    start = shape.flat_index(*v1)
    goal = shape.flat_index(*v2)
    a = aff.data
    best = np.full(shape.voxels, -1.0, dtype=np.float64)
    best[start] = 2.0  # above any affinity; the source has no bottleneck yet
    heap = [(-2.0, start)]
    while heap:
        nb, u = heapq.heappop(heap)
        b = -nb
        if b < best[u]:
            continue
        if u == goal:
            return float(b)
        uz, ux = divmod(u, Y * X)
        uy, ux = divmod(ux, X)
        for ch, dz, dy, dx, off in ((0, 1, 0, 0, Y * X), (1, 0, 1, 0, X), (2, 0, 0, 1, 1)):
            nz, ny, nx = uz + dz, uy + dy, ux + dx
            if nz < Z and ny < Y and nx < X:
                w = float(a[ch, uz, uy, ux])
                cand = min(b, w)
                if cand > best[u + off]:
                    best[u + off] = cand
                    heapq.heappush(heap, (-cand, u + off))
            nz, ny, nx = uz - dz, uy - dy, ux - dx
            if nz >= 0 and ny >= 0 and nx >= 0:
                w = float(a[ch, nz, ny, nx])
                cand = min(b, w)
                if cand > best[u - off]:
                    best[u - off] = cand
                    heapq.heappush(heap, (-cand, u - off))
    return float(best[goal])  # unreachable in practice: the lattice is connected


def _forest_in_sweep_order(aff: AffinityVolume):
    """Slots and endpoints of the maximum spanning forest's edges, in sweep order.

    A function of its own so that the whole-lattice arrays are freed
    before the sweep builds its per-voxel histograms.
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

    uf = UnionFind(shape.voxels)
    # per-root histogram of nonzero gt labels: dict label -> count
    labels = gt.data.ravel().tolist()
    hist: list[dict[int, int] | None] = [{lab: 1} if lab else None for lab in labels]
    labeled_n = [1 if lab else 0 for lab in labels]
    pos_at: list[int] = []
    neg_at: list[int] = []

    find = uf.find
    # memoryviews yield Python ints one at a time, where tolist() would
    # hold all of them at once
    for a, b in zip(memoryview(forest_u), memoryview(forest_v)):
        ru, rv = find(a), find(b)
        nu, nv = labeled_n[ru], labeled_n[rv]
        p = 0
        if nu and nv:
            hu, hv = hist[ru], hist[rv]
            if len(hu) > len(hv):
                hu, hv = hv, hu
            for lab, cnt in hu.items():
                o = hv.get(lab)
                if o:
                    p += cnt * o
        pos_at.append(p)
        neg_at.append(nu * nv - p)
        root = uf.union(ru, rv)
        absorbed = rv if root == ru else ru
        ho, hr = hist[absorbed], hist[root]
        if ho is not None:
            if hr is None:
                hist[root] = ho
            else:
                if len(hr) < len(ho):
                    hr, ho = ho, hr
                    hist[root] = hr
                for lab, cnt in ho.items():
                    hr[lab] = hr.get(lab, 0) + cnt
            hist[absorbed] = None
        labeled_n[root] = nu + nv

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
