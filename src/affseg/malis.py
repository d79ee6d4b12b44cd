"""Maximin affinities and per-edge pair counts for affinity training signals.

For a pair of voxels the maximin affinity is the best achievable bottleneck:
the maximum over all connecting paths of the minimum edge affinity along the
path.  Every ordered-once pair of ground-truth-labeled voxels contributes one
count to its unique maximin edge -- to the positive channel when the labels
agree, to the negative channel when they differ.  Maximin edges are exactly
the edges of the maximum spanning forest (Turaga et al. 2009): a Kruskal
loop in decreasing affinity, behind a cycle filter, decides the forest and
records which root absorbed which, and array passes over those merge records
count the pairs on the n - 1 merged slots (`_pair_counts`), which both
`malis_edge_counts` and `malis_gradient` read.  A maximin query reads the
latest merge between its two voxels (`maximin_affinity`).

Ties are broken by processing edges in affinity descending, then slot
ascending (= channel, z, y, x) order, which pins down the maximin edge of
every pair exactly and makes the forest unique.
All in-bounds lattice edges are candidates, including ones with zero
affinity, so every labeled pair lands on some edge.

Voxels labeled 0 are glue: paths may run through them but they never pair.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from affseg.unionfind import index_dtype
from affseg.volume import (AffinityVolume, LabelVolume, edge_ends, oob_edge_mask,
                           require_same_shape, slot_ends, unique_inverse)


class OutOfBounds(ValueError):
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
    """Best bottleneck affinity between two voxels: that of the latest merge
    between their leaf positions (`_leaf_order`), always defined since every
    in-bounds edge, zero-affinity ones included, is a candidate."""
    shape = aff.shape3
    try:
        u, v = (shape.flat_index(*map(operator.index, w)) for w in (v1, v2))
    except (TypeError, IndexError):
        raise OutOfBounds(f"voxels {v1!r}, {v2!r} must be three integers inside {shape}") from None
    if u == v:
        raise OutOfBounds("maximin affinity requires two distinct voxels")
    slots, at, *_, closes = _leaf_order(aff)
    p, q = sorted((at[u], at[v]))
    return float(aff.data.reshape(-1)[slots[closes[p:q].max()]])


def _sweep_order(a: np.ndarray) -> np.ndarray:
    """Indices that sort float32 `a` by decreasing value, ties by index.

    The order of ``np.argsort(-a, kind="stable")`` -- -0.0 ties +0.0, every
    NaN comes last -- from one sort of uint64 keys: the high word maps the
    value's bits to a uint32 that falls as the value rises, the low word is
    the index.  Only integer operations touch the values, so signalling NaNs
    raise no floating-point warning.
    """
    if len(a) >= 2**32:
        raise ValueError(f"{len(a)} edges do not fit the 32-bit index of the sweep key")
    bits = a.view(np.uint32)
    magnitude = bits & np.uint32(0x7FFFFFFF)
    # positives and both zeros count down from 0x7FFFFFFF, negatives up from
    # 0x80000001, and every NaN takes the largest key
    rank = np.where(bits > np.uint32(0x80000000), bits, np.uint32(0x7FFFFFFF) - magnitude)
    rank[magnitude > np.uint32(0x7F800000)] = 0xFFFFFFFF
    keys = rank.astype(np.uint64) << np.uint64(32)
    keys |= np.arange(len(a), dtype=np.uint64)
    keys.sort()
    keys &= np.uint64(0xFFFFFFFF)
    return keys.view(np.int64)  # indices below 2**32 read the same as int64


def _square_sides(arr: np.ndarray, a: int, b: int):
    """Views of an affinity-shaped array at the four sides of every unit
    square in the plane of axes a < b: its two a-edges, then its two b-edges."""
    return (*edge_ends(edge_ends(arr[a], a)[0], b), *edge_ends(edge_ends(arr[b], b)[0], a))


def _candidates_in_sweep_order(aff: AffinityVolume):
    """Slots and endpoints, in sweep order, of the edges the cycle filter keeps.

    The last-swept side of a unit square joins two voxels its other three
    sides have joined already, so (cycle property) it never merges; dropping
    it in every (z, y), (z, x) and (y, x) square halves the merge loop.  A
    function of its own frees the whole-lattice arrays before that loop.
    """
    shape = aff.shape3
    slot = np.flatnonzero(~oob_edge_mask(shape))
    slot = slot[_sweep_order(aff.data.reshape(-1)[slot])]  # ties stay in slot order
    # out-of-bounds slots keep no rank: no square has them as a side
    rank = np.empty((3,) + shape.as_tuple(), dtype=index_dtype(len(slot)))
    rank.reshape(-1)[slot] = np.arange(len(slot), dtype=rank.dtype)
    last = np.zeros(rank.shape, dtype=bool)
    for a, b in ((0, 1), (0, 2), (1, 2)):
        ranks = _square_sides(rank, a, b)
        top = np.maximum(np.maximum(ranks[0], ranks[1]), np.maximum(ranks[2], ranks[3]))
        for r, mark in zip(ranks, _square_sides(last, a, b)):
            mark |= r == top
    del rank
    slot = slot[~last.reshape(-1)[slot]]
    dtype = index_dtype(shape.voxels)
    return slot, *(end.astype(dtype) for end in slot_ends(slot, shape))


def _merges(n: int, cand_u, cand_v):
    """Kruskal over the candidates in sweep order: union-find by size with
    path halving that skips an edge whose ends already share a root.

    Returns the mask of the candidates that merged; per merge the kept root,
    the absorbed root and the kept size before the merge; and every voxel's
    final component size (an absorbed root's size when absorbed).
    """
    parent = list(range(n))
    size = [1] * n
    kept, gone, kept_size = [], [], []
    merged = bytearray(len(cand_u))
    # memoryviews yield Python ints one at a time, where tolist() would
    # hold all of them at once
    for i, (a, b) in enumerate(zip(memoryview(cand_u), memoryview(cand_v))):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a == b:
            continue
        sa, sb = size[a], size[b]
        if sa < sb:
            a, b, sa, sb = b, a, sb, sa
        parent[b] = a
        size[a] = sa + sb
        kept.append(a)
        gone.append(b)
        kept_size.append(sa)
        merged[i] = 1
    dtype = index_dtype(n)
    return (np.frombuffer(merged, dtype=bool),
            *(np.fromiter(x, dtype, count=len(x)) for x in (kept, gone, kept_size, size)))


def _range_max(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """max(values[lo[q]:hi[q]]) for every query q, where lo < hi.

    A sparse table (Bender & Farach-Colton 2000), built one level at a
    time: level t holds the maxima of runs of 2**t, and a query whose
    length lies in [2**t, 2**(t+1)) is the larger of two overlapping runs.
    Only one level is alive at a time, so memory stays O(len(values)).
    """
    level = np.frexp(hi - lo)[1] - 1  # floor(log2(length))
    out = np.empty(len(lo), dtype=values.dtype)
    table = values
    for t in range(int(level.max(initial=-1)) + 1):
        run = 1 << t
        if t:
            table = np.maximum(table[:-(run >> 1)], table[run >> 1:])
        q = np.flatnonzero(level == t)
        out[q] = np.maximum(table[lo[q]], table[hi[q] - run])
    return out


def _leaf_order(aff: AffinityVolume):
    """The Kruskal loop's merges over a leaf order in which each merge puts
    the absorbed component after the kept one, so every component is a run
    headed by its root: (slots, at, lo, mid, end, closes), merge k by the
    edge at slots[k] covering [lo[k], end[k]) split at mid[k], voxel v at
    position at[v], and closes[p - 1] the merge joining positions p - 1, p.
    A position sums the kept sizes along the voxel's chain of absorptions
    (pointer doubling: union by size keeps chains under log2 n long)."""
    n = aff.shape3.voxels
    cand_slots, cand_u, cand_v = _candidates_in_sweep_order(aff)
    merged, kept, gone, kept_size, size = _merges(n, cand_u, cand_v)
    slots = cand_slots[merged]
    del cand_slots, cand_u, cand_v

    # leaf positions: the tree's root sits at 0, every absorbed root at its
    # keeper's position plus the keeper's size at the merge
    up = np.arange(n, dtype=kept.dtype)
    up[gone] = kept
    at = np.zeros(n, dtype=kept.dtype)
    at[gone] = kept_size
    while True:
        upup = up[up]
        if np.array_equal(upup, up):
            break
        at += at[up]
        up = upup
    mid = at[gone]
    closes = np.empty(n - 1, dtype=kept.dtype)
    closes[mid - 1] = np.arange(n - 1, dtype=kept.dtype)
    return slots, at, mid - kept_size, mid, mid + size[gone], closes


def _pair_counts(aff: AffinityVolume, gt: LabelVolume):
    """Labeled pairs per maximin edge: (slots, pos, neg) over the n - 1 merges.

    The lattice is connected, so the maximum spanning forest is one tree,
    and the k-th merge of the Kruskal loop over the cycle filter's
    candidates in sweep order is the maximin edge of exactly the pairs it
    joins.  From the merges, laid out in the leaf order of `_leaf_order`:

    - **Labeled pairs** n_left * n_right come from one prefix sum.
    - **Positive pairs.**  Consecutive same-label voxels of the
      (label, position) order meet at the latest merge between them, a
      range maximum over the gaps of the leaf order.  That merge is
      credited the label's count left of mid times its count right of it,
      found by `searchsorted` in the (label, position) keys; this credits
      each label of each merge once.  Negative pairs are the rest.
    """
    n = require_same_shape(aff, gt).voxels
    slots, at, lo, mid, end, closes = _leaf_order(aff)

    flat = gt.data.ravel()
    labeled = np.flatnonzero(flat)
    in_order = np.zeros(n + 1, dtype=np.int64)
    in_order[at[labeled] + 1] = 1
    np.cumsum(in_order, out=in_order)  # labeled voxels before each position
    labeled_pairs = (in_order[mid] - in_order[lo]) * (in_order[end] - in_order[mid])

    label_rank = unique_inverse(flat[labeled])[1]
    keys = np.sort(label_rank * n + at[labeled])
    first = keys // n * n  # key of position 0 of the key's label
    t = np.flatnonzero(first[1:] == first[:-1])
    k = _range_max(closes, keys[t] - first[t], keys[t + 1] - first[t])
    left = t + 1 - np.searchsorted(keys, first[t] + lo[k])
    right = np.searchsorted(keys, first[t] + end[k]) - t - 1
    pos_at = np.zeros(n - 1, dtype=np.int64)
    np.add.at(pos_at, k, left * right)
    return slots, pos_at, labeled_pairs - pos_at


def malis_edge_counts(aff: AffinityVolume, gt: LabelVolume) -> PairCounts:
    """`_pair_counts` scattered into two volumes; slots off the forest hold 0."""
    slots, *counts = _pair_counts(aff, gt)
    volumes = [np.zeros(aff.data.shape, dtype=np.uint64) for _ in counts]
    for volume, count in zip(volumes, counts):
        volume.reshape(-1)[slots] = count
    return PairCounts(*volumes)


def malis_gradient(aff: AffinityVolume, gt: LabelVolume, normalize: bool = False) -> MalisResult:
    """Quadratic pair loss and its gradient over the affinity volume.

    loss = sum_e pos(e) * (a_e - 1)^2 + neg(e) * a_e^2
    grad_e = 2 * pos(e) * (a_e - 1) + 2 * neg(e) * a_e

    Both are computed in float64 on the forest's n - 1 edges, the merged
    slots of `_pair_counts`, and are 0 elsewhere; each sum runs over a
    dense row of all slots, so it rounds as one over the whole volume.
    With ``normalize`` both are divided by the total pair count; a volume
    with no labeled pairs has loss 0 and a zero gradient.
    """
    slots, *counts = _pair_counts(aff, gt)
    total = sum(int(count.sum()) for count in counts)
    pos, neg = (count.astype(np.float64) for count in counts)
    a = aff.data.reshape(-1)[slots].astype(np.float64)
    terms = np.zeros((2, aff.data.size))
    terms[0, slots] = pos * (a - 1.0) ** 2
    terms[1, slots] = neg * a**2
    loss = float(np.sum(terms[0]) + np.sum(terms[1]))
    grad = 2.0 * pos * (a - 1.0) + 2.0 * neg * a
    if normalize and total:
        loss /= total
        grad /= total
    gradient = np.zeros(aff.data.shape, dtype=np.float32)
    gradient.reshape(-1)[slots] = grad
    return MalisResult(loss=loss, gradient=AffinityVolume(gradient, check_range=False))
