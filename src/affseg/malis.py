"""Maximin affinities and per-edge pair counts for affinity training signals.

For a pair of voxels the maximin affinity is the best achievable bottleneck:
the maximum over all connecting paths of the minimum edge affinity along the
path.  Every ordered-once pair of ground-truth-labeled voxels contributes one
count to its unique maximin edge -- to the positive channel when the labels
agree, to the negative channel when they differ.  Maximin edges are exactly
the edges of the maximum spanning forest (Turaga et al. 2009).  Behind a
cycle filter, Borůvka contraction (1926) lays the voxels out so that every
cluster of the Kruskal sweep in decreasing affinity is a run, with no loop
per voxel or per edge; array passes over that layout count the pairs on the
n - 1 merged slots (`_pair_counts`), which both `malis_edge_counts` and
`malis_gradient` read.  A maximin query reads the latest merge between its
two voxels (`maximin_affinity`).

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

from affseg.unionfind import index_dtype, jump
from affseg.volume import (AffinityVolume, LabelVolume, edge_ends, label_index,
                           oob_edge_mask, require_affinity_range, require_same_shape,
                           slot_ends)


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
    """Indices that sort float32 `a`, with values in [0, 1], by decreasing
    value, ties by index.

    The order of ``np.argsort(-a, kind="stable")`` -- -0.0 ties +0.0 --
    from one sort of uint64 keys: the high word counts down from 0x7FFFFFFF
    by the value's sign-cleared bits, which rise with a non-negative value,
    and the low word is the index.
    """
    if len(a) >= 2**32:
        raise ValueError(f"{len(a)} edges do not fit the 32-bit index of the sweep key")
    rank = np.uint32(0x7FFFFFFF) - (a.view(np.uint32) & np.uint32(0x7FFFFFFF))
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
    it in every (z, y), (z, x) and (y, x) square halves the edges to lay
    out.  A function of its own frees the whole-lattice arrays first.
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


def _running_maxima(values: np.ndarray, levels: int):
    """Levels 0..levels-1 of a sparse table over `values` (Bender &
    Farach-Colton 2000), one at a time: level t holds the maxima of the runs
    values[i:i + 2**t], and level t + 1 is two overlapping views of it."""
    table = values
    for t in range(levels):
        if t:
            table = np.maximum(table[:-(1 << t - 1)], table[1 << t - 1:])
        yield table


def _range_max(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """max(values[lo[q]:hi[q]]) for every query q, where lo < hi: a query
    whose length lies in [2**t, 2**(t+1)) is the larger of two overlapping
    runs of level t, and only one level is alive at a time."""
    level = np.frexp(hi - lo)[1] - 1  # floor(log2(length))
    out = np.empty(len(lo), dtype=values.dtype)
    for t, table in enumerate(_running_maxima(values, int(level.max(initial=-1)) + 1)):
        q = np.flatnonzero(level == t)
        out[q] = np.maximum(table[lo[q]], table[hi[q] - (1 << t)])
    return out


def _nearest_greater(closes: np.ndarray, at: np.ndarray, bound: np.ndarray):
    """Per query q, the run [lo, end) around position at[q] whose gaps all
    close below bound[q]: lo - 1 and end - 1 are the nearest gaps before and
    from at[q] that close above it, else the ends of the order.  A binary
    descent over every level of the sparse table steps over each run of
    2**t gaps that closes below the bound, the longest runs first."""
    n = len(closes)
    lo, hi = at.copy(), at.copy()
    for t, table in reversed(list(enumerate(_running_maxima(closes, n.bit_length())))):
        run = 1 << t
        hi += run * ((hi <= n - run) & (table[np.minimum(hi, n - run)] < bound))
        lo -= run * ((lo >= run) & (table[np.maximum(lo - run, 0)] < bound))
    return lo, hi + 1


def _contract(m: int, u, v, rank):
    """One Borůvka step over nodes 0..m-1 of a connected graph, edges (u, v)
    ranked by `rank` (ascending, distinct): ((tree, r, root), (u, v, rank)
    of the edges between trees).  A node's lowest-ranked edge, its first
    edge (rank r), is where the sweep first reaches it, so it is a forest
    edge; each tree of first edges holds one mutual pair, whose smaller node
    is the root, and tree numbers the trees in the order of their roots."""
    node = np.arange(m)
    first = np.full(m, len(u))
    np.minimum.at(first, u, np.arange(len(u)))
    np.minimum.at(first, v, np.arange(len(u)))
    head = u[first] ^ v[first] ^ node  # the first edge's other end
    r = rank[first]
    del first
    root = (head[head] == node) & (node < head)
    tree = np.empty(m, dtype=np.intp)
    tree[root] = np.arange(np.count_nonzero(root))
    tree = tree[jump(np.where(root, node, head))]
    del head, node
    u, v = tree[u], tree[v]
    keep = u != v
    return (tree, r, root), (u[keep], v[keep], rank[keep])


def _expand(tree, r, root, at, closes, lo, end, bound: int):
    """A level's leaf order from its contraction's (`_contract`), every
    cluster of the sweep a run: (at, closes, lo, end), node x at position
    at[x], and the merge of positions g and g + 1 ranked closes[g] (below
    `bound`), covering [lo[g], end[g]) split at g + 1.  A node goes to the
    end of the contracted run [start, stop) that held its tree just before
    its first edge: the keys (stop, r), a root before its pair, are sorted
    once.  That run is the tree alone unless the tree's first contracted
    merge came earlier; only then is `closes` searched."""
    start = at[tree]
    first_merge = np.minimum(np.append(closes, bound), np.insert(closes, 0, bound))[start]
    late = np.flatnonzero(r > first_merge)
    stop = start + 1
    start[late], stop[late] = _nearest_greater(closes, start[late], r[late])
    del first_merge, late
    key = (stop * bound + r) * 2 + ~root
    order = np.argsort(key)
    key = key[order]
    startpos = np.cumsum(np.bincount(stop, minlength=len(at) + 1))  # keys with stop <= p
    merges = tuple(np.empty(len(tree) - 1, dtype=np.intp) for _ in range(3))
    g = startpos[1:len(at)] - 1  # a contracted merge joins two runs
    for out, value in zip(merges, (closes, startpos[lo],
                                   np.searchsorted(key, (end * bound + closes) * 2))):
        out[g] = value
    del key, stop, g
    at = np.empty(len(tree), dtype=np.intp)
    at[order] = np.arange(len(tree))
    del order
    x = np.flatnonzero(~root)  # a node joins the run before it
    for out, value in zip(merges, (r[x], startpos[start[x]], at[x] + 1)):
        out[at[x] - 1] = value
    return (at, *merges)


def _leaf_order(aff: AffinityVolume):
    """The sweep's merges over a leaf order in which every cluster is a
    run: (slots, at, lo, mid, end, closes), merge k by the edge at slots[k]
    covering [lo[k], end[k]) split at mid[k], voxel v at position at[v],
    and closes[p - 1] the merge joining positions p - 1, p.  The cycle
    filter's candidates are contracted (`_contract`) until one node is
    left, the order expanded back level by level (`_expand`), and the
    merges sorted once.  Raises ValueError unless the affinities are finite
    and in [0, 1]."""
    require_affinity_range(aff.data)
    n = aff.shape3.voxels
    slots, u, v = _candidates_in_sweep_order(aff)
    bound = len(slots)
    rank = np.arange(bound)
    levels, m = [], n
    while m > 1:
        level, (u, v, rank) = _contract(m, u, v, rank)
        levels.append(level)
        m = np.count_nonzero(level[2])
    at, merges = np.zeros(1, dtype=np.intp), [np.empty(0, dtype=np.intp)] * 3
    while levels:
        at, *merges = _expand(*levels.pop(), at, *merges, bound)
    rank, lo, end = merges
    order = np.argsort(rank)  # merge k closes gap order[k]
    dtype = index_dtype(n)
    closes = np.empty(n - 1, dtype=dtype)
    closes[order] = np.arange(n - 1, dtype=dtype)
    return (slots[rank[order]], at.astype(dtype), lo[order].astype(dtype),
            (order + 1).astype(dtype), end[order].astype(dtype), closes)


def _pair_counts(aff: AffinityVolume, gt: LabelVolume):
    """Labeled pairs per maximin edge: (slots, pos, neg) over the n - 1 merges.

    The lattice is connected, so the maximum spanning forest is one tree,
    and the k-th merge of the sweep over the cycle filter's candidates is
    the maximin edge of exactly the pairs it joins.  Any leaf order in
    which every cluster is a run gives the same counts; from the merges,
    laid out in the Borůvka order of `_leaf_order`:

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

    label_rank = label_index(flat[labeled])[1]
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
    return MalisResult(loss=loss, gradient=AffinityVolume._adopt(gradient, check_range=False))
