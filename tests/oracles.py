"""Independent brute-force reference implementations used to check the
package.  Everything here works from first principles (BFS connectivity,
explicit contingency dictionaries, a textbook online union-find) and shares
no code with the library's array connectivity / heap machinery.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict, deque

import numpy as np


class UnionFind:
    """Online union-find over dense integer ids 0..n-1 with path halving.

    `union` picks the root by component size, so the surviving root is
    arbitrary; use `components` when all edges are known up front.
    """

    __slots__ = ("parent", "size")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, a: int) -> int:
        parent = self.parent
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return ra


def kruskal_forest(n, u, v):
    """Mask of the edges (u, v) Kruskal accepts: those whose ends are still
    apart when the edge's turn comes, in the given order."""
    uf = UnionFind(n)
    keep = []
    for a, b in zip(u, v):
        ra, rb = uf.find(int(a)), uf.find(int(b))
        keep.append(ra != rb)
        uf.union(ra, rb)
    return np.array(keep, dtype=bool)


def all_edges(aff):
    """Every in-bounds lattice edge as (c, z, y, x, affinity, u, v)."""
    Z, Y, X = aff.data.shape[1:]
    out = []
    for z in range(Z):
        for y in range(Y):
            for x in range(X):
                u = (z * Y + y) * X + x
                if z + 1 < Z:
                    out.append((0, z, y, x, float(aff.data[0, z, y, x]), u, u + Y * X))
                if y + 1 < Y:
                    out.append((1, z, y, x, float(aff.data[1, z, y, x]), u, u + X))
                if x + 1 < X:
                    out.append((2, z, y, x, float(aff.data[2, z, y, x]), u, u + 1))
    return out


def sweep_sorted(edges):
    """The canonical processing order: affinity desc, then channel, z, y, x."""
    return sorted(edges, key=lambda e: (-e[4], e[0], e[1], e[2], e[3]))


def _components(adj, n):
    comp = [-1] * n
    c = 0
    for s in range(n):
        if comp[s] >= 0:
            continue
        comp[s] = c
        q = deque([s])
        while q:
            u = q.popleft()
            for v in adj[u]:
                if comp[v] < 0:
                    comp[v] = c
                    q.append(v)
        c += 1
    return comp


def maximin_edges(aff):
    """For every voxel pair, the edge that first connects it in the sweep.

    Inserts edges one by one in sweep order, recomputing connectivity by BFS
    from scratch after each insertion.  Returns {(u, v) with u < v:
    (c, z, y, x, affinity)}.  The affinity of that edge is the pair's
    maximin affinity and the edge is its canonical bottleneck.
    """
    Z, Y, X = aff.data.shape[1:]
    n = Z * Y * X
    edges = sweep_sorted(all_edges(aff))
    adj = defaultdict(list)
    pending = {(u, v) for u in range(n) for v in range(u + 1, n)}
    result = {}
    for c, z, y, x, a, u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
        comp = _components(adj, n)
        done = [p for p in pending if comp[p[0]] == comp[p[1]]]
        for p in done:
            result[p] = (c, z, y, x, a)
            pending.discard(p)
        if not pending:
            break
    return result


def pair_counts(aff, gt):
    """Expected pos / neg count volumes from the brute-force attribution."""
    Z, Y, X = aff.data.shape[1:]
    labels = gt.data.ravel()
    pos = np.zeros((3, Z, Y, X), dtype=np.uint64)
    neg = np.zeros((3, Z, Y, X), dtype=np.uint64)
    for (u, v), (c, z, y, x, _a) in maximin_edges(aff).items():
        lu, lv = int(labels[u]), int(labels[v])
        if lu == 0 or lv == 0:
            continue
        if lu == lv:
            pos[c, z, y, x] += 1
        else:
            neg[c, z, y, x] += 1
    return pos, neg


def malis_counts_full_sweep(aff, gt):
    """Pos / neg count volumes from a Kruskal sweep over every lattice edge.

    Takes all edges in sweep order, rejects those whose ends already share a
    component, and charges each joining edge the product of the two
    components' label histograms.  Scales to volumes `pair_counts` cannot.
    """
    Z, Y, X = aff.data.shape[1:]
    n = Z * Y * X
    labels = gt.data.ravel().tolist()
    parent = list(range(n))
    hist = [{lab: 1} if lab else {} for lab in labels]
    pos = np.zeros((3, Z, Y, X), dtype=np.uint64)
    neg = np.zeros((3, Z, Y, X), dtype=np.uint64)

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for c, z, y, x, _a, u, v in sweep_sorted(all_edges(aff)):
        ru, rv = find(u), find(v)
        if ru == rv:
            continue
        hu, hv = hist[ru], hist[rv]
        same = sum(cnt * hv.get(lab, 0) for lab, cnt in hu.items())
        pos[c, z, y, x] = same
        neg[c, z, y, x] = sum(hu.values()) * sum(hv.values()) - same
        parent[rv] = ru
        for lab, cnt in hv.items():
            hu[lab] = hu.get(lab, 0) + cnt
        hist[rv] = {}
    return pos, neg


def maximin_by_threshold(aff, v1, v2):
    """Maximin affinity via descending threshold + BFS connectivity."""
    Z, Y, X = aff.data.shape[1:]
    n = Z * Y * X
    u = (v1[0] * Y + v1[1]) * X + v1[2]
    v = (v2[0] * Y + v2[1]) * X + v2[2]
    edges = all_edges(aff)
    for t in sorted({e[4] for e in edges}, reverse=True):
        adj = defaultdict(list)
        for _c, _z, _y, _x, a, eu, ev in edges:
            if a >= t:
                adj[eu].append(ev)
                adj[ev].append(eu)
        comp = _components(adj, n)
        if comp[u] == comp[v]:
            return t
    return 0.0


def split_vi_bruteforce(seg, gt):
    """Conditional entropies from an explicit dict-of-dicts contingency."""
    joint: dict[tuple[int, int], int] = defaultdict(int)
    seg_marg: dict[int, int] = defaultdict(int)
    gt_marg: dict[int, int] = defaultdict(int)
    n = 0
    for s, g in zip(seg.data.ravel().tolist(), gt.data.ravel().tolist()):
        if g == 0:
            continue
        joint[(s, g)] += 1
        seg_marg[s] += 1
        gt_marg[g] += 1
        n += 1
    under = 0.0
    over = 0.0
    for (s, g), c in joint.items():
        under += c / n * math.log2(seg_marg[s] / c)
        over += c / n * math.log2(gt_marg[g] / c)
    return under, over


def connected_components(labels):
    """6-connected components of same-nonzero-label voxels, labeled 1..K."""
    lab = labels.data
    Z, Y, X = lab.shape
    out = np.zeros((Z, Y, X), dtype=np.uint64)
    nxt = 1
    for z in range(Z):
        for y in range(Y):
            for x in range(X):
                if lab[z, y, x] == 0 or out[z, y, x] != 0:
                    continue
                target = lab[z, y, x]
                q = deque([(z, y, x)])
                out[z, y, x] = nxt
                while q:
                    cz, cy, cx = q.popleft()
                    for dz, dy, dx in ((1, 0, 0), (-1, 0, 0), (0, 1, 0),
                                       (0, -1, 0), (0, 0, 1), (0, 0, -1)):
                        nz, ny, nx = cz + dz, cy + dy, cx + dx
                        if (0 <= nz < Z and 0 <= ny < Y and 0 <= nx < X
                                and out[nz, ny, nx] == 0 and lab[nz, ny, nx] == target):
                            out[nz, ny, nx] = nxt
                            q.append((nz, ny, nx))
                nxt += 1
    return out


def watershed_basins(aff, t_high, t_low):
    """Watershed stages (a)-(c) by BFS, labeled 1..K in first-voxel order.

    Links every edge with affinity >= t_high, and every voxel to the far end
    of its strongest incident edge when that is >= t_low (ties: lower
    channel first, then the neighbour at the lower coordinate).  Voxels
    whose strongest incident edge is below t_low stay 0.  Affinities are
    compared to the thresholds as float64.
    """
    Z, Y, X = aff.data.shape[1:]
    n = Z * Y * X
    best = [None] * n  # (affinity, -rank, far end); rank 2c below, 2c+1 above
    adj = defaultdict(list)
    for c, _z, _y, _x, a, u, v in all_edges(aff):
        for here, there, rank in ((u, v, 2 * c + 1), (v, u, 2 * c)):
            if best[here] is None or (a, -rank) > best[here][:2]:
                best[here] = (a, -rank, there)
        if a >= t_high:
            adj[u].append(v)
            adj[v].append(u)
    for u in range(n):
        if best[u] is not None and best[u][0] >= t_low:
            adj[u].append(best[u][2])
            adj[best[u][2]].append(u)
    out = np.zeros(n, dtype=np.uint64)
    nxt = 1
    for s in range(n):
        if out[s] or best[s] is None or best[s][0] < t_low:
            continue
        out[s] = nxt
        q = deque([s])
        while q:
            for w in adj[q.popleft()]:
                if not out[w]:
                    out[w] = nxt
                    q.append(w)
        nxt += 1
    return out.reshape(Z, Y, X)


def partitions_equal(a, b) -> bool:
    """True when two labelings induce the same partition (labels permuted)."""
    pa = np.stack([a.ravel(), b.ravel()], axis=1)
    u = np.unique(pa, axis=0)
    return len(np.unique(u[:, 0])) == len(u) and len(np.unique(u[:, 1])) == len(u)


def stitch_overlaps_reference(specs, labelings):
    """{((i, a), (j, b)): (overlap, count_a, count_b)} for blocks i < j.

    Visits, for every pair of blocks, each voxel of the volume and keeps
    those inside both halos; there it counts each side's label, and each
    pair of nonzero labels, by hand.
    """
    def inside(k, p):
        return all(h0 <= c < h1 for c, (h0, h1) in zip(p, specs[k].halo))

    def label(k, p):
        return int(labelings[k].data[tuple(c - h0 for c, (h0, _) in zip(p, specs[k].halo))])

    extent = [max(spec.halo[axis][1] for spec in specs) for axis in range(3)]
    edges = {}
    for i, j in itertools.combinations(range(len(specs)), 2):
        count_a, count_b, overlap = defaultdict(int), defaultdict(int), defaultdict(int)
        for p in itertools.product(*map(range, extent)):
            if inside(i, p) and inside(j, p):
                la, lb = label(i, p), label(j, p)
                count_a[la] += 1
                count_b[lb] += 1
                if la and lb:
                    overlap[la, lb] += 1
        for (la, lb), n in overlap.items():
            edges[(i, la), (j, lb)] = (n, count_a[la], count_b[lb])
    return edges


def boundary_values(labels, aff):
    """Every boundary affinity, collected pair by pair.

    Walks every in-bounds lattice edge and appends its affinity to the list
    of (lo, hi, channel) when its endpoints carry two different nonzero
    labels.  Returns ({(lo, hi, channel): [affinity, ...]}, {label: voxels}).
    """
    lab = labels.data.ravel().tolist()
    values = defaultdict(list)
    for c, _z, _y, _x, a, u, v in all_edges(aff):
        la, lb = lab[u], lab[v]
        if la and lb and la != lb:
            values[(min(la, lb), max(la, lb), c)].append(a)
    sizes = defaultdict(int)
    for l in lab:
        if l:
            sizes[l] += 1
    return dict(values), dict(sizes)


def boundary_stats(values):
    """Statistics of one boundary channel from its affinity list.

    Returns its count, 10-bin histogram, min, max, correctly rounded power
    sums s1..s4 and the 16 channel features: mean, population variance,
    skewness, kurtosis (moments from the power sums, as the agglo module
    documents them), min, max, bin fractions.  `feature_scale` holds, per
    feature, the magnitude of the terms it is computed from: a relative
    rounding error in the power sums moves a feature by that much times the
    error, because the central moments cancel those terms.
    """
    n = len(values)
    hist = [0] * 10
    for v in values:
        hist[min(int(v * 10), 9)] += 1
    sums = [math.fsum(v**k for v in values) for k in (1, 2, 3, 4)]
    e1, e2, e3, e4 = (s / n for s in sums)
    m2, t2 = e2 - e1**2, e2 + e1**2
    m3, t3 = e3 - 3 * e1 * e2 + 2 * e1**3, e3 + 3 * e1 * e2 + 2 * e1**3
    m4 = e4 - 4 * e1 * e3 + 6 * e1**2 * e2 - 3 * e1**4
    t4 = e4 + 4 * e1 * e3 + 6 * e1**2 * e2 + 3 * e1**4
    skew = kurt = skew_scale = kurt_scale = 0.0
    if m2 >= 1e-12:
        skew, kurt = m3 / m2**1.5, m4 / m2**2
        skew_scale = t3 / m2**1.5 + 1.5 * abs(skew) * t2 / m2
        kurt_scale = t4 / m2**2 + 2 * abs(kurt) * t2 / m2
    fractions = [h / n for h in hist]
    return {"count": n, "hist": hist, "vmin": min(values), "vmax": max(values), "s": sums,
            "features": [e1, m2, skew, kurt, min(values), max(values)] + fractions,
            "feature_scale": [abs(e1), t2, skew_scale, kurt_scale, 0.0, 0.0] + fractions}


def size_filter_reference(labels, aff, size_min, t_merge):
    """Watershed rule (d), then first-voxel densification, by exhaustive scans.

    Boundaries are kept as a dict per segment of its strongest boundary
    affinity to each neighbour.  Each step scans every segment smaller
    than size_min whose strongest boundary is >= t_merge, takes the one
    with the strongest boundary (ties: smaller label) and merges it into
    the neighbour behind that boundary (ties: smaller label); the merged
    segment keeps the neighbour's label and, towards each third segment,
    the stronger of the two boundaries.  When no segment qualifies, those
    still smaller than size_min become background.  The nonzero labels are
    then renumbered 1..K in order of each segment's first voxel.
    """
    lab = labels.data.ravel().tolist()
    size = defaultdict(int)
    for a in lab:
        if a:
            size[a] += 1
    border = {a: {} for a in size}
    for *_, w, u, v in all_edges(aff):
        a, b = lab[u], lab[v]
        if a and b and a != b:
            border[a][b] = border[b][a] = max(w, border[a].get(b, -1.0))
    owner = {a: a for a in size}

    def strongest(a):
        return max(((w, -b) for b, w in border[a].items()), default=(-1.0, 0))

    while True:
        small = []
        for a in size:
            w, neg_b = strongest(a)
            if size[a] < size_min and w >= t_merge:
                small.append((w, -a, -neg_b))
        if not small:
            break
        _, neg_src, into = max(small)
        src = -neg_src
        for b, w in border.pop(src).items():
            del border[b][src]
            if b != into:
                border[into][b] = border[b][into] = max(w, border[into].get(b, -1.0))
        size[into] += size.pop(src)
        for a, o in owner.items():
            if o == src:
                owner[a] = into
    final = [owner[a] if a and size[owner[a]] >= size_min else 0 for a in lab]
    dense = {}
    for a in final:
        if a and a not in dense:
            dense[a] = len(dense) + 1
    out = np.array([dense.get(a, 0) for a in final], dtype=np.uint64)
    return out.reshape(labels.data.shape)


def agglomerate_reference(labels, aff, theta):
    """Greedy mean-affinity agglomeration by an exhaustive scan per step.

    Boundaries are kept as a dict from (lo, hi) to the list of every
    affinity on them, all channels pooled.  Each step scans every boundary
    for the highest mean (ties: smallest (lo, hi)); if it is below theta
    the run ends, otherwise hi is merged into lo: each of hi's other
    boundary lists is appended to lo's list towards the same neighbour.
    Returns the applied merges as (lo, hi, mean) in order.
    """
    values, _ = boundary_values(labels, aff)
    border = defaultdict(list)
    for (lo, hi, _c), vals in sorted(values.items()):
        border[(lo, hi)].extend(vals)
    merges = []
    while border:
        mean, (a, b) = min((-sum(v) / len(v), key) for key, v in border.items())
        mean = -mean
        if mean < theta:
            break
        merges.append((a, b, mean))
        del border[(a, b)]
        for key in [k for k in border if b in k]:
            x = key[0] if key[1] == b else key[1]
            border[(min(a, x), max(a, x))].extend(border.pop(key))
    return merges


def replay_reference(labels, merges, theta):
    """The labels after the merges before the first one scoring below theta:
    each label follows absorbed -> survivor links, kept in a dict, to their
    end."""
    owner = {}
    for s, t, score in merges:
        if not score >= theta:
            break
        owner[t] = s

    def final(label):
        while label in owner:
            label = owner[label]
        return label

    out = [final(label) for label in labels.data.ravel().tolist()]
    return np.array(out, dtype=np.uint64).reshape(labels.data.shape)


def labels_from_seeds_reference(shape, seeds, anisotropy):
    """Nearest-seed labels (seed k -> label k+1, ties to the lowest index)
    by one full-volume pass per seed, as an array of shape `shape`."""
    seeds = np.asarray(seeds, dtype=np.int64)
    zz, yy, xx = np.meshgrid(
        np.arange(shape.z), np.arange(shape.y), np.arange(shape.x), indexing="ij"
    )
    best_d = np.full(shape.as_tuple(), np.inf)
    label = np.zeros(shape.as_tuple(), dtype=np.uint64)
    for k, (sz, sy, sx) in enumerate(seeds.tolist()):
        d2 = ((xx - sx) ** 2 + (yy - sy) ** 2).astype(np.float64)
        d2 += (anisotropy * (zz - sz).astype(np.float64)) ** 2
        closer = d2 < best_d
        best_d[closer] = d2[closer]
        label[closer] = k + 1
    return label
