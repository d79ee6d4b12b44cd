"""Region adjacency graph and hierarchical supervoxel agglomeration.

A RAG node is a segment, kept as its voxel count; a RAG edge is the shared
boundary of two segments, one row of a single table of mergeable per-channel
statistics, filled in one array pass: one additive block (per channel
count, power sums s1..s4 and histogram), min and max; one adjacency map
takes each segment to {neighbour: row}.  A merge relinks the absorbed
segment's rows to the survivor, or adds them into the survivor's rows to
the same neighbours, one array operation for each of the three.  Scorers
score one boundary or a whole table of them.  Agglomeration is a greedy
best-first loop over a lazily invalidated priority queue: pop the
highest-scoring boundary, merge (the smaller label survives), re-score in
one call the boundaries whose score the merge can have changed, repeat
until the best score drops below the threshold.  Those are the absorbed segment's former boundaries, plus all of
the survivor's when the scorer reads segment sizes.  A heap entry carries
its table row and that row's stamp, which a merge bumps for every row it
drops or re-scores.  Every applied merge is recorded in a MergeTree that
can be replayed later, at one threshold or, walking the merges once, at a
whole decreasing series of them.

Feature vector layout (length 51), used by the logistic scorer and exposed
through `edge_features`: for each channel z, y, x in order -- mean,
variance, skewness, kurtosis, min, max, then 10 histogram fractions over
[0, 1]; finally log boundary edge count, log smaller segment size, log
larger segment size.  Variance is the population variance; skewness and
kurtosis (m3 / m2^1.5 and m4 / m2^2) are defined as 0 when the variance
falls below 1e-12.
"""

from __future__ import annotations

import heapq
import struct
from collections import Counter
from dataclasses import dataclass

import numpy as np

from affseg.volume import (AffinityVolume, LabelVolume, boundary_edges, overlap_counts,
                           require_same_shape)

N_FEATURES = 51
HIST_BINS = 10
# how each storage block of two boundaries' statistics combines into their union's
MERGE_RULES = {"sums": np.add, "vmin": np.minimum, "vmax": np.maximum}

MODEL_MAGIC_VERSION = 1
FIT_EPOCHS, FIT_LR = 500, 0.1  # full-batch gradient descent of the logistic fit


class MissingEdge(Exception):
    """The requested label pair shares no boundary in this RAG."""


class DegenerateTraining(Exception):
    """Training produced no decisions, or decisions of only one class."""


class TreeBaseMismatch(Exception):
    """A merge tree was replayed against a different base labeling."""


class FeatureAccumulator:
    """Mergeable boundary statistics: per channel count, power sums to the
    4th order, min, max, and a 10-bin histogram over [0, 1].

    `FeatureAccumulator()` is one boundary, `table(E)` is E boundaries, with
    a leading row axis.  The float64 block `sums` (..., 3, 15) holds per
    channel the count, s1..s4 and the histogram bins, which `count`,
    `s1`..`s4` and `hist` view; `vmin` and `vmax` are (..., 3).  Every
    statistic below reduces over the channel axis.
    """

    __slots__ = ("sums", "vmin", "vmax")
    count, s1, s2, s3, s4, hist = (property(lambda self, k=k: self.sums[..., k])
                                   for k in (0, 1, 2, 3, 4, slice(5, None)))

    def __init__(self):
        self.sums = np.zeros((3, 5 + HIST_BINS))
        self.vmin = np.full(3, np.inf)
        self.vmax = np.full(3, -np.inf)

    @classmethod
    def table(cls, rows: int) -> "FeatureAccumulator":
        """An empty table of `rows` boundaries."""
        return cls()._map(lambda a: np.repeat(a[None], rows, axis=0))

    def _map(self, f) -> "FeatureAccumulator":
        out = FeatureAccumulator.__new__(FeatureAccumulator)
        for name in self.__slots__:
            setattr(out, name, f(getattr(self, name)))
        return out

    def __getitem__(self, rows) -> "FeatureAccumulator":
        """Rows of a table: views for one integer row, copies for a list."""
        return self._map(lambda a: a[rows])

    def push(self, channel: int, values: np.ndarray) -> None:
        """Fold a batch of boundary affinities of one channel into the stats."""
        if len(values):
            self._push_runs((np.array([channel]),), values, np.array([0]))

    def _push_runs(self, cells: tuple, values: np.ndarray, starts: np.ndarray) -> None:
        """Fold run k, ``values[starts[k]:starts[k + 1]]``, into the distinct
        (..., channel) cell ``tuple(i[k] for i in cells)``, all runs at once."""
        v = values.astype(np.float64)
        n = np.diff(starts, append=len(v))
        self.sums[cells + (slice(0, 5),)] += np.stack(
            [n] + [np.add.reduceat(p, starts) for p in (v, v * v, v**3, v**4)], axis=-1)
        self.vmin[cells] = np.minimum(self.vmin[cells], np.minimum.reduceat(v, starts))
        self.vmax[cells] = np.maximum(self.vmax[cells], np.maximum.reduceat(v, starts))
        bins = np.minimum((v * HIST_BINS).astype(np.int64), HIST_BINS - 1)
        hist = self.hist
        slot = np.ravel_multi_index(tuple(np.repeat(i, n) for i in cells) + (bins,), hist.shape)
        hist += np.bincount(slot, minlength=hist.size).reshape(hist.shape)

    def merge(self, other: "FeatureAccumulator") -> None:
        for name, rule in MERGE_RULES.items():
            rule(getattr(self, name), getattr(other, name), out=getattr(self, name))

    def merge_rows(self, into: np.ndarray, rows: np.ndarray) -> None:
        """Merge table row rows[k] into row into[k] for every k, all at once."""
        for name, rule in MERGE_RULES.items():
            field = getattr(self, name)
            rule.at(field, into, field[rows])

    def combine(self, other: "FeatureAccumulator") -> "FeatureAccumulator":
        out = self.copy()
        out.merge(other)
        return out

    def copy(self) -> "FeatureAccumulator":
        return self._map(np.copy)

    @property
    def total_count(self) -> np.ndarray:
        return self.count.sum(axis=-1).astype(np.int64)

    def pooled_mean(self) -> np.ndarray:
        """Mean affinity over all channels; 0 for a boundary with no edges."""
        return self.s1.sum(axis=-1) / np.maximum(self.total_count, 1)

    def channel_stats(self, c: int) -> np.ndarray:
        """16 values per boundary, shape (..., 16): mean, var, skew, kurt,
        min, max, 10 histogram fractions; all 0 where channel c has no edges.
        Only +, -, *, / and sqrt enter the moments, so one boundary alone and
        the same boundary in a table give bit-identical values."""
        n = self.count[..., c]
        k = np.maximum(n, 1)
        s1, s2, s3, s4 = self.s1[..., c], self.s2[..., c], self.s3[..., c], self.s4[..., c]
        m1 = s1 / k
        m2 = s2 / k - m1 * m1
        m3 = s3 / k - 3.0 * m1 * s2 / k + 2.0 * (m1 * m1 * m1)
        m4 = s4 / k - 4.0 * m1 * s3 / k + 6.0 * m1 * m1 * s2 / k - 3.0 * (m1 * m1) * (m1 * m1)
        wide = m2 >= 1e-12
        v = np.where(wide, m2, 1.0)
        skew = np.where(wide, m3 / (v * np.sqrt(v)), 0.0)
        kurt = np.where(wide, m4 / (v * v), 0.0)
        out = np.concatenate([
            np.stack([m1, m2, skew, kurt, self.vmin[..., c], self.vmax[..., c]], axis=-1),
            self.hist[..., c, :] / k[..., None],
        ], axis=-1)
        return np.where((n > 0)[..., None], out, 0.0)


def edge_feature_vector(acc: FeatureAccumulator, size_a, size_b) -> np.ndarray:
    """The 51-value boundary descriptor of a segment pair, or (E, 51) for
    a table of E boundaries and their (E,) segment sizes."""
    counts = np.stack([acc.total_count, np.minimum(size_a, size_b),
                       np.maximum(size_a, size_b)], axis=-1)
    return np.concatenate([acc.channel_stats(c) for c in range(3)] + [np.log(counts)],
                          axis=-1)


class MeanAffinity:
    """Scores a boundary by its mean affinity pooled over all channels."""

    name = "mean"
    reads_sizes = False  # a merge leaves the scores of untouched boundaries as they were

    def score(self, acc: FeatureAccumulator, size_a, size_b) -> np.ndarray:
        return acc.pooled_mean()


class Logistic:
    """Linear-logistic boundary scorer over the 51-value feature vector.

    Weights act on raw (unstandardized) features; training-time feature
    standardization is folded into the stored weights and bias.

    Model file: one version byte, then 51 weights and the bias as f64 LE.
    """

    name = "logistic"
    reads_sizes = True  # log segment sizes are features

    def __init__(self, weights: np.ndarray, bias: float):
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (N_FEATURES,):
            raise ValueError(f"expected {N_FEATURES} weights, got shape {w.shape}")
        if not (np.isfinite(w).all() and np.isfinite(bias)):
            raise ValueError("weights and bias must be finite")
        self.weights = w
        self.bias = float(bias)

    def score(self, acc: FeatureAccumulator, size_a, size_b) -> np.ndarray:
        z = edge_feature_vector(acc, size_a, size_b) @ self.weights + self.bias
        return 1.0 / (1.0 + np.exp(-np.clip(z, -30.0, 30.0)))

    def to_bytes(self) -> bytes:
        return bytes([MODEL_MAGIC_VERSION]) + struct.pack(
            f"<{N_FEATURES + 1}d", *self.weights, self.bias
        )

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Logistic":
        expected = 1 + (N_FEATURES + 1) * 8
        if len(raw) != expected:
            raise ValueError(f"model file must be {expected} bytes, got {len(raw)}")
        if raw[0] != MODEL_MAGIC_VERSION:
            raise ValueError(f"unsupported model version {raw[0]}")
        vals = struct.unpack(f"<{N_FEATURES + 1}d", raw[1:])
        return cls(np.array(vals[:N_FEATURES]), vals[N_FEATURES])

    def save(self, path) -> None:
        with open(path, "wb") as f:
            f.write(self.to_bytes())

    @classmethod
    def load(cls, path) -> "Logistic":
        """Read a model file; a malformed one raises ValueError naming `path`."""
        with open(path, "rb") as f:
            raw = f.read()
        try:
            return cls.from_bytes(raw)
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None


@dataclass
class MergeTree:
    """Ordered record of applied merges: (survivor, absorbed, score)."""

    merges: list[tuple[int, int, float]]
    base: LabelVolume

    def write(self, path) -> None:
        with open(path, "w") as f:
            for s, t, sc in self.merges:
                f.write(f"{s} {t} {sc!r}\n")

    @classmethod
    def read(cls, path, base: LabelVolume) -> "MergeTree":
        """Parse a tree file, rejecting a line whose score is NaN or outside
        [0, 1], that merges a label with itself or with one an earlier line
        absorbed, or that names no nonzero label of `base`: `agglomerate`
        writes no such line, a cycle would never end in replay, and a
        missing label would replay as a silent no-op."""
        merges, absorbed = [], set()
        present = set(np.unique(base.data).tolist()) - {0}
        with open(path) as f:
            for n, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    s, t, sc = line.split()
                    merges.append((int(s), int(t), float(sc)))
                except ValueError:
                    raise ValueError(f"{path}: line {n}: expected 'survivor absorbed score', "
                                     f"got {line!r}") from None
                s, t, sc = merges[-1]
                if not 0.0 <= sc <= 1.0:
                    raise ValueError(f"{path}: line {n}: score {sc!r} is not in [0, 1]")
                if s == t or s in absorbed or t in absorbed:
                    raise ValueError(f"{path}: line {n}: merges {s} and {t}, which must be "
                                     f"two labels no earlier line absorbed")
                missing = [l for l in (s, t) if l not in present]
                if missing:
                    raise ValueError(f"{path}: line {n}: label {missing[0]} is not a nonzero "
                                     f"label of the base")
                absorbed.add(t)
        return cls(merges=merges, base=base)


@dataclass(eq=False)
class Rag:
    """Region adjacency graph over the nonzero labels of a segmentation.

    `nodes` maps each label to its voxel count and `adj` each label to
    {neighbour: row of `table`}, the boundary's statistics; `edges` is the
    same graph as {(lo, hi): row}.  `relink` and `merge_nodes` mutate the
    graph in place exactly the way watershed rule (d) and the agglomeration
    loop do, so recomputation tests can drive them directly.
    """

    labels: LabelVolume
    nodes: dict[int, int]
    adj: dict[int, dict[int, int]]
    table: FeatureAccumulator

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return sum(map(len, self.adj.values())) // 2

    @property
    def edges(self) -> dict[tuple[int, int], int]:
        """{(lo, hi): row} of every boundary, built afresh from `adj`."""
        return {(a, b): row for a, nbrs in self.adj.items() for b, row in nbrs.items() if a < b}

    def copy(self) -> "Rag":
        """An independent graph over the same labels, to merge in a simulation."""
        return Rag(self.labels, dict(self.nodes), {l: dict(n) for l, n in self.adj.items()},
                   self.table.copy())

    def edge_acc(self, a: int, b: int) -> FeatureAccumulator:
        """The statistics of one boundary: views into its table row."""
        row = self.adj.get(a, {}).get(b)
        if row is None:
            raise MissingEdge(f"no boundary between labels {a} and {b}")
        return self.table[row]

    def boundaries(self, keys: list[tuple[int, int]]):
        """(table rows, sizes of a, sizes of b) of the boundaries (a, b) in
        `keys`, to score or describe them all in one call."""
        size_a = np.fromiter((self.nodes[a] for a, _ in keys), np.int64, len(keys))
        size_b = np.fromiter((self.nodes[b] for _, b in keys), np.int64, len(keys))
        rows = np.fromiter((self.adj[a][b] for a, b in keys), np.intp, len(keys))
        return self.table[rows], size_a, size_b

    def relink(self, a: int, b: int):
        """Merge neighbour b's node into a's in the graph alone; a may be the
        larger label.  The table is left as it was.

        The shared boundary's row is dropped.  Each other boundary row of b
        is dropped where a has a row to the same neighbour, or else relinked
        to a.  Returns ({neighbour x: row} of the boundaries of a this
        changed, [rows dropped, the shared row first], [for each later
        dropped row, the row of a it pairs with]).
        """
        self.nodes[a] += self.nodes.pop(b)
        mine, theirs = self.adj[a], self.adj.pop(b)
        dropped = [mine.pop(b)]
        del theirs[a]
        into = []
        for x, row in theirs.items():
            other = self.adj[x]
            del other[b]
            if x in mine:
                into.append(mine[x])
                dropped.append(row)
            else:
                mine[x] = other[a] = row
        return {x: mine[x] for x in theirs}, dropped, into

    def merge_nodes(self, a: int, b: int):
        """Merge neighbour b's node into a's: `relink`, then add each dropped
        row of b into the row of a it pairs with.  Returns ({neighbour x:
        row} of the boundaries of a this changed, [rows dropped]).
        """
        touched, dropped, into = self.relink(a, b)
        if into:
            self.table.merge_rows(np.array(into), np.array(dropped[1:]))
        return touched, dropped


def build_rag(labels: LabelVolume, aff: AffinityVolume) -> Rag:
    """Node sizes and boundary statistics of every adjacent label pair: the
    boundary edges are sorted into (boundary, channel) runs, each in slot
    order, and all runs are folded into the rows of one table at once."""
    require_same_shape(labels, aff)
    lab = labels.data
    ids, sizes = np.unique(lab, return_counts=True)
    ids, sizes = ids[ids != 0], sizes[ids != 0]

    lo, hi, ch, val = boundary_edges(lab, aff.data)
    order = np.lexsort((ch, hi, lo))
    lo, hi, ch, val = lo[order], hi[order], ch[order], val[order]

    new_pair = np.ones(len(lo), dtype=bool)
    new_pair[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    new_run = new_pair.copy()
    new_run[1:] |= ch[1:] != ch[:-1]
    starts = np.flatnonzero(new_run)
    table = FeatureAccumulator.table(np.count_nonzero(new_pair))
    table._push_runs(((np.cumsum(new_pair) - 1)[starts], ch[starts]), val, starts)

    # pairs come sorted by (lo, hi), so each label's neighbours go in ascending
    adj = {l: {} for l in ids.tolist()}
    for row, (a, b) in enumerate(zip(lo[new_pair].tolist(), hi[new_pair].tolist())):
        adj[a][b] = adj[b][a] = row
    return Rag(labels, dict(zip(ids.tolist(), sizes.tolist())), adj, table)


def edge_features(rag: Rag, edge: tuple[int, int]) -> np.ndarray:
    """Feature vector of an existing boundary; raises MissingEdge otherwise."""
    a, b = edge
    return edge_feature_vector(rag.edge_acc(a, b), rag.nodes[a], rag.nodes[b])


def _chase(parent: dict[int, int], l: int) -> int:
    """Follow absorbed -> survivor links from `l` to its current label."""
    while l in parent:
        l = parent[l]
    return l


def threshold_lookups(merges, ids: np.ndarray, thetas):
    """For each of the strictly decreasing `thetas`, the label that each
    base label of `ids` takes when the longest prefix of the (survivor,
    absorbed, score) `merges` whose scores are all >= theta is replayed:
    absorbed -> survivor links followed to their end.  Each prefix extends
    the previous one, so the merges are walked once."""
    ends = np.array([m[:2] for m in merges], dtype=np.uint64).reshape(-1, 2)
    names, idx = np.unique(np.concatenate([ids, ends[:, 0], ends[:, 1]]), return_inverse=True)
    start, survivor, absorbed = np.split(idx, [len(ids), len(ids) + len(ends)])
    parent = np.arange(len(names))
    k = 0
    for theta in thetas:
        while k < len(merges) and merges[k][2] >= theta:
            parent[absorbed[k]] = survivor[k]
            k += 1
        at = start
        while not np.array_equal(parent[at], at):
            at = parent[at]
        yield names[at]


def _replay(labels: LabelVolume, merges, theta: float) -> LabelVolume:
    """Replay the longest prefix of `merges` scoring >= theta over a labeling."""
    uniq, inv = np.unique(labels.data, return_inverse=True)
    lut = next(threshold_lookups(merges, uniq, [theta]))
    return LabelVolume(lut[inv].reshape(labels.data.shape))


def check_theta(theta: float) -> None:
    """Raise ValueError unless `theta` is a score threshold in [0, 1]; NaN is not."""
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must be in [0, 1], got {theta}")


def agglomerate(labels: LabelVolume, aff: AffinityVolume, scorer,
                theta: float) -> tuple[LabelVolume, MergeTree]:
    """Greedy best-first agglomeration down to score threshold `theta`.

    Run with theta=0 to record the full dendrogram.  Output labels keep the
    surviving input ids, so replaying the returned tree over the input
    reproduces the output exactly.

    A merge re-scores the absorbed node's former boundaries, and the
    survivor's others only for a scorer whose score `reads_sizes`; the
    boundaries left alone keep their heap entries.  An entry (-score, a,
    b, row, stamp) is live while `stamp` is its row's current stamp.  Live
    entries are unique in (-score, a, b) and a kept score is the score a
    re-scoring would give, so the pop order is the same as re-scoring every
    boundary.
    """
    check_theta(theta)
    rag = build_rag(labels, aff)
    sizes_matter = getattr(scorer, "reads_sizes", True)
    stamp, heap, merges = [0] * rag.n_edges, [], []

    def push(keys, rows):
        acc, *sizes = rag.boundaries(keys) if sizes_matter else (rag.table[rows], None, None)
        for (a, b), row, sc in zip(keys, rows, scorer.score(acc, *sizes).tolist()):
            stamp[row] += 1
            heapq.heappush(heap, (-sc, a, b, row, stamp[row]))

    edges = rag.edges
    push(list(edges), list(edges.values()))
    while heap:
        neg, a, b, row, st = heapq.heappop(heap)
        if stamp[row] != st:
            continue
        if -neg < theta:
            break
        merges.append((a, b, -neg))
        touched, dropped = rag.merge_nodes(a, b)
        for row in dropped:
            stamp[row] += 1
        # b's former rows were added into a's or relinked to a (`touched`);
        # a's other rows changed only if the score reads node sizes
        if sizes_matter:
            touched = rag.adj[a]
        nbrs = sorted(touched)
        push([(min(a, x), max(a, x)) for x in nbrs], [touched[x] for x in nbrs])
    return _replay(labels, merges, theta), MergeTree(merges=merges, base=labels)


def apply_threshold(tree: MergeTree, base: LabelVolume, theta: float) -> LabelVolume:
    """Replay the longest prefix of recorded merges whose scores are all >= theta.

    That prefix is exactly where `agglomerate` run at `theta` stops, so the
    replay equals a fresh run for every scorer, monotone or not.
    """
    check_theta(theta)
    check_base(tree, base)
    return _replay(base, tree.merges, theta)


def check_base(tree: MergeTree, base: LabelVolume) -> None:
    """Raise TreeBaseMismatch unless `tree` was built from the labeling `base`."""
    if tree.base.data.shape != base.data.shape or not np.array_equal(tree.base.data, base.data):
        raise TreeBaseMismatch("merge tree was built from a different base labeling")


def _standardize(X: np.ndarray):
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd = np.where(sd < 1e-12, 1.0, sd)
    return (X - mu) / sd, mu, sd


def _fit_logistic(X: np.ndarray, y: np.ndarray) -> Logistic:
    """Full-batch gradient descent on mean cross-entropy, then fold the
    feature standardization into the returned weights."""
    Xs, mu, sd = _standardize(X)
    n = len(y)
    w = np.zeros(X.shape[1])
    b = 0.0
    for _ in range(FIT_EPOCHS):
        z = np.clip(Xs @ w + b, -30.0, 30.0)
        p = 1.0 / (1.0 + np.exp(-z))
        err = p - y
        w -= FIT_LR * (Xs.T @ err) / n
        b -= FIT_LR * float(err.mean())
    w_raw = w / sd
    b_raw = b - float((w * mu / sd).sum())
    return Logistic(w_raw, b_raw)


def _node_gt_histograms(rag: Rag, gt: LabelVolume) -> dict[int, Counter]:
    hists: dict[int, Counter] = {l: Counter() for l in rag.nodes}
    seg_ids, gt_ids, counts = overlap_counts(rag.labels.data, gt.data)
    for l, gl, cnt in zip(seg_ids.tolist(), gt_ids.tolist(), counts.tolist()):
        if l:
            hists[l][gl] = cnt
    return hists


def _dominant(hist: dict[int, int]):
    """(dominant gt label, purity) by plurality; ties to the smaller label.

    Returns (None, 0.0) for segments with no labeled voxels.
    """
    if not hist:
        return None, 0.0
    total = sum(hist.values())
    best = min(((-cnt, lab) for lab, cnt in hist.items()))
    return best[1], -best[0] / total


def train_scorer(rag: Rag, gt: LabelVolume) -> Logistic:
    """Fit a logistic boundary scorer by simulated agglomeration against GT.

    A boundary is a merge (positive) example iff both segments' dominant GT
    labels agree and both segments are at least 50% pure.  Positive pairs
    are merged between rounds in a copy of the caller's RAG, each round's
    features computed from its table in one call, and fresh decisions
    collected, until a round yields no positives.
    Raises DegenerateTraining when the collected decisions are all one class.
    """
    require_same_shape(rag.labels, gt)
    sim = rag.copy()
    hists = _node_gt_histograms(sim, gt)

    X_rows: list[np.ndarray] = []
    y_rows: list[bool] = []
    while True:
        dominant = {l: _dominant(h) for l, h in hists.items()}
        keys = sorted(sim.edges)
        decisions = [da is not None and da == db and pa >= 0.5 and pb >= 0.5
                     for (da, pa), (db, pb) in ((dominant[a], dominant[b]) for a, b in keys)]
        X_rows.append(edge_feature_vector(*sim.boundaries(keys)))
        y_rows.extend(decisions)
        positives = [key for key, pos in zip(keys, decisions) if pos]
        if not positives:
            break
        # merge this round's positives; pairs may have been absorbed by an
        # earlier merge in the same round, so chase the surviving labels
        # (distinct survivors of two neighbours are still neighbours)
        alias: dict[int, int] = {}
        for a, b in positives:
            ra, rb = _chase(alias, a), _chase(alias, b)
            if ra == rb:
                continue
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            sim.merge_nodes(lo, hi)
            alias[hi] = lo
            hists[lo].update(hists.pop(hi))

    if not y_rows or len(set(y_rows)) < 2:
        raise DegenerateTraining("boundary decisions contain a single class only")
    X = np.concatenate(X_rows)
    y = np.array(y_rows, dtype=np.float64)
    scorer = _fit_logistic(X, y)
    # fit artifacts, kept for inspection of the decision set
    scorer.training_features = X
    scorer.training_decisions = y
    return scorer
