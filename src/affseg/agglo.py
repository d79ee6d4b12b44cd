"""Region adjacency graph and hierarchical supervoxel agglomeration.

A RAG node is a segment (voxel count plus an accumulator over its interior
edges); a RAG edge is the shared boundary of two segments, summarized by a
mergeable statistics accumulator per affinity channel.  Agglomeration is a
greedy best-first loop over a lazily invalidated priority queue: pop the
highest-scoring boundary, merge (the smaller label survives), recombine the
accumulators, re-score the merged node's boundaries, repeat until the best
score drops below the threshold.  Every applied merge is recorded in a
MergeTree that can be replayed at any threshold later.

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
import math
import struct
from dataclasses import dataclass, field
from itertools import takewhile

import numpy as np

from affseg.volume import AffinityVolume, LabelVolume, edge_ends, require_same_shape

N_FEATURES = 51
HIST_BINS = 10

MODEL_MAGIC_VERSION = 1


class MissingEdge(Exception):
    """The requested label pair shares no boundary in this RAG."""


class DegenerateTraining(Exception):
    """Training produced no decisions, or decisions of only one class."""


class TreeBaseMismatch(Exception):
    """A merge tree was replayed against a different base labeling."""


class FeatureAccumulator:
    """Mergeable boundary statistics: per channel count, power sums to the
    4th order, min, max, and a 10-bin histogram over [0, 1]."""

    __slots__ = ("count", "s1", "s2", "s3", "s4", "vmin", "vmax", "hist")

    def __init__(self):
        self.count = np.zeros(3, dtype=np.int64)
        self.s1 = np.zeros(3, dtype=np.float64)
        self.s2 = np.zeros(3, dtype=np.float64)
        self.s3 = np.zeros(3, dtype=np.float64)
        self.s4 = np.zeros(3, dtype=np.float64)
        self.vmin = np.full(3, np.inf)
        self.vmax = np.full(3, -np.inf)
        self.hist = np.zeros((3, HIST_BINS), dtype=np.int64)

    def push(self, channel: int, values: np.ndarray) -> None:
        """Fold a batch of boundary affinities of one channel into the stats."""
        if len(values) == 0:
            return
        v = values.astype(np.float64)
        self.count[channel] += len(v)
        self.s1[channel] += v.sum()
        self.s2[channel] += (v * v).sum()
        self.s3[channel] += (v**3).sum()
        self.s4[channel] += (v**4).sum()
        self.vmin[channel] = min(self.vmin[channel], v.min())
        self.vmax[channel] = max(self.vmax[channel], v.max())
        bins = np.minimum((v * HIST_BINS).astype(np.int64), HIST_BINS - 1)
        self.hist[channel] += np.bincount(bins, minlength=HIST_BINS)

    def merge(self, other: "FeatureAccumulator") -> None:
        self.count += other.count
        self.s1 += other.s1
        self.s2 += other.s2
        self.s3 += other.s3
        self.s4 += other.s4
        np.minimum(self.vmin, other.vmin, out=self.vmin)
        np.maximum(self.vmax, other.vmax, out=self.vmax)
        self.hist += other.hist

    def combine(self, other: "FeatureAccumulator") -> "FeatureAccumulator":
        out = self.copy()
        out.merge(other)
        return out

    def copy(self) -> "FeatureAccumulator":
        out = FeatureAccumulator.__new__(FeatureAccumulator)
        out.count = self.count.copy()
        out.s1 = self.s1.copy()
        out.s2 = self.s2.copy()
        out.s3 = self.s3.copy()
        out.s4 = self.s4.copy()
        out.vmin = self.vmin.copy()
        out.vmax = self.vmax.copy()
        out.hist = self.hist.copy()
        return out

    @property
    def total_count(self) -> int:
        return int(self.count.sum())

    def pooled_mean(self) -> float:
        n = self.total_count
        return float(self.s1.sum() / n) if n else 0.0

    def channel_stats(self, c: int) -> np.ndarray:
        """16 values: mean, var, skew, kurt, min, max, 10 histogram fractions."""
        out = np.zeros(16)
        n = int(self.count[c])
        if n == 0:
            return out
        m1 = self.s1[c] / n
        m2 = self.s2[c] / n - m1 * m1
        out[0] = m1
        out[1] = m2
        if m2 >= 1e-12:
            m3 = self.s3[c] / n - 3.0 * m1 * self.s2[c] / n + 2.0 * m1**3
            m4 = (self.s4[c] / n - 4.0 * m1 * self.s3[c] / n
                  + 6.0 * m1 * m1 * self.s2[c] / n - 3.0 * m1**4)
            out[2] = m3 / m2**1.5
            out[3] = m4 / (m2 * m2)
        out[4] = self.vmin[c]
        out[5] = self.vmax[c]
        out[6:16] = self.hist[c] / n
        return out


def edge_feature_vector(acc: FeatureAccumulator, size_a: int, size_b: int) -> np.ndarray:
    """The 51-value boundary descriptor for a segment pair."""
    out = np.empty(N_FEATURES)
    for c in range(3):
        out[c * 16 : (c + 1) * 16] = acc.channel_stats(c)
    out[48] = math.log(acc.total_count)
    out[49] = math.log(min(size_a, size_b))
    out[50] = math.log(max(size_a, size_b))
    return out


class MeanAffinity:
    """Scores a boundary by its mean affinity pooled over all channels."""

    name = "mean"

    def score(self, acc: FeatureAccumulator, size_a: int, size_b: int) -> float:
        return acc.pooled_mean()


class Logistic:
    """Linear-logistic boundary scorer over the 51-value feature vector.

    Weights act on raw (unstandardized) features; training-time feature
    standardization is folded into the stored weights and bias.

    Model file: one version byte, then 51 weights and the bias as f64 LE.
    """

    name = "logistic"

    def __init__(self, weights: np.ndarray, bias: float):
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (N_FEATURES,):
            raise ValueError(f"expected {N_FEATURES} weights, got shape {w.shape}")
        self.weights = w
        self.bias = float(bias)

    def score(self, acc: FeatureAccumulator, size_a: int, size_b: int) -> float:
        z = float(self.weights @ edge_feature_vector(acc, size_a, size_b)) + self.bias
        z = min(max(z, -30.0), 30.0)
        return 1.0 / (1.0 + math.exp(-z))

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
        with open(path, "rb") as f:
            return cls.from_bytes(f.read())


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
        merges = []
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                s, t, sc = line.split()
                merges.append((int(s), int(t), float(sc)))
        return cls(merges=merges, base=base)


@dataclass
class _Node:
    size: int
    internal: FeatureAccumulator = field(default_factory=FeatureAccumulator)


class Rag:
    """Region adjacency graph over the nonzero labels of a segmentation.

    Keeps references to the label and affinity volumes it was built from;
    `merge_nodes` mutates the graph in place exactly the way the
    agglomeration loop does, so recomputation tests can drive it directly.
    """

    def __init__(self, labels: LabelVolume, aff: AffinityVolume):
        self.labels = labels
        self.aff = aff
        self.nodes: dict[int, _Node] = {}
        self.edges: dict[tuple[int, int], FeatureAccumulator] = {}
        self.adj: dict[int, set[int]] = {}

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def edge_key(self, a: int, b: int) -> tuple[int, int]:
        return (a, b) if a < b else (b, a)

    def edge_acc(self, a: int, b: int) -> FeatureAccumulator:
        acc = self.edges.get(self.edge_key(a, b))
        if acc is None:
            raise MissingEdge(f"no boundary between labels {a} and {b}")
        return acc

    def merge_nodes(self, a: int, b: int) -> int:
        """Merge b's node into a's (callers pass a < b); returns the survivor.

        The shared boundary accumulator becomes interior; b's remaining
        boundaries fold into a's, combining accumulators where both exist.
        """
        key = self.edge_key(a, b)
        shared = self.edges.pop(key)
        na, nb = self.nodes[a], self.nodes[b]
        na.size += nb.size
        na.internal.merge(nb.internal)
        na.internal.merge(shared)
        self.adj[a].discard(b)
        self.adj[b].discard(a)
        for x in sorted(self.adj[b]):
            acc = self.edges.pop(self.edge_key(b, x))
            self.adj[x].discard(b)
            kx = self.edge_key(a, x)
            if kx in self.edges:
                self.edges[kx].merge(acc)
            else:
                self.edges[kx] = acc
                self.adj[a].add(x)
                self.adj[x].add(a)
        del self.adj[b]
        del self.nodes[b]
        return a


def build_rag(labels: LabelVolume, aff: AffinityVolume) -> Rag:
    """Accumulate node and boundary statistics for every adjacent label pair."""
    require_same_shape(labels, aff)
    rag = Rag(labels, aff)
    lab = labels.data

    uniq, counts = np.unique(lab, return_counts=True)
    for l, cnt in zip(uniq.tolist(), counts.tolist()):
        if l != 0:
            rag.nodes[l] = _Node(size=int(cnt))
            rag.adj[l] = set()

    # gather one (label_a, label_b, value) table per channel
    for c in range(3):
        la, lb = (e.ravel() for e in edge_ends(lab, c))
        av = edge_ends(aff.data[c], c)[0].ravel()
        valid = (la != 0) & (lb != 0)
        la, lb, av = la[valid], lb[valid], av[valid]

        internal = la == lb
        if internal.any():
            ids = la[internal]
            vals = av[internal]
            order = np.argsort(ids, kind="stable")
            ids, vals = ids[order], vals[order]
            bounds = np.flatnonzero(np.diff(ids)) + 1
            starts = np.concatenate(([0], bounds))
            stops = np.concatenate((bounds, [len(ids)]))
            for s, t in zip(starts.tolist(), stops.tolist()):
                rag.nodes[int(ids[s])].internal.push(c, vals[s:t])

        boundary = ~internal
        if boundary.any():
            lo = np.minimum(la[boundary], lb[boundary])
            hi = np.maximum(la[boundary], lb[boundary])
            vals = av[boundary]
            order = np.lexsort((hi, lo))
            lo, hi, vals = lo[order], hi[order], vals[order]
            change = np.flatnonzero((np.diff(lo) != 0) | (np.diff(hi) != 0)) + 1
            starts = np.concatenate(([0], change))
            stops = np.concatenate((change, [len(lo)]))
            for s, t in zip(starts.tolist(), stops.tolist()):
                a_id, b_id = int(lo[s]), int(hi[s])
                key = (a_id, b_id)
                acc = rag.edges.get(key)
                if acc is None:
                    acc = FeatureAccumulator()
                    rag.edges[key] = acc
                    rag.adj[a_id].add(b_id)
                    rag.adj[b_id].add(a_id)
                acc.push(c, vals[s:t])
    return rag


def edge_features(rag: Rag, edge: tuple[int, int]) -> np.ndarray:
    """Feature vector of an existing boundary; raises MissingEdge otherwise."""
    a, b = edge
    acc = rag.edge_acc(a, b)
    return edge_feature_vector(acc, rag.nodes[a].size, rag.nodes[b].size)


def _chase(parent: dict[int, int], l: int) -> int:
    """Follow absorbed -> survivor links from `l` to its current label."""
    while l in parent:
        l = parent[l]
    return l


def _replay(labels: LabelVolume, merges) -> LabelVolume:
    """Apply (survivor, absorbed, score) merges in order to a labeling."""
    parent = {t: s for s, t, _ in merges}
    flat = labels.data.ravel()
    uniq, inv = np.unique(flat, return_inverse=True)
    lut = np.array([_chase(parent, l) for l in uniq.tolist()], dtype=np.uint64)
    return LabelVolume(lut[inv].reshape(labels.data.shape))


def agglomerate(labels: LabelVolume, aff: AffinityVolume, scorer,
                theta: float) -> tuple[LabelVolume, MergeTree]:
    """Greedy best-first agglomeration down to score threshold `theta`.

    Run with theta=0 to record the full dendrogram.  Output labels keep the
    surviving input ids, so replaying the returned tree over the input
    reproduces the output exactly.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must be in [0, 1], got {theta}")
    rag = build_rag(labels, aff)

    version: dict[tuple[int, int], int] = {k: 0 for k in rag.edges}
    heap = []
    for key in sorted(rag.edges):
        a, b = key
        sc = scorer.score(rag.edges[key], rag.nodes[a].size, rag.nodes[b].size)
        heapq.heappush(heap, (-sc, a, b, 0))

    merges: list[tuple[int, int, float]] = []

    while heap:
        negs, a, b, ver = heapq.heappop(heap)
        key = (a, b)
        if key not in rag.edges or version[key] != ver:
            continue
        score = -negs
        if score < theta:
            break
        merges.append((a, b, score))
        b_nbrs = set(rag.adj[b])
        rag.merge_nodes(a, b)
        del version[key]
        for x in b_nbrs:
            if x != a:
                version.pop(rag.edge_key(b, x), None)
        for x in sorted(rag.adj[a]):
            kx = rag.edge_key(a, x)
            version[kx] = version.get(kx, -1) + 1
            sc = scorer.score(rag.edges[kx], rag.nodes[a].size, rag.nodes[x].size)
            heapq.heappush(heap, (-sc, kx[0], kx[1], version[kx]))
    return _replay(labels, merges), MergeTree(merges=merges, base=labels)


def apply_threshold(tree: MergeTree, base: LabelVolume, theta: float) -> LabelVolume:
    """Replay the longest prefix of recorded merges whose scores are all >= theta.

    That prefix is exactly where `agglomerate` run at `theta` stops, so the
    replay equals a fresh run for every scorer, monotone or not.
    """
    if tree.base.data.shape != base.data.shape or not np.array_equal(tree.base.data, base.data):
        raise TreeBaseMismatch("merge tree was built from a different base labeling")
    return _replay(base, takewhile(lambda m: m[2] >= theta, tree.merges))


def _standardize(X: np.ndarray):
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd = np.where(sd < 1e-12, 1.0, sd)
    return (X - mu) / sd, mu, sd


def _fit_logistic(X: np.ndarray, y: np.ndarray, epochs: int = 500,
                  lr: float = 0.1) -> Logistic:
    """Full-batch gradient descent on mean cross-entropy, then fold the
    feature standardization into the returned weights."""
    Xs, mu, sd = _standardize(X)
    n = len(y)
    w = np.zeros(X.shape[1])
    b = 0.0
    for _ in range(epochs):
        z = np.clip(Xs @ w + b, -30.0, 30.0)
        p = 1.0 / (1.0 + np.exp(-z))
        err = p - y
        w -= lr * (Xs.T @ err) / n
        b -= lr * float(err.mean())
    w_raw = w / sd
    b_raw = b - float((w * mu / sd).sum())
    return Logistic(w_raw, b_raw)


def _node_gt_histograms(rag: Rag, gt: LabelVolume) -> dict[int, dict[int, int]]:
    lab = rag.labels.data.ravel()
    g = gt.data.ravel()
    m = (lab != 0) & (g != 0)
    hists: dict[int, dict[int, int]] = {l: {} for l in rag.nodes}
    if m.any():
        pairs = np.stack([lab[m], g[m]], axis=1)
        uniq, counts = np.unique(pairs, axis=0, return_counts=True)
        for (l, gl), cnt in zip(uniq.tolist(), counts.tolist()):
            hists[int(l)][int(gl)] = int(cnt)
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
    are merged between rounds, features recomputed through the accumulators,
    and fresh decisions collected, until a round yields no positives.
    Raises DegenerateTraining when the collected decisions are all one class.
    """
    require_same_shape(rag.labels, gt)
    sim = build_rag(rag.labels, rag.aff)
    hists = _node_gt_histograms(sim, gt)

    X_rows: list[np.ndarray] = []
    y_rows: list[int] = []
    while True:
        positives = []
        for key in sorted(sim.edges):
            a, b = key
            da, pa = _dominant(hists[a])
            db, pb = _dominant(hists[b])
            pos = da is not None and da == db and pa >= 0.5 and pb >= 0.5
            X_rows.append(edge_feature_vector(sim.edges[key],
                                              sim.nodes[a].size, sim.nodes[b].size))
            y_rows.append(1 if pos else 0)
            if pos:
                positives.append(key)
        if not positives:
            break
        # merge this round's positives; pairs may have been absorbed by an
        # earlier merge in the same round, so chase the surviving labels
        alias: dict[int, int] = {}
        for a, b in positives:
            ra, rb = _chase(alias, a), _chase(alias, b)
            if ra == rb:
                continue
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            if hi not in sim.adj.get(lo, set()):
                continue  # boundary vanished through earlier merges
            sim.merge_nodes(lo, hi)
            alias[hi] = lo
            h = hists.pop(hi)
            dst = hists[lo]
            for gl, cnt in h.items():
                dst[gl] = dst.get(gl, 0) + cnt

    if not y_rows or len(set(y_rows)) < 2:
        raise DegenerateTraining("boundary decisions contain a single class only")
    X = np.array(X_rows)
    y = np.array(y_rows, dtype=np.float64)
    scorer = _fit_logistic(X, y)
    # fit artifacts, kept for inspection of the decision set
    scorer.training_features = X
    scorer.training_decisions = y
    return scorer
