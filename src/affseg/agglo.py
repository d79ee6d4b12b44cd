"""Region adjacency graph and hierarchical supervoxel agglomeration.

A RAG node is a segment, kept as its voxel count; a RAG edge is the shared
boundary of two segments, one row of a single table of mergeable per-channel
statistics, filled in one array pass, that holds only what its consumer
reads (mean scorer: count and s1, rule (d): max, logistic scorer: all), one
array per statistic, each merged by its own rule (add, min or max); one
adjacency map takes each segment to {neighbour: row}, and each row keeps
its two ends as built.  A merge relinks the absorbed segment's rows to the
survivor, or merges them into the survivor's rows to the same neighbours.
Agglomeration is one greedy best-first loop over lazily invalidated
entries: the boundaries scoring at least the threshold are sorted once into
a run, a heap holds only what merges push, and each step takes the better
of the run's next entry and the heap's top, merges it (the smaller label
survives), pushes the boundaries the merge changed, and stops once the best
score is below the threshold or no boundary is left.  A scorer
has `score(table, size_a, size_b)`, optionally the statistics it `reads`
(else all) and optionally a row store `rows(rag)` -> (score per row,
merge(a, b) -> {neighbour: row to push}); the default, `_table_rows`,
re-scores every boundary of the survivor, so its time grows with the sum
of the survivors' degrees; the heap is rebuilt from its live entries each
time it doubles.
Every applied merge is recorded in a MergeTree that can be replayed later,
at one threshold or, walking the merges once, at a whole decreasing series.
Training (`train_scorer`) merges against ground truth in rounds over arrays,
folding each round's parallel rows with `FeatureAccumulator.fold`, and never
changes the RAG it is given.

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
from dataclasses import dataclass

import numpy as np

from affseg.unionfind import components, jump
from affseg.volume import (AffinityVolume, LabelVolume, as_real, boundary_edges,
                           cooccurrence, label_index, label_sizes, overlap_counts,
                           require_affinity_range, require_same_shape)

N_FEATURES = 51
HIST_BINS = 10
# the power sums s1..s4, as the function of the values each one adds up
POWERS = {"s1": lambda v: v, "s2": lambda v: v * v, "s3": lambda v: v**3, "s4": lambda v: v**4}
# how each statistic of two boundaries combines into their union's
MERGE_RULES = {"count": np.add, **dict.fromkeys(POWERS, np.add), "hist": np.add,
               "vmin": np.minimum, "vmax": np.maximum}
ALL_STATS = tuple(MERGE_RULES)

MODEL_MAGIC_VERSION = 1
FIT_EPOCHS, FIT_LR = 500, 0.1  # full-batch gradient descent of the logistic fit


class MissingEdge(Exception):
    """The requested label pair shares no boundary in this RAG."""


class DegenerateTraining(ValueError):
    """Training produced no decisions, or decisions of only one class."""


class TreeBaseMismatch(ValueError):
    """A merge tree was replayed against a different base labeling."""


class FeatureAccumulator:
    """Mergeable boundary statistics: per channel count, power sums to the
    4th order, min, max, and a 10-bin histogram over [0, 1].

    `FeatureAccumulator(stats)` is one boundary, `table(E, stats)` is E
    boundaries, with a leading row axis; both hold only the `stats` named
    (by default `ALL_STATS`), each as one float64 array: `count`,
    `s1`..`s4`, `vmin` and `vmax` are (..., 3), `hist` is (..., 3, 10).
    Naming a statistic outside `ALL_STATS`, or passing a string, raises
    ValueError.  The held statistics are the instance's only attributes, so
    `vars(acc)` maps each to its array and reading any other raises
    AttributeError.  Every statistic below reduces over the channel axis.
    """

    def __init__(self, stats=ALL_STATS):
        if isinstance(stats, str) or not set(stats) <= set(ALL_STATS):
            raise ValueError(f"stats must be a collection of names in {ALL_STATS}, got {stats!r}")
        empty = {"hist": np.zeros((3, HIST_BINS)), "vmin": np.full(3, np.inf),
                 "vmax": np.full(3, -np.inf)}
        vars(self).update((s, empty.get(s, np.zeros(3))) for s in ALL_STATS if s in stats)

    @classmethod
    def table(cls, rows: int, stats=ALL_STATS) -> "FeatureAccumulator":
        """An empty table of `rows` boundaries."""
        return cls(stats)._map(lambda a: np.repeat(a[None], rows, axis=0))

    def _map(self, f) -> "FeatureAccumulator":
        out = FeatureAccumulator.__new__(FeatureAccumulator)
        vars(out).update((name, f(a)) for name, a in vars(self).items())
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
        for name, field in vars(self).items():
            rule = MERGE_RULES[name]
            if name == "count":
                runs = n
            elif name == "hist":
                bins = np.minimum((v * HIST_BINS).astype(np.int64), HIST_BINS - 1)
                runs = np.bincount(np.repeat(np.arange(len(starts)), n) * HIST_BINS + bins,
                                   minlength=len(starts) * HIST_BINS).reshape(-1, HIST_BINS)
            else:
                runs = rule.reduceat(POWERS[name](v) if name in POWERS else v, starts)
            field[cells] = rule(field[cells], runs)

    def merge(self, other: "FeatureAccumulator") -> None:
        for name, field in vars(self).items():
            MERGE_RULES[name](field, getattr(other, name), out=field)

    def merge_rows(self, into: np.ndarray, rows: np.ndarray) -> None:
        """Merge table row rows[k] into row into[k] for every k, all at once."""
        for name, field in vars(self).items():
            MERGE_RULES[name].at(field, into, field[rows])

    def fold(self, rows: np.ndarray, starts: np.ndarray) -> "FeatureAccumulator":
        """A table whose row k merges rows ``rows[starts[k]:starts[k + 1]]``
        of this one (the last run ends at ``len(rows)``), by each statistic's
        rule, one `reduceat` per statistic."""
        out = FeatureAccumulator.__new__(FeatureAccumulator)
        vars(out).update((name, MERGE_RULES[name].reduceat(a[rows], starts))
                         for name, a in vars(self).items())
        return out

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

    def all_channel_stats(self) -> np.ndarray:
        """16 values per boundary and channel, shape (..., 3, 16): mean, var,
        skew, kurt, min, max, 10 histogram fractions; all 0 where the channel
        has no edges.  Only elementwise +, -, *, / and sqrt enter, so a row
        alone, in a table or sliced to one channel gives bit-identical values."""
        n = self.count
        k = np.maximum(n, 1)
        s1, s2, s3, s4 = self.s1, self.s2, self.s3, self.s4
        m1 = s1 / k
        m2 = s2 / k - m1 * m1
        m3 = s3 / k - 3.0 * m1 * s2 / k + 2.0 * (m1 * m1 * m1)
        m4 = s4 / k - 4.0 * m1 * s3 / k + 6.0 * m1 * m1 * s2 / k - 3.0 * (m1 * m1) * (m1 * m1)
        wide = m2 >= 1e-12
        v = np.where(wide, m2, 1.0)
        skew = np.where(wide, m3 / (v * np.sqrt(v)), 0.0)
        kurt = np.where(wide, m4 / (v * v), 0.0)
        out = np.concatenate([np.stack([m1, m2, skew, kurt, self.vmin, self.vmax], axis=-1),
                              self.hist / k[..., None]], axis=-1)
        return np.where((n > 0)[..., None], out, 0.0)

    def channel_stats(self, c: int) -> np.ndarray:
        """Channel c's (..., 16) slice of `all_channel_stats`."""
        return self.all_channel_stats()[..., c, :]


def edge_feature_vector(acc: FeatureAccumulator, size_a, size_b) -> np.ndarray:
    """The 51-value boundary descriptor of a segment pair, or (E, 51) for
    a table of E boundaries and their (E,) segment sizes."""
    stats = acc.all_channel_stats()
    counts = np.stack([acc.total_count, np.minimum(size_a, size_b),
                       np.maximum(size_a, size_b)], axis=-1)
    return np.concatenate([stats.reshape(stats.shape[:-2] + (3 * 16,)), np.log(counts)], axis=-1)


class MeanAffinity:
    """Scores a boundary by its mean affinity pooled over all channels."""

    reads = ("count", "s1")

    def score(self, acc: FeatureAccumulator, size_a, size_b) -> np.ndarray:
        return acc.pooled_mean()

    @staticmethod
    def scalar(n: int, s1z: float, s1y: float, s1x: float) -> float:
        """`score` of one boundary from its total count and per-channel s1
        as Python numbers: `pooled_mean`'s operations in its order, so the
        same float."""
        return (s1z + s1y + s1x) / max(n, 1)

    def rows(self, rag: Rag):
        """The mean scorer's row store: each row as Python numbers (total
        count, per-channel s1); a merge folds each dropped row into its pair
        and re-scores only those rows, with `scalar`."""
        score = self.score(rag.table, None, None).tolist()
        n, (sz, sy, sx) = rag.table.total_count.tolist(), rag.table.s1.T.tolist()

        def merge(a: int, b: int) -> dict[int, int]:
            touched, pairs = rag.relink(a, b)
            for kept, row in pairs:
                n[kept] += n[row]
                sz[kept] += sz[row]
                sy[kept] += sy[row]
                sx[kept] += sx[row]
                score[kept] = self.scalar(n[kept], sz[kept], sy[kept], sx[kept])
            return touched

        return score, merge


class Logistic:
    """Linear-logistic boundary scorer over the 51-value feature vector.

    Weights act on raw (unstandardized) features; training-time feature
    standardization is folded into the stored weights and bias.

    Model file: one version byte, then 51 weights and the bias as f64 LE.
    """

    reads = ALL_STATS

    def __init__(self, weights: np.ndarray, bias: float):
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (N_FEATURES,):
            raise ValueError(f"expected {N_FEATURES} weights, got shape {w.shape}")
        if not (np.isfinite(w).all() and np.isfinite(as_real(bias))):
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
        present = set(label_sizes(base.data)[0].tolist())
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
    same graph as {(lo, hi): row}.  `lo` and `hi` hold each row's smaller
    and larger label as built: merges leave them, like dropped table rows,
    so they list every boundary only while the RAG is fresh (`n_edges ==
    len(lo)`, as `build_rag` returns it); `train_scorer` reads a fresh RAG
    through them, its table and `nodes`, and never merges it.  `relink` and
    `merge_nodes` mutate the graph in place exactly the way the
    agglomeration row stores (a scorer's `rows(rag)`, else `_table_rows`)
    do, so recomputation tests can drive them directly.  Both hand back the
    (kept, dropped) row pairs of the merge, which a row store folds.
    """

    labels: LabelVolume
    nodes: dict[int, int]
    adj: dict[int, dict[int, int]]
    table: FeatureAccumulator
    lo: list[int]
    hi: list[int]

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

    def edge_acc(self, a: int, b: int) -> FeatureAccumulator:
        """The statistics of one boundary: views into its table row."""
        row = self.adj.get(a, {}).get(b)
        if row is None:
            raise MissingEdge(f"no boundary between labels {a} and {b}")
        return self.table[row]

    def relink(self, a: int, b: int):
        """Merge neighbour b's node into a's in the graph alone; a may be the
        larger label.  The table is left as it was.

        The shared boundary's row is deleted.  Each other boundary row of b
        is dropped where a has a row to the same neighbour, or else relinked
        to a.  Returns ({neighbour x: row} of the boundaries of a this
        changed, [(row of a, dropped row of b) for each neighbour both
        border]).
        """
        self.nodes[a] += self.nodes.pop(b)
        mine, theirs = self.adj[a], self.adj.pop(b)
        del mine[b], theirs[a]
        touched, pairs = {}, []
        for x, row in theirs.items():
            other = self.adj[x]
            del other[b]
            if x in mine:
                touched[x] = kept = mine[x]
                pairs.append((kept, row))
            else:
                touched[x] = mine[x] = other[a] = row
        return touched, pairs

    def merge_nodes(self, a: int, b: int):
        """Merge neighbour b's node into a's: `relink`, then add each dropped
        row of b into the row of a it pairs with.  Returns what `relink` does.
        """
        touched, pairs = self.relink(a, b)
        if pairs:
            self.table.merge_rows(*np.array(pairs).T)
        return touched, pairs


def build_rag(labels: LabelVolume, aff: AffinityVolume, stats=ALL_STATS) -> Rag:
    """Node sizes and boundary `stats` of every adjacent label pair.  The
    boundary edges come channel-major in slot order, so one stable sort by
    (lo, hi) leaves them in (boundary, channel) runs, each in slot order:
    one sort of packed (lo, hi, edge index) uint64 keys, or a lexsort where
    the ids are too wide to pack.  All runs are folded into the rows of one
    table at once, numbered in (lo, hi) order, and each row's ends as built
    are kept as `Rag.lo` and `Rag.hi`.  Raises ValueError unless the
    affinities are finite and in [0, 1]."""
    require_same_shape(labels, aff)
    require_affinity_range(aff.data)
    lab = labels.data
    ids, sizes = label_sizes(lab)

    lo, hi, ch, val = boundary_edges(lab, aff.data)
    span, bits = int(hi.max(initial=0)) + 1, len(lo).bit_length()
    if span * span << bits <= 2**64:
        keys = (lo * np.uint64(span) + hi) << np.uint64(bits)
        keys |= np.arange(len(lo), dtype=np.uint64)
        keys.sort()
        keys &= np.uint64(2**bits - 1)
        order = keys.view(np.int64)
    else:  # ids too wide to pack
        order = np.lexsort((hi, lo))
    lo, hi, ch, val = lo[order], hi[order], ch[order], val[order]

    new_pair = np.ones(len(lo), dtype=bool)
    new_pair[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    new_run = new_pair.copy()
    new_run[1:] |= ch[1:] != ch[:-1]
    starts = np.flatnonzero(new_run)
    table = FeatureAccumulator.table(np.count_nonzero(new_pair), stats)
    table._push_runs(((np.cumsum(new_pair) - 1)[starts], ch[starts]), val, starts)

    # pairs come sorted by (lo, hi), so each label's neighbours go in ascending
    lo, hi = lo[new_pair].tolist(), hi[new_pair].tolist()
    adj = {l: {} for l in ids.tolist()}
    for row, (a, b) in enumerate(zip(lo, hi)):
        adj[a][b] = adj[b][a] = row
    return Rag(labels, dict(zip(ids.tolist(), sizes.tolist())), adj, table, lo, hi)


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
    absorbed -> survivor links followed to their roots by `jump`.  Each prefix
    ends where the scores' running minimum drops below theta and is linked in
    one slice, as no merge list absorbs a label twice."""
    ends = np.array([m[:2] for m in merges], dtype=np.uint64).reshape(-1, 2)
    names, idx = label_index(np.concatenate([ids, ends[:, 0], ends[:, 1]]))
    start, survivor, absorbed = np.split(idx, [len(ids), len(ids) + len(ends)])
    parent = np.arange(len(names))
    floor = np.minimum.accumulate(np.array([m[2] for m in merges], dtype=np.float64))
    for theta in thetas:
        k = np.count_nonzero(floor >= theta)
        parent[absorbed[:k]] = survivor[:k]
        yield names[jump(parent)[start]]


def _replay(labels: LabelVolume, merges, theta: float) -> np.ndarray:
    """The array of `labels` after the longest prefix of `merges` scoring >= theta."""
    ids, idx = label_index(labels.data)
    return next(threshold_lookups(merges, ids, [theta]))[idx]


def check_theta(theta: float) -> None:
    """Raise ValueError unless `theta` is a score threshold in [0, 1]; NaN is not."""
    if not 0.0 <= as_real(theta) <= 1.0:
        raise ValueError(f"theta must be in [0, 1], got {theta}")


def _table_rows(scorer, rag: Rag):
    """The row store of a scorer without `rows`, over a fresh RAG's table: the
    scorer may read sizes, so a merge re-scores every boundary of the survivor."""
    sizes = (np.array([rag.nodes[l] for l in ends], np.int64) for ends in (rag.lo, rag.hi))
    score = scorer.score(rag.table, *sizes).tolist()

    def merge(a: int, b: int) -> dict[int, int]:
        rag.merge_nodes(a, b)
        touched = dict(sorted(rag.adj[a].items()))  # one fixed batch order
        rows = np.fromiter(touched.values(), np.intp, len(touched))
        size = np.fromiter(map(rag.nodes.get, touched), np.int64, len(touched))
        # sizes in each boundary's (lo, hi) order
        below = np.fromiter(touched, np.uint64, len(touched)) < a
        sizes = np.where(below, size, rag.nodes[a]), np.where(below, rag.nodes[a], size)
        for row, sc in zip(touched.values(), scorer.score(rag.table[rows], *sizes).tolist()):
            score[row] = sc
        return touched

    return score, merge


def _greedy_merges(labels: LabelVolume, aff: AffinityVolume, scorer, theta: float):
    """`agglomerate`'s merges, on a RAG that is freed when they are done."""
    rag = build_rag(labels, aff, getattr(scorer, "reads", ALL_STATS))
    score, merge = scorer.rows(rag) if hasattr(scorer, "rows") else _table_rows(scorer, rag)
    adj, lo, hi = rag.adj, rag.lo, rag.hi
    neg = -np.array(score, dtype=np.float64)
    order = np.argsort(neg, kind="stable")  # rows go in (lo, hi) order, so ties keep it
    order = order[neg[order] <= -theta]
    rows = order.tolist()
    # the run, an entry made as it is reached, from the label ints the RAG holds
    run = zip(neg[order].tolist(), map(lo.__getitem__, rows), map(hi.__getitem__, rows), rows)
    first = next(run, None)

    merges, heap = [], []
    limit = live = len(score)  # live: the boundaries left in the graph
    while live and (first or heap):
        if first and not (heap and heap[0] < first):
            neg, a, b, row = first
            first = next(run, None)
        else:
            neg, a, b, row = heapq.heappop(heap)
        if score[row] != -neg or b not in adj.get(a, ()):
            continue
        if -neg < theta:
            break
        merges.append((a, b, -neg))
        live -= len(adj[a]) + len(adj[b]) - 1  # a's and b's rows, their shared one once
        for x, row in merge(a, b).items():
            heapq.heappush(heap, (-score[row], a, x, row) if a < x else (-score[row], x, a, row))
        live += len(adj[a])
        if len(heap) > limit:  # doubled since the last rebuild
            heap = list({e for e in heap if score[e[3]] == -e[0] and e[2] in adj.get(e[1], ())})
            heapq.heapify(heap)
            limit = 2 * len(heap)
    return merges


def agglomerate(labels: LabelVolume, aff: AffinityVolume, scorer,
                theta: float) -> tuple[LabelVolume, MergeTree]:
    """Greedy best-first agglomeration down to score threshold `theta`.

    Run with theta=0 to record the full dendrogram.  Output labels keep the
    surviving input ids, so replaying the returned tree over the input
    reproduces the output exactly.

    The RAG holds the statistics the scorer `reads` (all if it declares
    none).  An entry (-score, a, b, row) is live while b is a's neighbour
    and `score` is still its row's: a live boundary keeps its row, and
    every score its row store writes is pushed, so a live entry is its
    row's first score or latest push, or a twin of it, dead once its merge
    removes b.  A kept score is the score a re-scoring would give, so the
    pop order is the same as re-scoring every boundary.  The first scores
    come as one run, sorted by entry (rows are numbered in (lo, hi) order,
    so a stable sort by -score is enough), that leaves out what scores
    below `theta`: such an entry could only be skipped or end the loop.
    Each step pops the smaller of the run's next entry and the heap's top,
    so the order is that of one heap holding both.  A heap that has grown
    past twice its size at the last rebuild (at first, the table's row count)
    is rebuilt from one copy of each live entry (a twin pops dead).  The
    loop counts the boundaries left in the graph from the degrees of each
    merge's two ends, before and after it, and stops when none is left, so
    it pops no stale entry after the last merge.  The RAG is freed before
    the replay."""
    check_theta(theta)
    merges = _greedy_merges(labels, aff, scorer, theta)
    return LabelVolume._adopt(_replay(labels, merges, theta)), MergeTree(merges=merges, base=labels)


def apply_threshold(tree: MergeTree, base: LabelVolume, theta: float) -> LabelVolume:
    """Replay the longest prefix of recorded merges whose scores are all >= theta.

    That prefix is exactly where `agglomerate` run at `theta` stops, so the
    replay equals a fresh run for every scorer, monotone or not.
    """
    check_theta(theta)
    check_base(tree, base)
    return LabelVolume._adopt(_replay(base, tree.merges, theta))


def check_base(tree: MergeTree, base: LabelVolume) -> None:
    """Raise TreeBaseMismatch unless `tree` was built from the labeling `base`."""
    if tree.base.data.shape != base.data.shape or not np.array_equal(tree.base.data, base.data):
        raise TreeBaseMismatch("merge tree was built from a different base labeling")


def _fit_logistic(X: np.ndarray, y: np.ndarray) -> Logistic:
    """Full-batch gradient descent on mean cross-entropy over standardized
    features, then fold the standardization into the returned weights."""
    mu, sd = X.mean(axis=0), X.std(axis=0)
    sd = np.where(sd < 1e-12, 1.0, sd)
    Xs = X - mu
    Xs /= sd  # in place: one copy of X beside it, not two
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


def _dominant(seg: np.ndarray, gt: np.ndarray, counts: np.ndarray):
    """(segments, dominant gt labels, purities) of an overlap table of
    (seg, gt, count) rows sorted by (seg, gt): plurality, ties to the
    smaller gt label.  A segment with no row gets no entry."""
    ids, start = np.unique(seg, return_index=True)  # each segment's first row
    # ordered by seg first, so each segment's rows keep their place and
    # the plurality row leads them
    lead = np.lexsort((gt, -counts, seg))[start]
    return ids, gt[lead], counts[lead] / np.add.reduceat(counts, start)


def train_scorer(rag: Rag, gt: LabelVolume) -> Logistic:
    """Fit a logistic boundary scorer by simulated agglomeration against GT.

    A boundary is a merge (positive) example iff both segments' dominant GT
    labels agree and both segments are at least 50% pure.  The simulation
    runs in rounds over arrays and leaves `rag` as it was.  Its nodes are
    the ranks of ``[0, *sorted(rag.nodes)]``, its boundaries the rows of a
    table (at first `rag.table` itself) with their (lo, hi) ranks, and each
    node has a voxel count.  Each round takes every row's features and
    decision in one call each, then merges the positive rows' components
    (`unionfind.components`: the smallest rank, so the smallest label,
    survives), sums the sizes by bincount, drops the rows inside one
    component and folds the others, grouped by their survivors' (lo, hi)
    in one stable sort, into one row each (`FeatureAccumulator.fold`),
    until a round has no positive.  Purity comes from the fragment x GT
    overlap table, counted once, each fragment's segment being the rounds'
    roots composed.  Raises ValueError for a RAG that has been merged, whose
    rows are not its graph, and DegenerateTraining when the collected
    decisions are all one class.
    """
    require_same_shape(rag.labels, gt)
    if rag.n_edges != len(rag.lo):
        raise ValueError("train_scorer needs a fresh RAG; this one has been merged")
    names, size = np.array([(0, 0), *sorted(rag.nodes.items())], dtype=np.uint64).T
    n, size = len(names), size.astype(np.int64)
    lo, hi = (np.searchsorted(names, np.array(ends, dtype=np.uint64)) for ends in (rag.lo, rag.hi))
    seg, gt_ids, counts = overlap_counts(rag.labels.data, gt.data)
    frag, owner = np.searchsorted(names, seg), np.arange(n)

    table, rounds = rag.table, []
    while True:
        ids, dom, purity = _dominant(*cooccurrence(owner[frag], gt_ids, counts))
        pure = np.zeros(n, dom.dtype)  # each node's dominant gt label, 0 if impure
        pure[ids[purity >= 0.5]] = dom[purity >= 0.5]
        positive = (pure[lo] != 0) & (pure[lo] == pure[hi])
        rounds.append((edge_feature_vector(table, size[lo], size[hi]), positive))
        if not positive.any():
            break
        root = components(n, lo[positive], hi[positive]).astype(np.int64)
        owner, size = root[owner], np.bincount(root, size, n).astype(np.int64)
        a, b = root[lo], root[hi]
        key = np.minimum(a, b) * n + np.maximum(a, b)
        rows = np.flatnonzero(a != b)  # the rows between two segments
        rows = rows[np.argsort(key[rows], kind="stable")]
        starts = np.flatnonzero(np.diff(key[rows], prepend=-1))
        table = table.fold(rows, starts)
        lo, hi = np.divmod(key[rows[starts]], n)

    X, y = map(np.concatenate, zip(*rounds))
    del rounds  # before the fit's standardized copy of X
    if y.all() or not y.any():  # all one class, or none at all
        raise DegenerateTraining("boundary decisions contain a single class only")
    y = y.astype(np.float64)
    scorer = _fit_logistic(X, y)
    # fit artifacts, kept for inspection of the decision set
    scorer.training_features = X
    scorer.training_decisions = y
    return scorer
