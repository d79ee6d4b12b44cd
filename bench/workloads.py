"""The benchmark's three workloads: inputs, one timed pass, output checks.

segment  One 32x128x128 volume (the "M" volume of ROADMAP.md): watershed,
         mean-affinity agglomeration to the full merge tree, replay at
         theta 0.5, split-VI and a 21-threshold VI curve.  `agglo`,
         `metrics` and `zwatershed` do nearly all the work on one working
         set larger than L2; `malis` and `stitch` stay idle.
train    A MALIS gradient on each of 50 jittered 8x48x48 patches, then a
         logistic scorer trained on one 24x96x96 volume and applied to a
         held-out one.  The only workload where `malis` runs, and where
         `agglo` scores feature vectors instead of pooled means.
blocks   A 32x128x128 volume cut into 64 halo-extended blocks, each
         segmented on its own and written, then stitched.  The same
         `zwatershed`/`agglo` code as segment on many L2-sized inputs, so
         fixed per-call cost shows; the only workload where `stitch` runs.

Inputs come from the run seed only and are written as VOLB files by
`make_inputs`, which runs in a separate set-up process.  A pass reads
them back and makes the affseg calls a user of the CLI would make.  Every
call goes through `Pass.call`, which counts it as one operation and wraps
it in a span when tracing is on.  Checks, digests, counts and the extra
calls that time single layers run inside `Pass.untimed()`, so they add
nothing to the pass's wall time.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import speed
from affseg import (
    AffinityVolume,
    MeanAffinity,
    NoiseParams,
    Shape3,
    SynthParams,
    WatershedParams,
    agglomerate,
    apply_threshold,
    build_rag,
    build_stitch_graph,
    malis_edge_counts,
    malis_gradient,
    partition_blocks,
    read_volume,
    split_vi,
    stitch,
    synth_affinities,
    synth_labels,
    train_scorer,
    vi_curve,
    write_volume,
    zwatershed,
)
from affseg.stitch import read_manifest, write_manifest

ANISOTROPY = 3.0
SIGMA = 0.2
PATCH_JITTER = 0.3
THETA = 0.5
THETAS = [round(1.0 - 0.05 * i, 2) for i in range(21)]
WS_FULL = WatershedParams(t_high=0.99, t_low=0.3, size_min=0, t_merge=0.3)
WS_TRAIN = WatershedParams(t_high=0.99, t_low=0.3, size_min=10, t_merge=0.3)
STITCH_RATIO = 0.5
STITCH_MIN_VOXELS = 2
# A quality floor, not a target: the final segmentations measure far
# below it on every seed tried, and an output that merges everything
# reads several bits.
VI_CEILING_BITS = 0.25

SIZES = {
    "full": {
        "segment": {"shape": (32, 128, 128), "seeds": 400},
        "train": {"patches": 50, "patch_shape": (8, 48, 48), "patch_seeds": 12,
                  "shape": (24, 96, 96), "seeds": 170},
        "blocks": {"shape": (32, 128, 128), "seeds": 400,
                   "block": (8, 32, 32), "halo": (2, 4, 4)},
    },
    "tiny": {
        "segment": {"shape": (8, 32, 32), "seeds": 12},
        "train": {"patches": 3, "patch_shape": (4, 16, 16), "patch_seeds": 4,
                  "shape": (8, 32, 32), "seeds": 12},
        "blocks": {"shape": (8, 32, 32), "seeds": 12,
                   "block": (4, 16, 16), "halo": (1, 2, 2)},
    },
}


def _sub_seed(seed: int, k: int) -> int:
    """Generator seed of input k (labels; its noise uses k + 500)."""
    return seed * 1000 + k


# ---------------------------------------------------------------- set-up

def _synth(out: Path, stem: str, shape, n_seeds: int, rng_seed: int,
           jitter: float, timers: Counter) -> int:
    """Generate one GT + affinity pair, write both, return the GT segment count."""
    t0 = time.perf_counter()
    gt = synth_labels(Shape3(*shape), SynthParams(n_seeds, ANISOTROPY, rng_seed))
    t1 = time.perf_counter()
    aff = synth_affinities(gt, NoiseParams(SIGMA, jitter, rng_seed + 500))
    t2 = time.perf_counter()
    timers["synthdata.labels_s"] += t1 - t0
    timers["synthdata.affinities_s"] += t2 - t1
    write_volume(gt, out / f"{stem}_gt.volb")
    write_volume(aff, out / f"{stem}_aff.volb")
    return len(np.unique(gt.data))


def make_inputs(workload: str, seed: int, size: str, out: Path):
    """Write the workload's inputs to `out`; return (timers, properties)."""
    cfg = SIZES[size][workload]
    timers: Counter = Counter()
    props: dict = {}
    if workload == "train":
        segs = [_synth(out, f"patch{i:03d}", cfg["patch_shape"], cfg["patch_seeds"],
                       _sub_seed(seed, 100 + i), PATCH_JITTER, timers)
                for i in range(cfg["patches"])]
        props["patches"] = cfg["patches"]
        props["patch_voxels"] = math.prod(cfg["patch_shape"])
        props["patch_gt_segments"] = sum(segs)
        for k, stem in ((1, "train"), (2, "heldout")):
            props[f"{stem}_gt_segments"] = _synth(out, stem, cfg["shape"], cfg["seeds"],
                                                  _sub_seed(seed, k), 0.0, timers)
        props["voxels"] = math.prod(cfg["shape"])
    else:
        k = 1 if workload == "segment" else 2  # blocks gets a volume of its own
        props["gt_segments"] = _synth(out, "volume", cfg["shape"], cfg["seeds"],
                                      _sub_seed(seed, k), 0.0, timers)
        props["voxels"] = math.prod(cfg["shape"])
    return timers, props


# ------------------------------------------------------------------ pass

class Pass:
    """One pass over a workload: its operations, item times and checks."""

    def __init__(self, tracer, out: Path):
        self.tracer = tracer
        self.traced = tracer.enabled
        self.out = out
        self.ops = 0
        self.items: list[float] = []
        self.checks: list[tuple[str, bool]] = []
        self.counts: Counter = Counter()
        self.props: dict = {}
        self.excluded = 0.0
        self.kernel_s: list[float] = []
        self._last_sample = time.perf_counter()
        self._read: list[Path] = []
        self._written: list[Path] = []
        self._digest = hashlib.sha256()

    def call(self, name: str, fn, *args):
        self.ops += 1
        with self.tracer.span(name):
            result = fn(*args)
        self.sample_speed()
        return result

    def sample_speed(self, force: bool = False) -> None:
        """Time the speed kernel once per SAMPLE_EVERY_S elapsed since the
        last samples, so that the samples weigh the pass's time evenly."""
        n = max(int((time.perf_counter() - self._last_sample) / speed.SAMPLE_EVERY_S),
                int(force))
        if n:
            with self.untimed():
                self.kernel_s.extend(speed.sample() for _ in range(n))
            self._last_sample = time.perf_counter()

    def read(self, path: Path):
        self._read.append(path)
        return self.call("volume.read_volume", read_volume, path)

    def write(self, vol, path: Path) -> None:
        self._written.append(path)
        self.call("volume.write_volume", write_volume, vol, path)

    @contextmanager
    def item(self):
        """Time one item of work, leaving out untimed work done inside it."""
        t0, excluded = time.perf_counter(), self.excluded
        yield
        self.items.append(time.perf_counter() - t0 - (self.excluded - excluded))

    @contextmanager
    def untimed(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.excluded += time.perf_counter() - t0

    def check(self, name: str, ok) -> None:
        self.checks.append((name, bool(ok)))

    def probe(self, key: str, fn, *args):
        """An extra call, outside every span, that times one layer alone."""
        t0 = time.perf_counter()
        result = fn(*args)
        self.counts[key] += time.perf_counter() - t0
        return result

    def digest(self, *parts) -> None:
        for part in parts:
            self._digest.update(part.tobytes() if isinstance(part, np.ndarray)
                                else repr(part).encode())

    def finish(self) -> None:
        """Byte counts of the files the pass read and wrote."""
        self.counts["volume.bytes_read"] = sum(os.path.getsize(p) for p in self._read)
        self.counts["volume.bytes_written"] = sum(os.path.getsize(p) for p in self._written)

    @property
    def digest_hex(self) -> str:
        return self._digest.hexdigest()


def _touching_pairs(lab: np.ndarray) -> int:
    """Distinct pairs of different nonzero labels that share a face: the RAG
    edge count, found without building the RAG."""
    base = int(lab.max()) + 1
    keys = []
    for axis in range(3):
        a = np.moveaxis(lab, axis, 0)
        u, v = a[:-1].ravel(), a[1:].ravel()
        m = (u != v) & (u != 0) & (v != 0)
        keys.append(np.minimum(u[m], v[m]) * base + np.maximum(u[m], v[m]))
    return len(np.unique(np.concatenate(keys)))


def _check_watershed(p: Pass, ws, stats, where: str) -> None:
    labels = np.unique(ws.data)
    nz = labels[labels != 0]
    k = stats.n_segments
    p.check(f"{where}: watershed labels are dense 1..K",
            len(nz) == k and (k == 0 or (nz[0] == 1 and nz[-1] == k)))
    p.check(f"{where}: basin sizes add up to the voxel count", stats.total == ws.data.size)
    p.counts["zwatershed.fragments"] += k
    p.counts["zwatershed.background_voxels"] += stats.background


def _check_agglomeration(p: Pass, ws, aff, stats, seg, tree, where: str, mean: bool) -> None:
    final = np.count_nonzero(np.unique(seg.data))
    p.check(f"{where}: merges = fragments - final segments",
            len(tree.merges) == stats.n_segments - final)
    if mean:
        scores = np.array([s for _, _, s in tree.merges])
        p.check(f"{where}: mean-affinity merge scores never increase",
                bool(np.all(np.diff(scores) <= 0.0)))
    edges = _touching_pairs(ws.data)
    p.counts["agglo.merges"] += len(tree.merges)
    p.counts["agglo.rag_nodes"] += stats.n_segments
    p.counts["agglo.rag_edges"] += edges
    if p.traced:
        rag = p.probe("agglo.build_rag_s", build_rag, ws, aff)
        p.check(f"{where}: RAG edges = touching label pairs", rag.n_edges == edges)


def _check_quality(p: Pass, score) -> None:
    p.props["vi_total_bits"] = score.total
    p.check(f"split-VI of the final segmentation <= {VI_CEILING_BITS} bits",
            score.total <= VI_CEILING_BITS)


def _edge_count(shape) -> int:
    """In-bounds lattice edges of a (z, y, x) volume."""
    return sum(math.prod(d - (axis == c) for axis, d in enumerate(shape)) for c in range(3))


def _check_malis(p: Pass, aff, gt, res) -> None:
    """Pair counts and loss of one patch against their closed forms."""
    counts = malis_edge_counts(aff, gt)
    sizes = np.unique(gt.data[gt.data != 0], return_counts=True)[1].tolist()
    n = sum(sizes)
    p.check("patch 0: positive pairs = sum over labels of C(n_l, 2)",
            int(counts.pos.sum()) == sum(s * (s - 1) // 2 for s in sizes))
    p.check("patch 0: positive + negative pairs = C(N_labeled, 2)",
            counts.total_pairs == n * (n - 1) // 2)
    a = aff.data.astype(np.float64)
    pos = counts.pos.astype(np.float64)
    neg = counts.neg.astype(np.float64)
    loss = float(np.sum(pos * (a - 1.0) ** 2) + np.sum(neg * a ** 2))
    grad = 2.0 * pos * (a - 1.0) + 2.0 * neg * a
    p.check("patch 0: loss matches the closed form", math.isclose(res.loss, loss, rel_tol=1e-9))
    p.check("patch 0: gradient matches the closed form",
            np.allclose(res.gradient.data, grad, rtol=1e-6, atol=1e-6))


def segment_pass(p: Pass, inp: Path, cfg: dict) -> None:
    aff = p.read(inp / "volume_aff.volb")
    gt = p.read(inp / "volume_gt.volb")
    ws, stats = p.call("zwatershed.zwatershed", zwatershed, aff, WS_FULL)
    p.write(ws, p.out / "watershed.volb")
    full, tree = p.call("agglo.agglomerate", agglomerate, ws, aff, MeanAffinity(), 0.0)
    p.call("agglo.MergeTree.write", tree.write, p.out / "merge_tree.txt")
    seg = p.call("agglo.apply_threshold", apply_threshold, tree, ws, THETA)
    p.write(seg, p.out / "segmentation.volb")
    score = p.call("metrics.split_vi", split_vi, seg, gt)
    curve = p.call("metrics.vi_curve", vi_curve, tree, ws, gt, THETAS)
    with p.untimed():
        _check_watershed(p, ws, stats, "volume")
        _check_agglomeration(p, ws, aff, stats, full, tree, "volume", mean=True)
        p.check("vi_curve at theta 0.5 equals split_vi of the theta 0.5 replay",
                dict(curve).get(THETA) == score)
        _check_quality(p, score)
        p.counts["metrics.curve_points"] += len(curve)
        p.digest(ws.data, tree.merges, seg.data, score, curve)


def train_pass(p: Pass, inp: Path, cfg: dict) -> None:
    for i in range(cfg["patches"]):
        gt = p.read(inp / f"patch{i:03d}_gt.volb")
        aff = p.read(inp / f"patch{i:03d}_aff.volb")
        with p.item():
            res = p.call("malis.malis_gradient", malis_gradient, aff, gt)
        with p.untimed():
            grad = res.gradient.data
            p.check(f"patch {i}: loss and gradient are finite",
                    math.isfinite(res.loss) and np.isfinite(grad).all())
            if i == 0:
                _check_malis(p, aff, gt, res)
            n = int(np.count_nonzero(gt.data))
            p.counts["malis.labeled_pairs"] += n * (n - 1) // 2
            p.counts["malis.edges"] += _edge_count(gt.data.shape)
            p.counts["malis.forest_edges"] += gt.data.size - 1
            p.counts["malis.grad_nonzero_edges"] += int(np.count_nonzero(grad))
            p.digest(grad, res.loss)
    aff = p.read(inp / "train_aff.volb")
    gt = p.read(inp / "train_gt.volb")
    ws, stats = p.call("zwatershed.zwatershed", zwatershed, aff, WS_TRAIN)
    rag = p.call("agglo.build_rag", build_rag, ws, aff)
    scorer = p.call("agglo.train_scorer", train_scorer, rag, gt)
    aff_h = p.read(inp / "heldout_aff.volb")
    gt_h = p.read(inp / "heldout_gt.volb")
    ws_h, stats_h = p.call("zwatershed.zwatershed", zwatershed, aff_h, WS_TRAIN)
    seg, tree = p.call("agglo.agglomerate", agglomerate, ws_h, aff_h, scorer, THETA)
    score = p.call("metrics.split_vi", split_vi, seg, gt_h)
    with p.untimed():
        _check_watershed(p, ws, stats, "training volume")
        _check_watershed(p, ws_h, stats_h, "held-out volume")
        _check_agglomeration(p, ws_h, aff_h, stats_h, seg, tree, "held-out volume", mean=False)
        _check_quality(p, score)
        p.counts["agglo.training_rows"] += len(scorer.training_decisions)
        p.props.update(training_rag_nodes=rag.n_nodes, training_rag_edges=rag.n_edges)
        p.digest(scorer.to_bytes(), seg.data, tree.merges, score)


def blocks_pass(p: Pass, inp: Path, cfg: dict) -> None:
    aff = p.read(inp / "volume_aff.volb")
    gt = p.read(inp / "volume_gt.volb")
    specs = p.call("stitch.partition_blocks", partition_blocks, aff.shape3,
                   cfg["block"], cfg["halo"])
    paths = []
    for i, spec in enumerate(specs):
        path = p.out / f"block_{i:04d}.volb"
        with p.item(), p.tracer.span("bench.block"):
            region = (slice(None),) + tuple(slice(a, b) for a, b in spec.halo)
            sub = p.call("volume.AffinityVolume", AffinityVolume, aff.data[region])
            ws, stats = p.call("zwatershed.zwatershed", zwatershed, sub, WS_FULL)
            seg, tree = p.call("agglo.agglomerate", agglomerate, ws, sub, MeanAffinity(), THETA)
            p.write(seg, path)
        paths.append(str(path))
        with p.untimed():
            _check_watershed(p, ws, stats, f"block {i}")
            _check_agglomeration(p, ws, sub, stats, seg, tree, f"block {i}", mean=True)
    manifest = p.out / "manifest.txt"
    p.call("stitch.write_manifest", write_manifest, specs, paths, manifest)
    specs, paths = p.call("stitch.read_manifest", read_manifest, manifest)
    labelings = [p.read(Path(path)) for path in paths]
    merged = p.call("stitch.stitch", stitch, specs, labelings, STITCH_RATIO, STITCH_MIN_VOXELS)
    score = p.call("metrics.split_vi", split_vi, merged, gt)
    with p.untimed():
        lost = 0
        for spec, lab in zip(specs, labelings):
            core = merged.data[tuple(slice(a, b) for a, b in spec.core)]
            lost += int(np.count_nonzero((lab.data[spec.core_slices_local()] != 0) & (core == 0)))
        p.check("every core voxel labeled in its block is labeled after stitching", lost == 0)
        _check_quality(p, score)
        p.counts["stitch.blocks"] += len(specs)
        p.counts["stitch.halo_voxels"] += sum(math.prod(s.halo_shape) for s in specs)
        p.counts["stitch.volume_voxels"] += merged.data.size
        if p.traced:
            graph = p.probe("stitch.graph_s", build_stitch_graph, specs, labelings)
            p.counts["stitch.graph_edges"] += len(graph.edges)
            p.counts["stitch.edges_merged"] += sum(
                1 for ov, ca, cb in graph.edges.values()
                if ov >= STITCH_MIN_VOXELS and ov >= STITCH_RATIO * min(ca, cb))
        p.digest(*(lab.data for lab in labelings), merged.data, score)


PASSES = {"segment": segment_pass, "train": train_pass, "blocks": blocks_pass}
