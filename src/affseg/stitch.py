"""Block partitioning and overlap-based stitching of per-block labelings.

A volume too large to segment in one piece is tiled into core regions that
partition it exactly, each extended by a halo so that neighbouring blocks
see the same voxels near their shared faces.  After per-block segmentation
(each block labels its full halo-extended region), segments from different
blocks are matched wherever their halo regions overlap: two local segments
merge when their voxel overlap inside the shared region is at least
`min_voxels` AND at least `min_ratio` times the smaller of the two segments'
voxel counts within that region.  Every (block, nonzero label) is one node
with a dense id, its block's offset plus the label's rank in that block, and
the graph is parallel arrays over those ids.  Each connected component of
the merged pairs becomes one global label, written out from core regions
only; `stitch` rejects cores that overlap or leave a gap, so every output
voxel has exactly one writer.

Manifest files (one line per block) tie specs to labeling files on disk:

    z0 z1 y0 y1 x0 x1  hz0 hz1 hy0 hy1 hx0 hx1  path

with core then halo ranges as inclusive-exclusive intervals, 0 <= h0 <= c0
< c1 <= h1 on each axis.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from affseg.unionfind import components
from affseg.volume import LabelVolume, Shape3, VolumeError, as_real, dense_relabel, label_index


class InvalidPartition(ValueError):
    """Blocks whose ranges, halos or cores cannot form a stitchable partition."""


class CoverageGap(VolumeError):
    """A block spec has no labeling, or the labeling has the wrong shape."""


@dataclass(frozen=True)
class BlockSpec:
    """Core and halo-extended ranges, ((z0, z1), (y0, y1), (x0, x1)) each."""

    core: tuple[tuple[int, int], tuple[int, int], tuple[int, int]]
    halo: tuple[tuple[int, int], tuple[int, int], tuple[int, int]]

    def __post_init__(self):
        for axis, (c0, c1), (h0, h1) in zip("zyx", self.core, self.halo):
            if not 0 <= h0 <= c0 < c1 <= h1:
                raise InvalidPartition(f"axis {axis}: core ({c0}, {c1}) and halo ({h0}, {h1}) "
                                       "break 0 <= h0 <= c0 < c1 <= h1")

    @property
    def halo_shape(self) -> tuple[int, int, int]:
        return tuple(b - a for a, b in self.halo)

    def core_slices_local(self):
        """Core region expressed in the halo-local frame."""
        return tuple(slice(c0 - h0, c1 - h0)
                     for (c0, c1), (h0, _) in zip(self.core, self.halo))


def _as_dims(v, what: str, minimum: int) -> tuple[int, int, int]:
    """Three integer extents, each taken whole: 2.7 is rejected, not truncated."""
    try:
        dims = v.as_tuple() if isinstance(v, Shape3) else tuple(map(operator.index, v))
    except TypeError:
        dims = ()
    if len(dims) != 3 or any(d < minimum for d in dims):
        raise ValueError(f"{what} must be 3 integers >= {minimum}, got {v!r}")
    return dims


def partition_blocks(shape: Shape3, block, halo) -> list[BlockSpec]:
    """Tile `shape` into cores of size `block` (last one truncated), each
    extended by `halo` and clipped to the volume bounds.

    `block` and `halo` are (z, y, x) extents (Shape3 or any 3-sequence);
    halo entries may be 0 on axes that do not split.  Ordering is z-major,
    then y, then x.  Raises InvalidPartition when an axis splits into
    several blocks but has halo 0 there, since such blocks could never be
    matched.
    """
    axes = []  # per axis, the (core, halo) ranges of the blocks along it
    for name, d, b, h in zip("zyx", shape.as_tuple(), _as_dims(block, "block", 1),
                             _as_dims(halo, "halo", 0)):
        if d > b and h < 1:
            raise InvalidPartition(f"axis {name} splits into {-(-d // b)} blocks but has halo 0")
        axes.append([((c0, min(c0 + b, d)), (max(0, c0 - h), min(d, c0 + b + h)))
                     for c0 in range(0, d, b)])
    # z-major; zip turns ((core, halo) along z, y, x) into (core, halo)
    return [BlockSpec(*zip(*ranges)) for ranges in itertools.product(*axes)]


def _overlaps(boxes: np.ndarray):
    """(i, j, lo, hi) for each pair i < j of (B, 3, 2) boxes that share a
    voxel, with the shared box's corners: one array comparison per box."""
    for i in range(len(boxes) - 1):
        lo = np.maximum(boxes[i, :, 0], boxes[i + 1:, :, 0])
        hi = np.minimum(boxes[i, :, 1], boxes[i + 1:, :, 1])
        for k in np.flatnonzero((lo < hi).all(axis=1)):
            yield i, i + 1 + int(k), lo[k], hi[k]


@dataclass(frozen=True)
class StitchGraph:
    """Overlap graph over dense node ids.  Row k of `nodes` (N x 2 uint64)
    is node k's (block, label), labels increasing within a block.  Edge e
    joins nodes a[e] and b[e]; weights[e] is (overlap, count_a, count_b):
    their voxel overlap inside the shared halo region and each node's voxel
    count within it, so overlap never exceeds either count."""

    nodes: np.ndarray
    a: np.ndarray
    b: np.ndarray
    weights: np.ndarray

    @property
    def edges(self) -> dict[tuple[tuple[int, int], tuple[int, int]], tuple[int, int, int]]:
        """{(node_a, node_b): (overlap, count_a, count_b)}, nodes as (block, label)."""
        nodes = list(map(tuple, self.nodes.tolist()))
        return {(nodes[a], nodes[b]): tuple(w)
                for a, b, w in zip(self.a.tolist(), self.b.tolist(), self.weights.tolist())}


def _check_coverage(specs, block_labelings):
    if len(block_labelings) != len(specs):
        raise CoverageGap(f"{len(specs)} specs but {len(block_labelings)} labelings")
    for bi, (spec, lv) in enumerate(zip(specs, block_labelings)):
        if lv is None:
            raise CoverageGap(f"block {bi} has no labeling")
        if lv.data.shape != spec.halo_shape:
            raise CoverageGap(
                f"block {bi} labeling shape {lv.data.shape} != halo {spec.halo_shape}"
            )


def build_stitch_graph(specs: list[BlockSpec],
                       block_labelings: list[LabelVolume]) -> StitchGraph:
    """Count label overlaps over every pair of intersecting halo regions."""
    return _stitch_graph(specs, block_labelings)[0]


def _stitch_graph(specs, block_labelings):
    """The graph, and per block its labeling's `label_index` idx and node
    table: per table entry, 1 + the node id of that label, 0 for background
    and for ids that do not occur."""
    _check_coverage(specs, block_labelings)
    tables = [label_index(lv.data) for lv in block_labelings]
    held = [(np.bincount(idx.ravel(), minlength=len(ids)) != 0) & (ids != 0)
            for ids, idx in tables]  # per table entry, whether it is a label of the block
    offset = np.cumsum([0] + [np.count_nonzero(h) for h in held])
    node_of = [np.where(h, o + np.cumsum(h), 0) for h, o in zip(held, offset)]
    halos = np.array([spec.halo for spec in specs], dtype=np.int64).reshape(-1, 3, 2)
    h0 = halos[:, :, 0]
    rows = [np.empty((0, 5), dtype=np.int64)]  # a, b, overlap, count_a, count_b
    for i, j, lo, hi in _overlaps(halos):
        ti, tj = (tables[k][1][tuple(map(slice, lo - h0[k], hi - h0[k]))] for k in (i, j))
        # each (ti, tj) pair of table indices as one key, below len(ti's table) * len(tj's)
        width = len(tables[j][0])
        key = np.multiply(ti, width, dtype=np.int64)
        key += tj
        key, n = np.unique(key, return_counts=True)
        ia, ib = np.divmod(key, width)
        na, nb = node_of[i][ia], node_of[j][ib]
        # each side's voxels per label in the region, background partners included
        counts = [np.bincount(t, n).astype(np.int64)[t] for t in (ia, ib)]
        rows.append(np.column_stack([na - 1, nb - 1, n, *counts])[(na != 0) & (nb != 0)])
    e = np.concatenate(rows)
    block = np.repeat(np.arange(len(specs), dtype=np.uint64), np.diff(offset))
    labels = [ids[h] for (ids, _), h in zip(tables, held)]
    nodes = np.column_stack([block, np.concatenate([np.empty(0, np.uint64), *labels])])
    return StitchGraph(nodes, e[:, 0], e[:, 1], e[:, 2:]), [idx for _, idx in tables], node_of


def stitch(specs: list[BlockSpec], block_labelings: list[LabelVolume],
           min_ratio: float = 0.5, min_voxels: int = 2) -> LabelVolume:
    """Merge per-block labelings, cores tiling the volume, via halo-overlap matching."""
    if not 0.0 < as_real(min_ratio) <= 1.0:
        raise ValueError(f"min_ratio must be in (0, 1], got {min_ratio}")
    if not as_real(min_voxels) >= 1:
        raise ValueError(f"min_voxels must be positive, got {min_voxels}")
    shape = tiled_shape(specs)
    g, idxs, node_of = _stitch_graph(specs, block_labelings)
    ov, ca, cb = g.weights.T
    accept = (ov >= min_voxels) & (ov >= min_ratio * np.minimum(ca, cb))
    # class of node k at k + 1, as 1 + its class's smallest node id; 0 is background
    cls = np.r_[0, components(len(g.nodes), g.a[accept], g.b[accept]) + 1]

    out = np.zeros(shape, dtype=np.intp)
    walk = []
    for spec, idx, node in zip(specs, idxs, node_of):
        walk.append(cls[node][idx[spec.core_slices_local()]])
        out[tuple(slice(a, b) for a, b in spec.core)] = walk[-1]
    # global labels 1..K in order of first appearance, block by block
    walk = np.concatenate([w.ravel() for w in walk])
    glob = np.zeros(len(g.nodes) + 1, dtype=np.uint64)
    glob[walk] = dense_relabel(walk)
    return LabelVolume._adopt(glob[out])


def tiled_shape(specs) -> tuple[int, int, int]:
    """The shape whose [0, shape) the cores tile, else InvalidPartition;
    needs the specs alone, so a caller can check them before reading blocks."""
    cores = np.array([spec.core for spec in specs], dtype=np.int64).reshape(-1, 3, 2)
    shape = tuple(cores[:, :, 1].max(axis=0, initial=0).tolist())
    for i, j, _, _ in _overlaps(cores):
        raise InvalidPartition(f"cores of blocks {i} and {j} overlap")
    if not specs or np.diff(cores).prod(axis=1).sum() != math.prod(shape):
        raise InvalidPartition(f"the cores of {len(specs)} blocks do not tile {shape}")
    return shape


def write_manifest(specs: list[BlockSpec], paths: list[str], out_path) -> None:
    with open(out_path, "w") as f:
        for spec, p in zip(specs, paths):
            core = " ".join(f"{a} {b}" for a, b in spec.core)
            halo = " ".join(f"{a} {b}" for a, b in spec.halo)
            f.write(f"{core} {halo} {p}\n")


def read_manifest(path) -> tuple[list[BlockSpec], list[str]]:
    specs, paths = [], []
    with open(path) as f:
        for n, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(maxsplit=12)
            try:
                if len(parts) != 13:
                    raise ValueError
                nums = [int(p) for p in parts[:12]]
            except ValueError:
                raise ValueError(f"{path}: line {n}: manifest line needs 12 ints and a path, "
                                 f"got {line!r}") from None
            try:
                specs.append(BlockSpec(core=tuple(zip(nums[0:6:2], nums[1:6:2])),
                                       halo=tuple(zip(nums[6::2], nums[7::2]))))
            except InvalidPartition as e:
                raise InvalidPartition(f"{path}: line {n}: {e}") from None
            paths.append(parts[12])
    return specs, paths
