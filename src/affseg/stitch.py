"""Block partitioning and overlap-based stitching of per-block labelings.

A volume too large to segment in one piece is tiled into core regions that
partition it exactly, each extended by a halo so that neighbouring blocks
see the same voxels near their shared faces.  After per-block segmentation
(each block labels its full halo-extended region), segments from different
blocks are matched wherever their halo regions overlap: two local segments
merge when their voxel overlap inside the shared region is at least
`min_voxels` AND at least `min_ratio` times the smaller of the two segments'
voxel counts within that region.  Each connected component of the merged
pairs becomes one global label, written out from core regions only, so every
output voxel has exactly one writer.

Manifest files (one line per block) tie specs to labeling files on disk:

    z0 z1 y0 y1 x0 x1  hz0 hz1 hy0 hy1 hx0 hx1  path

with core then halo ranges as inclusive-exclusive intervals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from affseg.unionfind import components
from affseg.volume import LabelVolume, Shape3, cooccurrence, dense_relabel


class InvalidPartition(ValueError):
    """Partition parameters cannot produce overlapping halos."""


class CoverageGap(Exception):
    """A block spec has no labeling, or the labeling has the wrong shape."""


@dataclass(frozen=True)
class BlockSpec:
    """Core and halo-extended ranges, ((z0, z1), (y0, y1), (x0, x1)) each."""

    core: tuple[tuple[int, int], tuple[int, int], tuple[int, int]]
    halo: tuple[tuple[int, int], tuple[int, int], tuple[int, int]]

    @property
    def halo_shape(self) -> tuple[int, int, int]:
        return tuple(b - a for a, b in self.halo)

    @property
    def core_shape(self) -> tuple[int, int, int]:
        return tuple(b - a for a, b in self.core)

    def core_slices_local(self):
        """Core region expressed in the halo-local frame."""
        return tuple(slice(c0 - h0, c1 - h0)
                     for (c0, c1), (h0, _) in zip(self.core, self.halo))


def _as_dims(v, what: str, minimum: int) -> tuple[int, int, int]:
    dims = v.as_tuple() if isinstance(v, Shape3) else tuple(int(d) for d in v)
    if len(dims) != 3 or any(d < minimum for d in dims):
        raise ValueError(f"{what} must be 3 values >= {minimum}, got {v!r}")
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
    dims = shape.as_tuple()
    bdims = _as_dims(block, "block", 1)
    hdims = _as_dims(halo, "halo", 0)
    counts = []
    for axis in range(3):
        n = -(-dims[axis] // bdims[axis])  # ceil division
        if n > 1 and hdims[axis] < 1:
            raise InvalidPartition(
                f"axis {('z', 'y', 'x')[axis]} splits into {n} blocks but has halo 0"
            )
        counts.append(n)
    specs = []
    for iz in range(counts[0]):
        for iy in range(counts[1]):
            for ix in range(counts[2]):
                core = []
                halo_rng = []
                for axis, i in zip(range(3), (iz, iy, ix)):
                    c0 = i * bdims[axis]
                    c1 = min(c0 + bdims[axis], dims[axis])
                    core.append((c0, c1))
                    halo_rng.append((max(0, c0 - hdims[axis]),
                                     min(dims[axis], c1 + hdims[axis])))
                specs.append(BlockSpec(core=tuple(core), halo=tuple(halo_rng)))
    return specs


def _intersect(ra, rb):
    lo = max(ra[0], rb[0])
    hi = min(ra[1], rb[1])
    return (lo, hi) if lo < hi else None


@dataclass(frozen=True)
class StitchGraph:
    """Overlap graph over (block id, local label) nodes.

    `edges` maps node pairs to (overlap, count_a, count_b): the voxel
    overlap inside the shared halo region, and each node's total voxel
    count within that region.  Overlap never exceeds either count.
    """

    nodes: list[tuple[int, int]]
    edges: dict[tuple[tuple[int, int], tuple[int, int]], tuple[int, int, int]]


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
    _check_coverage(specs, block_labelings)
    nodes: list[tuple[int, int]] = []
    for bi, lv in enumerate(block_labelings):
        uniq = np.unique(lv.data)
        nodes.extend((bi, int(l)) for l in uniq[uniq != 0])
    edges: dict = {}
    for i in range(len(specs)):
        for j in range(i + 1, len(specs)):
            boxes = [_intersect(specs[i].halo[a], specs[j].halo[a]) for a in range(3)]
            if any(b is None for b in boxes):
                continue
            vi = _halo_view(block_labelings[i], specs[i], boxes).ravel()
            vj = _halo_view(block_labelings[j], specs[j], boxes).ravel()
            both = (vi != 0) & (vj != 0)
            if not both.any():
                continue
            # per-label voxel counts inside the shared region, each side
            ui, ci = np.unique(vi[vi != 0], return_counts=True)
            uj, cj = np.unique(vj[vj != 0], return_counts=True)
            la, lb, overlaps = cooccurrence(vi[both], vj[both])  # in (la, lb) order
            count_a, count_b = ci[np.searchsorted(ui, la)], cj[np.searchsorted(uj, lb)]
            for a, b, ov, na, nb in zip(la.tolist(), lb.tolist(), overlaps.tolist(),
                                        count_a.tolist(), count_b.tolist()):
                edges[((i, a), (j, b))] = (ov, na, nb)
    return StitchGraph(nodes=nodes, edges=edges)


def stitch(specs: list[BlockSpec], block_labelings: list[LabelVolume],
           min_ratio: float = 0.5, min_voxels: int = 2) -> LabelVolume:
    """Merge per-block labelings into one volume via halo-overlap matching."""
    if not 0.0 < min_ratio <= 1.0:
        raise ValueError(f"min_ratio must be in (0, 1], got {min_ratio}")
    if min_voxels < 1:
        raise ValueError(f"min_voxels must be positive, got {min_voxels}")
    graph = build_stitch_graph(specs, block_labelings)

    node_id = {node: k for k, node in enumerate(graph.nodes)}
    accepted = [(node_id[na], node_id[nb])
                for (na, nb), (ov, ca, cb) in graph.edges.items()
                if ov >= min_voxels and ov >= min_ratio * min(ca, cb)]
    # class of each node, as 1 + its class's smallest node id; 0 is background
    cls = components(len(graph.nodes),
                     *np.array(accepted, dtype=np.int64).reshape(-1, 2).T).astype(np.uint64) + 1

    out = np.zeros(_global_shape(specs), dtype=np.uint64)
    walk = []
    for bi, (spec, lv) in enumerate(zip(specs, block_labelings)):
        local = lv.data[spec.core_slices_local()]
        uniq, first, inv = np.unique(local, return_index=True, return_inverse=True)
        lut = np.array([cls[node_id[(bi, l)]] if l else 0 for l in uniq.tolist()],
                       dtype=np.uint64)
        walk.append(lut[np.argsort(first)])
        out[tuple(slice(a, b) for a, b in spec.core)] = lut[inv].reshape(local.shape)
    # global labels 1..K in order of first appearance, block by block
    walk = np.concatenate(walk)
    glob = np.zeros(len(graph.nodes) + 1, dtype=np.uint64)
    glob[walk] = dense_relabel(walk)
    return LabelVolume(glob[out])


def _halo_view(lv: LabelVolume, spec: BlockSpec, boxes):
    """View of a block's labeling restricted to a global-coordinate box."""
    sl = tuple(slice(lo - h0, hi - h0)
               for (lo, hi), (h0, _) in zip(boxes, spec.halo))
    return lv.data[sl]


def _global_shape(specs) -> tuple[int, int, int]:
    return tuple(max(spec.core[a][1] for spec in specs) for a in range(3))


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
            core = tuple((nums[2 * a], nums[2 * a + 1]) for a in range(3))
            halo = tuple((nums[6 + 2 * a], nums[6 + 2 * a + 1]) for a in range(3))
            specs.append(BlockSpec(core=core, halo=halo))
            paths.append(parts[12])
    return specs, paths
