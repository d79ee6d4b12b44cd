"""Synthetic anisotropic ground truth and noisy affinities.

Ground truth is an anisotropic Voronoi labeling: seeds are dropped by a
seeded RNG and every voxel takes the label of its nearest seed under
d^2 = dx^2 + dy^2 + (anisotropy * dz)^2, so cells span few z sections and
overlap in x/y across sections the way thick-section imaging makes them.
The nearest-seed search is exact but pruned: each z section is cut into
8 x 8 tiles, and a seed is evaluated only on the tiles where the lower
bound of its distance does not exceed the least upper bound any seed has
there (`labels_from_seeds` gives the argument).

Affinities encode the labels (1 within a segment, 0 across) and are then
degraded two ways: per-section jitter shifts whole x/y planes by one voxel
before the z-channel comparison (misalignment between consecutive
sections), and Gaussian noise is added to every edge before clamping back
to [0, 1].

All randomness comes from numpy's PCG64 via ``np.random.default_rng(seed)``.
Draw order is fixed and documented per function so runs are reproducible:
`synth_labels` draws exactly one choice of seed voxels; `synth_affinities`
draws per-section jitter decisions first (ascending z: one uniform, then
axis and sign when triggered), then, when flip_sigma > 0, a single
standard-normal array scaled by flip_sigma (the values
``Generator.normal(0.0, flip_sigma)`` would draw).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from affseg.volume import AffinityVolume, LabelVolume, Shape3, as_real, edge_ends


_TILE = 8  # side of the square x/y tiles `labels_from_seeds` bounds distances on


class TooManySeeds(ValueError):
    """More seeds requested than the volume has voxels."""


@dataclass(frozen=True)
class SynthParams:
    n_seeds: int
    anisotropy: float = 1.0
    rng_seed: int = 0

    def __post_init__(self):
        if not as_real(self.n_seeds) >= 1:
            raise ValueError(f"n_seeds must be positive, got {self.n_seeds}")
        if not 1.0 <= as_real(self.anisotropy) < np.inf:
            raise ValueError(f"anisotropy must be finite and >= 1, got {self.anisotropy}")


@dataclass(frozen=True)
class NoiseParams:
    flip_sigma: float = 0.0
    jitter_prob: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        if not 0.0 <= as_real(self.flip_sigma) < np.inf:
            raise ValueError(f"flip_sigma must be finite and >= 0, got {self.flip_sigma}")
        if not 0.0 <= as_real(self.jitter_prob) <= 1.0:
            raise ValueError(f"jitter_prob must be in [0, 1], got {self.jitter_prob}")


def _tile_sq(c: np.ndarray, n: int, far: bool) -> np.ndarray:
    """Squared distance from each coordinate of the column `c` to the
    nearest (far=False) or farthest (far=True) real coordinate, below `n`,
    of each tile."""
    lo = np.arange(0, n, _TILE)
    hi = np.minimum(lo + _TILE, n) - 1
    d = np.maximum(c - lo, hi - c) if far else np.maximum(np.maximum(lo - c, c - hi), 0)
    return d * d


def _seed_tiles(shape: Shape3, seeds: np.ndarray, anisotropy: float, far: bool):
    """Per seed in index order: its squared plane distance to the nearest
    (far=False) or farthest (far=True) real voxel of each tile, as a
    (tiles_y, tiles_x) int array, and its dz^2 term per section."""
    ys = _tile_sq(seeds[:, 1:2], shape.y, far)
    xs = _tile_sq(seeds[:, 2:3], shape.x, far)
    dz2 = (anisotropy * (np.arange(shape.z) - seeds[:, :1]).astype(np.float64)) ** 2
    for k in range(len(seeds)):
        yield ys[k][:, None] + xs[k], dz2[k]


def labels_from_seeds(shape: Shape3, seeds: np.ndarray, anisotropy: float) -> LabelVolume:
    """Nearest-seed labeling under the anisotropic metric; ties take the
    lowest seed index.  Seed k (0-based row of `seeds`) produces label k+1.

    A seed's d2 at a voxel is fl(plane + dz^2): its integer dx^2 + dy^2 cast
    to float64 plus its dz^2 float.  Each z section is cut into 8 x 8 tiles
    (`_TILE`; the last row and column of tiles may hang over the plane's
    edge).  A first pass folds every seed's fl(farthest^2 + dz^2) into a
    bound U per (section, tile), farthest^2 being the plane distance from
    the seed to the tile's farthest real voxel.  The second pass takes the
    seeds in index order and evaluates each, with a strict-< update, only on
    the tiles where fl(nearest^2 + dz^2) <= U, nearest^2 being the plane
    distance to the tile's nearest real voxel.

    This is exact.  The plane distance is an exact integer and float
    rounding is monotone, so fl(nearest^2 + dz^2) <= d2 <=
    fl(farthest^2 + dz^2) at every voxel of the tile.  The winner's d2 at
    each voxel is therefore <= U, and a seed whose lower bound is > U is
    strictly farther than the winner at every voxel of the tile: it can
    neither win nor tie.  A seed whose lower bound equals U can tie, which
    is why the test is <=."""
    seeds = np.asarray(seeds, dtype=np.int64)
    if seeds.ndim != 2 or seeds.shape[1] != 3:
        raise ValueError(f"seeds must be (k, 3) voxel coordinates, got {seeds.shape}")
    Z, Y, X = shape.as_tuple()
    ty, tx = -(-Y // _TILE), -(-X // _TILE)
    bound = np.full((Z, ty, tx), np.inf)
    for far2, dz2 in _seed_tiles(shape, seeds, anisotropy, far=True):
        np.minimum(bound, far2 + dz2[:, None, None], out=bound)
    # best distance and label per tile, each tile's _TILE x _TILE voxels
    # contiguous; tile t is section t // (ty * tx), row-major within it
    best = np.full((Z * ty * tx, _TILE, _TILE), np.inf)
    label = np.zeros((Z * ty * tx, _TILE, _TILE), dtype=np.uint64)
    rows = np.arange(ty * _TILE).reshape(ty, _TILE)
    cols = np.arange(tx * _TILE).reshape(tx, _TILE)
    near = _seed_tiles(shape, seeds, anisotropy, far=False)
    for k, ((_, sy, sx), (near2, dz2)) in enumerate(zip(seeds.tolist(), near)):
        t = (near2 + dz2[:, None, None] <= bound).ravel().nonzero()[0]
        z, yx = np.divmod(t, ty * tx)
        iy, ix = np.divmod(yx, tx)
        d2 = (((rows - sy) ** 2)[iy][:, :, None]
              + ((cols - sx) ** 2)[ix][:, None, :]).astype(np.float64)
        d2 += dz2[z][:, None, None]
        cur = best.take(t, axis=0)
        closer = d2 < cur
        np.minimum(cur, d2, out=cur)
        best[t] = cur
        del cur, d2
        lab = label.take(t, axis=0)
        np.putmask(lab, closer, k + 1)
        label[t] = lab
        del closer, lab
    del best
    planes = label.reshape(Z, ty, tx, _TILE, _TILE).transpose(0, 1, 3, 2, 4).reshape(
        Z, ty * _TILE, tx * _TILE)
    del label
    return LabelVolume._adopt(planes[:, :Y, :X])


def synth_labels(shape: Shape3, p: SynthParams) -> LabelVolume:
    """Seeded anisotropic-Voronoi ground truth with labels 1..n_seeds."""
    if p.n_seeds > shape.voxels:
        raise TooManySeeds(f"{p.n_seeds} seeds into {shape.voxels} voxels")
    rng = np.random.default_rng(p.rng_seed)
    flat = rng.choice(shape.voxels, size=p.n_seeds, replace=False)
    seeds = np.array([shape.unflatten(int(i)) for i in flat], dtype=np.int64)
    return labels_from_seeds(shape, seeds, p.anisotropy)


def _shift_section(plane: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """Shift one z section in-plane, filling exposed voxels with 0."""
    out = np.zeros_like(plane)
    Y, X = plane.shape
    ys = slice(max(dy, 0), Y + min(dy, 0))
    xs = slice(max(dx, 0), X + min(dx, 0))
    ys_src = slice(max(-dy, 0), Y + min(-dy, 0))
    xs_src = slice(max(-dx, 0), X + min(-dx, 0))
    out[ys, xs] = plane[ys_src, xs_src]
    return out


def affinities_from_labels(labels: LabelVolume,
                           section_shifts: np.ndarray | None = None) -> AffinityVolume:
    """Noiseless affinity encoding of a labeling, with optional jitter.

    x and y affinities are 1.0 where both endpoints share a nonzero label.
    z affinities compare the two sections after applying their (dy, dx)
    shifts from `section_shifts` (Z rows); voxels shifted out of frame
    become label 0 and never match.
    """
    lab = labels.data
    Z = lab.shape[0]
    if section_shifts is None:
        shifted = lab
    else:
        shifts = np.asarray(section_shifts, dtype=np.int64)
        if shifts.shape != (Z, 2):
            raise ValueError(f"section_shifts must have shape ({Z}, 2), got {shifts.shape}")
        shifted = np.stack([
            _shift_section(lab[s], int(shifts[s, 0]), int(shifts[s, 1]))
            for s in range(Z)
        ])
    aff = np.zeros((3,) + lab.shape, dtype=np.float32)
    for c, src in enumerate((shifted, lab, lab)):
        lower, upper = edge_ends(src, c)
        edge_ends(aff[c], c)[0][...] = (lower == upper) & (lower != 0)
    return AffinityVolume._adopt(aff)


def synth_affinities(labels: LabelVolume, n: NoiseParams) -> AffinityVolume:
    """Noisy affinity encoding: jittered z comparison plus clamped Gaussian noise."""
    rng = np.random.default_rng(n.rng_seed)
    Z = labels.data.shape[0]
    shifts = np.zeros((Z, 2), dtype=np.int64)
    for s in range(Z):
        if rng.random() < n.jitter_prob:
            axis = int(rng.integers(0, 2))  # 0 shifts y, 1 shifts x
            sign = 1 if rng.integers(0, 2) else -1
            shifts[s, axis] = sign
    # None, where no section shifts: no shifted copy of every section
    clean = affinities_from_labels(labels, shifts if shifts.any() else None)
    if n.flip_sigma == 0.0:
        return clean
    noisy = rng.standard_normal(size=clean.data.shape)
    noisy *= n.flip_sigma
    noisy += clean.data
    del clean
    np.clip(noisy, 0.0, 1.0, out=noisy)
    aff = noisy.astype(np.float32)
    del noisy  # before the range check of `_adopt`
    return AffinityVolume._adopt(aff)
