"""Synthetic anisotropic ground truth and noisy affinities.

Ground truth is an anisotropic Voronoi labeling: seeds are dropped by a
seeded RNG and every voxel takes the label of its nearest seed under
d^2 = dx^2 + dy^2 + (anisotropy * dz)^2, so cells span few z sections and
overlap in x/y across sections the way thick-section imaging makes them.

Affinities encode the labels (1 within a segment, 0 across) and are then
degraded two ways: per-section jitter shifts whole x/y planes by one voxel
before the z-channel comparison (misalignment between consecutive
sections), and Gaussian noise is added to every edge before clamping back
to [0, 1].

All randomness comes from numpy's PCG64 via ``np.random.default_rng(seed)``.
Draw order is fixed and documented per function so runs are reproducible:
`synth_labels` draws exactly one choice of seed voxels; `synth_affinities`
draws per-section jitter decisions first (ascending z: one uniform, then
axis and sign when triggered), then a single Gaussian noise array when
flip_sigma > 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from affseg.volume import AffinityVolume, LabelVolume, Shape3, as_real, edge_ends


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


def labels_from_seeds(shape: Shape3, seeds: np.ndarray, anisotropy: float) -> LabelVolume:
    """Nearest-seed labeling under the anisotropic metric; ties take the
    lowest seed index.  Seed k (0-based row of `seeds`) produces label k+1.

    Each seed's dx^2 + dy^2 plane is built once and offered to every z
    section whose current farthest voxel is further than the seed's dz term
    alone; in the other sections no voxel can get strictly closer."""
    seeds = np.asarray(seeds, dtype=np.int64)
    if seeds.ndim != 2 or seeds.shape[1] != 3:
        raise ValueError(f"seeds must be (k, 3) voxel coordinates, got {seeds.shape}")
    yy, xx = np.meshgrid(np.arange(shape.y), np.arange(shape.x), indexing="ij")
    best_d = np.full(shape.as_tuple(), np.inf)
    farthest = np.full(shape.z, np.inf)  # per section, the maximum of best_d
    label = np.zeros(shape.as_tuple(), dtype=np.uint64)
    for k, (sz, sy, sx) in enumerate(seeds.tolist()):
        plane = ((xx - sx) ** 2 + (yy - sy) ** 2).astype(np.float64)
        dz2 = (anisotropy * (np.arange(shape.z) - sz).astype(np.float64)) ** 2
        for z in np.flatnonzero(dz2 < farthest).tolist():
            d2 = plane + dz2[z]
            closer = d2 < best_d[z]
            best_d[z][closer] = d2[closer]
            label[z][closer] = k + 1
            farthest[z] = best_d[z].max()
    return LabelVolume._adopt(label)


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
    clean = affinities_from_labels(labels, shifts)
    if n.flip_sigma == 0.0:
        return clean
    noisy = clean.data.astype(np.float64)
    noisy += rng.normal(0.0, n.flip_sigma, size=noisy.shape)
    np.clip(noisy, 0.0, 1.0, out=noisy)
    return AffinityVolume._adopt(noisy.astype(np.float32))
