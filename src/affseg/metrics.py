"""Split variation-of-information scoring and threshold sweeps.

The two halves of the VI metric are reported separately because they mean
different things to a reconstruction: vi_under = H(GT | Seg) measures false
merges, vi_over = H(Seg | GT) measures false splits.  Both are conditional
entropies in bits over the contingency table of label co-occurrence.

Voxels with ground-truth label 0 are excluded from all counts.  Segmentation
label 0 on an included voxel is kept as one extra segment id.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from affseg.agglo import MergeTree, apply_threshold, check_theta
from affseg.volume import LabelVolume, require_same_shape


class EmptyOverlap(Exception):
    """No voxel carries a nonzero ground-truth label."""


@dataclass(frozen=True)
class ViScore:
    vi_under: float  # H(GT | Seg), false-merge error
    vi_over: float   # H(Seg | GT), false-split error

    @property
    def total(self) -> float:
        return self.vi_under + self.vi_over


ViCurve = list[tuple[float, ViScore]]


def _contingency(seg_ids: np.ndarray, gt_ids: np.ndarray):
    """Joint counts plus marginals over two flat id arrays."""
    su, si = np.unique(seg_ids, return_inverse=True)
    gu, gi = np.unique(gt_ids, return_inverse=True)
    joint = np.bincount(si * len(gu) + gi, minlength=len(su) * len(gu))
    joint = joint.reshape(len(su), len(gu)).astype(np.float64)
    return joint, joint.sum(axis=1), joint.sum(axis=0)


def split_vi(seg: LabelVolume, gt: LabelVolume) -> ViScore:
    """Conditional entropies H(GT|Seg), H(Seg|GT) in bits over gt != 0 voxels."""
    require_same_shape(seg, gt)
    g = gt.data.ravel()
    m = g != 0
    if not m.any():
        raise EmptyOverlap("ground truth has no labeled voxels")
    s = seg.data.ravel()[m]
    g = g[m]
    joint, seg_marg, gt_marg = _contingency(s, g)
    n = joint.sum()
    nz = joint > 0
    jn = joint[nz]
    seg_n = np.broadcast_to(seg_marg[:, None], joint.shape)[nz]
    gt_n = np.broadcast_to(gt_marg[None, :], joint.shape)[nz]
    vi_under = float(np.sum(jn / n * np.log2(seg_n / jn)))
    vi_over = float(np.sum(jn / n * np.log2(gt_n / jn)))
    return ViScore(vi_under=vi_under, vi_over=vi_over)


def vi_curve(tree: MergeTree, base: LabelVolume, gt: LabelVolume,
             thetas: list[float]) -> ViCurve:
    """Replay the merge tree at each threshold and score against GT.

    Thresholds must lie in [0, 1] and be strictly decreasing, mirroring how
    the sweep walks from no merges applied toward the fully merged end.
    """
    for theta in thetas:
        check_theta(theta)
    for a, b in zip(thetas, thetas[1:]):
        if not a > b:
            raise ValueError("thetas must be strictly decreasing")
    out: ViCurve = []
    for theta in thetas:
        seg = apply_threshold(tree, base, theta)
        out.append((theta, split_vi(seg, gt)))
    return out
