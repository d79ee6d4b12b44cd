"""Split variation-of-information scoring and threshold sweeps.

The two halves of the VI metric are reported separately because they mean
different things to a reconstruction: vi_under = H(GT | Seg) measures false
merges, vi_over = H(Seg | GT) measures false splits.  Both are conditional
entropies in bits over the contingency table of label co-occurrence.

Voxels with ground-truth label 0 are excluded from all counts.  Segmentation
label 0 on an included voxel is kept as one extra segment id.

Both are computed from a table of (segment, GT label, voxel count),
counted from one packed key per voxel with a nonzero GT label: dense label
ids index their id tables directly (`volume.label_index`), so neither label
array is copied or ranked.  A threshold sweep counts the base fragments'
table once and, at each threshold, relabels its fragments by that
threshold's merge prefix and scores the small relabelled table; it never
replays the volume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from affseg.agglo import MergeTree, check_base, check_theta, threshold_lookups
from affseg.volume import (LabelVolume, cooccurrence, label_index, overlap_counts,
                           require_same_shape)


class EmptyOverlap(ValueError):
    """No voxel carries a nonzero ground-truth label."""


@dataclass(frozen=True)
class ViScore:
    vi_under: float  # H(GT | Seg), false-merge error
    vi_over: float   # H(Seg | GT), false-split error

    @property
    def total(self) -> float:
        return self.vi_under + self.vi_over


ViCurve = list[tuple[float, ViScore]]


def _vi(seg_ids: np.ndarray, gt_ids: np.ndarray, counts: np.ndarray) -> ViScore:
    """Split VI of a contingency table of (seg id, gt id, voxel count)
    entries, in which a pair may be spread over several entries.  Counts
    and marginals are sums of integers, exact in any order, and the
    entropy terms are summed in (seg, gt) order, so every table of the same
    voxels scores the same floats."""
    if not len(counts):
        raise EmptyOverlap("ground truth has no labeled voxels")
    seg_ids, gt_ids, joint = cooccurrence(seg_ids, gt_ids, counts)
    n = joint.sum()
    si, gi = (label_index(ids)[1] for ids in (seg_ids, gt_ids))
    seg_n, gt_n = (np.bincount(i, joint)[i] for i in (si, gi))
    vi_under = float(np.sum(joint / n * np.log2(seg_n / joint)))
    vi_over = float(np.sum(joint / n * np.log2(gt_n / joint)))
    return ViScore(vi_under=vi_under, vi_over=vi_over)


def split_vi(seg: LabelVolume, gt: LabelVolume) -> ViScore:
    """Conditional entropies H(GT|Seg), H(Seg|GT) in bits over gt != 0 voxels."""
    require_same_shape(seg, gt)
    return _vi(*overlap_counts(seg.data, gt.data))


def vi_curve(tree: MergeTree, base: LabelVolume, gt: LabelVolume,
             thetas: list[float]) -> ViCurve:
    """Score `apply_threshold(tree, base, theta)` against GT at each threshold.

    Thresholds must lie in [0, 1] and be strictly decreasing, mirroring how
    the sweep walks from no merges applied toward the fully merged end.
    The base's fragment x GT voxel counts are taken once; each threshold
    maps the fragments to the labels its merge prefix gives them and scores
    that small table exactly as `split_vi` scores the replayed volume.
    """
    for theta in thetas:
        check_theta(theta)
    for a, b in zip(thetas, thetas[1:]):
        if not a > b:
            raise ValueError("thetas must be strictly decreasing")
    check_base(tree, base)
    require_same_shape(base, gt)
    seg_ids, gt_ids, counts = overlap_counts(base.data, gt.data)
    return [(theta, _vi(lut, gt_ids, counts))
            for theta, lut in zip(thetas, threshold_lookups(tree.merges, seg_ids, thetas))]
