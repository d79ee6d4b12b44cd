import numpy as np
import pytest

from affseg.agglo import MeanAffinity, agglomerate
from affseg.metrics import EmptyOverlap, ViScore, split_vi, vi_curve
from affseg.volume import LabelVolume, ShapeMismatch

from oracles import split_vi_bruteforce


def lv(arr):
    return LabelVolume(np.asarray(arr, dtype=np.uint64))


def test_identity_is_exact_zero():
    gt = lv(np.random.default_rng(0).integers(1, 5, (3, 4, 4)))
    score = split_vi(gt, gt)
    assert score.vi_under == 0.0
    assert score.vi_over == 0.0


def test_even_bisection_one_bit_over():
    gt = lv(np.full((2, 2, 2), 3))
    seg = np.full((2, 2, 2), 1, dtype=np.uint64)
    seg[1] = 2
    score = split_vi(lv(seg), gt)
    assert score.vi_under == pytest.approx(0.0)
    assert score.vi_over == pytest.approx(1.0)


def test_even_merge_one_bit_under():
    seg = lv(np.full((2, 2, 2), 1))
    gt = np.full((2, 2, 2), 1, dtype=np.uint64)
    gt[1] = 2
    score = split_vi(seg, lv(gt))
    assert score.vi_under == pytest.approx(1.0)
    assert score.vi_over == pytest.approx(0.0)


def test_gt_zero_excluded():
    gt = lv([[[0, 0, 1, 1]]])
    seg = lv([[[7, 8, 2, 2]]])  # disagreement only on gt=0 voxels
    score = split_vi(seg, gt)
    assert score.vi_under == 0.0 and score.vi_over == 0.0


def test_seg_zero_is_extra_segment():
    gt = lv([[[1, 1, 1, 1]]])
    seg = lv([[[0, 0, 2, 2]]])
    score = split_vi(seg, gt)
    assert score.vi_over == pytest.approx(1.0)


def test_empty_overlap():
    gt = lv(np.zeros((2, 2, 2)))
    with pytest.raises(EmptyOverlap):
        split_vi(gt, gt)


def test_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        split_vi(lv(np.ones((1, 2, 2))), lv(np.ones((1, 2, 3))))


def test_symmetry_swap():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = lv(rng.integers(1, 5, (3, 3, 3)))
        b = lv(rng.integers(1, 5, (3, 3, 3)))
        s1 = split_vi(a, b)
        s2 = split_vi(b, a)
        assert s1.vi_under == pytest.approx(s2.vi_over, abs=1e-12)
        assert s1.vi_over == pytest.approx(s2.vi_under, abs=1e-12)


def test_refinement_monotonicity():
    rng = np.random.default_rng(2)
    for _ in range(10):
        gt = lv(rng.integers(1, 4, (3, 4, 4)))
        coarse = rng.integers(1, 4, (3, 4, 4)).astype(np.uint64)
        # split every coarse segment in two by parity of the flat index
        parity = (np.arange(coarse.size).reshape(coarse.shape) % 2).astype(np.uint64)
        fine = coarse * 2 + parity
        s_coarse = split_vi(lv(coarse), gt)
        s_fine = split_vi(lv(fine), gt)
        assert s_fine.vi_under <= s_coarse.vi_under + 1e-12
        assert s_fine.vi_over >= s_coarse.vi_over - 1e-12


def test_label_permutation_invariance():
    rng = np.random.default_rng(3)
    seg = rng.integers(1, 5, (3, 3, 3)).astype(np.uint64)
    gt = rng.integers(1, 5, (3, 3, 3)).astype(np.uint64)
    base = split_vi(lv(seg), lv(gt))
    perm = {1: 40, 2: 10, 3: 99, 4: 7}
    seg_p = np.vectorize(perm.get)(seg.astype(np.int64)).astype(np.uint64)
    gt_p = np.vectorize(perm.get)(gt.astype(np.int64)).astype(np.uint64)
    permuted = split_vi(lv(seg_p), lv(gt_p))
    assert permuted.vi_under == pytest.approx(base.vi_under, abs=1e-12)
    assert permuted.vi_over == pytest.approx(base.vi_over, abs=1e-12)


def test_matches_bruteforce_oracle():
    rng = np.random.default_rng(4)
    for _ in range(40):
        seg = lv(rng.integers(0, 4, (4, 4, 4)))
        gt = lv(rng.integers(0, 4, (4, 4, 4)))
        if not (gt.data != 0).any():
            continue
        score = split_vi(seg, gt)
        under, over = split_vi_bruteforce(seg, gt)
        assert score.vi_under == pytest.approx(under, abs=1e-12)
        assert score.vi_over == pytest.approx(over, abs=1e-12)


def test_total_is_vi():
    s = ViScore(0.25, 1.5)
    assert s.total == 1.75


# ------------------------------------------------------------------ vi_curve


def curve_fixture():
    labels = LabelVolume(np.array([[[1, 1, 2, 2, 3, 3]]], dtype=np.uint64))
    a = np.zeros((3, 1, 1, 6), dtype=np.float32)
    a[2, 0, 0, :5] = [1, 0.9, 1, 0.6, 1]
    from affseg.volume import AffinityVolume

    aff = AffinityVolume(a)
    _, tree = agglomerate(labels, aff, MeanAffinity(), 0.0)
    gt = LabelVolume(np.ones((1, 1, 6), dtype=np.uint64))
    return tree, labels, gt


def test_curve_endpoints():
    tree, base, gt = curve_fixture()
    top = vi_curve(tree, base, gt, [1.0])
    assert top[0][1] == split_vi(base, gt)
    bottom = vi_curve(tree, base, gt, [0.0])
    assert bottom[0][1] == ViScore(0.0, 0.0)  # fully merged == the single GT body


def test_curve_monotone_when_merges_are_pure():
    tree, base, gt = curve_fixture()
    curve = vi_curve(tree, base, gt, [1.0, 0.8, 0.5, 0.0])
    overs = [s.vi_over for _, s in curve]
    unders = [s.vi_under for _, s in curve]
    assert all(a >= b for a, b in zip(overs, overs[1:]))
    assert all(u == 0.0 for u in unders)


def test_curve_requires_decreasing_thetas():
    tree, base, gt = curve_fixture()
    with pytest.raises(ValueError):
        vi_curve(tree, base, gt, [0.5, 0.5])


@pytest.mark.parametrize("thetas", [[5.0, 0.5], [1.0, -0.1], [float("nan")]])
def test_curve_rejects_thetas_outside_unit_interval(thetas):
    tree, base, gt = curve_fixture()
    with pytest.raises(ValueError, match="theta must be in"):
        vi_curve(tree, base, gt, thetas)
