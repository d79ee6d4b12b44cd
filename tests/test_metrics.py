import numpy as np
import pytest

from affseg.agglo import MeanAffinity, agglomerate, apply_threshold, build_rag, train_scorer
from affseg.metrics import EmptyOverlap, ViScore, split_vi, vi_curve
from affseg.synthdata import NoiseParams, SynthParams, synth_affinities, synth_labels
from affseg.volume import AffinityVolume, LabelVolume, Shape3, ShapeMismatch
from affseg.zwatershed import WatershedParams, zwatershed

from oracles import replay_reference, split_vi_bruteforce


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


GRID = [round(1.0 - 0.05 * i, 2) for i in range(21)]


def sweep_instance(seed, offset):
    """Watershed fragments of a synthetic volume, with a slab cut to
    background where GT is labeled, and every nonzero fragment and GT label
    shifted by `offset`."""
    gt = synth_labels(Shape3(6, 16, 16), SynthParams(n_seeds=7, anisotropy=2.0, rng_seed=seed))
    aff = synth_affinities(gt, NoiseParams(flip_sigma=0.25, rng_seed=seed))
    base, _ = zwatershed(aff, WatershedParams(t_high=0.995, t_low=0.5, size_min=0, t_merge=0.5))
    lab, g = base.data.copy(), gt.data.copy()
    lab[:, :, :2] = 0
    lab[lab != 0] += np.uint64(offset)
    g[g != 0] += np.uint64(offset)
    return LabelVolume(lab), aff, LabelVolume(g)


def assert_curve_is_replayed_split_vi(tree, base, gt, thetas):
    curve = vi_curve(tree, base, gt, thetas)
    assert [theta for theta, _ in curve] == thetas
    for theta, score in curve:
        seg = apply_threshold(tree, base, theta)
        assert np.array_equal(seg.data, replay_reference(base, tree.merges, theta))
        assert score == split_vi(seg, gt)
        under, over = split_vi_bruteforce(seg, gt)
        assert score.vi_under == pytest.approx(under, abs=1e-12)
        assert score.vi_over == pytest.approx(over, abs=1e-12)


@pytest.mark.parametrize("offset", [0, 2**63 - 1, 2**64 - 2**12])
def test_curve_points_equal_split_vi_of_replay_mean(offset):
    for seed in (0, 1):
        base, aff, gt = sweep_instance(seed, offset)
        assert ((base.data == 0) & (gt.data != 0)).any()
        _, tree = agglomerate(base, aff, MeanAffinity(), 0.0)
        assert tree.merges and max(sc for *_, sc in tree.merges) < 1.0
        for thetas in (GRID, [1.0], [0.0]):
            assert_curve_is_replayed_split_vi(tree, base, gt, thetas)


def test_curve_points_equal_split_vi_of_replay_on_score_ties():
    # 0.25-grid affinities give merge scores equal to grid thresholds
    labels = synth_labels(Shape3(4, 10, 10), SynthParams(n_seeds=24, anisotropy=1.0, rng_seed=3))
    values = np.random.default_rng(3).choice([0.0, 0.25, 0.5, 0.75, 1.0], (3, 4, 10, 10))
    _, tree = agglomerate(labels, AffinityVolume(values.astype(np.float32)), MeanAffinity(), 0.0)
    thetas = [1.0, 0.75, 0.5, 0.25, 0.0]
    assert {sc for *_, sc in tree.merges} & set(thetas)
    gt = synth_labels(Shape3(4, 10, 10), SynthParams(n_seeds=5, anisotropy=1.0, rng_seed=4))
    assert_curve_is_replayed_split_vi(tree, labels, gt, thetas)


@pytest.mark.parametrize("offset", [0, 2**63 - 1])
def test_curve_points_equal_split_vi_of_replay_non_monotone_logistic(offset):
    base, aff, gt = sweep_instance(2, offset)
    scorer = train_scorer(build_rag(base, aff), gt)
    _, tree = agglomerate(base, aff, scorer, 0.0)
    scores = [sc for *_, sc in tree.merges]
    dips = [(lo + hi) / 2.0 for lo, hi in zip(scores, scores[1:]) if lo < hi]
    assert dips
    thetas = sorted(set(GRID + dips), reverse=True)
    assert_curve_is_replayed_split_vi(tree, base, gt, thetas)
