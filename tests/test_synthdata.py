import numpy as np
import pytest

from affseg.malis import malis_gradient
from affseg.synthdata import (
    NoiseParams,
    SynthParams,
    TooManySeeds,
    affinities_from_labels,
    labels_from_seeds,
    synth_affinities,
    synth_labels,
)
from affseg.volume import LabelVolume, Shape3, oob_edge_mask
from affseg.zwatershed import WatershedParams, zwatershed

from oracles import connected_components, labels_from_seeds_reference, partitions_equal


def test_single_seed_labels_everything():
    vol = synth_labels(Shape3(3, 4, 5), SynthParams(n_seeds=1, rng_seed=11))
    assert np.all(vol.data == 1)


def test_two_seeds_split_chain():
    vol = labels_from_seeds(Shape3(1, 1, 4), np.array([[0, 0, 0], [0, 0, 3]]), 1.0)
    assert vol.data.ravel().tolist() == [1, 1, 2, 2]


def test_tie_goes_to_lower_seed_index():
    vol = labels_from_seeds(Shape3(1, 1, 3), np.array([[0, 0, 0], [0, 0, 2]]), 1.0)
    assert vol.data.ravel().tolist() == [1, 1, 2]  # middle voxel equidistant


def test_anisotropy_flattens_cells():
    # under a high z cost the boundary between diagonal seeds turns into a
    # flat z cut instead of a slanted plane
    seeds = np.array([[0, 0, 1], [3, 0, 4]])
    iso = labels_from_seeds(Shape3(4, 1, 8), seeds, 1.0)
    aniso = labels_from_seeds(Shape3(4, 1, 8), seeds, 4.0)
    assert (aniso.data == 1).sum() != (iso.data == 1).sum()
    # each z section of the anisotropic volume is a single cell
    assert all(len(np.unique(aniso.data[z])) == 1 for z in range(4))


def test_labels_match_full_volume_reference_on_random_layouts():
    rng = np.random.default_rng(12)
    for _ in range(40):
        shape = Shape3(*(int(d) for d in rng.integers(1, 12, 3)))
        n = int(rng.integers(1, min(shape.voxels, 30) + 1))
        flat = rng.choice(shape.voxels, size=n, replace=False)
        seeds = np.array([shape.unflatten(int(i)) for i in flat], dtype=np.int64)
        for anisotropy in (1.0, 1.7, 3.0):
            got = labels_from_seeds(shape, seeds, anisotropy).data
            assert np.array_equal(got, labels_from_seeds_reference(shape, seeds, anisotropy))
    # planes of several 8x8 tiles with partial tiles at their edges, up to 60
    # seeds of which some lie up to 6 voxels outside the volume, and no seed
    rng = np.random.default_rng(14)
    for _ in range(24):
        z = int(rng.integers(1, 7))
        y, x = (int(d) + (d % 8 == 0) for d in rng.integers(9, 46, 2))
        shape = Shape3(z, y, x)
        n = int(rng.integers(1, 61))
        seeds = np.stack([rng.integers(-6, d + 6, n) for d in (z, y, x)], axis=1)
        for anisotropy in (1.0, 1.7, 3.0):
            got = labels_from_seeds(shape, seeds, anisotropy).data
            assert np.array_equal(got, labels_from_seeds_reference(shape, seeds, anisotropy))
    got = labels_from_seeds(Shape3(3, 20, 13), np.zeros((0, 3), dtype=np.int64), 2.0).data
    assert got.shape == (3, 20, 13) and not got.any()


def test_labels_match_full_volume_reference_on_symmetric_ties():
    # seeds mirrored about the volume centre, listed in shuffled order, put
    # many voxels at exactly equal distance from several seeds
    rng = np.random.default_rng(13)
    shape = Shape3(7, 9, 9)
    half = np.array([[1, 2, 2], [3, 0, 4], [0, 4, 1], [3, 4, 0], [2, 1, 1]])
    mirrored = np.array([6, 8, 8]) - half
    for seeds in (np.concatenate([half, mirrored]),
                  rng.permutation(np.concatenate([half, mirrored])),
                  np.array([[3, 4, 0], [3, 0, 4], [3, 8, 4], [3, 4, 8], [0, 4, 4], [6, 4, 4]])):
        for anisotropy in (1.0, 2.0, 2.5):
            got = labels_from_seeds(shape, seeds, anisotropy).data
            assert np.array_equal(got, labels_from_seeds_reference(shape, seeds, anisotropy))


def test_labels_deterministic():
    p = SynthParams(n_seeds=5, anisotropy=3.0, rng_seed=99)
    a = synth_labels(Shape3(4, 8, 8), p)
    b = synth_labels(Shape3(4, 8, 8), p)
    assert np.array_equal(a.data, b.data)


def test_all_seed_labels_present():
    vol = synth_labels(Shape3(4, 8, 8), SynthParams(n_seeds=7, rng_seed=1))
    assert sorted(np.unique(vol.data).tolist()) == list(range(1, 8))


def test_too_many_seeds():
    with pytest.raises(TooManySeeds):
        synth_labels(Shape3(1, 2, 2), SynthParams(n_seeds=5, rng_seed=0))


@pytest.mark.parametrize("shape", [(3,), (2, 2), (1, 4), (1, 3, 1)])
def test_labels_from_seeds_rejects_seeds_not_k_by_3(shape):
    with pytest.raises(ValueError, match=r"seeds must be \(k, 3\) voxel coordinates"):
        labels_from_seeds(Shape3(2, 2, 2), np.zeros(shape, dtype=np.int64), 1.0)


@pytest.mark.parametrize("shape", [(3, 2), (2, 3), (4,), (2, 2, 1)])
def test_affinities_from_labels_rejects_misshaped_section_shifts(shape):
    labels = LabelVolume(np.ones((2, 2, 2), dtype=np.uint64))
    with pytest.raises(ValueError, match=r"section_shifts must have shape \(2, 2\)"):
        affinities_from_labels(labels, np.zeros(shape, dtype=np.int64))


def test_nan_seed_count_is_rejected():
    with pytest.raises(ValueError, match="n_seeds"):
        SynthParams(n_seeds=float("nan"))


def test_parameters_too_large_for_int64_are_checked_as_floats():
    assert SynthParams(3, 10**30, 0).anisotropy == 10**30
    assert NoiseParams(10**30).flip_sigma == 10**30
    for make in (lambda x: SynthParams(3, x), lambda x: NoiseParams(x)):
        for bad in (float("inf"), float("nan"), "x"):
            with pytest.raises(ValueError):
                make(bad)


def test_noiseless_is_exact_encoding():
    gt = synth_labels(Shape3(4, 6, 6), SynthParams(n_seeds=3, rng_seed=2))
    aff = synth_affinities(gt, NoiseParams())
    lab = gt.data
    assert np.all((aff.data == 0.0) | (aff.data == 1.0))
    same_x = lab[:, :, :-1] == lab[:, :, 1:]
    assert np.array_equal(aff.data[2, :, :, :-1] == 1.0, same_x)
    mask = oob_edge_mask(gt.shape3)
    assert np.all(aff.data[mask] == 0.0)


def test_noiseless_watershed_recovers_components():
    for seed in range(5):
        gt = synth_labels(Shape3(6, 8, 8), SynthParams(n_seeds=4, anisotropy=2.0, rng_seed=seed))
        aff = synth_affinities(gt, NoiseParams())
        seg, _ = zwatershed(aff, WatershedParams(0.9, 0.3, 0, 0.3))
        assert partitions_equal(seg.data, connected_components(gt))


def test_affinities_deterministic():
    gt = synth_labels(Shape3(4, 6, 6), SynthParams(n_seeds=3, rng_seed=3))
    n = NoiseParams(flip_sigma=0.2, jitter_prob=0.5, rng_seed=17)
    a = synth_affinities(gt, n)
    b = synth_affinities(gt, n)
    assert np.array_equal(a.data, b.data)


def test_noisy_affinities_match_clean_encoding_plus_normal_draws():
    # the noise is drawn after the jitter decisions: the clean encoding as
    # float64 plus Generator.normal(0, sigma), clamped, cast to float32, and
    # the out-of-bounds slots zeroed as every affinity volume has them
    gt = synth_labels(Shape3(5, 9, 11), SynthParams(n_seeds=6, anisotropy=2.0, rng_seed=8))
    for seed in range(3):
        for sigma in (0.05, 0.3, 1.5):
            for jitter in (0.0, 0.5, 1.0):
                rng = np.random.default_rng(seed)
                shifts = np.zeros((5, 2), dtype=np.int64)
                for s in range(5):
                    if rng.random() < jitter:
                        axis = int(rng.integers(0, 2))
                        shifts[s, axis] = 1 if rng.integers(0, 2) else -1
                clean = affinities_from_labels(gt, shifts).data.astype(np.float64)
                want = clean + rng.normal(0.0, sigma, size=clean.shape)
                want = np.clip(want, 0.0, 1.0).astype(np.float32)
                want[oob_edge_mask(gt.shape3)] = 0.0
                got = synth_affinities(gt, NoiseParams(sigma, jitter, seed)).data
                assert got.tobytes() == want.tobytes()


def test_forced_jitter_flips_z_affinities_at_stripe_boundary():
    striped = LabelVolume(np.array([[[1, 2], [1, 2]], [[1, 2], [1, 2]]], dtype=np.uint64))
    clean = affinities_from_labels(striped)
    assert np.all(clean.data[0, 0] == 1.0)
    jittered = affinities_from_labels(striped, np.array([[0, 0], [0, 1]]))
    flipped = (clean.data[0, 0] == 1.0) & (jittered.data[0, 0] == 0.0)
    assert flipped.any()


def test_jitter_keeps_xy_channels():
    striped = LabelVolume(np.array([[[1, 2], [1, 2]], [[1, 2], [1, 2]]], dtype=np.uint64))
    clean = affinities_from_labels(striped)
    jittered = affinities_from_labels(striped, np.array([[0, 1], [0, -1]]))
    assert np.array_equal(clean.data[1:], jittered.data[1:])


def test_noise_is_clamped_and_oob_stays_zero():
    gt = synth_labels(Shape3(4, 6, 6), SynthParams(n_seeds=3, rng_seed=4))
    aff = synth_affinities(gt, NoiseParams(flip_sigma=0.8, jitter_prob=0.2, rng_seed=4))
    assert float(aff.data.min()) >= 0.0
    assert float(aff.data.max()) <= 1.0
    assert np.all(aff.data[oob_edge_mask(gt.shape3)] == 0.0)


def test_noiseless_malis_loss_zero_and_noise_raises_it():
    shape = Shape3(4, 8, 8)
    means = []
    for sigma in (0.0, 0.08, 0.2):
        losses = []
        for seed in range(20):
            gt = synth_labels(shape, SynthParams(n_seeds=4, anisotropy=2.0, rng_seed=seed))
            aff = synth_affinities(gt, NoiseParams(flip_sigma=sigma, rng_seed=seed))
            losses.append(malis_gradient(aff, gt, normalize=True).loss)
        means.append(float(np.mean(losses)))
    assert means[0] == 0.0
    assert means[0] < means[1] < means[2]
