"""Working-memory bounds, as bytes per voxel traced by `tracemalloc`.

numpy reports its array buffers to tracemalloc, so these are deterministic
allocation counts for a fixed input, not timings: the peak of everything
a call allocates, its result included, above what was live before it.
"""

import contextlib
import gc
import io
import tracemalloc

import numpy as np
import pytest

from affseg import cli
from affseg.agglo import (N_FEATURES, Logistic, MeanAffinity, agglomerate, apply_threshold,
                          build_rag, train_scorer)
from affseg.malis import _leaf_order, malis_edge_counts, malis_gradient, maximin_affinity
from affseg.metrics import split_vi, vi_curve
from affseg.stitch import partition_blocks, stitch
from affseg.synthdata import NoiseParams, SynthParams, synth_affinities, synth_labels
from affseg.volume import (AffinityVolume, Shape3, label_index, overlap_counts, read_volume,
                           write_volume)
from affseg.zwatershed import WatershedParams, zwatershed

SHAPE = Shape3(16, 64, 64)


def traced_peak(f, *args):
    """Peak bytes allocated during f(*args) above the live set before it."""
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        f(*args)
        return tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def volume():
    gt = synth_labels(SHAPE, SynthParams(n_seeds=40, anisotropy=2.0, rng_seed=3))
    return gt, synth_affinities(gt, NoiseParams(flip_sigma=0.2, rng_seed=3))


@pytest.fixture(scope="module")
def fragments(volume):
    """The fixture's watershed labels and their mean merge tree."""
    _, aff = volume
    ws, _ = zwatershed(aff, WatershedParams(0.99, 0.3, 0, 0.3))
    return ws, agglomerate(ws, aff, MeanAffinity(), 0.0)[1]


def test_synth_labels_peak_per_voxel(volume):
    # the per-tile best distances and labels (16 B/voxel) with the largest
    # seed's candidate tiles in flight set the peak, about 20.6 B/voxel: that
    # seed is evaluated on a fifth of the tiles, and its integer plane
    # distances, their float64 cast and numpy's fixed broadcast buffers
    # cost about 20 B per candidate voxel here.  The closing tile-to-plane
    # copy takes 16 after the distances are freed (24 before), and the
    # per-section search over whole planes took 19.6.  The fixture has
    # made the same call, so numpy.random, which numpy imports on first
    # use (about 11.6 B/voxel here), is already loaded
    peak = traced_peak(synth_labels, SHAPE, SynthParams(n_seeds=40, anisotropy=2.0, rng_seed=3))
    assert peak / SHAPE.voxels <= 22


def test_synth_affinities_peak_per_voxel(volume):
    # the float64 noise buffer (24 B/voxel) beside the clean float32
    # encoding (12) sets the peak, about 37.1 B/voxel, and so does its
    # float32 cast; keeping the buffer alive through the range check of the
    # adopted result took 45.0, and a float64 copy of the encoding plus a
    # second array from rng.normal 60.0
    gt, _ = volume
    peak = traced_peak(synth_affinities, gt, NoiseParams(flip_sigma=0.2, rng_seed=3))
    assert peak / SHAPE.voxels <= 38


def test_synth_affinities_unjittered_peak_per_voxel(volume):
    # with no section shifted the clean encoding compares the labels
    # themselves: its float32 array (12 B/voxel), the compares' bool masks
    # and numpy's fixed buffers for strided operands set the peak, about
    # 21.0 B/voxel; passing all-zero shifts made a shifted copy of every
    # section and stacked them, 29.0
    gt, _ = volume
    peak = traced_peak(synth_affinities, gt, NoiseParams(flip_sigma=0.0, rng_seed=3))
    assert peak / SHAPE.voxels <= 23


def test_watershed_peak_per_voxel(volume):
    # hooking stage (a)'s edge pairs between trees in `components` sets the
    # peak, about 23.3 B/voxel with the tree ranks and the pairs alive;
    # gathering the pairs takes 19.1 and the ascent trees 20.3 (23.1 with
    # the running maxima alive through the pointer jumps, 25.3 with the
    # mutual pairs too).  Gathering every strong slot's ranks took 23.5, the
    # closing dense_relabel 24.2 when it ranked the ids into an int64
    # inverse, and float64 compares and strided gathers over voxel ids 45.3
    _, aff = volume
    peak = traced_peak(zwatershed, aff, WatershedParams(0.99, 0.3, 0, 0.3))
    assert peak / SHAPE.voxels <= 25


def test_size_filtered_watershed_peak_per_voxel(volume):
    # rule (d)'s build_rag sets the peak, about 28.7 B/voxel with the
    # stage-(c) labels alive, and its closing replay and relabel reach 28.2;
    # that relabel took 36.0 when the replay and dense_relabel each made an
    # int64 inverse.  Stages (a)-(c) take 23.3 as at size_min 0, and took
    # 45.3 over voxel ids
    _, aff = volume
    peak = traced_peak(zwatershed, aff, WatershedParams(0.99, 0.3, 25, 0.3))
    assert peak / SHAPE.voxels <= 30


def test_overlap_counts_peak_per_voxel(volume):
    # the packed keys of the gt != 0 voxels, built in one masked pass over
    # both arrays' own ids, and np.unique's sorted copy of them set the
    # peak, about 19.1 B/voxel; masked uint64 copies of both arrays and
    # their int64 inverses took 35.1 (43.1 with the second inverse alive
    # through the sort), and an inverse of the keys and a bincount about 58
    gt, aff = volume
    seg, _ = zwatershed(aff, WatershedParams(0.99, 0.3, 0, 0.3))
    peak = traced_peak(overlap_counts, seg.data, gt.data)
    assert peak / SHAPE.voxels <= 20


def test_leaf_order_peak_per_voxel(volume):
    # expanding the Borůvka layout's first level sets the peak, about 109.4
    # B/voxel: the candidates' slots, every level's (tree, first-edge rank,
    # root), the sort keys and three per-gap merge arrays; recursing with each
    # level's edge arrays alive took about 152
    _, aff = volume
    assert traced_peak(_leaf_order, aff) / SHAPE.voxels <= 113


def test_maximin_peak_per_voxel(volume):
    # _leaf_order sets the peak, about 109.3 B/voxel; the cycle filter's
    # candidates are slots of the affinity array, with endpoints derived for
    # the kept ones only
    _, aff = volume
    peak = traced_peak(maximin_affinity, aff, (0, 0, 0), (15, 63, 63))
    assert peak / SHAPE.voxels <= 140


@pytest.mark.parametrize("call", [malis_edge_counts, malis_gradient],
                         ids=["malis_edge_counts", "malis_gradient"])
def test_malis_peak_per_voxel(volume, call):
    # the counting passes of _pair_counts set both peaks, about 132.1 B/voxel
    # (_leaf_order alone about 109.4): counts and gradient go to their volumes
    # after the counting's temporaries are freed; float64 arithmetic over
    # every slot of dense count volumes takes about 171
    gt, aff = volume
    assert traced_peak(call, aff, gt) / SHAPE.voxels <= 140


def test_mean_agglomerate_peak_per_voxel(volume):
    # build_rag sets the peak, about 20.7 B/voxel (39 if it ravel-copies
    # endpoint labels); the closing replay takes apply_threshold's 16.1 above
    # the merge list, or about 23.1 with the RAG and heap still alive, and
    # 29-31 if it also keeps its int64 inverse alive through the copy
    _, aff = volume
    seg, _ = zwatershed(aff, WatershedParams(0.99, 0.3, 0, 0.3))
    peak = traced_peak(agglomerate, seg, aff, MeanAffinity(), 0.0)
    assert peak / SHAPE.voxels <= 22.5


@pytest.mark.parametrize("bias,seed", [(0.0, 0), (40.0, None)],
                         ids=["random_weights", "saturated"])
def test_logistic_agglomerate_peak_per_voxel(fragments, volume, bias, seed):
    # scores that stay above theta as segments grow let one survivor absorb
    # everything, and each merge pushes all of its boundaries again; with
    # the first scores in one sorted run and the heap of pushes rebuilt from
    # one copy of each live entry whenever it doubles, build_rag's
    # all-statistics table sets the peak, about 41.7 B/voxel (41.3 with
    # the first scores in the heap too).  Without rebuilds the heap takes
    # about 126 (random weights) and 79 (saturated: every score is
    # 1 - 1e-13, so each merge pushes twins of the survivor's live entries,
    # and a rebuild keeping twins reads 78)
    ws, _ = fragments
    weights = np.zeros(N_FEATURES) if seed is None else \
        np.random.default_rng(seed).normal(0.0, 0.1, N_FEATURES)
    peak = traced_peak(agglomerate, ws, volume[1], Logistic(weights, bias), 0.5)
    assert peak / SHAPE.voxels <= 45


def test_train_scorer_peak_per_voxel(fragments, volume):
    # the fit's standardized copy of the training features, beside them,
    # sets the peak, about 22.0 B/voxel, level with the first round's
    # feature vectors (21.1); keeping the per-round feature blocks alive
    # through the fit took 31.2, standardizing through a temporary as well
    # 40.4, and merging a copy of the RAG's table too 48.6.  A plain
    # np.unique (no return_index or counts) imports numpy.ma on its first
    # call in a process, about 17 B/voxel more here; training makes none
    ws, _ = fragments
    gt, aff = volume
    rag = build_rag(ws, aff)
    assert traced_peak(train_scorer, rag, gt) / SHAPE.voxels <= 24


def test_unique_inverse_peak_per_voxel(fragments):
    # dense labels index their table directly: idx is a view of the labels
    # and the table has one entry per id, about 0.04 B/voxel; counting the
    # ids present and ranking them took about 9.2, a sort and a binary
    # search about 17
    ws, _ = fragments
    assert traced_peak(label_index, ws.data) / SHAPE.voxels <= 1


def test_build_rag_peak_per_voxel(fragments, volume):
    # reordering the boundary edges (0.32 per voxel, 9.2 B/voxel, held
    # twice while reordered) sets the peak, about 20.7 B/voxel;
    # boundary_edges peaks near 19.9, or 39 if it ravel-copies endpoint
    # labels per channel
    ws, _ = fragments
    peak = traced_peak(build_rag, ws, volume[1], ("count", "s1"))
    assert peak / SHAPE.voxels <= 22


def test_apply_threshold_peak_per_voxel(fragments):
    # the replay's relabeled array, which the LabelVolume adopts without a
    # copy, sets the peak, about 8.1 B/voxel; a private copy of it took 16.1,
    # or 24.1 with the int64 inverse still alive
    ws, tree = fragments
    assert traced_peak(apply_threshold, tree, ws, 0.5) / SHAPE.voxels <= 8.5


def test_stitch_peak_per_voxel(volume):
    # the intp core map, the int32 block walk and dense_relabel's voxel
    # positions set the peak, about 21.6 B/voxel, and the global labels,
    # which the LabelVolume adopts without a copy, reach about as much;
    # a private copy of them took 28.5
    _, aff = volume
    specs = partition_blocks(SHAPE, (8, 32, 32), (2, 4, 4))
    labelings = []
    for spec in specs:
        sub = AffinityVolume(aff.data[(slice(None),) + tuple(slice(a, b) for a, b in spec.halo)])
        ws, _ = zwatershed(sub, WatershedParams(0.99, 0.3, 0, 0.3))
        labelings.append(agglomerate(ws, sub, MeanAffinity(), 0.5)[0])
    peak = traced_peak(stitch, specs, labelings)
    assert peak / SHAPE.voxels <= 23


@pytest.mark.parametrize("curve", [False, True], ids=["split_vi", "vi_curve"])
def test_split_vi_peak_per_voxel(fragments, volume, curve):
    # overlap_counts' sort of the pair keys sets both peaks, about 19.1
    # B/voxel; masked copies of both arrays and their inverses took 35.1
    ws, tree = fragments
    gt, _ = volume
    if curve:
        peak = traced_peak(vi_curve, tree, ws, gt, [1 - i / 20 for i in range(21)])
    else:
        peak = traced_peak(split_vi, apply_threshold(tree, ws, 0.5), gt)
    assert peak / SHAPE.voxels <= 20


@pytest.mark.parametrize("which", [0, 1], ids=["labels", "affinities"])
def test_write_volume_peak_per_voxel(volume, tmp_path, which):
    # the frozen array's own buffer goes to the file, about 0.08 B/voxel for
    # both kinds; a tobytes() copy of the payload took 8.1 (labels) and
    # 12.1 (affinities)
    peak = traced_peak(write_volume, volume[which], tmp_path / "v.volb")
    assert peak / SHAPE.voxels <= 1


@pytest.mark.parametrize("which,bound", [(0, 9), (1, 13)], ids=["labels", "affinities"])
def test_read_volume_peak_per_voxel(volume, tmp_path, which, bound):
    # the payload is read straight into the array the volume keeps, about
    # 8.1 (labels) and 12.1 (affinities) B/voxel; reading the file into
    # bytes and copying them into the volume took 16.0 and 24.0
    write_volume(volume[which], tmp_path / "v.volb")
    assert traced_peak(read_volume, tmp_path / "v.volb") / SHAPE.voxels <= bound


@pytest.mark.parametrize("size_min,bound", [(0, 52), (25, 52)],
                         ids=["size_min_0", "size_min_25"])
def test_cli_pipeline_peak_and_leftovers(volume, tmp_path, size_min, bound):
    # with both input volumes read, agglomerate sets the peak at size_min 0,
    # about 50.9 B/voxel, and the size-filtered zwatershed at size_min 25,
    # about 50.4; the closing split_vi set it at 60.0 and 58.1 while the
    # affinities, watershed labels and merge tree stayed alive through it
    # (76.0 and 74.1 when overlap_counts made masked copies and inverses).
    # After the call about 5 KB stay traced, or 55-690 KB if the RAG
    # outlives the call.  The first call in a process also fills import and
    # locale caches (about 170 KB), so the traced call is the second
    gt, aff = volume
    write_volume(gt, tmp_path / "gt.volb")
    write_volume(aff, tmp_path / "aff.volb")
    argv = ["pipeline", "--aff", str(tmp_path / "aff.volb"), "--gt", str(tmp_path / "gt.volb"),
            "--workdir", str(tmp_path / "work"), "--t-high", "0.99", "--t-low", "0.3",
            "--size-min", str(size_min), "--t-merge", "0.3", "--theta", "0.5"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
        gc.collect()
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1] - live
            gc.collect()
            left = tracemalloc.get_traced_memory()[0] - live
        finally:
            tracemalloc.stop()
    assert peak / SHAPE.voxels <= bound
    assert left <= 16_000
