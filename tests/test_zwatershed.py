import numpy as np
import pytest

from affseg.synthdata import NoiseParams, SynthParams, synth_affinities, synth_labels
from affseg.volume import AffinityVolume, LabelVolume, Shape3, ShapeMismatch
from affseg.zwatershed import BasinStats, WatershedParams, _float32_ceil, size_filter, zwatershed

from oracles import connected_components, partitions_equal, size_filter_reference, watershed_basins


def chain4():
    a = np.zeros((3, 1, 1, 4), dtype=np.float32)
    a[2, 0, 0, :3] = [0.95, 0.3, 0.9]
    return AffinityVolume(a)


def test_params_invariant():
    with pytest.raises(ValueError):
        WatershedParams(t_high=0.5, t_low=0.6, size_min=0, t_merge=0.55)
    with pytest.raises(ValueError):
        WatershedParams(t_high=0.9, t_low=0.1, size_min=0, t_merge=0.95)
    with pytest.raises(ValueError):
        WatershedParams(t_high=1.5, t_low=0.1, size_min=0, t_merge=0.5)
    with pytest.raises(ValueError, match="size_min"):
        WatershedParams(t_high=0.9, t_low=0.1, size_min=float("nan"), t_merge=0.5)


def test_all_ones_single_segment():
    aff = AffinityVolume(np.ones((3, 2, 3, 3), dtype=np.float32))
    seg, stats = zwatershed(aff, WatershedParams(0.9, 0.2, 0, 0.3))
    assert stats.n_segments == 1
    assert stats.background == 0
    assert np.all(seg.data == 1)


def test_all_zeros_all_background():
    aff = AffinityVolume(np.zeros((3, 2, 3, 3), dtype=np.float32))
    seg, stats = zwatershed(aff, WatershedParams(0.9, 0.1, 0, 0.3))
    assert stats.n_segments == 0
    assert stats.background == 18
    assert np.all(seg.data == 0)


def test_chain_two_segments_then_size_merge():
    aff = chain4()
    seg, stats = zwatershed(aff, WatershedParams(0.9, 0.2, 0, 0.3))
    assert seg.data.ravel().tolist() == [1, 1, 2, 2]
    assert stats.sizes == {1: 2, 2: 2}

    merged, stats2 = zwatershed(aff, WatershedParams(0.9, 0.2, 3, 0.25))
    assert merged.data.ravel().tolist() == [1, 1, 1, 1]
    assert stats2.sizes == {1: 4}


def test_size_filter_noop():
    aff = chain4()
    seg, _ = zwatershed(aff, WatershedParams(0.9, 0.2, 0, 0.3))
    out = size_filter(seg, aff, 0, 0.25)
    assert np.array_equal(out.data, seg.data)


def test_size_filter_merges_isolated_chain():
    aff = chain4()
    seg, _ = zwatershed(aff, WatershedParams(0.9, 0.2, 0, 0.3))
    out = size_filter(seg, aff, 3, 0.25)
    assert out.data.ravel().tolist() == [1, 1, 1, 1]


def test_size_filter_drops_unsalvageable():
    # one segment below size_min, surrounded by background only
    a = np.zeros((3, 1, 1, 4), dtype=np.float32)
    a[2, 0, 0, 0] = 0.95
    aff = AffinityVolume(a)
    labels = LabelVolume(np.array([[[4, 4, 0, 0]]], dtype=np.uint64))
    out = size_filter(labels, aff, 3, 0.25)
    assert np.all(out.data == 0)


def test_size_filter_requires_qualifying_boundary():
    # boundary exists but is below t_merge: the small basin dies instead
    a = np.zeros((3, 1, 1, 4), dtype=np.float32)
    a[2, 0, 0, :3] = [0.95, 0.1, 0.9]
    aff = AffinityVolume(a)
    seg, _ = zwatershed(aff, WatershedParams(0.9, 0.05, 0, 0.2))
    out = size_filter(seg, aff, 3, 0.2)
    assert np.all(out.data == 0)


def test_size_filter_ignores_weak_boundaries_a_merge_relinks():
    # 1 joins 2 over 0.9 and inherits 1's boundary of 0.1 to 3, below
    # t_merge: 2 and 3 stay small and both drop, they do not merge
    a = np.zeros((3, 1, 1, 4), dtype=np.float32)
    a[2, 0, 0, :3] = [0.9, 0.1, 1.0]
    labels = LabelVolume(np.array([[[2, 1, 3, 3]]], dtype=np.uint64))
    out = size_filter(labels, AffinityVolume(a), 3, 0.3)
    assert np.all(out.data == 0)


@pytest.mark.parametrize("offset", [0, 2**64 - 2**12], ids=["dense", "near-2**64"])
def test_size_filter_drops_every_basin_of_a_volume_without_background(offset):
    # t_low 0 grows every voxel, so there is no background before rule (d);
    # the three pairs are below size_min and meet over 0.1 < t_merge, so all
    # drop and 0 first appears as the drops' survivor.  Ids near 2**64 make
    # the replay's lookup sort its ids rather than count them
    a = np.zeros((3, 1, 1, 6), dtype=np.float32)
    a[2, 0, 0, :5] = [0.9, 0.1, 0.9, 0.1, 0.9]
    aff = AffinityVolume(a)
    basins, stats = zwatershed(aff, WatershedParams(0.95, 0.0, 0, 0.2))
    assert stats.background == 0 and stats.n_segments == 3
    labels = LabelVolume(basins.data + np.uint64(offset))
    out = size_filter(labels, aff, 3, 0.2)
    assert np.array_equal(out.data, size_filter_reference(labels, aff, 3, 0.2))
    assert not out.data.any()
    seg, stats = zwatershed(aff, WatershedParams(0.95, 0.0, 3, 0.2))
    assert not seg.data.any() and stats.background == 6


@pytest.mark.parametrize("size_min", [0, 2])
def test_size_filter_shape_mismatch(size_min):
    # the size_min 0 no-op still checks its inputs
    aff = chain4()
    labels = LabelVolume(np.zeros((1, 1, 5), dtype=np.uint64))
    with pytest.raises(ShapeMismatch):
        size_filter(labels, aff, size_min, 0.3)


@pytest.mark.parametrize("size_min,t_merge", [(-5, 0.3), (3, 3.0), (0, 3.0), (3, float("nan")),
                                              (float("nan"), 0.3)])
def test_size_filter_rejects_bad_parameters(size_min, t_merge):
    aff = chain4()
    seg, _ = zwatershed(aff, WatershedParams(0.9, 0.2, 0, 0.3))
    with pytest.raises(ValueError, match="size_min|t_merge"):
        size_filter(seg, aff, size_min, t_merge)


def test_basin_stats_sum():
    rng = np.random.default_rng(5)
    aff = AffinityVolume(rng.random((3, 4, 5, 6), dtype=np.float32))
    seg, stats = zwatershed(aff, WatershedParams(0.9, 0.4, 3, 0.5))
    assert isinstance(stats, BasinStats)
    assert stats.total == seg.shape3.voxels


def test_segments_connected():
    rng = np.random.default_rng(6)
    for _ in range(10):
        aff = AffinityVolume(rng.random((3, 3, 5, 5), dtype=np.float32))
        seg, stats = zwatershed(aff, WatershedParams(0.9, 0.4, 4, 0.5))
        comps = connected_components(seg)
        # every label is one 6-connected piece
        n_labels = len(stats.sizes)
        assert len(np.unique(comps[comps != 0])) == n_labels


def test_monotone_in_t_high():
    # with t_low and size_min fixed, lowering t_high only adds unions,
    # so the segment count can never grow
    rng = np.random.default_rng(7)
    for _ in range(5):
        aff = AffinityVolume(rng.random((3, 3, 5, 5), dtype=np.float32))
        t_low = 0.2
        prev = None
        for t_high in (0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2):
            _, stats = zwatershed(aff, WatershedParams(t_high, t_low, 0, t_low))
            if prev is not None:
                assert stats.n_segments <= prev
            prev = stats.n_segments


def test_perfect_encoding_recovers_components():
    for seed in range(5):
        gt = synth_labels(Shape3(6, 10, 10),
                          SynthParams(n_seeds=4, anisotropy=2.0, rng_seed=seed))
        aff = synth_affinities(gt, NoiseParams())
        for t_high in (0.5, 0.9, 0.99):
            seg, _ = zwatershed(aff, WatershedParams(t_high, 0.3, 0, 0.3))
            assert partitions_equal(seg.data, connected_components(gt))


def test_deterministic():
    rng = np.random.default_rng(8)
    aff = AffinityVolume(rng.random((3, 3, 6, 6), dtype=np.float32))
    p = WatershedParams(0.9, 0.3, 5, 0.4)
    a, _ = zwatershed(aff, p)
    b, _ = zwatershed(aff, p)
    assert np.array_equal(a.data, b.data)


def test_labels_dense_in_first_voxel_order():
    rng = np.random.default_rng(9)
    aff = AffinityVolume(rng.random((3, 3, 6, 6), dtype=np.float32))
    seg, stats = zwatershed(aff, WatershedParams(0.9, 0.4, 0, 0.4))
    flat = seg.data.ravel()
    seen = []
    for v in flat.tolist():
        if v != 0 and v not in seen:
            seen.append(v)
    assert seen == list(range(1, len(stats.sizes) + 1))


def test_float32_threshold_compared_in_float64():
    # float32(0.7) is 0.69999999 < 0.7: the middle edge is not strong, and
    # each end voxel's steepest ascent (0.9) pulls its neighbour outward
    a = np.zeros((3, 1, 1, 4), dtype=np.float32)
    a[2, 0, 0, :3] = [0.9, 0.7, 0.9]
    seg, _ = zwatershed(AffinityVolume(a), WatershedParams(0.7, 0.3, 0, 0.5))
    assert seg.data.ravel().tolist() == [1, 1, 2, 2]


def test_float32_ceil_is_the_smallest_float32_at_or_above_t():
    # float32 values x have x >= c iff x >= t in float64; round to nearest
    # would go below t for about half the doubles
    rng = np.random.default_rng(0)
    f = rng.random(300).astype(np.float32).astype(np.float64)
    ts = [*rng.random(3000), 0.0, 1.0, 0.1, 0.3, 0.7, 0.99,
          *f, *np.nextafter(f, 2.0), *np.nextafter(f, -1.0)]
    for t in ts:
        c = _float32_ceil(t)
        assert c.dtype == np.float32
        assert np.float64(c) >= t > np.float64(np.nextafter(c, np.float32(-np.inf))), t


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.25, 1.5])
def test_non_finite_or_out_of_range_affinities_are_rejected(bad):
    # read_volume skips the range check; an argmax takes a NaN as the
    # strongest edge, which here joins voxels 0 and 3 through background
    a = np.zeros((3, 1, 1, 4), dtype=np.float32)
    a[2, 0, 0, :3] = [0.9, bad, 0.5]
    aff = AffinityVolume(a, check_range=False)
    with pytest.raises(ValueError, match="finite"):
        zwatershed(aff, WatershedParams(0.95, 0.3, 0, 0.3))
    labels = LabelVolume(np.array([[[1, 1, 2, 2]]], dtype=np.uint64))
    for size_min in (0, 2):
        with pytest.raises(ValueError, match="finite"):
            size_filter(labels, aff, size_min, 0.3)


BFS_THRESHOLDS = ((0.99, 0.3), (0.95, 0.6), (0.9, 0.7), (0.7, 0.3), (0.7, 0.7))


def assert_basins_match_bfs(vol, thresholds=BFS_THRESHOLDS):
    for t_high, t_low in thresholds:
        seg, _ = zwatershed(vol, WatershedParams(t_high, t_low, 0, t_low))
        assert np.array_equal(seg.data, watershed_basins(vol, t_high, t_low)), (t_high, t_low)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("jitter", [0.0, 0.3])
def test_basins_match_bfs_oracle(seed, jitter):
    gt = synth_labels(Shape3(6, 12, 12), SynthParams(n_seeds=4, anisotropy=2.0, rng_seed=seed))
    aff = synth_affinities(gt, NoiseParams(flip_sigma=0.25, jitter_prob=jitter, rng_seed=seed))
    # affinities on a 0.05 grid make many edges sit exactly at a threshold;
    # float32 rounds 0.7, 0.9 and 0.95 down and 0.3, 0.6, 0.99 up
    grid = AffinityVolume((np.round(aff.data * 20) / 20).astype(np.float32))
    for vol in (aff, grid):
        assert_basins_match_bfs(vol)


def tie_volume(case):
    """All 0.5, or values on a 0.25 grid, on a 6x12x12 volume or a thin one."""
    kind, dims = case.split("_")
    if kind == "grid" and dims == "6x12x12":
        return rule_d_volume("grid", 1)
    shape = (3, *map(int, dims.split("x")))
    if kind == "equal":
        return AffinityVolume(np.full(shape, 0.5, dtype=np.float32))
    return AffinityVolume(np.random.default_rng(7).integers(0, 5, shape).astype(np.float32) / 4)


TIE_CASES = [f"{kind}_{dims}" for kind in ("equal", "grid")
             for dims in ("6x12x12", "1x1x1", "1x1x7", "1x6x6", "6x1x6", "6x6x1", "7x1x1")]


@pytest.mark.parametrize("case", TIE_CASES)
def test_basins_match_bfs_oracle_on_ties_and_thin_shapes(case):
    # every voxel ties with a neighbour (mutual-pair roots), all-equal rows
    # ascend step by step (long jump chains), thin shapes lack whole axes;
    # at t_high 0 every slot is strong, the out-of-bounds ones included
    extra = ((0.75, 0.5), (0.5, 0.5), (0.5, 0.25), (1.0, 0.0), (0.0, 0.0))
    assert_basins_match_bfs(tie_volume(case), BFS_THRESHOLDS + extra)


# the centre of a 3x3x3 volume: its six neighbours in tie order (channel
# ascending, minus before plus), the slots of its edges to them, and for
# each neighbour the slot of an edge to a partner voxel of its own
CENTRE_NEIGHBOURS = [(0, 1, 1), (2, 1, 1), (1, 0, 1), (1, 2, 1), (1, 1, 0), (1, 1, 2)]
CENTRE_SLOTS = [(0, 0, 1, 1), (0, 1, 1, 1), (1, 1, 0, 1), (1, 1, 1, 1), (2, 1, 1, 0), (2, 1, 1, 1)]
PARTNER_SLOTS = [(1, 0, 0, 1), (1, 2, 1, 1), (2, 1, 0, 0), (2, 1, 2, 1), (0, 0, 1, 0), (0, 1, 1, 2)]


@pytest.mark.parametrize("mask", range(1, 64))
def test_centre_links_to_its_first_tied_neighbour(mask):
    # the centre's edges to the places in `mask` tie at its maximum, 0.75,
    # and its others weigh 0.5; each neighbour's own strongest edge (1.0)
    # leads to its partner, so only the centre's link joins it to the basin
    # of one neighbour: the first tied place, never a later one
    a = np.zeros((3, 3, 3, 3), dtype=np.float32)
    for place, (slot, partner) in enumerate(zip(CENTRE_SLOTS, PARTNER_SLOTS)):
        a[slot] = 0.75 if mask >> place & 1 else 0.5
        a[partner] = 1.0
    aff = AffinityVolume(a)
    seg, _ = zwatershed(aff, WatershedParams(1.0, 0.3, 0, 0.3))
    assert np.array_equal(seg.data, watershed_basins(aff, 1.0, 0.3))
    first = CENTRE_NEIGHBOURS[(mask & -mask).bit_length() - 1]
    assert seg.data[1, 1, 1] == seg.data[first]
    assert seg.data.max() == 6


def rule_d_volume(kind, seed):
    """6x12x12 affinities: jittered, rounded to a 0.25 grid, or all equal."""
    gt = synth_labels(Shape3(6, 12, 12), SynthParams(n_seeds=6, anisotropy=2.0, rng_seed=seed))
    aff = synth_affinities(gt, NoiseParams(flip_sigma=0.25, jitter_prob=0.3, rng_seed=seed))
    if kind == "grid":
        return AffinityVolume((np.round(aff.data * 4) / 4).astype(np.float32))
    if kind == "equal":
        return AffinityVolume(np.full_like(aff.data, 0.5))
    return aff


RULE_D_CASES = [f"{kind}_{seed}" for kind in ("jitter", "grid", "equal") for seed in (1, 2)]
RULE_D_PARAMS = [(0.99, 0.3, 25, 0.3), (0.95, 0.5, 10, 0.5), (0.9, 0.25, 60, 0.75),
                 (0.75, 0.5, 8, 0.5)]


@pytest.mark.parametrize("case", RULE_D_CASES)
def test_size_filter_matches_rule_d_oracle(case):
    kind, seed = case.rsplit("_", 1)
    aff = rule_d_volume(kind, int(seed))
    rng = np.random.default_rng(int(seed))
    merged = 0
    for t_high, t_low, size_min, t_merge in RULE_D_PARAMS:
        basins, stats = zwatershed(aff, WatershedParams(t_high, t_low, 0, t_low))
        # permuted, non-dense labels: the tie rules follow label values, also
        # near 2**63 and 2**64 (built in uint64: through float64 they collide)
        perm = rng.permutation(stats.n_segments).astype(np.uint64) * np.uint64(3)
        for offset in (7, 2**63, 2**64 - 2**12):
            ids = np.concatenate([np.zeros(1, np.uint64), perm + np.uint64(offset)])
            labels = LabelVolume(ids[basins.data])
            for m in (size_min, 1, 2 * size_min):
                got = size_filter(labels, aff, m, t_merge)
                expected = size_filter_reference(labels, aff, m, t_merge)
                assert np.array_equal(got.data, expected), (offset, t_high, t_low, m, t_merge)
                merged += stats.n_segments - int(expected.max())
    assert merged > 0  # rule (d) really ran


@pytest.mark.parametrize("case", RULE_D_CASES)
def test_zwatershed_size_min_matches_rule_d_oracle(case):
    kind, seed = case.rsplit("_", 1)
    aff = rule_d_volume(kind, int(seed))
    for t_high, t_low, size_min, t_merge in RULE_D_PARAMS:
        basins, _ = zwatershed(aff, WatershedParams(t_high, t_low, 0, t_merge))
        seg, stats = zwatershed(aff, WatershedParams(t_high, t_low, size_min, t_merge))
        expected = size_filter_reference(basins, aff, size_min, t_merge)
        assert np.array_equal(seg.data, expected), (t_high, t_low, size_min, t_merge)
        assert stats.background == int(np.count_nonzero(expected == 0))


THIN_CASES = [f"{kind}_{dims}" for kind in ("equal", "grid")
              for dims in ("1x1x1", "1x1x7", "1x6x6", "7x1x1", "6x1x6", "3x4x5")]


@pytest.mark.parametrize("case", THIN_CASES)
def test_size_filter_matches_rule_d_oracle_on_ties_and_thin_shapes(case):
    # equal weights tie every boundary, so the label tie rules decide each
    # merge; thin shapes give basins with few neighbours along whole axes.
    # The labels are the grid volume's basins (all-equal affinities ascend
    # into one basin) and random ids, which need not be connected
    aff = tie_volume(case)
    grid = tie_volume("grid_" + case.split("_")[1])
    rng = np.random.default_rng(len(case))
    labelings = [zwatershed(grid, WatershedParams(t_high, t_low, 0, t_low))[0]
                 for t_high, t_low in ((0.99, 0.3), (0.75, 0.5), (0.5, 0.25), (1.0, 0.0))]
    labelings.append(LabelVolume(rng.integers(0, 6, aff.data.shape[1:]).astype(np.uint64)))
    removed = 0
    for basins in labelings:
        n = int(basins.data.max())
        ids = np.concatenate([np.zeros(1, np.uint64),
                              rng.permutation(n).astype(np.uint64) * 5 + 3])
        for labels in (basins, LabelVolume(ids[basins.data])):
            for size_min in range(1, 6):
                for t_merge in (0.0, 0.25, 0.5):
                    got = size_filter(labels, aff, size_min, t_merge)
                    expected = size_filter_reference(labels, aff, size_min, t_merge)
                    assert np.array_equal(got.data, expected), (n, size_min, t_merge)
                    removed += n - int(expected.max())
    assert removed > 0 or aff.data[0].size == 1  # rule (d) really ran


def tie_row(*runs):
    """A 1x1xN row of (label, voxels) runs whose x-affinities all tie at 0.5."""
    labels = np.concatenate([np.full(n, l, dtype=np.uint64) for l, n in runs])
    aff = np.zeros((3, 1, 1, len(labels)), dtype=np.float32)
    aff[2] = 0.5
    return LabelVolume(labels.reshape(1, 1, -1)), AffinityVolume(aff)


@pytest.mark.parametrize("runs,expected", [
    # A (2) and B (3) are small, C (1) is not: A, the smaller small label,
    # joins B, which is then big enough to stay apart from C.  Visiting the
    # boundaries in (lo, hi) order would let B join C first, then A join both
    ([(2, 20), (3, 20), (1, 30)], [1] * 40 + [2] * 30),
    # X (1) joins Y (2), its smallest neighbour; Y, still small, joins Z (3)
    # across the boundary it took over from X.  Y has no boundary of its own
    # to Z: without X's, X and Y would both drop to background
    ([(3, 30), (1, 5), (2, 5)], [1] * 40),
], ids=["order-decides-the-partition", "absorber-inherits-boundary"])
def test_size_filter_tie_order(runs, expected):
    labels, aff = tie_row(*runs)
    assert size_filter(labels, aff, 25, 0.3).data.ravel().tolist() == expected
    assert size_filter_reference(labels, aff, 25, 0.3).ravel().tolist() == expected


def test_size_filter_matches_rule_d_oracle_on_random_tie_grids():
    # affinities on a 0.25 grid tie many boundaries at each weight, so label
    # order settles most merges; permuted ids vary that order
    rng = np.random.default_rng(13)
    merged = 0
    for _ in range(50):
        shape = (3, *rng.integers(1, (11, 15, 15)))
        aff = AffinityVolume(rng.integers(0, 5, shape).astype(np.float32) / 4)
        t_low = float(rng.choice([0.0, 0.25, 0.5]))
        basins, stats = zwatershed(aff, WatershedParams(1.0, t_low, 0, t_low))
        ids = np.concatenate([np.zeros(1, np.uint64),
                              rng.permutation(stats.n_segments).astype(np.uint64) + 1])
        labels = LabelVolume(ids[basins.data])
        size_min, t_merge = int(rng.integers(1, 41)), float(rng.choice([0.25, 0.5, 0.75]))
        expected = size_filter_reference(labels, aff, size_min, t_merge)
        assert np.array_equal(size_filter(labels, aff, size_min, t_merge).data, expected)
        merged += stats.n_segments - int(expected.max())
    assert merged > 0  # rule (d) really ran
