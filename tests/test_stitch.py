import numpy as np
import pytest

from affseg.stitch import (
    BlockSpec,
    CoverageGap,
    InvalidPartition,
    build_stitch_graph,
    partition_blocks,
    read_manifest,
    stitch,
    write_manifest,
)
from affseg.synthdata import NoiseParams, SynthParams, synth_affinities, synth_labels
from affseg.volume import AffinityVolume, LabelVolume, Shape3
from affseg.zwatershed import WatershedParams, zwatershed

from oracles import partitions_equal, stitch_overlaps_reference


def two_blocks_1d():
    return partition_blocks(Shape3(1, 1, 10), Shape3(1, 1, 6), (0, 0, 2))


def test_partition_1d_example():
    specs = two_blocks_1d()
    assert [s.core[2] for s in specs] == [(0, 6), (6, 10)]
    assert [s.halo[2] for s in specs] == [(0, 8), (4, 10)]
    assert all(s.core[0] == (0, 1) and s.halo[0] == (0, 1) for s in specs)


def test_partition_single_block():
    specs = partition_blocks(Shape3(4, 4, 4), Shape3(9, 9, 9), (0, 0, 0))
    assert len(specs) == 1
    assert specs[0].core == ((0, 4), (0, 4), (0, 4))
    assert specs[0].halo == specs[0].core


def test_partition_rejects_zero_halo_on_split_axis():
    with pytest.raises(InvalidPartition):
        partition_blocks(Shape3(1, 1, 10), (1, 1, 5), (1, 1, 0))


@pytest.mark.parametrize("block, halo, bad", [
    ((2.7, 2, 2), (1, 1, 1), "block"),  # would tile with blocks of 2
    ((2, 2, 2), (0.9, 1, 1), "halo"),  # would become halo 0 on a split axis
    ((2, 2), (1, 1, 1), "block"),
    ((0, 2, 2), (1, 1, 1), "block"),
])
def test_partition_rejects_extents_that_are_not_three_whole_numbers(block, halo, bad):
    with pytest.raises(ValueError, match=f"{bad} must be 3 integers"):
        partition_blocks(Shape3(4, 4, 4), block, halo)


def test_partition_cores_tile_exactly():
    shape = Shape3(7, 9, 11)
    specs = partition_blocks(shape, (3, 4, 5), (1, 2, 1))
    cover = np.zeros(shape.as_tuple(), dtype=np.int64)
    for sp in specs:
        sl = tuple(slice(a, b) for a, b in sp.core)
        cover[sl] += 1
    assert np.all(cover == 1)
    for sp in specs:
        for (h0, h1), (c0, c1), dim in zip(sp.halo, sp.core, shape.as_tuple()):
            assert 0 <= h0 <= c0 and c1 <= h1 <= dim


def test_halo_overlap_at_least_two():
    specs = two_blocks_1d()
    lo = max(specs[0].halo[2][0], specs[1].halo[2][0])
    hi = min(specs[0].halo[2][1], specs[1].halo[2][1])
    assert hi - lo >= 2


def test_stitch_full_span_segment():
    specs = two_blocks_1d()
    la = LabelVolume(np.full((1, 1, 8), 5, dtype=np.uint64))
    lb = LabelVolume(np.full((1, 1, 6), 9, dtype=np.uint64))
    out = stitch(specs, [la, lb])
    assert out.data.shape == (1, 1, 10)
    assert len(np.unique(out.data)) == 1
    assert np.all(out.data != 0)


def test_stitch_small_overlap_with_ratio():
    # shared region is 2 voxels; labels meet on exactly one of them
    specs = partition_blocks(Shape3(1, 1, 8), Shape3(1, 1, 4), (0, 0, 1))
    la = np.zeros((1, 1, 5), dtype=np.uint64)
    la[0, 0, :] = [1, 1, 1, 1, 0]   # halo [0, 5): present on shared voxel 3
    lb = np.zeros((1, 1, 5), dtype=np.uint64)
    lb[0, 0, :] = [2, 2, 2, 2, 2]   # halo [3, 8): overlap at global voxel 3 only
    out = stitch(specs, [LabelVolume(la), LabelVolume(lb)],
                 min_ratio=0.5, min_voxels=1)
    labels = np.unique(out.data[out.data != 0])
    assert len(labels) == 1  # 1 >= 0.5 * min(counts in shared region)

    out2 = stitch(specs, [LabelVolume(la), LabelVolume(lb)],
                  min_ratio=0.5, min_voxels=2)
    assert len(np.unique(out2.data[out2.data != 0])) == 2  # absolute floor blocks it


def test_stitch_rejects_nan_min_voxels():
    specs = two_blocks_1d()
    labelings = [LabelVolume(np.ones(s.halo_shape, dtype=np.uint64)) for s in specs]
    with pytest.raises(ValueError, match="min_voxels"):
        stitch(specs, labelings, min_voxels=float("nan"))


def test_stitch_zero_overlap_stays_separate():
    specs = two_blocks_1d()
    la = np.zeros((1, 1, 8), dtype=np.uint64)
    la[0, 0, :4] = 3                 # entirely outside the shared region
    lb = np.full((1, 1, 6), 4, dtype=np.uint64)
    out = stitch(specs, [LabelVolume(la), LabelVolume(lb)])
    written = out.data[0, 0]
    assert len(np.unique(written[written != 0])) == 2


def test_stitch_background_stays_zero():
    specs = two_blocks_1d()
    la = LabelVolume(np.zeros((1, 1, 8), dtype=np.uint64))
    lb = LabelVolume(np.zeros((1, 1, 6), dtype=np.uint64))
    out = stitch(specs, [la, lb])
    assert np.all(out.data == 0)


def test_stitch_missing_block():
    specs = two_blocks_1d()
    with pytest.raises(CoverageGap):
        stitch(specs, [LabelVolume(np.zeros((1, 1, 8), dtype=np.uint64)), None])


def test_stitch_fewer_labelings_than_specs():
    specs = two_blocks_1d()
    with pytest.raises(CoverageGap, match="2 specs but 1 labelings"):
        stitch(specs, [LabelVolume(np.zeros((1, 1, 8), dtype=np.uint64))])


def test_stitch_wrong_shape():
    specs = two_blocks_1d()
    good = LabelVolume(np.zeros((1, 1, 8), dtype=np.uint64))
    bad = LabelVolume(np.zeros((1, 1, 3), dtype=np.uint64))
    with pytest.raises(CoverageGap):
        stitch(specs, [good, bad])


def block_pipeline(aff, params, blocks, halo):
    shape = aff.shape3
    specs = partition_blocks(shape, blocks, halo)
    labelings = []
    for sp in specs:
        sl = (slice(None),) + tuple(slice(a, b) for a, b in sp.halo)
        sub = AffinityVolume(np.ascontiguousarray(aff.data[sl]))
        seg, _ = zwatershed(sub, params)
        labelings.append(seg)
    return specs, labelings


def test_blockwise_equals_whole_volume_noiseless():
    params = WatershedParams(0.9, 0.3, 0, 0.3)
    for seed in range(5):
        gt = synth_labels(Shape3(12, 12, 12),
                          SynthParams(n_seeds=3, anisotropy=2.0, rng_seed=seed))
        aff = synth_affinities(gt, NoiseParams())
        whole, _ = zwatershed(aff, params)
        specs, labelings = block_pipeline(aff, params, (6, 6, 6), (2, 2, 2))
        merged = stitch(specs, labelings)
        assert partitions_equal(merged.data, whole.data)


def test_stitch_invariant_under_local_renumbering():
    params = WatershedParams(0.9, 0.3, 0, 0.3)
    gt = synth_labels(Shape3(8, 8, 8), SynthParams(n_seeds=3, anisotropy=2.0, rng_seed=3))
    aff = synth_affinities(gt, NoiseParams())
    specs, labelings = block_pipeline(aff, params, (4, 8, 8), (2, 2, 2))
    base = stitch(specs, labelings)

    renumbered = []
    for k, lv in enumerate(labelings):
        data = lv.data.astype(np.int64)
        shifted = np.where(data != 0, data + 1000 * (k + 1), 0).astype(np.uint64)
        renumbered.append(LabelVolume(shifted))
    other = stitch(specs, renumbered)
    assert partitions_equal(base.data, other.data)


def test_every_core_voxel_written_once_shape_preserved():
    params = WatershedParams(0.9, 0.3, 0, 0.3)
    gt = synth_labels(Shape3(9, 7, 5), SynthParams(n_seeds=3, anisotropy=2.0, rng_seed=4))
    aff = synth_affinities(gt, NoiseParams())
    specs, labelings = block_pipeline(aff, params, (4, 4, 4), (2, 2, 2))
    merged = stitch(specs, labelings)
    assert merged.data.shape == (9, 7, 5)
    assert np.all(merged.data != 0)  # noiseless watershed labels every voxel


def test_stitch_graph_weights_bounded_by_node_counts():
    params = WatershedParams(0.9, 0.3, 0, 0.3)
    gt = synth_labels(Shape3(10, 10, 10), SynthParams(n_seeds=4, anisotropy=2.0, rng_seed=5))
    aff = synth_affinities(gt, NoiseParams())
    specs, labelings = block_pipeline(aff, params, (5, 5, 5), (2, 2, 2))
    graph = build_stitch_graph(specs, labelings)
    assert graph.edges, "expected overlaps between adjacent blocks"
    for (na, nb), (overlap, count_a, count_b) in graph.edges.items():
        assert na[0] != nb[0]  # always across two different blocks
        assert 1 <= overlap <= min(count_a, count_b)


def random_labelings(specs, seed, empty=()):
    """Labels 0..4 per halo voxel, nonzero ones shifted near 2**64; the
    blocks in `empty` are all background."""
    rng = np.random.default_rng(seed)
    out = []
    for k, spec in enumerate(specs):
        raw = rng.integers(0, 5, size=spec.halo_shape).astype(np.uint64)
        raw[raw != 0] += np.uint64(2**64 - 8)
        out.append(LabelVolume(raw * np.uint64(k not in empty)))
    return out


def test_stitch_graph_equals_oracle_when_halos_reach_past_neighbours():
    # x halo 4 >= block 3, so blocks two and three apart along x overlap too
    specs = partition_blocks(Shape3(3, 6, 14), (3, 3, 3), (1, 1, 4))
    assert len(specs) == 10
    for seed in range(3):
        labelings = random_labelings(specs, seed, empty={4})
        edges = build_stitch_graph(specs, labelings).edges
        assert edges == stitch_overlaps_reference(specs, labelings)
        assert any(abs(na[0] - nb[0]) >= 2 and specs[na[0]].core[1] == specs[nb[0]].core[1]
                   for na, nb in edges)


def test_stitch_graph_equals_oracle_on_irregular_specs():
    specs = [BlockSpec(core=((0, 2), (0, 3), (0, 4)), halo=((0, 3), (0, 4), (0, 6))),
             BlockSpec(core=((0, 2), (0, 3), (4, 7)), halo=((0, 2), (0, 5), (1, 7))),
             BlockSpec(core=((0, 2), (3, 5), (0, 7)), halo=((0, 3), (1, 5), (0, 7))),
             BlockSpec(core=((2, 3), (0, 5), (0, 7)), halo=((1, 3), (0, 5), (0, 7)))]
    for seed in range(3):
        labelings = random_labelings(specs, seed)
        graph = build_stitch_graph(specs, labelings)
        assert graph.edges == stitch_overlaps_reference(specs, labelings)
        assert {(int(graph.nodes[a, 0]), int(graph.nodes[b, 0]))
                for a, b in zip(graph.a, graph.b)} == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
                                                       (2, 3)}
        merged = stitch(specs, labelings, min_ratio=0.5, min_voxels=1)
        assert merged.data.shape == (3, 5, 7)


@pytest.mark.parametrize("core,halo", [
    (((0, 2), (0, 4), (0, 4)), ((0, 2), (1, 4), (0, 4))),   # core starts before its halo
    (((0, 2), (0, 4), (0, 4)), ((0, 2), (0, 4), (0, 3))),   # core ends after its halo
    (((0, 2), (0, 4), (0, 4)), ((2, 0), (0, 4), (0, 4))),   # reversed halo
    (((0, 2), (2, 2), (0, 4)), ((0, 2), (0, 4), (0, 4))),   # empty core
    (((-1, 2), (0, 4), (0, 4)), ((-1, 2), (0, 4), (0, 4))),  # negative start
])
def test_block_spec_rejects_out_of_order_ranges(core, halo):
    with pytest.raises(InvalidPartition):
        BlockSpec(core=core, halo=halo)


@pytest.mark.parametrize("cores", [
    [(0, 6), (4, 10)],   # two writers for voxels 4 and 5
    [(0, 4), (6, 10)],   # nobody writes voxels 4 and 5
    [],
])
def test_stitch_rejects_cores_that_do_not_tile(cores):
    specs = [BlockSpec(core=((0, 1), (0, 1), c), halo=((0, 1), (0, 1), (0, 10))) for c in cores]
    labelings = [LabelVolume(np.ones((1, 1, 10), dtype=np.uint64)) for _ in cores]
    with pytest.raises(InvalidPartition):
        stitch(specs, labelings)


def test_manifest_roundtrip(tmp_path):
    specs = partition_blocks(Shape3(9, 7, 5), (4, 4, 4), (2, 2, 2))
    paths = [f"seg_{i:04d}.volb" for i in range(len(specs))]
    p = tmp_path / "manifest.txt"
    write_manifest(specs, paths, p)
    specs2, paths2 = read_manifest(p)
    assert specs2 == specs
    assert paths2 == paths
    assert isinstance(specs2[0], BlockSpec)


def test_manifest_blank_lines_are_skipped(tmp_path):
    specs = partition_blocks(Shape3(9, 7, 5), (4, 4, 4), (2, 2, 2))
    paths = [f"seg_{i:04d}.volb" for i in range(len(specs))]
    p = tmp_path / "manifest.txt"
    write_manifest(specs, paths, p)
    p.write_text("\n" + "  \n".join(p.read_text().splitlines(keepends=True)) + "\t\n\n")
    assert read_manifest(p) == (specs, paths)
