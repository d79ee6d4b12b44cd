import copy
import heapq

import numpy as np
import pytest

from affseg.agglo import (
    DegenerateTraining,
    FeatureAccumulator,
    HIST_BINS,
    Logistic,
    MeanAffinity,
    MergeTree,
    MissingEdge,
    N_FEATURES,
    TreeBaseMismatch,
    _dominant,
    agglomerate,
    apply_threshold,
    build_rag,
    edge_feature_vector,
    edge_features,
    threshold_lookups,
    train_scorer,
)
from affseg.synthdata import NoiseParams, SynthParams, synth_affinities, synth_labels
from affseg.volume import AffinityVolume, LabelVolume, Shape3, cooccurrence, overlap_counts

from oracles import (agglomerate_reference, boundary_stats, boundary_values, dominant_reference,
                     replay_reference, training_rounds_reference)

# every named statistic of a FeatureAccumulator, whatever its storage
STATS = ("count", "s1", "s2", "s3", "s4", "vmin", "vmax", "hist")


def chain3():
    a = np.zeros((3, 1, 1, 3), dtype=np.float32)
    a[2, 0, 0, :2] = [0.9, 0.4]
    return AffinityVolume(a)


def chain_rag(means):
    """1d volume of 2-voxel segments with the given boundary affinities."""
    n_seg = len(means) + 1
    a = np.zeros((3, 1, 1, 2 * n_seg), dtype=np.float32)
    labels = np.zeros((1, 1, 2 * n_seg), dtype=np.uint64)
    for i in range(n_seg):
        labels[0, 0, 2 * i : 2 * i + 2] = i + 1
        a[2, 0, 0, 2 * i] = 1.0
        if i < len(means):
            a[2, 0, 0, 2 * i + 1] = means[i]
    return LabelVolume(labels), AffinityVolume(a)


def noisy_instance(seed, shape=Shape3(6, 12, 12), n_seeds=4):
    gt = synth_labels(shape, SynthParams(n_seeds=n_seeds, anisotropy=2.0, rng_seed=seed))
    aff = synth_affinities(gt, NoiseParams(flip_sigma=0.25, jitter_prob=0.0, rng_seed=seed))
    from affseg.zwatershed import WatershedParams, zwatershed

    seg, _ = zwatershed(aff, WatershedParams(t_high=0.995, t_low=0.5, size_min=0, t_merge=0.5))
    return gt, aff, seg


# ---------------------------------------------------------------- build_rag


def test_build_rag_chain_example():
    labels = LabelVolume(np.array([[[1, 1, 2]]], dtype=np.uint64))
    rag = build_rag(labels, chain3())
    assert rag.nodes == {1: 2, 2: 1}
    acc = rag.edge_acc(1, 2)
    assert acc.total_count == 1
    assert acc.pooled_mean() == pytest.approx(0.4)


def test_build_rag_single_label():
    labels = LabelVolume(np.ones((2, 2, 2), dtype=np.uint64))
    rag = build_rag(labels, AffinityVolume(np.ones((3, 2, 2, 2), dtype=np.float32)))
    assert rag.n_nodes == 1
    assert rag.n_edges == 0
    assert rag.nodes == {1: 8}


def test_build_rag_background_blocks_adjacency():
    labels = LabelVolume(np.array([[[1, 0, 2]]], dtype=np.uint64))
    rag = build_rag(labels, chain3())
    assert sorted(rag.nodes) == [1, 2]
    assert rag.n_edges == 0


def test_missing_edge():
    labels = LabelVolume(np.array([[[1, 0, 2]]], dtype=np.uint64))
    rag = build_rag(labels, chain3())
    with pytest.raises(MissingEdge):
        edge_features(rag, (1, 2))


def oracle_case(name):
    if name.startswith("noisy"):
        _, aff, seg = noisy_instance(int(name[-1]))
        return seg, aff
    _, aff, seg = noisy_instance(3)
    if name == "background":  # every third fragment erased to background
        return LabelVolume(np.where(seg.data % 3 == 0, 0, seg.data)), aff
    return LabelVolume(np.ones(seg.data.shape, dtype=np.uint64)), aff  # single label


@pytest.mark.parametrize("case", ["noisy0", "noisy1", "noisy2", "background", "single"])
def test_build_rag_matches_per_pair_oracle(case):
    labels, aff = oracle_case(case)
    rag = build_rag(labels, aff)
    values, sizes = boundary_values(labels, aff)
    assert rag.nodes == sizes
    assert set(rag.edges) == {(lo, hi) for lo, hi, _ in values}
    # rows are numbered in (lo, hi) order, and `edges` lists them in row order
    assert list(rag.edges) == sorted(rag.edges)
    assert list(rag.edges.values()) == list(range(rag.n_edges))
    for (a, b) in rag.edges:
        acc = rag.edge_acc(a, b)
        for c in range(3):
            if (a, b, c) not in values:
                assert acc.count[c] == 0 and np.all(acc.channel_stats(c) == 0.0)
                continue
            want = boundary_stats(values[(a, b, c)])
            assert acc.count[c] == want["count"]
            assert acc.hist[c].tolist() == want["hist"]
            assert acc.vmin[c] == want["vmin"] and acc.vmax[c] == want["vmax"]
            assert acc.s1[c] == want["s"][0]
            np.testing.assert_allclose([acc.s2[c], acc.s3[c], acc.s4[c]], want["s"][1:],
                                       rtol=1e-12, atol=0)
            err = np.abs(acc.channel_stats(c) - want["features"])
            assert np.all(err <= 1e-12 * np.array(want["feature_scale"]))


@pytest.mark.parametrize("at", [1, 0], ids=["boundary", "interior"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.3, 1.5])
def test_build_rag_rejects_non_finite_or_out_of_range_affinities(bad, at):
    # unchecked, a NaN boundary was merged at score nan, which the written
    # tree cannot be read back with, and a negative value was counted in
    # the histogram of another boundary
    labels = LabelVolume(np.array([[[1, 1, 2, 2, 3, 3]]], dtype=np.uint64))
    a = np.zeros((3, 1, 1, 6), dtype=np.float32)
    a[2, 0, 0] = [0.9, 0.9, 0.9, 0.7, 0.9, 0.0]
    a[2, 0, 0, at] = bad
    aff = AffinityVolume(a, check_range=False)
    with pytest.raises(ValueError, match="finite and lie in"):
        build_rag(labels, aff)
    for scorer in (MeanAffinity(), size_logistic(0.0, 0.0)):
        with pytest.raises(ValueError, match="finite and lie in"):
            agglomerate(labels, aff, scorer, 0.5)


@pytest.mark.parametrize("shift", [2**40, 2**64 - 2**20], ids=["2**40", "2**64-2**20"])
def test_build_rag_packed_sort_equals_lexsort_of_wide_ids(shift, monkeypatch):
    # labels as they are pack their (lo, hi, edge) sort keys into uint64;
    # shifted, they do not, and build_rag falls back to a lexsort
    _, aff, seg = noisy_instance(5, Shape3(8, 24, 24), 8)
    labels = LabelVolume(np.where(seg.data % 3 == 0, 0, seg.data))  # with background
    sorts = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: sorts.append(1) or lexsort(keys))
    rag, tree = build_rag(labels, aff), agglomerate(labels, aff, MeanAffinity(), 0.0)[1]
    assert not sorts and rag.n_edges > 50
    lab = labels.data
    wide = LabelVolume(np.where(lab != 0, lab + np.uint64(shift), lab))
    got, got_tree = build_rag(wide, aff), agglomerate(wide, aff, MeanAffinity(), 0.0)[1]
    assert sorts
    for name in STATS:
        assert np.array_equal(getattr(got.table, name), getattr(rag.table, name))
    assert {a - shift: n for a, n in got.nodes.items()} == rag.nodes
    assert {a - shift: {b - shift: row for b, row in nb.items()}
            for a, nb in got.adj.items()} == rag.adj
    assert [(a - shift, b - shift, sc) for a, b, sc in got_tree.merges] == tree.merges


# ------------------------------------------------------------ edge features


def test_features_single_sample():
    labels = LabelVolume(np.array([[[1, 1, 2]]], dtype=np.uint64))
    fv = edge_features(build_rag(labels, chain3()), (1, 2))
    assert fv.shape == (N_FEATURES,)
    x = fv[32:48]  # x-channel block
    assert x[0] == pytest.approx(0.4)    # mean
    assert x[1] == 0.0                   # variance of one sample
    assert x[2] == 0.0 and x[3] == 0.0   # skew/kurt fall back to 0
    assert x[4] == pytest.approx(0.4) and x[5] == pytest.approx(0.4)
    assert x[6 + 4] == 1.0               # all mass in histogram bin 4
    assert fv[48] == pytest.approx(0.0)  # log(1 boundary edge)
    assert fv[49] == pytest.approx(np.log(1)) and fv[50] == pytest.approx(np.log(2))


def test_features_two_samples():
    labels = LabelVolume(np.array([[[1, 2]], [[1, 2]]], dtype=np.uint64))
    a = np.zeros((3, 2, 1, 2), dtype=np.float32)
    a[2, 0, 0, 0] = 0.0
    a[2, 1, 0, 0] = 1.0
    fv = edge_features(build_rag(labels, AffinityVolume(a)), (1, 2))
    x = fv[32:48]
    assert x[0] == pytest.approx(0.5)
    assert x[1] == pytest.approx(0.25)


def test_histogram_fractions_sum_to_one():
    rng = np.random.default_rng(3)
    for _ in range(5):
        _, aff, seg = noisy_instance(int(rng.integers(100)))
        rag = build_rag(seg, aff)
        for key in rag.edges:
            fv = edge_features(rag, key)
            assert np.all(np.isfinite(fv))
            acc = rag.edge_acc(*key)
            for c in range(3):
                if acc.count[c] > 0:
                    assert fv[c * 16 + 6 : c * 16 + 16].sum() == pytest.approx(1.0)
                else:
                    assert np.all(fv[c * 16 : (c + 1) * 16] == 0.0)


SUBSETS = [("count", "s1"), ("vmax",), ("vmin",), ("hist",), ("s2", "s4"),
           ("count", "hist", "vmin"), ("s3", "hist", "vmax"), ()]


@pytest.mark.parametrize("stats", SUBSETS)
def test_subset_rag_columns_equal_full_rag(stats):
    for seed in (0, 1, 2):
        _, aff, seg = noisy_instance(seed)
        full, sub = build_rag(seg, aff), build_rag(seg, aff, stats)
        assert sub.nodes == full.nodes and sub.edges == full.edges
        for name in stats:
            assert np.array_equal(getattr(sub.table, name), getattr(full.table, name))
        # the table stores the declared statistics and nothing else
        assert sorted(vars(sub.table)) == sorted(stats)
        for name, field in vars(sub.table).items():
            assert field.shape == (len(full.edges), 3) + (HIST_BINS,) * (name == "hist")


@pytest.mark.parametrize("stats", SUBSETS)
def test_reading_an_undeclared_statistic_raises(stats):
    _, aff, seg = noisy_instance(3)
    for acc in (FeatureAccumulator(stats), build_rag(seg, aff, stats).table):
        for name in set(STATS) - set(stats):
            with pytest.raises(AttributeError):
                getattr(acc, name)
        with pytest.raises(AttributeError):
            acc.channel_stats(0)
    with pytest.raises(AttributeError):
        edge_feature_vector(FeatureAccumulator(("count", "s1")), 1, 1)


@pytest.mark.parametrize("stats", [("count", "sl", "vmax"), ("mean",), "count", "vmax", ""])
def test_unknown_statistic_names_and_strings_are_rejected(stats):
    # a misspelt name would otherwise drop its statistic silently, and a
    # string would be read as a collection of substrings ("" as no statistic)
    _, aff, seg = noisy_instance(3)

    class Misdeclared:
        reads = stats

        def score(self, acc, size_a, size_b):
            return acc.pooled_mean()

    with pytest.raises(ValueError, match="stats must be"):
        FeatureAccumulator(stats)
    with pytest.raises(ValueError, match="stats must be"):
        FeatureAccumulator.table(4, stats)
    with pytest.raises(ValueError, match="stats must be"):
        build_rag(seg, aff, stats)
    with pytest.raises(ValueError, match="stats must be"):
        agglomerate(seg, aff, Misdeclared(), 0.5)


def test_mean_scalar_score_equals_table_score_bit_for_bit():
    # non-grid s1 sums, channel counts from 0 to below 10**8 (total at least 1),
    # then rounds of disjoint row folds as one merge makes them, so that a
    # row absorbs several others in turn
    rng = np.random.default_rng(18)
    rows = 600
    table = FeatureAccumulator.table(rows, MeanAffinity.reads)
    table.count[:] = rng.integers(0, 10 ** rng.integers(1, 9, (rows, 3)))
    table.count[:, 0] += table.count.sum(-1) == 0
    table.s1[:] = table.count * rng.random((rows, 3)).astype(np.float32)
    n, s1 = table.total_count.tolist(), table.s1.tolist()

    def assert_equal_scores():
        scalar = [MeanAffinity.scalar(k, *s) for k, s in zip(n, s1)]
        assert MeanAffinity().score(table, None, None).tolist() == scalar
        picked = rng.permutation(rows)[:rows // 3]
        assert MeanAffinity().score(table[picked], None, None).tolist() == [
            scalar[i] for i in picked]

    assert_equal_scores()
    live = list(range(rows))
    for _ in range(6):
        rng.shuffle(live)
        half = len(live) // 2
        into, dropped = live[:half // 2], live[half:half + half // 2]
        table.merge_rows(np.array(into), np.array(dropped))
        for kept, row in zip(into, dropped):
            n[kept] += n[row]
            s1[kept] = [a + b for a, b in zip(s1[kept], s1[row])]
        gone = set(dropped)
        live = [r for r in live if r not in gone]
        assert_equal_scores()


class MeanOnTheTable:
    """`MeanAffinity`'s score and statistics without its row store, so
    `agglomerate` runs it on the default store, `_table_rows`."""

    reads = MeanAffinity.reads
    score = MeanAffinity.score


@pytest.mark.parametrize("theta", [0.0, 0.5])
def test_mean_agglomerate_on_its_lean_table_matches_rescoring_a_full_table(theta):
    # the last instance has 445 fragments and 953 boundaries, and its early
    # survivors already have up to 97 neighbours; the mean scorer's own store
    # and the default one must both pick the reference's merges and scores
    instances = [noisy_instance(seed, n_seeds=6) for seed in range(6)]
    for _, aff, seg in instances + [noisy_instance(0, Shape3(16, 64, 64), n_seeds=20)]:
        want = greedy_rescoring_everything(seg, aff, MeanAffinity(), theta)
        assert want
        for scorer in (MeanAffinity(), MeanOnTheTable()):
            _, tree = agglomerate(seg, aff, scorer, theta)
            assert tree.merges == want


@pytest.mark.parametrize("theta", [0.0, 0.5])
def test_agglomerate_merges_through_the_scorers_own_row_store(theta):
    class CountingStore:
        """No score of its own: only `MeanAffinity`'s row store, with each
        of its merges counted."""

        reads = MeanAffinity.reads
        merges = 0

        def rows(self, rag):
            score, merge = MeanAffinity().rows(rag)

            def counted(a, b):
                self.merges += 1
                return merge(a, b)

            return score, counted

    for seed in range(3):
        _, aff, seg = noisy_instance(seed, n_seeds=6)
        scorer = CountingStore()
        _, tree = agglomerate(seg, aff, scorer, theta)
        assert tree.merges == agglomerate(seg, aff, MeanAffinity(), theta)[1].merges
        assert tree.merges and scorer.merges == len(tree.merges)


def test_agglomerate_builds_the_table_its_scorer_declares():
    _, aff, seg = noisy_instance(4)

    class Undeclared:
        """Reads the whole table and declares nothing."""
        def score(self, acc, size_a, size_b):
            return acc.all_channel_stats()[..., 0, 0]

    class Lean(Undeclared):
        reads = ("count", "s1")

    _, tree = agglomerate(seg, aff, Undeclared(), 0.0)
    assert tree.merges
    with pytest.raises(AttributeError):
        agglomerate(seg, aff, Lean(), 0.0)


# ------------------------------------------------------------- accumulators


def grid_values(rng, n):
    """Affinities on a 1/256 grid keep f64 power sums exactly representable."""
    return (rng.integers(0, 257, n) / 256.0).astype(np.float32)


def test_accumulator_mergeability_exact_and_relative():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(1, 400))
        values = grid_values(rng, n)
        channels = rng.integers(0, 3, n)
        split = rng.random(n) < 0.5

        whole = FeatureAccumulator()
        part_a = FeatureAccumulator()
        part_b = FeatureAccumulator()
        for c in range(3):
            whole.push(c, values[channels == c])
            part_a.push(c, values[(channels == c) & split])
            part_b.push(c, values[(channels == c) & ~split])
        merged = part_a.combine(part_b)

        assert np.array_equal(merged.count, whole.count)
        assert np.array_equal(merged.hist, whole.hist)
        for name in ("s1", "s2", "s3", "s4"):
            assert np.array_equal(getattr(merged, name), getattr(whole, name))
        for c in range(3):
            got = merged.channel_stats(c)
            want = whole.channel_stats(c)
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-15)


@pytest.mark.parametrize("stats", SUBSETS + [STATS])
def test_table_row_merge_equals_row_by_row_merges(stats):
    rng = np.random.default_rng(5)
    table = FeatureAccumulator.table(8, stats)
    for r in range(8):
        for c in range(3):
            table[r].push(c, grid_values(rng, int(rng.integers(0, 6))))  # row views
    into, rows = [6, 0, 6], [1, 7, 2]  # row 6 takes two rows in one call
    before = {name: np.copy(getattr(table, name)) for name in stats}
    want = table.copy()
    for i, r in zip(into, rows):
        want[i].merge(want[r])
    for name in stats:  # the copy owns its arrays
        assert np.array_equal(getattr(table, name), before[name])
    table.merge_rows(np.array(into), np.array(rows))
    for name in stats:
        assert np.array_equal(getattr(table, name), getattr(want, name))


def test_accumulator_minmax():
    acc = FeatureAccumulator()
    acc.push(1, np.array([0.25, 0.5], dtype=np.float32))
    other = FeatureAccumulator()
    other.push(1, np.array([0.75], dtype=np.float32))
    acc.merge(other)
    assert acc.vmin[1] == 0.25 and acc.vmax[1] == 0.75
    assert acc.total_count == 3


# -------------------------------------------------------------- agglomerate


def test_agglomerate_below_threshold_no_merge():
    labels, aff = chain_rag([0.4])
    out, tree = agglomerate(labels, aff, MeanAffinity(), 0.5)
    assert tree.merges == []
    assert np.array_equal(out.data, labels.data)


def test_agglomerate_above_threshold_merges():
    labels, aff = chain_rag([0.7])
    out, tree = agglomerate(labels, aff, MeanAffinity(), 0.5)
    assert len(tree.merges) == 1
    assert len(np.unique(out.data)) == 1


def test_agglomerate_chain_order_and_scores():
    labels, aff = chain_rag([0.9, 0.6])
    out, tree = agglomerate(labels, aff, MeanAffinity(), 0.5)
    assert [(s, t) for s, t, _ in tree.merges] == [(1, 2), (1, 3)]
    assert [sc for _, _, sc in tree.merges] == [pytest.approx(0.9), pytest.approx(0.6)]
    assert len(np.unique(out.data)) == 1


def test_agglomerate_each_merge_drops_one_segment():
    for seed in (0, 1, 2):
        _, aff, seg = noisy_instance(seed)
        before = len(np.unique(seg.data[seg.data != 0]))
        out, tree = agglomerate(seg, aff, MeanAffinity(), 0.8)
        after = len(np.unique(out.data[out.data != 0]))
        assert before - after == len(tree.merges)


def test_agglomerate_theta_zero_reaches_rag_components():
    # two groups of segments separated by background never connect
    labels = LabelVolume(np.array([[[1, 1, 2, 0, 3, 3, 4, 4]]], dtype=np.uint64))
    a = np.zeros((3, 1, 1, 8), dtype=np.float32)
    a[2, 0, 0, :] = [1, 0.5, 0, 0, 1, 0.5, 1, 0]
    out, tree = agglomerate(labels, AffinityVolume(a), MeanAffinity(), 0.0)
    kept = np.unique(out.data[out.data != 0])
    assert len(kept) == 2
    assert len(tree.merges) == 2


def test_agglomerate_scores_non_increasing_mean():
    for seed in (0, 1, 2, 3):
        _, aff, seg = noisy_instance(seed)
        _, tree = agglomerate(seg, aff, MeanAffinity(), 0.0)
        scores = [sc for _, _, sc in tree.merges]
        assert all(a >= b for a, b in zip(scores, scores[1:]))
        absorbed = [t for _, t, _ in tree.merges]
        assert len(absorbed) == len(set(absorbed))


def test_agglomerate_deterministic():
    _, aff, seg = noisy_instance(5)
    out1, tree1 = agglomerate(seg, aff, MeanAffinity(), 0.0)
    out2, tree2 = agglomerate(seg, aff, MeanAffinity(), 0.0)
    assert tree1.merges == tree2.merges
    assert np.array_equal(out1.data, out2.data)


def grid_instance(seed, levels):
    """Fragments of a synthetic volume under random affinities drawn from
    `levels`; on 0.25-grid or all-equal values every float sum is exact, so
    no summation order can change a mean."""
    labels = synth_labels(Shape3(4, 10, 10),
                          SynthParams(n_seeds=24, anisotropy=1.0, rng_seed=seed))
    values = np.random.default_rng(seed).choice(levels, (3, 4, 10, 10))
    return labels, AffinityVolume(values.astype(np.float32))


# tie-heavy levels: after a merge, the stale entries of the rows it dropped
# or relinked tie with, or outrank, the live entries still on the heap
TIE_LEVELS = [[0.0, 0.25, 0.5, 0.75, 1.0], [0.5], [0.0, 1.0], [0.25, 0.75]]


@pytest.mark.parametrize("levels", TIE_LEVELS)
@pytest.mark.parametrize("theta", [0.0, 0.25, 0.5, 0.75])
def test_agglomerate_matches_exhaustive_reference(levels, theta):
    # 0.25 and 0.75 are levels of the grid, so boundaries score exactly theta
    for seed in range(4):
        labels, aff = grid_instance(seed, levels)
        _, tree = agglomerate(labels, aff, MeanAffinity(), theta)
        assert tree.merges == agglomerate_reference(labels, aff, theta)
        assert tree.merges or theta > max(levels)  # no boundary scores above its top level


def greedy_rescoring_everything(labels, aff, scorer, theta=0.0):
    """Merge pairs and scores down to `theta`, re-scoring every boundary of
    the RAG before each merge, with no heap."""
    rag = build_rag(labels, aff)
    merges = []
    while edges := rag.edges:
        keys = sorted(edges)
        rows = [edges[key] for key in keys]
        size_a, size_b = (np.array([rag.nodes[key[i]] for key in keys]) for i in (0, 1))
        scores = scorer.score(rag.table[rows], size_a, size_b)
        neg, (a, b) = min(zip((-scores).tolist(), keys))
        if -neg < theta:
            break
        merges.append((a, b, -neg))
        rag.merge_nodes(a, b)
    return merges


def size_logistic(weight, bias):
    """A logistic scorer whose one nonzero weight is on log larger segment
    size: each score is then exact whatever the batch it is computed in,
    so exact ties stay ties."""
    weights = np.zeros(N_FEATURES)
    weights[-1] = weight
    return Logistic(weights, bias)


@pytest.mark.parametrize("theta", [0.0, 0.5])
def test_agglomerate_size_reading_scorer_matches_rescoring_everything_on_ties(theta):
    # scores tie whenever the larger segment sizes do, and each merge lowers
    # the score of every boundary of the survivor, so the stale entries of
    # its relinked and re-scored rows outrank live ones
    scorer = size_logistic(-1.0, np.log(40.0))
    for seed in range(6):
        labels, aff = grid_instance(seed, TIE_LEVELS[0])
        _, tree = agglomerate(labels, aff, scorer, theta)
        assert tree.merges == greedy_rescoring_everything(labels, aff, scorer, theta)
        assert tree.merges


def test_agglomerate_skips_stale_entries_of_dropped_and_relinked_rows():
    # 1 1 2 / 3 3 2: merging 1 and 2 adds row (2, 3), mean 0.85, into row
    # (1, 3); the pooled mean 0.35 is now below the dropped row's old entry
    labels = LabelVolume(np.array([[[1, 1, 2], [3, 3, 2]]], dtype=np.uint64))
    a = np.zeros((3, 1, 2, 3), dtype=np.float32)
    a[2, 0, :, 1] = [0.9, 0.85]
    a[1, 0, 0, :2] = 0.1
    for theta, want in ((0.5, [(1, 2)]), (0.0, [(1, 2), (1, 3)])):
        _, tree = agglomerate(labels, AffinityVolume(a), MeanAffinity(), theta)
        assert [m[:2] for m in tree.merges] == want
    # chain 1 2 3 under a score that falls with the larger segment size:
    # merging 1 and 2 relinks row (2, 3) to (1, 3) and lowers its score
    labels, aff = chain_rag([0.9, 0.8])
    scorer = size_logistic(-4.0, np.log(2.0) * 4.0 + 0.5)
    for theta, want in ((0.5, [(1, 2)]), (0.0, [(1, 2), (1, 3)])):
        _, tree = agglomerate(labels, aff, scorer, theta)
        assert [m[:2] for m in tree.merges] == want


def test_agglomerate_merges_a_row_lifted_above_theta_by_a_fold():
    # 1 1 2 / 3 3 2: row (1, 3) starts at 0.4, below theta, so only a push
    # can bring it back; merging 1 and 2 folds row (2, 3), mean 0.85, into
    # it and lifts its pooled mean to 0.55
    labels = LabelVolume(np.array([[[1, 1, 2], [3, 3, 2]]], dtype=np.uint64))
    a = np.zeros((3, 1, 2, 3), dtype=np.float32)
    a[2, 0, :, 1] = [0.9, 0.85]
    a[1, 0, 0, :2] = 0.4
    for theta, want in ((0.5, 2), (0.55, 2), (0.6, 1)):
        _, tree = agglomerate(labels, AffinityVolume(a), MeanAffinity(), theta)
        assert [m[:2] for m in tree.merges] == [(1, 2), (1, 3)][:want]
        assert tree.merges[-1][2] == pytest.approx([0.9, 0.55][want - 1])


@pytest.mark.parametrize("seed", range(6))
def test_mean_agglomerate_heap_below_the_row_count_is_never_rebuilt(seed, monkeypatch):
    # the heap is first rebuilt past the table's row count, which the
    # entries merges push at theta 0.5 stay below; a first limit of the
    # theta-cut run's length was passed for seeds 1, 2 and 4
    _, aff, seg = noisy_instance(seed, Shape3(16, 64, 64), n_seeds=20)
    rebuilds, heapify = [], heapq.heapify
    monkeypatch.setattr(heapq, "heapify", lambda heap: (rebuilds.append(len(heap)), heapify(heap)))
    _, tree = agglomerate(seg, aff, MeanAffinity(), 0.5)
    assert tree.merges
    assert rebuilds == []


class ReadRecordingMean:
    """The mean scorer's row store, with a score list that records each row
    it is read at, and a marker after each merge."""

    reads = MeanAffinity.reads

    def __init__(self):
        self.events = []

    def rows(self, rag):
        inner, inner_merge = MeanAffinity().rows(rag)
        events = self.events

        class Recorded(list):
            def __getitem__(self, row):
                events.append(row)
                return list.__getitem__(self, row)

        score = Recorded(inner)

        def merge(a, b):
            touched = inner_merge(a, b)
            for row in touched.values():  # the only rows whose score can change
                list.__setitem__(score, row, inner[row])
            events.append(("merge", touched))
            return touched

        return score, merge


@pytest.mark.parametrize("seed", range(4))
def test_agglomerate_examines_no_entry_after_the_last_merges_pushes(seed):
    # at theta 0 every boundary merges, so once the last merge has pushed
    # what it changed, every entry left in the run or the heap is stale
    _, aff, seg = noisy_instance(seed, Shape3(8, 32, 32), n_seeds=8)
    scorer = ReadRecordingMean()
    _, tree = agglomerate(seg, aff, scorer, 0.0)
    assert tree.merges == agglomerate(seg, aff, MeanAffinity(), 0.0)[1].merges
    marks = [i for i, e in enumerate(scorer.events) if isinstance(e, tuple)]
    assert len(marks) == len(tree.merges)
    last, (_, touched) = marks[-1], scorer.events[marks[-1]]
    assert scorer.events[last + 1:] == list(touched.values())


def test_agglomerate_size_reading_scorer_rescores_every_survivor_boundary():
    # the logistic features include log segment sizes, which a merge
    # changes on every boundary of the survivor
    for seed in (0, 1):
        gt, aff, seg = noisy_instance(seed, n_seeds=6)
        scorer = train_scorer(build_rag(seg, aff), gt)
        _, tree = agglomerate(seg, aff, scorer, 0.0)
        want = greedy_rescoring_everything(seg, aff, scorer)
        assert [m[:2] for m in tree.merges] == [m[:2] for m in want]
        np.testing.assert_allclose([m[2] for m in tree.merges], [m[2] for m in want],
                                   rtol=0, atol=1e-12)


# ----------------------------------------------------------- apply_threshold


def test_apply_threshold_extremes():
    labels, aff = chain_rag([0.9, 0.6])
    _, tree = agglomerate(labels, aff, MeanAffinity(), 0.0)
    unchanged = apply_threshold(tree, labels, 1.0)
    assert np.array_equal(unchanged.data, labels.data)
    merged = apply_threshold(tree, labels, 0.0)
    assert len(np.unique(merged.data)) == 1


def test_apply_threshold_middle():
    labels, aff = chain_rag([0.9, 0.6])
    _, tree = agglomerate(labels, aff, MeanAffinity(), 0.0)
    out = apply_threshold(tree, labels, 0.7)
    assert out.data.ravel().tolist() == [1, 1, 1, 1, 3, 3]


def test_apply_threshold_base_mismatch():
    labels, aff = chain_rag([0.9, 0.6])
    _, tree = agglomerate(labels, aff, MeanAffinity(), 0.0)
    other = LabelVolume(np.ones_like(labels.data))
    with pytest.raises(TreeBaseMismatch):
        apply_threshold(tree, other, 0.5)


@pytest.mark.parametrize("theta", [7.0, -0.5, float("nan")])
def test_apply_threshold_rejects_theta_outside_unit_interval(theta):
    labels, aff = chain_rag([0.9, 0.6])
    _, tree = agglomerate(labels, aff, MeanAffinity(), 0.0)
    with pytest.raises(ValueError, match="theta must be in"):
        apply_threshold(tree, labels, theta)


def test_replay_follows_a_chain_of_100_merges():
    # each merge's survivor is absorbed by the next one, so at theta 0 the
    # first label's absorbed -> survivor links run 100 deep
    rng = np.random.default_rng(24)
    order = rng.permutation(101) + 1
    labels = LabelVolume(order.astype(np.uint64).reshape(1, 1, -1))
    merges = [(int(order[k + 1]), int(order[k]), 1.0 - k / 128) for k in range(100)]
    tree = MergeTree(merges, labels)
    thetas = [1.0, 0.9, 0.5, 0.3, 0.0]
    ids = np.arange(1, 102, dtype=np.uint64)
    for theta, lut in zip(thetas, threshold_lookups(merges, ids, thetas)):
        want = replay_reference(labels, merges, theta)
        assert np.array_equal(lut[labels.data - 1], want)
        assert np.array_equal(apply_threshold(tree, labels, theta).data, want)
    assert len(np.unique(want)) == 1


def test_replay_equals_fresh_run_mean_scorer():
    rng = np.random.default_rng(6)
    for seed in (0, 1, 2):
        _, aff, seg = noisy_instance(seed)
        _, tree = agglomerate(seg, aff, MeanAffinity(), 0.0)
        for theta in rng.random(5).tolist():
            replayed = apply_threshold(tree, seg, theta)
            fresh, _ = agglomerate(seg, aff, MeanAffinity(), theta)
            assert np.array_equal(replayed.data, fresh.data)


def test_replay_equals_fresh_run_logistic_scorer():
    # Logistic scores are not monotone along the merge order, so a
    # threshold between two inverted scores separates "the prefix before
    # the dip" from "every merge scoring >= theta"; only the former is a
    # partition the agglomeration actually visits.
    from affseg.zwatershed import WatershedParams, zwatershed

    params = WatershedParams(t_high=0.995, t_low=0.5, size_min=0, t_merge=0.5)
    checked = 0
    for seed in range(6):
        gt = synth_labels(Shape3(8, 24, 24),
                          SynthParams(n_seeds=11, anisotropy=3.0, rng_seed=seed))
        aff = synth_affinities(gt, NoiseParams(flip_sigma=0.25, rng_seed=seed))
        base, _ = zwatershed(aff, params)
        scorer = train_scorer(build_rag(base, aff), gt)
        _, tree = agglomerate(base, aff, scorer, 0.0)
        scores = [sc for _, _, sc in tree.merges]
        for lo, hi in zip(scores, scores[1:]):
            if lo < hi:
                theta = (lo + hi) / 2.0
                replayed = apply_threshold(tree, base, theta)
                fresh, _ = agglomerate(base, aff, scorer, theta)
                assert np.array_equal(replayed.data, fresh.data)
                checked += 1
    assert checked > 0


def test_merge_tree_read_rejects_labels_missing_from_base(tmp_path):
    labels, aff = chain_rag([0.9, 0.6])
    p = tmp_path / "tree.txt"
    p.write_text("1 2 0.9\n999 1000 0.9\n")
    with pytest.raises(ValueError, match=r"line 2: label 999 is not a nonzero label"):
        MergeTree.read(p, labels)
    p.write_text("0 2 0.9\n")
    with pytest.raises(ValueError, match=r"line 1: label 0 is not a nonzero label"):
        MergeTree.read(p, labels)


def test_merge_tree_file_roundtrip(tmp_path):
    labels, aff = chain_rag([0.9, 0.6])
    _, tree = agglomerate(labels, aff, MeanAffinity(), 0.0)
    p = tmp_path / "tree.txt"
    tree.write(p)
    back = MergeTree.read(p, labels)
    assert back.merges == tree.merges


# ------------------------------------------------- recomputation equivalence


def test_features_equal_fresh_rebuild_after_merges():
    rng = np.random.default_rng(7)
    for seed in (0, 1):
        _, aff, seg = noisy_instance(seed)
        _, tree = agglomerate(seg, aff, MeanAffinity(), 0.0)
        if not tree.merges:
            continue
        for _ in range(3):
            k = int(rng.integers(1, len(tree.merges) + 1))
            rag = build_rag(seg, aff)
            mapping = {}

            def live(l):
                while l in mapping:
                    l = mapping[l]
                return l

            for s, t, _sc in tree.merges[:k]:
                # the larger label survives in about half the merges, as in rule (d)
                a, b = live(s), live(t)
                if rng.random() < 0.5:
                    a, b = b, a
                twin = copy.deepcopy(rag)
                got = twin.relink(a, b)
                assert all(np.array_equal(getattr(twin.table, f), getattr(rag.table, f))
                           for f in STATS)
                assert rag.merge_nodes(a, b) == got[:2]
                assert twin.nodes == rag.nodes and twin.edges == rag.edges
                mapping[b] = a

            current = np.vectorize(live, otypes=[np.uint64])(seg.data.astype(np.int64))
            fresh = build_rag(LabelVolume(current), aff)
            assert set(fresh.edges) == set(rag.edges)
            for key in fresh.edges:
                got = edge_features(rag, key)
                want = edge_features(fresh, key)
                np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)
            assert rag.nodes == fresh.nodes


@pytest.mark.parametrize("seed", range(4))
def test_relink_pairs_the_rows_of_each_common_neighbour(seed):
    # merging b into a hands back (a's row to x, b's former row to x) for
    # every neighbour x of both, and no row twice
    rng = np.random.default_rng(seed)
    _, aff, seg = noisy_instance(seed)
    rag = build_rag(seg, aff, ("count",))
    common = 0
    while rag.n_edges:
        a = int(rng.choice([l for l, nbrs in rag.adj.items() if nbrs]))
        b = int(rng.choice(list(rag.adj[a])))
        mine, theirs = dict(rag.adj[a]), dict(rag.adj[b])
        _, pairs = rag.relink(a, b)
        assert sorted(pairs) == sorted((mine[x], theirs[x]) for x in mine.keys() & theirs.keys())
        rows = [row for pair in pairs for row in pair]
        assert len(rows) == len(set(rows))
        common += len(pairs)
    assert common > 0  # the merges did pair rows


# ----------------------------------------------------------------- training


TOP = 2**64 - 1
DOMINANT_CASES = {
    # segment 1 ties gt 4 and gt 2 (purity 0.5), segment 2 has purity
    # exactly 0.5 without a tie, segment 3 covers only gt 0
    "ties": ([1] * 6 + [2] * 4 + [3] * 3, [4, 2, 4, 2, 4, 2, 7, 9, 7, 3, 0, 0, 0]),
    "top-ids": ([TOP, TOP, TOP, TOP - 1, TOP - 1, 5, 5], [TOP, 3, TOP - 1, TOP, 0, 3, TOP]),
    "random": tuple(np.random.default_rng(4).integers(0, [30, 6], (400, 2)).T),
    # few voxels per pair over many gt labels: plurality ties everywhere
    "tie-heavy": tuple(np.random.default_rng(5).integers(0, [12, 40], (150, 2)).T),
}


@pytest.mark.parametrize("case", sorted(DOMINANT_CASES))
def test_dominant_matches_the_per_segment_histogram_rule(case):
    seg, gt = (np.array(a, dtype=np.uint64) for a in DOMINANT_CASES[case])
    hist = {l: {} for l in seg.tolist()}
    for l, g in zip(seg.tolist(), gt.tolist()):
        if g:
            hist[l][g] = hist[l].get(g, 0) + 1
    table = overlap_counts(seg, gt)
    # as in a later training round: fragments regrouped into segments
    # through the table, the counts summed as weights
    node = table[0] // np.uint64(3)
    for got, segments in ((_dominant(*table), {l: [l] for l in hist}),
                          (_dominant(*cooccurrence(node, table[1], table[2])),
                           {n: [l for l in hist if l // 3 == n] for n in node.tolist()})):
        found = {l: (d, p) for l, d, p in zip(*(a.tolist() for a in got))}
        for n, members in segments.items():
            merged = {}
            for l in members:
                for g, c in hist[l].items():
                    merged[g] = merged.get(g, 0) + c
            assert found.get(n, (None, 0.0)) == dominant_reference(merged), n
        assert set(found) <= set(segments)


def test_train_scorer_perfect_accuracy_on_decision_set():
    gt, aff, seg = noisy_instance(0)
    scorer = train_scorer(build_rag(seg, aff), gt)
    X, y = scorer.training_features, scorer.training_decisions
    assert len(set(y.tolist())) == 2
    z = np.clip(X @ scorer.weights + scorer.bias, -30, 30)
    pred = 1.0 / (1.0 + np.exp(-z)) >= 0.5
    assert np.array_equal(pred, y == 1.0)


@pytest.mark.parametrize("seed", range(12))
def test_train_scorer_rounds_match_a_fresh_rag_per_round(seed):
    gt, aff, seg = noisy_instance(seed)
    scorer = train_scorer(build_rag(seg, aff), gt)
    decisions, features = training_rounds_reference(seg, aff, gt)
    assert np.array_equal(scorer.training_decisions, decisions)
    np.testing.assert_allclose(scorer.training_features, features, rtol=1e-9, atol=1e-12)


def test_train_scorer_rejects_a_merged_rag():
    # a merged RAG's rows no longer list its boundaries
    gt, aff, seg = noisy_instance(0)
    rag = build_rag(seg, aff)
    rag.merge_nodes(rag.lo[0], rag.hi[0])
    with pytest.raises(ValueError, match="fresh RAG") as caught:
        train_scorer(rag, gt)
    assert caught.type is ValueError


def test_train_scorer_single_gt_label_degenerate():
    _, aff, seg = noisy_instance(1)
    flat_gt = LabelVolume(np.ones(seg.data.shape, dtype=np.uint64))
    with pytest.raises(DegenerateTraining):
        train_scorer(build_rag(seg, aff), flat_gt)


def test_train_scorer_no_edges_degenerate():
    labels = LabelVolume(np.ones((2, 2, 2), dtype=np.uint64))
    aff = AffinityVolume(np.ones((3, 2, 2, 2), dtype=np.float32))
    with pytest.raises(DegenerateTraining):
        train_scorer(build_rag(labels, aff), labels)


def test_trained_scorer_in_unit_interval():
    gt, aff, seg = noisy_instance(2)
    rag = build_rag(seg, aff)
    nodes, edges, table = dict(rag.nodes), dict(rag.edges), rag.table.copy()
    scorer = train_scorer(rag, gt)
    # training leaves the caller's graph and table untouched
    assert rag.nodes == nodes and rag.edges == edges
    assert all(np.array_equal(getattr(rag.table, f), getattr(table, f)) for f in STATS)
    for key in rag.edges:
        a, b = key
        s = scorer.score(rag.edge_acc(a, b), rag.nodes[a], rag.nodes[b])
        assert 0.0 <= s <= 1.0


def test_logistic_bias_too_large_for_int64_is_checked_as_a_float():
    assert Logistic(np.zeros(N_FEATURES), 10**30).bias == 1e30
    for bad in (float("inf"), float("nan"), "x"):
        with pytest.raises(ValueError):
            Logistic(np.zeros(N_FEATURES), bad)


@pytest.mark.parametrize("shape", [(N_FEATURES - 1,), (N_FEATURES + 1,), (0,), (1, N_FEATURES)])
def test_logistic_rejects_weights_other_than_51_values(shape):
    with pytest.raises(ValueError, match=f"expected {N_FEATURES} weights, got shape"):
        Logistic(np.zeros(shape), 0.0)


def test_logistic_model_file_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    scorer = Logistic(rng.normal(size=N_FEATURES), -0.75)
    p = tmp_path / "model.bin"
    scorer.save(p)
    back = Logistic.load(p)
    assert np.array_equal(back.weights, scorer.weights)
    assert back.bias == scorer.bias
    assert p.stat().st_size == 1 + 52 * 8
