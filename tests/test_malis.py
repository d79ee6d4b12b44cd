import numpy as np
import pytest

from affseg import malis
from affseg.malis import (
    OutOfBounds,
    _candidates_in_sweep_order,
    _leaf_order,
    _sweep_order,
    malis_edge_counts,
    malis_gradient,
    maximin_affinity,
)
from affseg.synthdata import NoiseParams, SynthParams, synth_affinities, synth_labels
from affseg.volume import AffinityVolume, LabelVolume, Shape3, ShapeMismatch

from oracles import (
    all_edges,
    kruskal_forest,
    malis_counts_full_sweep,
    maximin_by_threshold,
    pair_counts,
    sweep_sorted,
)


def chain_volume(x_affs):
    """1 x 1 x n chain with the given x affinities."""
    n = len(x_affs) + 1
    a = np.zeros((3, 1, 1, n), dtype=np.float32)
    a[2, 0, 0, : n - 1] = x_affs
    return AffinityVolume(a)


def random_instance(rng, max_dim=3, n_labels=2):
    shape = tuple(rng.integers(1, max_dim + 1, 3).tolist())
    a = rng.random((3,) + shape, dtype=np.float32)
    aff = AffinityVolume(a)
    gt = LabelVolume(rng.integers(0, n_labels + 1, shape).astype(np.uint64))
    return aff, gt


def test_maximin_single_path():
    aff = chain_volume([0.9, 0.4])
    assert maximin_affinity(aff, (0, 0, 0), (0, 0, 2)) == pytest.approx(0.4)


def test_maximin_detour_beats_direct():
    a = np.zeros((3, 1, 2, 2), dtype=np.float32)
    a[2, 0, 0, 0] = 0.2
    a[2, 0, 1, 0] = 0.7
    a[1, 0, 0, 0] = 0.6
    a[1, 0, 0, 1] = 0.5
    aff = AffinityVolume(a)
    # direct path bottleneck 0.2, detour through the second row 0.5
    assert maximin_affinity(aff, (0, 0, 0), (0, 0, 1)) == pytest.approx(0.5)


def test_maximin_rejects_identical_voxels():
    aff = chain_volume([0.5])
    with pytest.raises(OutOfBounds):
        maximin_affinity(aff, (0, 0, 1), (0, 0, 1))


def test_maximin_rejects_out_of_bounds():
    aff = chain_volume([0.5])
    # past the end, too few or too many coordinates, a fraction, a string, no voxel
    for bad in [(0, 0, 5), (0, 0), (0, 0, 0, 1), (0, 0, 0.5), (0, 0, "1"), None]:
        for v1, v2 in [((0, 0, 0), bad), (bad, (0, 0, 1))]:
            with pytest.raises(OutOfBounds):
                maximin_affinity(aff, v1, v2)


def maximin_cases(rng):
    """(volume, pairs to query): 20 small random volumes, then a 6x12x12
    jittered one, its 0.25 grid (many ties) and an all-equal one (pure slot
    order)."""
    for _ in range(20):
        yield random_instance(rng)[0], 1
    aff, _ = jittered_patch(3, (6, 12, 12))
    yield aff, 3
    yield AffinityVolume(np.round(aff.data * 4) / 4), 4
    yield AffinityVolume(np.full_like(aff.data, 0.5)), 2


def test_maximin_matches_threshold_oracle():
    rng = np.random.default_rng(7)
    for aff, n_pairs in maximin_cases(rng):
        shape = aff.shape3
        n = shape.voxels
        if n < 2:
            continue
        for _ in range(n_pairs):
            u = int(rng.integers(0, n))
            v = int(rng.integers(0, n))
            if u == v:
                continue
            got = maximin_affinity(aff, shape.unflatten(u), shape.unflatten(v))
            assert got == pytest.approx(maximin_by_threshold(aff, shape.unflatten(u),
                                                             shape.unflatten(v)), abs=0)


def test_counts_chain_example():
    aff = chain_volume([0.9, 0.4])
    gt = LabelVolume(np.array([[[1, 1, 2]]], dtype=np.uint64))
    counts = malis_edge_counts(aff, gt)
    assert counts.pos[2, 0, 0, :].tolist() == [1, 0, 0]
    assert counts.neg[2, 0, 0, :].tolist() == [0, 2, 0]
    assert counts.pos[0].sum() == counts.pos[1].sum() == 0
    assert counts.neg[0].sum() == counts.neg[1].sum() == 0


def test_counts_all_background():
    aff = chain_volume([0.9, 0.4])
    gt = LabelVolume(np.zeros((1, 1, 3), dtype=np.uint64))
    counts = malis_edge_counts(aff, gt)
    assert counts.total_pairs == 0


def test_counts_single_label():
    rng = np.random.default_rng(8)
    aff, _ = random_instance(rng)
    n = aff.shape3.voxels
    gt = LabelVolume(np.ones(aff.shape3.as_tuple(), dtype=np.uint64))
    counts = malis_edge_counts(aff, gt)
    assert int(counts.neg.sum()) == 0
    assert int(counts.pos.sum()) == n * (n - 1) // 2


def test_counts_shape_mismatch():
    aff = chain_volume([0.9, 0.4])
    gt = LabelVolume(np.zeros((1, 1, 4), dtype=np.uint64))
    with pytest.raises(ShapeMismatch):
        malis_edge_counts(aff, gt)


@pytest.mark.parametrize("bad", [np.nan, -0.5, 1.5, np.inf])
def test_affinities_outside_unit_range_raise(bad):
    a = chain_volume([0.9, 0.4, 0.7]).data.copy()
    a[2, 0, 0, 1] = bad
    aff = AffinityVolume(a, check_range=False)
    gt = LabelVolume(np.array([[[1, 1, 2, 2]]], dtype=np.uint64))
    for call in (lambda: malis_gradient(aff, gt), lambda: malis_edge_counts(aff, gt),
                 lambda: maximin_affinity(aff, (0, 0, 0), (0, 0, 3))):
        with pytest.raises(ValueError, match=r"finite and lie in \[0, 1\]"):
            call()


def test_counts_match_bruteforce_oracle():
    rng = np.random.default_rng(9)
    for _ in range(60):
        aff, gt = random_instance(rng)
        counts = malis_edge_counts(aff, gt)
        exp_pos, exp_neg = pair_counts(aff, gt)
        assert np.array_equal(counts.pos, exp_pos)
        assert np.array_equal(counts.neg, exp_neg)


def test_counts_match_oracle_with_ties():
    # coarse affinity grid forces equal values; tie rule must agree
    rng = np.random.default_rng(10)
    for _ in range(30):
        shape = tuple(rng.integers(1, 4, 3).tolist())
        a = (rng.integers(0, 5, (3,) + shape) / 4.0).astype(np.float32)
        aff = AffinityVolume(a)
        gt = LabelVolume(rng.integers(0, 3, shape).astype(np.uint64))
        counts = malis_edge_counts(aff, gt)
        exp_pos, exp_neg = pair_counts(aff, gt)
        assert np.array_equal(counts.pos, exp_pos)
        assert np.array_equal(counts.neg, exp_neg)


def jittered_patch(seed, shape=(8, 24, 24)):
    gt = synth_labels(Shape3(*shape), SynthParams(12, 3.0, seed))
    return synth_affinities(gt, NoiseParams(0.2, 0.3, seed + 500)), gt


def medium_case(name):
    """8x24x24 volumes, where the Kruskal loop skips many candidate edges."""
    kind, seed = name.rsplit("_", 1)
    aff, gt = jittered_patch(int(seed))
    rng = np.random.default_rng(int(seed))
    if kind == "ties":  # a 0.25 grid: many equal affinities, slot order decides
        aff = AffinityVolume(np.round(aff.data * 4) / 4)
    elif kind == "background":  # about 30 % of the voxels unlabeled
        gt = LabelVolume(np.where(rng.random(gt.data.shape) < 0.3, 0, gt.data))
    elif kind == "zero":  # every edge ties: pure slot order
        aff = AffinityVolume(np.zeros_like(aff.data))
    elif kind == "sparse":  # about 95 % unlabeled: labeled singletons join glue components
        gt = LabelVolume(np.where(rng.random(gt.data.shape) < 0.95, 0, gt.data))
    elif kind == "single":  # one labeled voxel: no pairs at all
        one = int(rng.integers(gt.data.size))
        gt = LabelVolume(np.where(np.arange(gt.data.size) == one, gt.data.ravel(), 0)
                         .reshape(gt.data.shape))
    return aff, gt


@pytest.mark.parametrize("name", ["jitter_1", "jitter_2", "jitter_3", "ties_4", "ties_5",
                                  "background_6", "background_7", "zero_8", "sparse_9",
                                  "single_10"])
def test_counts_match_full_sweep_on_medium_volumes(name):
    aff, gt = medium_case(name)
    counts = malis_edge_counts(aff, gt)
    exp_pos, exp_neg = malis_counts_full_sweep(aff, gt)
    assert np.array_equal(counts.pos, exp_pos)
    assert np.array_equal(counts.neg, exp_neg)
    sizes = np.unique(gt.data[gt.data != 0], return_counts=True)[1].tolist()
    labeled = sum(sizes)
    assert int(counts.pos.sum()) == sum(s * (s - 1) // 2 for s in sizes)
    assert counts.total_pairs == labeled * (labeled - 1) // 2


@pytest.mark.parametrize("values", ["quarter_grid", "all_equal"])
@pytest.mark.parametrize("shape", [(6, 12, 12), (1, 7, 9), (7, 1, 9), (7, 9, 1), (1, 1, 11)],
                         ids=["lattice", "z_1", "y_1", "x_1", "line"])
def test_cycle_filter_drops_only_edges_kruskal_rejects(shape, values):
    # thin volumes have squares in one plane only, a line has none
    rng = np.random.default_rng(3)
    if values == "quarter_grid":
        a = rng.integers(0, 5, (3,) + shape) / 4.0
    else:
        a = np.full((3,) + shape, 0.5)
    aff = AffinityVolume(a.astype(np.float32))
    n = aff.shape3.voxels
    c, _z, _y, _x, _a, u, v = map(np.array, zip(*sweep_sorted(all_edges(aff))))
    slots = c * n + u
    forest = kruskal_forest(n, u, v)
    got_slots, got_u, got_v = _candidates_in_sweep_order(aff)
    kept = np.isin(slots, got_slots)
    assert np.array_equal(got_slots, slots[kept])  # still in sweep order
    assert np.array_equal(got_u, u[kept]) and np.array_equal(got_v, v[kept])
    assert kept[forest].all()  # every edge Kruskal accepts is a candidate
    assert not forest[~kept].any()  # every dropped edge is one Kruskal rejects
    squares = sum((shape[i] - 1) * (shape[j] - 1) for i, j in ((0, 1), (0, 2), (1, 2)))
    assert kept.all() == (squares == 0)
    gt = LabelVolume(rng.integers(0, 3, shape).astype(np.uint64))
    counts = malis_edge_counts(aff, gt)
    exp_pos, exp_neg = malis_counts_full_sweep(aff, gt)
    assert np.array_equal(counts.pos, exp_pos)
    assert np.array_equal(counts.neg, exp_neg)


@pytest.mark.filterwarnings("error")
def test_sweep_order_matches_stable_argsort():
    # +-0, subnormals, the smallest normal, the float just below 1, and 1
    special = np.array([0x00000000, 0x80000000, 0x00000001, 0x00000002, 0x007FFFFF,
                        0x00800000, 0x3F7FFFFF, 0x3F800000],
                       dtype=np.uint32).view(np.float32)
    rng = np.random.default_rng(15)
    for size in (0, 1, 2, 17, 300, 5000):
        values = np.concatenate([special, rng.random(8, dtype=np.float32),
                                 np.float32([0.5, 0.25, 0.75])])
        a = values[rng.integers(0, len(values), size)]  # long ties
        assert np.array_equal(_sweep_order(a), np.argsort(-a, kind="stable"))
    a = np.repeat(special, 50)
    assert np.array_equal(_sweep_order(a), np.argsort(-a, kind="stable"))


def chain_affinities(n, kind):
    """x affinities of a 1 x 1 x n chain: increasing, decreasing, all equal,
    or "balanced", which merges pairs, then pairs of pairs, and so on, so
    that union by size builds a union tree of depth log2(n)."""
    i = np.arange(n - 1)
    if kind == "balanced":
        trailing = np.frexp((i + 1) & -(i + 1))[1] - 1  # trailing zeros of i + 1
        return 1.0 - trailing / 32.0
    return {"increasing": (i + 1) / n, "decreasing": 1.0 - (i + 1) / n,
            "equal": np.full(n - 1, 0.5)}[kind]


def assert_counts_match_oracles(aff, gt, brute_force=False):
    counts = malis_edge_counts(aff, gt)
    exp_pos, exp_neg = malis_counts_full_sweep(aff, gt)
    assert np.array_equal(counts.pos, exp_pos)
    assert np.array_equal(counts.neg, exp_neg)
    if brute_force:
        exp_pos, exp_neg = pair_counts(aff, gt)
        assert np.array_equal(counts.pos, exp_pos)
        assert np.array_equal(counts.neg, exp_neg)
    return counts


@pytest.mark.parametrize("kind", ["increasing", "decreasing", "equal", "balanced"])
def test_counts_on_chains_match_oracles(kind):
    rng = np.random.default_rng(16)
    for n in (2, 3, 12, 64, 257):
        aff = chain_volume(chain_affinities(n, kind))
        for n_labels, glue in ((1, 0.0), (3, 0.3), (5, 0.8)):
            labels = rng.integers(1, n_labels + 1, n).astype(np.uint64)
            labels[rng.random(n) < glue] = 0
            assert_counts_match_oracles(aff, LabelVolume(labels.reshape(1, 1, n)),
                                        brute_force=n <= 12)


def test_counts_one_label_per_voxel():
    rng = np.random.default_rng(17)
    for aff, _ in [random_instance(rng) for _ in range(5)] + [jittered_patch(18)]:
        n = aff.shape3.voxels
        ids = rng.permutation(n).astype(np.uint64) + 1
        counts = assert_counts_match_oracles(
            aff, LabelVolume(ids.reshape(aff.shape3.as_tuple())), brute_force=n <= 12)
        assert not counts.pos.any()
        assert counts.total_pairs == n * (n - 1) // 2


def test_counts_with_labels_near_2_64():
    rng = np.random.default_rng(19)
    top = np.array([2**64 - 1, 2**64 - 2, 2**63, 2**63 - 1], dtype=np.uint64)
    for aff, gt in [random_instance(rng, n_labels=4) for _ in range(10)] + [jittered_patch(20)]:
        labels = np.where(gt.data == 0, 0, top[gt.data % 4])
        assert_counts_match_oracles(aff, LabelVolume(labels),
                                    brute_force=aff.shape3.voxels <= 12)


def test_counts_for_same_label_pairs_at_every_leaf_distance():
    # with equal affinities a chain's leaf order is x order, so a pair of
    # voxels x apart is one range-maximum query of length x; with increasing
    # ones neighbours in x lie far apart in leaf order
    n = 130
    for kind in ("equal", "increasing", "balanced"):
        aff = chain_volume(chain_affinities(n, kind))
        for gap in (1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129):
            labels = np.zeros(n, dtype=np.uint64)
            labels[0] = labels[gap] = 7
            labels[gap // 2 + 1: gap] = 3  # other labels between, and after
            labels[gap + 1:] = 5
            assert_counts_match_oracles(aff, LabelVolume(labels.reshape(1, 1, n)))


@pytest.mark.parametrize("kind,steps", [("increasing", 1), ("decreasing", 1), ("equal", 1),
                                        ("balanced", 11)])
def test_counts_on_long_chains_match_full_sweep(kind, steps, monkeypatch):
    # one Borůvka step finds the whole tree of a monotone or all-equal chain,
    # every voxel's first edge leading to its neighbour; the balanced chain
    # only pairs its nodes at each step, so 2048 voxels take 11 levels
    n = 2048
    calls = []
    contract = malis._contract
    monkeypatch.setattr(malis, "_contract", lambda m, *edges: calls.append(m) or contract(m, *edges))
    rng = np.random.default_rng(24)
    labels = rng.integers(1, 4, n).astype(np.uint64)
    labels[rng.random(n) < 0.3] = 0
    assert_counts_match_oracles(chain_volume(chain_affinities(n, kind)),
                                LabelVolume(labels.reshape(1, 1, n)))
    assert len(calls) == steps and calls[0] == n


def kruskal_clusters(aff):
    """Per merge of a Kruskal sweep over every lattice edge (`kruskal_forest`),
    in order: its slot and the voxel sets of the two clusters it joins."""
    n = aff.shape3.voxels
    edges = sweep_sorted(all_edges(aff))
    if not edges:
        return
    c, _z, _y, _x, _a, u, v = map(np.array, zip(*edges))
    forest = kruskal_forest(n, u, v)
    owner = list(range(n))
    members = {x: {x} for x in range(n)}
    for slot, a, b in zip((c * n + u)[forest], u[forest], v[forest]):
        left, right = members.pop(owner[a]), members.pop(owner[b])
        yield slot, left, right
        for x in right:
            owner[x] = owner[a]
        members[owner[a]] = left | right


def layout_cases():
    """Random volumes with sides 1-5 (continuous, 0.25 and 0.5 grids), one-
    and two-voxel volumes, a balanced chain and a jittered patch."""
    rng = np.random.default_rng(25)
    for i in range(45):
        a = rng.random((3,) + tuple(rng.integers(1, 6, 3).tolist()))
        grid = (None, 4, 2)[i % 3]
        yield AffinityVolume((a if grid is None else np.round(a * grid) / grid).astype(np.float32))
    yield chain_volume([])
    yield chain_volume([0.3])
    yield chain_volume(chain_affinities(64, "balanced"))
    yield jittered_patch(26, (3, 10, 10))[0]


def test_every_merge_covers_exactly_its_kruskal_cluster():
    for aff in layout_cases():
        n = aff.shape3.voxels
        slots, at, lo, mid, end, closes = _leaf_order(aff)
        assert sorted(at.tolist()) == list(range(n))
        merges = list(kruskal_clusters(aff))
        assert len(merges) == len(slots) == n - 1
        for k, (slot, a, b) in enumerate(merges):
            assert slots[k] == slot and closes[mid[k] - 1] == k
            runs = {frozenset(range(lo[k], mid[k])), frozenset(range(mid[k], end[k]))}
            assert runs == {frozenset(at[list(a)].tolist()), frozenset(at[list(b)].tolist())}


@pytest.mark.parametrize("labels", [[0], [4], [0, 0], [0, 9], [9, 9], [9, 8]])
def test_counts_on_one_and_two_voxel_volumes(labels):
    aff = chain_volume([0.3] if len(labels) == 2 else [])
    counts = assert_counts_match_oracles(
        aff, LabelVolume(np.array(labels, dtype=np.uint64).reshape(1, 1, -1)), brute_force=True)
    same = labels == [9, 9]
    assert counts.pos[2, 0, 0, 0] == (1 if same else 0)
    assert counts.neg[2, 0, 0, 0] == (1 if labels == [9, 8] else 0)


def test_count_conservation():
    rng = np.random.default_rng(11)
    for _ in range(20):
        shape = tuple(rng.integers(2, 4, 3).tolist())
        n_edges = 3 * shape[0] * shape[1] * shape[2]
        vals = (np.linspace(0.05, 0.95, n_edges)).astype(np.float32)
        rng.shuffle(vals)
        aff = AffinityVolume(vals.reshape((3,) + shape))  # distinct, positive
        gt = LabelVolume(rng.integers(0, 3, shape).astype(np.uint64))
        counts = malis_edge_counts(aff, gt)
        labeled = int((gt.data != 0).sum())
        assert counts.total_pairs == labeled * (labeled - 1) // 2


def test_counts_invariant_under_label_permutation():
    rng = np.random.default_rng(12)
    for _ in range(10):
        aff, gt = random_instance(rng, n_labels=3)
        counts = malis_edge_counts(aff, gt)
        perm = {0: 0, 1: 3, 2: 1, 3: 2}
        permuted = np.vectorize(perm.get)(gt.data.astype(np.int64)).astype(np.uint64)
        counts_p = malis_edge_counts(aff, LabelVolume(permuted))
        assert np.array_equal(counts.pos, counts_p.pos)
        assert np.array_equal(counts.neg, counts_p.neg)


def test_gradient_chain_example():
    aff = chain_volume([0.9, 0.4])
    gt = LabelVolume(np.array([[[1, 1, 2]]], dtype=np.uint64))
    res = malis_gradient(aff, gt)
    assert res.loss == pytest.approx(0.33, abs=1e-6)
    assert res.gradient.data[2, 0, 0, 0] == pytest.approx(-0.2, abs=1e-6)
    assert res.gradient.data[2, 0, 0, 1] == pytest.approx(1.6, abs=1e-6)


def test_gradient_perfect_affinities_zero_loss():
    gt = LabelVolume(np.array([[[1, 1, 2, 2]]], dtype=np.uint64))
    a = np.zeros((3, 1, 1, 4), dtype=np.float32)
    a[2, 0, 0, :3] = [1.0, 0.0, 1.0]
    res = malis_gradient(AffinityVolume(a), gt)
    assert res.loss == 0.0
    assert np.all(res.gradient.data == 0.0)


def test_gradient_no_labels_zero():
    aff = chain_volume([0.9, 0.4])
    gt = LabelVolume(np.zeros((1, 1, 3), dtype=np.uint64))
    for normalize in (False, True):
        res = malis_gradient(aff, gt, normalize=normalize)
        assert res.loss == 0.0
        assert np.all(res.gradient.data == 0.0)


def test_gradient_zero_where_no_counts():
    rng = np.random.default_rng(13)
    aff, gt = random_instance(rng)
    counts = malis_edge_counts(aff, gt)
    res = malis_gradient(aff, gt)
    untouched = (counts.pos == 0) & (counts.neg == 0)
    assert np.all(res.gradient.data[untouched] == 0.0)


def test_normalized_gradient_scales():
    aff = chain_volume([0.9, 0.4])
    gt = LabelVolume(np.array([[[1, 1, 2]]], dtype=np.uint64))
    raw = malis_gradient(aff, gt, normalize=False)
    norm = malis_gradient(aff, gt, normalize=True)
    assert norm.loss == pytest.approx(raw.loss / 3.0)
    assert np.allclose(norm.gradient.data, raw.gradient.data / 3.0, atol=1e-7)


def dense_closed_form(aff, gt, normalize):
    """Loss and float32 gradient of the quadratic pair loss, computed in
    float64 over every slot of the count volumes."""
    counts = malis_edge_counts(aff, gt)
    a = aff.data.astype(np.float64)
    pos = counts.pos.astype(np.float64)
    neg = counts.neg.astype(np.float64)
    loss = float(np.sum(pos * (a - 1.0) ** 2) + np.sum(neg * a**2))
    grad = 2.0 * pos * (a - 1.0) + 2.0 * neg * a
    if normalize and counts.total_pairs:
        loss /= counts.total_pairs
        grad /= counts.total_pairs
    return loss, grad.astype(np.float32)


def sparse_sum_loss(aff, gt):
    """The unnormalized loss summed over the nonzero count slots only."""
    counts = malis_edge_counts(aff, gt)
    at = (counts.pos != 0) | (counts.neg != 0)
    a = aff.data[at].astype(np.float64)
    pos, neg = counts.pos[at].astype(np.float64), counts.neg[at].astype(np.float64)
    return float(np.sum(pos * (a - 1.0) ** 2) + np.sum(neg * a**2))


def gradient_cases():
    rng = np.random.default_rng(23)
    for seed in (0, 5, 9):  # patches where sparse_sum_loss rounds differently
        yield jittered_patch(seed)
    for _ in range(10):
        yield random_instance(rng, max_dim=4)
    aff, _ = jittered_patch(2)
    yield aff, LabelVolume(np.zeros(aff.shape3.as_tuple(), dtype=np.uint64))
    for labels in ([0], [4], [0, 9], [9, 9], [9, 8]):
        yield (chain_volume([0.3] if len(labels) == 2 else []),
               LabelVolume(np.array(labels, dtype=np.uint64).reshape(1, 1, -1)))


def test_gradient_equals_dense_closed_form_bit_for_bit():
    cases = list(gradient_cases())
    for aff, gt in cases:
        for normalize in (False, True):
            res = malis_gradient(aff, gt, normalize=normalize)
            loss, grad = dense_closed_form(aff, gt, normalize)
            assert res.loss == loss
            assert res.gradient.data.tobytes() == grad.tobytes()
    # a loss summed over the nonzero terms alone would round differently
    assert all(sparse_sum_loss(aff, gt) != dense_closed_form(aff, gt, False)[0]
               for aff, gt in cases[:3])


def tie_free_instance(rng, shape=(2, 3, 3)):
    """Distinct affinities with gaps comfortably above the FD step."""
    n_edges = 3 * shape[0] * shape[1] * shape[2]
    vals = np.linspace(0.05, 0.95, n_edges).astype(np.float32)
    rng.shuffle(vals)
    aff = AffinityVolume(vals.reshape((3,) + shape))
    gt = LabelVolume(rng.integers(0, 3, shape).astype(np.uint64))
    return aff, gt


def test_gradient_matches_finite_differences():
    from affseg.volume import inbounds_edge_region

    rng = np.random.default_rng(14)
    shape = (2, 3, 3)
    for _ in range(5):
        aff, gt = tie_free_instance(rng, shape)
        res = malis_gradient(aff, gt)
        h = 1e-3
        for c in range(3):
            region = inbounds_edge_region(c, aff.shape3)
            zz, yy, xx = [q.ravel() for q in np.meshgrid(
                *[np.arange(s.stop) for s in region], indexing="ij")]
            for z, y, x in zip(zz.tolist(), yy.tolist(), xx.tolist()):
                up = aff.data.copy()
                up[c, z, y, x] += h
                down = aff.data.copy()
                down[c, z, y, x] -= h
                lu = malis_gradient(AffinityVolume(up, check_range=False), gt).loss
                ld = malis_gradient(AffinityVolume(down, check_range=False), gt).loss
                # the +-h step lands on float32 grid points; divide by the
                # step that was actually realized
                dh = float(up[c, z, y, x]) - float(down[c, z, y, x])
                fd = (lu - ld) / dh
                assert res.gradient.data[c, z, y, x] == pytest.approx(fd, abs=1e-4)
