import numpy as np
import pytest

from affseg.unionfind import components, index_dtype, jump

from oracles import UnionFind


def test_basic_union_find():
    uf = UnionFind(6)
    assert len({uf.find(i) for i in range(6)}) == 6
    uf.union(0, 1)
    uf.union(2, 3)
    assert len({uf.find(i) for i in range(6)}) == 4
    assert uf.find(0) == uf.find(1)
    assert uf.find(1) != uf.find(2)
    uf.union(1, 3)
    assert uf.find(0) == uf.find(2)
    assert len({uf.find(i) for i in range(6)}) == 3


def test_union_idempotent():
    uf = UnionFind(3)
    root = uf.union(0, 1)
    before = [uf.find(i) for i in range(3)]
    assert uf.union(0, 1) == root
    assert [uf.find(i) for i in range(3)] == before


def smallest_of_component(n, u, v):
    """Oracle: union every edge, then map each id to its set's smallest id."""
    uf = UnionFind(n)
    for a, b in zip(u, v):
        uf.union(int(a), int(b))
    smallest = {}
    for i in range(n):
        smallest.setdefault(uf.find(i), i)
    return np.array([smallest[uf.find(i)] for i in range(n)])


def random_edges(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 300))
    m = int(rng.integers(0, 2 * n))
    return n, rng.integers(0, n, m), rng.integers(0, n, m)


def shuffled_path(seed, n=500):
    """One path through all ids in random order: trees grow deep."""
    p = np.random.default_rng(seed).permutation(n)
    return n, p[:-1], p[1:]


def repeated_reversed(seed):
    """Every edge three times, a random half of the copies reversed."""
    n, u, v = random_edges(seed)
    u, v = np.tile(u, 3), np.tile(v, 3)
    flip = np.random.default_rng(seed).random(len(u)) < 0.5
    return n, np.where(flip, v, u), np.where(flip, u, v)


def roots_joined(n=60):
    """Edges from each component's smallest id, which stays a root: a star
    on 0 and pairs (i, i + 1) above it, so one round of hooking finishes."""
    return n, np.r_[np.zeros(19, int), np.arange(20, n, 2)], np.r_[1:20, 21:n:2]


CASES = {
    **{f"random{s}": random_edges(s) for s in range(8)},
    **{f"shuffled_path{s}": shuffled_path(s) for s in range(2)},
    **{f"repeated_reversed{s}": repeated_reversed(s) for s in range(3)},
    "roots_joined": roots_joined(),
    "no_edges": (5, [], []),
    "self_loops": (4, [0, 2, 3], [0, 2, 1]),
    "single_id": (1, [0], [0]),
    "descending_path": (200, np.arange(199, 0, -1), np.arange(198, -1, -1)),
    "star": (50, np.full(49, 37), np.delete(np.arange(50), 37)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_components_maps_each_id_to_its_components_smallest_id(name):
    n, u, v = CASES[name]
    got = components(n, u, v)
    assert got.shape == (n,) and got.dtype == np.int32
    assert np.array_equal(got, smallest_of_component(n, u, v))


@pytest.mark.parametrize("seed", range(3))
def test_jump_maps_each_id_to_its_root(seed):
    # a random forest under a random relabeling, with one chain 99 deep;
    # the oracle follows the pointers one at a time
    rng = np.random.default_rng(seed)
    n = 400
    below = (rng.random(n) * np.arange(1, n + 1)).astype(np.int32)  # in [0, i]
    below[1:100] = np.arange(99)
    perm = rng.permutation(n).astype(np.int32)
    parent = np.empty(n, dtype=np.int32)
    parent[perm] = perm[below]
    roots = []
    for i in range(n):
        while parent[i] != i:
            i = parent[i]
        roots.append(i)
    assert jump(parent).tolist() == roots


def test_index_dtype_widens_past_int32():
    assert index_dtype(2**31 - 1) == np.int32
    assert index_dtype(2**31) == np.int64
