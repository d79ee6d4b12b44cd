import numpy as np
import pytest

from affseg.unionfind import components, index_dtype

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


CASES = {
    **{f"random{s}": random_edges(s) for s in range(8)},
    **{f"shuffled_path{s}": shuffled_path(s) for s in range(2)},
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


def test_index_dtype_widens_past_int32():
    assert index_dtype(2**31 - 1) == np.int32
    assert index_dtype(2**31) == np.int64
