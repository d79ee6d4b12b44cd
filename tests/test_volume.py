import numpy as np
import pytest

from affseg.agglo import _replay
from affseg.volume import (
    AffinityVolume,
    BadMagic,
    LabelVolume,
    Shape3,
    TruncatedPayload,
    UnknownDtype,
    VolumeError,
    boundary_edges,
    cooccurrence,
    dense_relabel,
    edge_ends,
    inbounds_edge_region,
    label_index,
    oob_edge_mask,
    overlap_counts,
    read_volume,
    slot_ends,
    write_volume,
)

from oracles import boundary_edges_reference, cooccurrence_reference, dense_relabel_reference


def random_labels(rng, shape):
    return LabelVolume(rng.integers(0, 7, shape.as_tuple()).astype(np.uint64))


def random_affinities(rng, shape):
    return AffinityVolume(rng.random((3,) + shape.as_tuple(), dtype=np.float32))


def test_roundtrip_labels_randomized(tmp_path):
    rng = np.random.default_rng(1)
    for _ in range(25):
        shape = Shape3(*rng.integers(1, 9, 3).tolist())
        vol = random_labels(rng, shape)
        write_volume(vol, tmp_path / "v.volb")
        back = read_volume(tmp_path / "v.volb")
        assert isinstance(back, LabelVolume)
        assert np.array_equal(back.data, vol.data)


def test_roundtrip_affinities_randomized(tmp_path):
    rng = np.random.default_rng(2)
    for _ in range(25):
        shape = Shape3(*rng.integers(1, 9, 3).tolist())
        vol = random_affinities(rng, shape)
        write_volume(vol, tmp_path / "v.volb")
        back = read_volume(tmp_path / "v.volb")
        assert isinstance(back, AffinityVolume)
        assert np.array_equal(back.data, vol.data)


def test_roundtrip_gradient_range(tmp_path):
    # the container carries gradient volumes with values outside [0, 1]
    raw = np.zeros((3, 2, 2, 2), dtype=np.float32)
    raw[2, 0, 0, 0] = -3.5
    raw[1, 1, 0, 1] = 7.25
    vol = AffinityVolume(raw, check_range=False)
    write_volume(vol, tmp_path / "g.volb")
    back = read_volume(tmp_path / "g.volb")
    assert np.array_equal(back.data, vol.data)


def test_bad_magic(tmp_path):
    p = tmp_path / "x.volb"
    p.write_bytes(b"XXXX" + b"\x00" * 40)
    with pytest.raises(BadMagic):
        read_volume(p)


def test_truncated_payload(tmp_path):
    # header says 2*2*2 labels but only 7 u64 entries follow
    vol = LabelVolume(np.arange(8, dtype=np.uint64).reshape(2, 2, 2))
    p = tmp_path / "t.volb"
    write_volume(vol, p)
    raw = p.read_bytes()
    p.write_bytes(raw[:-8])
    with pytest.raises(TruncatedPayload):
        read_volume(p)


def test_excess_payload(tmp_path):
    vol = LabelVolume(np.arange(8, dtype=np.uint64).reshape(2, 2, 2))
    p = tmp_path / "t.volb"
    write_volume(vol, p)
    p.write_bytes(p.read_bytes() + b"\x00" * 8)
    with pytest.raises(TruncatedPayload):
        read_volume(p)


def test_unknown_dtype(tmp_path):
    vol = LabelVolume(np.arange(8, dtype=np.uint64).reshape(2, 2, 2))
    p = tmp_path / "t.volb"
    write_volume(vol, p)
    raw = bytearray(p.read_bytes())
    raw[8] = 9
    p.write_bytes(bytes(raw))
    with pytest.raises(UnknownDtype):
        read_volume(p)


def test_reserved_bytes_must_be_zero(tmp_path):
    vol = LabelVolume(np.arange(8, dtype=np.uint64).reshape(2, 2, 2))
    p = tmp_path / "t.volb"
    write_volume(vol, p)
    raw = bytearray(p.read_bytes())
    raw[12] = 1
    p.write_bytes(bytes(raw))
    with pytest.raises(VolumeError):
        read_volume(p)


def test_header_layout_labels(tmp_path):
    vol = LabelVolume(np.array([[[1, 1, 2]]], dtype=np.uint64))
    p = tmp_path / "l.volb"
    write_volume(vol, p)
    raw = p.read_bytes()
    assert raw[:4] == b"VOLB"
    assert int.from_bytes(raw[4:8], "little") == 1      # version
    assert raw[8] == 1                                  # dtype u64
    assert raw[9] == 1                                  # one channel
    assert raw[10:16] == b"\x00" * 6
    dims = [int.from_bytes(raw[16 + 8 * i : 24 + 8 * i], "little") for i in range(3)]
    assert dims == [1, 1, 3]
    assert len(raw) - 40 == 24                          # 3 u64 payload entries
    payload = np.frombuffer(raw, dtype="<u8", offset=40)
    assert payload.tolist() == [1, 1, 2]


def test_header_layout_affinities(tmp_path):
    vol = AffinityVolume(np.zeros((3, 1, 1, 3), dtype=np.float32))
    p = tmp_path / "a.volb"
    write_volume(vol, p)
    raw = p.read_bytes()
    assert raw[8] == 2       # dtype f32
    assert raw[9] == 3       # three channels
    assert len(raw) - 40 == 3 * 3 * 4


def test_write_deterministic(tmp_path):
    rng = np.random.default_rng(3)
    vol = random_affinities(rng, Shape3(3, 4, 5))
    write_volume(vol, tmp_path / "a.volb")
    write_volume(vol, tmp_path / "b.volb")
    assert (tmp_path / "a.volb").read_bytes() == (tmp_path / "b.volb").read_bytes()


def test_flat_index_layout():
    shape = Shape3(2, 3, 4)
    vol = LabelVolume(np.arange(shape.voxels, dtype=np.uint64).reshape(shape.as_tuple()))
    for i in range(shape.voxels):
        z, y, x = shape.unflatten(i)
        assert shape.flat_index(z, y, x) == i
        assert vol.label_at(z, y, x) == i


def test_oob_slots_zeroed_on_construction():
    rng = np.random.default_rng(4)
    for shape in [(2, 3, 4), (1, 3, 4), (2, 1, 4), (2, 3, 1), (1, 1, 1)]:
        raw = rng.random((3,) + shape, dtype=np.float32)  # nonzero everywhere
        vol = AffinityVolume(raw)
        mask = oob_edge_mask(vol.shape3)
        assert np.all(vol.data[mask] == 0.0)
        assert np.array_equal(vol.data[~mask], raw[~mask])


def test_affinity_range_check():
    raw = np.full((3, 1, 2, 2), 1.5, dtype=np.float32)
    with pytest.raises(ValueError):
        AffinityVolume(raw)
    AffinityVolume(raw, check_range=False)  # gradients allowed through


def test_affinity_range_check_rejects_non_finite():
    for bad in (np.nan, np.inf, -np.inf):
        raw = np.full((3, 2, 2, 2), 0.5, dtype=np.float32)
        raw[1, 0, 0, 0] = bad
        with pytest.raises(ValueError):
            AffinityVolume(raw)
    raw = np.full((3, 2, 2, 2), 0.5, dtype=np.float32)
    raw[0, 1, 0, 0] = np.nan  # out-of-bounds slot: zeroed, not checked
    assert AffinityVolume(raw).data[0, 1, 0, 0] == 0.0


def test_edge_helpers_match_inbounds_regions():
    shape = Shape3(2, 3, 4)
    ids = np.arange(shape.voxels).reshape(shape.as_tuple())
    slots = np.flatnonzero(~oob_edge_mask(shape))
    c = slots // shape.voxels
    u, v = slot_ends(slots, shape)
    assert np.array_equal(c * shape.voxels + u, slots)
    for ch in range(3):
        lower, upper = edge_ends(ids, ch)
        region = inbounds_edge_region(ch, shape)
        assert np.array_equal(lower, ids[region])
        assert np.array_equal(u[c == ch], lower.ravel())
        assert np.array_equal(v[c == ch], upper.ravel())
        assert np.all(upper - lower == (shape.y * shape.x, shape.x, 1)[ch])
    stacked = np.stack([ids, ids + 100])  # leading axes pass through
    assert np.array_equal(edge_ends(stacked, 2)[1][1], ids[:, :, 1:] + 100)


def test_volumes_are_readonly():
    vol = LabelVolume(np.zeros((1, 1, 1), dtype=np.uint64))
    with pytest.raises(ValueError):
        vol.data[0, 0, 0] = 5


def test_shape_validation():
    with pytest.raises(ValueError):
        Shape3(0, 1, 1)
    with pytest.raises(ValueError):
        Shape3(-2, 1, 1)


def test_voxel_count_must_fit_in_64_bits_and_unflatten_checks_its_range():
    with pytest.raises(ValueError, match="total voxel count does not fit in 64 bits"):
        Shape3(2**21, 2**21, 2**21)
    assert Shape3(2**21, 2**21, 2**21 - 1).voxels == 2**63 - 2**42
    shape = Shape3(2, 3, 4)
    assert shape.unflatten(23) == (1, 2, 3)
    for i in (-1, 24):
        with pytest.raises(IndexError, match=f"flat index {i} outside"):
            shape.unflatten(i)


@pytest.mark.parametrize("kind,dtype,shape,axes", [
    (LabelVolume, np.uint64, (2, 3), "z, y, x"), (LabelVolume, np.uint64, (1, 2, 3, 4), "z, y, x"),
    (AffinityVolume, np.float32, (2, 3, 4), "3, z, y, x"),
    (AffinityVolume, np.float32, (2, 2, 3, 4), "3, z, y, x")])
def test_volume_of_the_wrong_rank_or_channel_count_is_rejected(kind, dtype, shape, axes):
    noun = "label" if kind is LabelVolume else "affinity"
    with pytest.raises(ValueError) as e:
        kind(np.zeros(shape, dtype=dtype))
    assert str(e.value) == f"{noun} volume must have shape ({axes}), got {shape}"


KINDS = [(LabelVolume, np.uint64, (2, 3, 4), 7), (AffinityVolume, np.float32, (3, 2, 3, 4), 0.5)]


@pytest.mark.parametrize("kind,dtype,shape,fill", KINDS)
def test_construction_from_memmap_owns_a_private_copy(tmp_path, kind, dtype, shape, fill):
    src = np.memmap(tmp_path / "src.bin", dtype=dtype, mode="w+", shape=shape)
    src[...] = fill  # out-of-bounds affinity slots included
    vol = kind(src)
    assert np.all(src == fill)  # the caller's array is left as it was
    assert not np.shares_memory(vol.data, src)
    src[(0,) * len(shape)] = 9  # outside [0, 1] for affinities
    assert vol.data[(0,) * len(shape)] == fill  # later writes do not show through
    assert type(vol.data) is np.ndarray and not vol.data.flags.writeable


@pytest.mark.parametrize("kind,dtype,shape,fill", KINDS)
def test_no_construction_path_shares_memory_with_its_source(kind, dtype, shape, fill):
    arr = np.full(shape, fill, dtype=dtype)
    readonly = arr.copy()
    readonly.flags.writeable = False
    sources = {"array": arr, "strided view": np.repeat(arr, 2, axis=-1)[..., ::2],
               "read-only": readonly, "buffer": np.frombuffer(arr.tobytes(), dtype).reshape(shape),
               # labels are integers: their other dtype is a signed one
               "other dtype": arr.astype(np.int64 if kind is LabelVolume else np.float64),
               "list": arr.tolist()}
    for name, data in sources.items():
        vol = kind(data)
        assert not np.shares_memory(vol.data, data), name
        assert vol.data.flags.c_contiguous and not vol.data.flags.writeable, name
    assert np.all(arr == fill)  # out-of-bounds slots are zeroed in the copy only


@pytest.mark.parametrize("data,expected", [
    (np.array([[[True, False]]]), [1, 0]),
    (np.array([[[0, 7]]], dtype=np.int8), [0, 7]),
    (np.array([[[0, 2**63 - 1]]], dtype=np.int64), [0, 2**63 - 1]),
    (np.array([[[2**64 - 1, 3]]], dtype=np.uint64), [2**64 - 1, 3]),
    (np.zeros((1, 1, 0), dtype=np.int64).reshape(1, 0, 1), []),
    ([[[2**63 - 1, 0]]], [2**63 - 1, 0]),
], ids=["bool", "int8", "int64", "uint64", "empty_int64", "list"])
def test_label_volume_takes_bool_and_nonnegative_integer_ids(data, expected):
    vol = LabelVolume(data)
    assert vol.data.dtype == np.uint64 and vol.data.ravel().tolist() == expected


@pytest.mark.parametrize("data,message", [
    (np.array([[[-1, 2]]]), "label ids must be >= 0, got -1"),
    (np.array([[[3, -2**63]]], dtype=np.int64), f"got {-2**63}"),
    (np.array([[[1.7, 2.0]]]), "must be integers, got dtype float64"),
    (np.array([[[1.0, 2.0]]], dtype=np.float32), "got dtype float32"),
    (np.array([[[np.nan, 1.0]]]), "got dtype float64"),
    (np.array([[[2**70, 1]]], dtype=object), "got dtype object"),
    ([[[-1, 2**64 - 1]]], "must be integers"),  # numpy makes this list float64
    ([[["1", "2"]]], "got dtype <U1"),
], ids=["minus_one", "int64_min", "fraction", "float32", "nan", "object_2**70", "mixed_list",
        "strings"])
def test_label_volume_rejects_ids_a_cast_would_change(data, message):
    # an unsafe cast stored -1 as 2**64 - 1 and 1.7 as 1: one more segment,
    # or a different one, in every metric and training signal
    with pytest.raises(ValueError, match=message.replace("*", r"\*")):
        LabelVolume(data)


def test_nonzero_oob_slots_in_a_file_read_back_zeroed(tmp_path):
    rng = np.random.default_rng(5)
    vol = random_affinities(rng, Shape3(2, 3, 4))
    p = tmp_path / "a.volb"
    write_volume(vol, p)
    raw = bytearray(p.read_bytes())
    payload = np.frombuffer(raw, dtype="<f4", offset=40).copy()
    mask = oob_edge_mask(vol.shape3).ravel()
    payload[mask] = 0.75
    p.write_bytes(bytes(raw[:40]) + payload.tobytes())
    back = read_volume(p)
    assert np.all(back.data.ravel()[mask] == 0.0)
    assert back == vol


def test_zero_dimension_in_header_is_volume_error_naming_file(tmp_path):
    p = tmp_path / "z.volb"
    write_volume(LabelVolume(np.ones((2, 2, 2), dtype=np.uint64)), p)
    raw = bytearray(p.read_bytes())
    raw[16:24] = (0).to_bytes(8, "little")  # dimension z
    p.write_bytes(bytes(raw))
    with pytest.raises(VolumeError, match=f"{p}: dimension z must be a positive integer, got 0"):
        read_volume(p)


TOP = 2**64 - 1


ID_SETS = [
    [0, TOP, 5, 0, TOP, 5, 5, 1],
    [TOP, TOP, TOP],
    [7],
    [],
    np.random.default_rng(8).integers(0, 12, (3, 4, 5), dtype=np.uint64) * np.uint64(TOP // 11),
]


def assert_label_index_matches_oracle(x, direct, monkeypatch):
    """Ids in [0, size] index the table directly: ids is arange(max + 1) and
    idx is x's own memory, with no binary search; any other array gives
    np.unique's ids and inverse."""
    searches = []
    search = np.searchsorted
    monkeypatch.setattr(np, "searchsorted", lambda *a: searches.append(1) or search(*a))
    ids, idx = label_index(x)
    monkeypatch.undo()
    assert ids.dtype == x.dtype and idx.shape == x.shape
    assert (ids[1:] > ids[:-1]).all()  # sorted and unique
    assert np.array_equal(ids[idx], x)
    if direct:
        assert np.array_equal(ids, np.arange(int(x.max()) + 1))
        assert np.array_equal(idx, x) and np.shares_memory(idx, x) and not searches
    else:
        want_ids, want_inv = np.unique(x, return_inverse=True)
        assert np.array_equal(ids, want_ids) and np.array_equal(idx.ravel(), want_inv.ravel())
        assert searches


@pytest.mark.parametrize("values", ID_SETS)
def test_unique_inverse_equals_np_unique(values, monkeypatch):
    # wide, single and empty id sets take label_index's sort branch
    assert_label_index_matches_oracle(np.array(values, dtype=np.uint64), False, monkeypatch)


# (ids, whether label_index indexes them directly): ids in [0, size] are,
# any other array is sorted
NARROW_IDS = {
    "dense-with-0": (np.array([3, 0, 2, 3, 1, 0, 2], dtype=np.uint64), True),
    "dense-without-0": (np.array([4, 2, 2, 5, 3, 5], dtype=np.uint64), True),
    "max-is-size-1": (np.array([4, 0, 4, 1, 2], dtype=np.uint64), True),
    "max-is-size": (np.array([5, 1, 5, 3, 2], dtype=np.uint64), True),
    "max-is-size+1": (np.array([6, 1, 6, 3, 2], dtype=np.uint64), False),
    "int32": (np.array([3, 0, 3, 1], dtype=np.int32), True),
    "int32-negative": (np.array([3, -2, 0, 3, -7], dtype=np.int32), False),
    "int64-negative": (np.array([-1, 4, -1, 2, 0, 4], dtype=np.int64), False),
    "3d": (np.random.default_rng(10).integers(1, 50, (3, 4, 5)).astype(np.uint64), True),
    "strided": (np.random.default_rng(11).integers(0, 9, (3, 4, 6)).astype(np.uint64)[:, ::2],
                True),
}


@pytest.mark.parametrize("case", sorted(NARROW_IDS))
def test_unique_inverse_counts_narrow_ids_and_sorts_the_rest(case, monkeypatch):
    assert_label_index_matches_oracle(*NARROW_IDS[case], monkeypatch)


@pytest.mark.parametrize("values", ID_SETS)
def test_cooccurrence_matches_counter_oracle(values):
    a = np.array(values, dtype=np.uint64).ravel()
    weights = np.random.default_rng(len(a)).random(len(a))
    for b in (a, a[::-1], np.roll(a, 1) // np.uint64(3), np.zeros_like(a)):
        for w in (None, weights):
            got = cooccurrence(a, b, w)
            want = cooccurrence_reference(a, b, w)
            assert got[0].dtype == got[1].dtype == np.uint64
            if len(a):  # bincount gives an empty int64 array either way
                assert got[2].dtype == (np.int64 if w is None else np.float64)
            assert [col.tolist() for col in got] == list(want)


@pytest.mark.parametrize("values", [
    [3, 0, 9, 3, 0, 1, 9, 4],
    [5, 2, 5, 7, 2],
    [0, TOP, 5, 0, TOP, 1],
    [TOP, 1, TOP],
    [6, 6, 6],
    [0],
    [],
    np.random.default_rng(9).integers(0, 9, (3, 4, 5), dtype=np.uint64) * np.uint64(TOP // 8),
    [6, 2, 6, 4, 2, 4, 6],  # ids in [0, size]: the table lists 0, 1, 3 and 5, which do not occur
    [0, 5, 0, 3, 5],
], ids=["with-0", "without-0", "top-with-0", "top-without-0", "one-value", "only-0", "empty",
        "3d", "table-gaps-without-0", "table-gaps-with-0"])
def test_dense_relabel_matches_first_occurrence_loop(values):
    x = np.array(values, dtype=np.uint64)
    got = dense_relabel(x)
    assert got.dtype == np.uint64 and got.shape == x.shape
    assert np.array_equal(got, dense_relabel_reference(x))


def test_label_table_consumers_leave_their_input_alone():
    # label_index hands dense ids back as the caller's own memory, so a
    # consumer that wrote through idx would change a writable input and
    # raise on a frozen one
    rng = np.random.default_rng(12)
    seg = LabelVolume(rng.integers(0, 7, (3, 4, 5)))
    gt = LabelVolume(rng.integers(0, 4, (3, 4, 5)))
    weights = rng.random(seg.data.size)
    calls = {
        "cooccurrence": lambda s, g: cooccurrence(s.ravel(), g.ravel()),
        "cooccurrence-weighted": lambda s, g: cooccurrence(s.ravel(), g.ravel(), weights),
        "overlap_counts": overlap_counts,
        "dense_relabel": lambda s, g: (dense_relabel(s),),
        "_replay": lambda s, g: (_replay(AsIs(s), [(1, 2, 0.9), (3, 5, 0.4)], 0.5),),
    }
    for name, call in calls.items():
        s, g = seg.data.copy(), gt.data.copy()
        on_copies = call(s, g)
        assert np.array_equal(s, seg.data) and np.array_equal(g, gt.data), name
        for got, want in zip(call(seg.data, gt.data), on_copies):
            assert np.array_equal(got, want), name


class AsIs:
    """A label volume stand-in that holds the caller's array itself, not a
    frozen copy, so that `_replay` can be handed a writable one."""

    def __init__(self, data):
        self.data = data


def wrap_layouts():
    """Label volumes constant along x whose rows differ, and constant in
    each (y, x) plane whose planes differ: neighbours in flat order differ
    across a row or plane wrap but never along the wrapped axis, so a flat
    shift of the labels would see boundaries that the lattice does not have."""
    for z, y, x in [(2, 4, 3), (3, 2, 4), (2, 3, 1), (3, 1, 5)]:
        yield np.broadcast_to(np.arange(1, z * y + 1, dtype=np.uint64).reshape(z, y, 1), (z, y, x))
        yield np.broadcast_to(np.arange(1, z + 1, dtype=np.uint64).reshape(z, 1, 1), (z, y, x))


def boundary_edge_cases():
    rng = np.random.default_rng(21)
    shapes = [(4, 5, 6), (1, 6, 7), (5, 1, 4), (3, 4, 1), (1, 1, 9), (1, 8, 1), (7, 1, 1),
              (1, 1, 1), (2, 2, 2)]
    for shape in shapes:
        for n_labels in (2, 6):
            yield rng.integers(0, n_labels + 1, shape).astype(np.uint64)
        yield rng.integers(0, 3, shape).astype(np.uint64) * np.uint64(TOP // 2)
        yield np.full(shape, 5, dtype=np.uint64)  # one label
        yield np.zeros(shape, dtype=np.uint64)  # background only
    yield from wrap_layouts()


def test_boundary_edges_match_lattice_loop():
    rng = np.random.default_rng(22)
    for labels in boundary_edge_cases():
        labels = LabelVolume(labels)
        aff = random_affinities(rng, labels.shape3)
        got = boundary_edges(labels.data, aff.data)
        want = boundary_edges_reference(labels, aff)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape and (g == w).all()
