"""Dense volumetric containers and the VOLB on-disk format.

Everything in this package works on two arrays:

* label volumes -- one uint64 segment id per voxel, ``0`` meaning
  background / unlabeled, stored ``(z, y, x)`` with x fastest;
* affinity volumes -- one float32 weight per lattice edge, stored
  ``(3, z, y, x)`` with channel 0 = z, 1 = y, 2 = x.  Slot ``(c, z, y, x)``
  is the undirected edge between voxel ``(z, y, x)`` and its ``+1``
  neighbour along axis ``c``.  Slots whose neighbour falls outside the
  volume carry no edge and are forced to 0.0 on every construction path.

Both containers own their data: every construction path, reading a file
included, makes exactly one private C-contiguous copy of its input and
freezes it read-only, so a volume never aliases the array it was built
from and can be shared freely between threads.

Both are serialized to a single little-endian container format ("VOLB"):

    bytes  0..3   magic b"VOLB"
    bytes  4..7   version, u32 (currently 1)
    byte   8      dtype code: 1 = u64 labels, 2 = f32 affinities
    byte   9      channel count: 1 for labels, 3 for affinities
    bytes 10..15  reserved, must be zero
    bytes 16..39  dims z, y, x as u64
    then the raw payload, channel slowest, x fastest.

Writes are deterministic: equal volumes produce byte-identical files.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"VOLB"
VERSION = 1
HEADER_SIZE = 40

_HEADER = struct.Struct("<4sIBB6sQQQ")


class VolumeError(Exception):
    """Base class for volume container and file format errors."""


class BadMagic(VolumeError):
    """File does not start with the VOLB magic."""


class TruncatedPayload(VolumeError):
    """Payload length disagrees with the header dimensions."""


class UnknownDtype(VolumeError):
    """Header carries a dtype code this version does not know."""


class ShapeMismatch(VolumeError):
    """Two volumes that must be aligned have different shapes."""


@dataclass(frozen=True)
class Shape3:
    """Volume dimensions in voxels, (z, y, x)."""

    z: int
    y: int
    x: int

    def __post_init__(self):
        for name in ("z", "y", "x"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 1:
                raise ValueError(f"dimension {name} must be a positive integer, got {v!r}")
        if self.z * self.y * self.x >= 2**63:
            raise ValueError("total voxel count does not fit in 64 bits")

    @property
    def voxels(self) -> int:
        return self.z * self.y * self.x

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.z, self.y, self.x)

    def flat_index(self, z: int, y: int, x: int) -> int:
        """Row-major flat index, x fastest."""
        if not (0 <= z < self.z and 0 <= y < self.y and 0 <= x < self.x):
            raise IndexError(f"voxel ({z}, {y}, {x}) outside {self}")
        return (z * self.y + y) * self.x + x

    def unflatten(self, i: int) -> tuple[int, int, int]:
        if not (0 <= i < self.voxels):
            raise IndexError(f"flat index {i} outside {self}")
        x = i % self.x
        y = (i // self.x) % self.y
        z = i // (self.x * self.y)
        return (z, y, x)

    def contains(self, z: int, y: int, x: int) -> bool:
        return 0 <= z < self.z and 0 <= y < self.y and 0 <= x < self.x


def oob_edge_mask(shape: Shape3) -> np.ndarray:
    """Boolean (3, z, y, x) mask of affinity slots whose neighbour is out of bounds."""
    mask = np.zeros((3, shape.z, shape.y, shape.x), dtype=bool)
    mask[0, shape.z - 1, :, :] = True
    mask[1, :, shape.y - 1, :] = True
    mask[2, :, :, shape.x - 1] = True
    return mask


def inbounds_edge_region(channel: int, shape: Shape3) -> tuple[slice, slice, slice]:
    """(z, y, x) slices selecting the in-bounds edge slots of one channel."""
    stops = [shape.z, shape.y, shape.x]
    stops[channel] -= 1
    return (slice(0, stops[0]), slice(0, stops[1]), slice(0, stops[2]))


def edge_ends(arr: np.ndarray, channel: int) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) endpoint views of one channel's in-bounds edges.

    Slot (c, z, y, x) is the edge from its lower endpoint (z, y, x) to its
    upper endpoint, the +1 neighbour along axis c; this helper and
    `edge_table` are the only places that spell that out.  `arr` is any
    array whose last three axes are (z, y, x).  Both views have the same
    shape and line up edge by edge, so the lower view of an affinity
    channel, ``edge_ends(aff.data[c], c)[0]``, holds its edge weights.
    """
    tail = (slice(None),) * (2 - channel)
    return arr[(..., slice(None, -1)) + tail], arr[(..., slice(1, None)) + tail]


def edge_table(shape: Shape3) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat (channel, u, v) int64 arrays of every in-bounds edge, in slot order.

    u and v are the flat voxel ids of the lower and upper endpoints; u is
    also the edge's slot within its channel.  Slot order is the flat index
    order of the (3, z, y, x) affinity array, i.e. (channel, z, y, x).
    """
    c, u = np.divmod(np.flatnonzero(~oob_edge_mask(shape)), shape.voxels)
    return c, u, u + np.array([shape.y * shape.x, shape.x, 1])[c]


def boundary_edges(labels: np.ndarray, aff: np.ndarray):
    """Flat (lo label, hi label, channel, affinity) arrays of every lattice
    edge between two different nonzero labels of a (z, y, x) label array,
    `aff` being the matching (3, z, y, x) array; in slot order."""
    cols = []
    for c in range(3):
        la, lb = (e.ravel() for e in edge_ends(labels, c))
        m = (la != lb) & (la != 0) & (lb != 0)
        cols.append((np.minimum(la[m], lb[m]), np.maximum(la[m], lb[m]),
                     np.full(np.count_nonzero(m), c), edge_ends(aff[c], c)[0].ravel()[m]))
    return tuple(np.concatenate(col) for col in zip(*cols))


def dense_relabel(flat_labels: np.ndarray) -> np.ndarray:
    """Map nonzero labels to 1..K by order of first occurrence; 0 stays 0."""
    uniq, first, inv = np.unique(flat_labels, return_index=True, return_inverse=True)
    order = np.argsort(first)
    order = order[uniq[order] != 0]
    new_ids = np.zeros(len(uniq), dtype=np.uint64)
    new_ids[order] = np.arange(1, len(order) + 1, dtype=np.uint64)
    return new_ids[inv]


def cooccurrence(a: np.ndarray, b: np.ndarray, weights=None):
    """The distinct pairs (a[i], b[i]) of two parallel id arrays, sorted by
    (a, b), as (a ids, b ids, how often each occurs or the sum of its
    `weights`).  Pairs are packed as dense indices, so ids of any uint64
    value cannot overflow the key."""
    au, ai = np.unique(a, return_inverse=True)
    bu, bi = np.unique(b, return_inverse=True)
    if weights is None:
        keys, counts = np.unique(ai * len(bu) + bi, return_counts=True)
    else:
        keys, at = np.unique(ai * len(bu) + bi, return_inverse=True)
        counts = np.bincount(at, weights)
    ka, kb = np.divmod(keys, len(bu))
    return au[ka], bu[kb], counts


def overlap_counts(seg: np.ndarray, gt: np.ndarray):
    """(seg ids, gt ids, voxel counts) of every label pair of two arrays of
    one shape that shares a voxel where gt is nonzero, sorted by (seg, gt)."""
    g = gt.ravel()
    m = g != 0
    return cooccurrence(seg.ravel()[m], g[m])


class _Volume:
    """Both kinds' one construction path (see the module docstring) and
    comparison; `check_range` tests the kind's value range, if it has one."""

    __slots__ = ("data",)

    def __init__(self, data, check_range: bool = True):
        noun, _, dtype, lead = _CODECS[type(self)]
        arr = np.array(data, dtype=dtype, order="C")
        if arr.ndim != len(lead) + 3 or arr.shape[:len(lead)] != lead:
            axes = ", ".join([*map(str, lead), "z", "y", "x"])
            raise ValueError(f"{noun} volume must have shape ({axes}), got {arr.shape}")
        self._settle(arr, check_range)
        arr.flags.writeable = False
        self.data = arr

    def _settle(self, arr: np.ndarray, check_range: bool) -> None:
        """Fix up or check the private copy before it is frozen."""

    @property
    def shape3(self) -> Shape3:
        return Shape3(*self.data.shape[-3:])

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.data.shape == other.data.shape and bool(np.array_equal(self.data, other.data))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(shape={self.data.shape[-3:]})"


class LabelVolume(_Volume):
    """Dense uint64 segment ids over a (z, y, x) grid; 0 = background."""

    __slots__ = ()

    def label_at(self, z: int, y: int, x: int) -> int:
        return int(self.data[z, y, x])


class AffinityVolume(_Volume):
    """Float32 edge weights over the voxel lattice, shape (3, z, y, x).

    Affinities proper live in [0, 1]; the same container also carries
    per-edge gradient volumes, which is what ``check_range=False`` is for.
    Out-of-bounds slots are zeroed on construction, always.
    """

    __slots__ = ()

    def _settle(self, arr: np.ndarray, check_range: bool) -> None:
        arr[oob_edge_mask(Shape3(*arr.shape[1:]))] = 0.0
        if check_range:
            require_affinity_range(arr)


def require_affinity_range(data: np.ndarray) -> None:
    """Raise ValueError unless every value is finite and lies in [0, 1]."""
    if not ((data >= 0.0) & (data <= 1.0)).all():
        raise ValueError("affinities must be finite and lie in [0, 1]")


# The VOLB codec, one row per kind: its noun, dtype code (header byte 8),
# numpy dtype in memory and on disk, and the axes in front of (z, y, x),
# whose product is the channel count (header byte 9).
_CODECS = {
    LabelVolume: ("label", 1, np.dtype("<u8"), ()),
    AffinityVolume: ("affinity", 2, np.dtype("<f4"), (3,)),
}


def require_same_shape(a, b) -> Shape3:
    """Raise ShapeMismatch unless both volumes cover the same grid."""
    sa, sb = a.shape3, b.shape3
    if sa != sb:
        raise ShapeMismatch(f"volume shapes differ: {sa} vs {sb}")
    return sa


def write_volume(vol: LabelVolume | AffinityVolume, path) -> None:
    """Write a volume to `path` in VOLB format. Deterministic bytes."""
    if type(vol) not in _CODECS:
        raise TypeError(f"cannot serialize {type(vol).__name__}")
    _, code, _, lead = _CODECS[type(vol)]
    with open(path, "wb") as f:
        f.write(_HEADER.pack(MAGIC, VERSION, code, math.prod(lead), bytes(6),
                             *vol.shape3.as_tuple()))
        f.write(vol.data.tobytes())  # the constructor's dtype is the file's


def read_volume(path) -> LabelVolume | AffinityVolume:
    """Read a VOLB file back into memory, bit-for-bit; affinities are not
    range-checked, since gradient volumes share the format."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 4 or raw[:4] != MAGIC:
        raise BadMagic(f"{path}: not a VOLB file")
    if len(raw) < HEADER_SIZE:
        raise TruncatedPayload(f"{path}: header truncated at {len(raw)} bytes")
    magic, version, dtype_code, channels, reserved, z, y, x = _HEADER.unpack_from(raw)
    if version != VERSION:
        raise VolumeError(f"{path}: unsupported format version {version}")
    if reserved != bytes(6):
        raise VolumeError(f"{path}: reserved header bytes are not zero")
    kinds = {row[1]: (kind, *row) for kind, row in _CODECS.items()}
    if dtype_code not in kinds:
        raise UnknownDtype(f"{path}: dtype code {dtype_code}")
    kind, noun, _, dtype, lead = kinds[dtype_code]
    if channels != math.prod(lead):
        raise VolumeError(f"{path}: {noun} file declares {channels} channels")
    try:
        shape = Shape3(int(z), int(y), int(x))
    except ValueError as e:
        raise VolumeError(f"{path}: {e}") from None
    expected = channels * shape.voxels * dtype.itemsize
    got = len(raw) - HEADER_SIZE
    if got != expected:
        raise TruncatedPayload(f"{path}: payload is {got} bytes, header implies {expected}")
    view = np.frombuffer(raw, dtype=dtype, offset=HEADER_SIZE)
    return kind(view.reshape(lead + shape.as_tuple()), check_range=False)
