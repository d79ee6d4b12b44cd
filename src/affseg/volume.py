"""Dense volumetric containers and the VOLB on-disk format.

Everything in this package works on two arrays:

* label volumes -- one uint64 segment id per voxel, ``0`` meaning
  background / unlabeled, stored ``(z, y, x)`` with x fastest;
* affinity volumes -- one float32 weight per lattice edge, stored
  ``(3, z, y, x)`` with channel 0 = z, 1 = y, 2 = x.  Slot ``(c, z, y, x)``
  is the undirected edge between voxel ``(z, y, x)`` and its ``+1``
  neighbour along axis ``c``.  Slots whose neighbour falls outside the
  volume carry no edge and are forced to 0.0 on every construction path.

Both containers own their data, frozen read-only, so a volume never
aliases an array anyone can write and can be shared freely between
threads.  The public constructors make exactly one private C-contiguous
copy of their input.  A file read, the watershed, a merge-tree replay,
stitching, the MALIS gradient and the synthetic labels and affinities
build a fresh array that nothing else holds and hand it to the internal
path, `_Volume._adopt`, which freezes it in place without a copy but
still zeroes the out-of-bounds slots and checks the value range.

Per-label tables (sizes, lookups, pair counts) are indexed through
`label_index`.  Dense ids, as the watershed and stitching produce them,
are their own table indices: the index it returns is a view of the label
array, so a caller builds new arrays from it and never writes through it.

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
import numbers
import os
import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"VOLB"
VERSION = 1
HEADER_SIZE = 40

_HEADER = struct.Struct("<4sIBB6sQQQ")


class VolumeError(ValueError):
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
    upper endpoint, the +1 neighbour along axis c; `slot_ends` names the
    same edges by flat slot.  `arr` is any array whose last three axes are
    (z, y, x).  Both views line up edge by edge, so the lower view of an
    affinity channel, ``edge_ends(aff.data[c], c)[0]``, holds its edge
    weights, and that of an affinity-shaped mask marks edges by slot.
    """
    tail = (slice(None),) * (2 - channel)
    return arr[(..., slice(None, -1)) + tail], arr[(..., slice(1, None)) + tail]


def slot_ends(slots: np.ndarray, shape: Shape3) -> tuple[np.ndarray, np.ndarray]:
    """Flat voxel ids (u, v) of the lower and upper endpoints of the
    in-bounds edges at flat `slots` of a (3, z, y, x) affinity array; u is
    also the edge's slot within its channel."""
    c, u = np.divmod(slots, shape.voxels)
    return u, u + np.array([shape.y * shape.x, shape.x, 1])[c]


def boundary_edges(labels: np.ndarray, aff: np.ndarray):
    """Flat (lo label, hi label, channel, affinity) arrays of every lattice
    edge between two different nonzero labels of a (z, y, x) label array,
    `aff` being the matching (3, z, y, x) array; in slot order, as the set
    slots of a cut mask filled through each channel's lower-end view."""
    cut = np.zeros(aff.shape, dtype=bool)
    for c in range(3):
        la, lb = edge_ends(labels, c)
        mark = edge_ends(cut[c], c)[0]
        np.not_equal(la, lb, out=mark)
        mark &= (la != 0) & (lb != 0)
    slots = np.flatnonzero(cut)
    del cut
    la, lb = (labels.reshape(-1)[end] for end in slot_ends(slots, Shape3(*labels.shape)))
    return np.minimum(la, lb), np.maximum(la, lb), slots // labels.size, aff.reshape(-1)[slots]


def dense_relabel(labels: np.ndarray) -> np.ndarray:
    """Map the nonzero labels of an array of any shape to uint64 1..K by
    order of first occurrence in flat order; 0 stays 0.  Keeps the shape."""
    ids, idx = label_index(labels)
    first = np.full(len(ids), labels.size)  # ids that do not occur rank last
    np.minimum.at(first, idx.ravel(), np.arange(labels.size))
    first[ids == 0] = -1  # 0, if listed, ranks first and maps to 0
    new_ids = np.empty(len(ids), dtype=np.uint64)
    new_ids[np.argsort(first)] = np.arange(len(ids)) + (ids[:1] != 0)
    return new_ids[idx]


def label_index(x: np.ndarray):
    """(ids, idx): a sorted table `ids` of distinct values that covers every
    value of `x`, and idx in x's shape with ``ids[idx] == x``.

    Integer ids in [0, x.size], such as dense labels, index the table
    directly: ids is ``arange(max + 1)``, which may list ids that do not
    occur, and idx is x itself, an int64 view for uint64 input, so no array
    of x's size is made.  Any other array (wide uint64 ids, negatives,
    floats) takes one sort and a binary search, and gives np.unique's
    result: the values that occur and the inverse."""
    if x.size and x.dtype.kind in "ui" and x.min() >= 0 and (top := int(x.max())) <= x.size:
        return np.arange(top + 1, dtype=x.dtype), x.view(np.int64) if x.dtype == np.uint64 else x
    uniq = np.unique(x)
    return uniq, np.searchsorted(uniq, x)


def label_sizes(x: np.ndarray):
    """The nonzero ids that occur in `x`, ascending, and how often each does."""
    ids, idx = label_index(x)
    sizes = np.bincount(idx.ravel(), minlength=len(ids))
    keep = (sizes != 0) & (ids != 0)
    return ids[keep], sizes[keep]


def cooccurrence(a: np.ndarray, b: np.ndarray, weights=None, where=slice(None)):
    """The distinct pairs (a[i], b[i]) of two id arrays of one shape at the
    flat positions i that `where` selects, a boolean mask or a slice (all of
    them), sorted by (a, b), as (a ids, b ids, how often each occurs or the
    sum of its `weights`, one per selected position).  Pairs are packed as
    table indices, so ids of any uint64 value cannot overflow the key."""
    au, ai = label_index(a)
    bu, bi = label_index(b)
    key = np.multiply(ai.ravel()[where], len(bu), dtype=np.int64)  # new: ai may be `a` itself
    key += bi.ravel()[where]
    del ai, bi  # freed before the key sort
    keys, sums = np.unique(key, return_counts=True)  # one sort, no inverse
    if weights is not None:
        sums = np.bincount(np.searchsorted(keys, key), weights)
    ka, kb = np.divmod(keys, len(bu))
    return au[ka], bu[kb], sums


def overlap_counts(seg: np.ndarray, gt: np.ndarray):
    """(seg ids, gt ids, voxel counts) of every label pair of two arrays of
    one shape that shares a voxel where gt is nonzero, sorted by (seg, gt)."""
    return cooccurrence(seg, gt, where=gt.ravel() != 0)


class _Volume:
    """Both kinds' construction paths (see the module docstring) and
    comparison; `check_range` tests the kind's value range, if it has one."""

    __slots__ = ("data",)

    def __init__(self, data, check_range: bool = True):
        noun, _, dtype, lead = _CODECS[type(self)]
        data = np.asarray(data)
        self._admit(data)
        arr = np.array(data, dtype=dtype, order="C")
        if arr.ndim != len(lead) + 3 or arr.shape[:len(lead)] != lead:
            axes = ", ".join([*map(str, lead), "z", "y", "x"])
            raise ValueError(f"{noun} volume must have shape ({axes}), got {arr.shape}")
        self._own(arr, check_range)

    @classmethod
    def _adopt(cls, arr: np.ndarray, check_range: bool = True):
        """The internal path: wrap a fresh array of the kind's shape that
        nothing else holds, such as a replay's or a file read's, without
        copying it (unless its dtype or layout differ from the kind's)."""
        vol = object.__new__(cls)
        vol._own(np.asarray(arr, dtype=_CODECS[cls][2], order="C"), check_range)
        return vol

    def _own(self, arr: np.ndarray, check_range: bool) -> None:
        self._settle(arr, check_range)
        arr.flags.writeable = False
        self.data = arr

    def _admit(self, data: np.ndarray) -> None:
        """Check the caller's values before they are cast to the kind's dtype."""

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
    """Dense uint64 segment ids over a (z, y, x) grid; 0 = background.

    Ids are checked, never cast: bool and integer arrays are accepted, and
    signed ones only without negative values.
    """

    __slots__ = ()

    def _admit(self, data: np.ndarray) -> None:
        if data.dtype.kind not in "biu":
            raise ValueError(f"label ids must be integers, got dtype {data.dtype}")
        if data.dtype.kind == "i" and data.size and (low := data.min()) < 0:
            raise ValueError(f"label ids must be >= 0, got {low}")

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
        arr[0, -1] = arr[1, :, -1] = arr[2, :, :, -1] = 0.0  # the out-of-bounds slots
        if check_range:
            require_affinity_range(arr)


def require_affinity_range(data: np.ndarray) -> None:
    """Raise ValueError unless every value is finite and lies in [0, 1]."""
    if not ((data >= 0.0) & (data <= 1.0)).all():
        raise ValueError("affinities must be finite and lie in [0, 1]")


def as_real(value) -> float:
    """A parameter as a float for its range check: NaN unless it is a real
    number (a string or None is not), and +-inf beyond the float range, so a
    bad value fails the check with the caller's ValueError."""
    if not isinstance(value, numbers.Real):
        return math.nan
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


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
        f.write(vol.data)  # the constructor's C-order copy, in the file's dtype


def read_volume(path) -> LabelVolume | AffinityVolume:
    """Read a VOLB file back into memory, bit-for-bit; affinities are not
    range-checked, since gradient volumes share the format.  The payload's
    size is checked against the header before it is read, straight into
    the array the volume then owns."""
    with open(path, "rb") as f:
        raw = f.read(HEADER_SIZE)
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
        got = os.fstat(f.fileno()).st_size - HEADER_SIZE
        if got == expected:
            arr = np.empty(lead + shape.as_tuple(), dtype=dtype)
            got = f.readinto(arr)  # fewer bytes only if the file shrank meanwhile
    if got != expected:
        raise TruncatedPayload(f"{path}: payload is {got} bytes, header implies {expected}")
    return kind._adopt(arr, check_range=False)
