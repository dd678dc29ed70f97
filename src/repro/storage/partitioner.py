"""Partitioners: map a partition key to a partition id.

Paper, Section III-B: "a *File* takes a partition key from a given *Pointer*,
applies it to a pre-configured *Partitioner* (e.g., HashPartitioner or
RangePartitioner) to locate a partition".

Hashing must be stable across processes (Python's built-in ``hash`` for
``str`` is salted per process), so :class:`HashPartitioner` uses FNV-1a over
a canonical byte encoding of the key.
"""

from __future__ import annotations

import bisect
import functools
from typing import Any, Sequence

from repro.core.pointers import Pointer
from repro.errors import PartitionError

__all__ = ["MEMO_SAFE_KEY_TYPES", "Partitioner", "HashPartitioner",
           "RangePartitioner", "stable_hash"]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _canonical_bytes(key: Any) -> bytes:
    """Encode a partition key deterministically.

    Integers encode by value (so ``1`` and ``1.0`` agree), strings by UTF-8,
    tuples recursively with separators.
    """
    if isinstance(key, bool):
        return b"b1" if key else b"b0"
    if isinstance(key, int):
        return b"i" + str(key).encode()
    if isinstance(key, float):
        if key.is_integer():
            return b"i" + str(int(key)).encode()
        return b"f" + repr(key).encode()
    if isinstance(key, str):
        return b"s" + key.encode("utf-8")
    if isinstance(key, bytes):
        return b"y" + key
    if isinstance(key, Pointer):
        return b"r" + repr(key).encode("utf-8")  # opaque, not a tuple key
    if isinstance(key, tuple):
        parts = b"".join(_canonical_bytes(item) + b"\x00" for item in key)
        return b"t" + parts
    if key is None:
        raise PartitionError("cannot partition on a null key (broadcast "
                             "pointers are handled by the engine)")
    return b"r" + repr(key).encode("utf-8")


def _fnv1a(key: Any) -> int:
    value = _FNV_OFFSET
    for byte in _canonical_bytes(key):
        value ^= byte
        value = (value * _FNV_PRIME) & _MASK64
    return value


#: Key types a memo keyed by the key itself may serve: among exact
#: ``int``, ``float`` and ``str`` keys, equal keys encode alike (``1`` and
#: ``1.0``, ``0`` and ``-0.0`` share ``i1`` and ``i0``) and have equal
#: ``estimate_size``.  ``bool`` stays out: ``True == 1``, but it encodes
#: as ``b1`` and sizes as 1 byte.  The index build's per-build memos
#: (``files.index_buckets``) take these types.
MEMO_SAFE_KEY_TYPES = frozenset((int, float, str))

#: Memo of :func:`_fnv1a` for the two of those types that dominate
#: routing, exact ``int`` and ``str``: those never compare equal across
#: types, so a hit can never hand ``True`` or ``1.0`` the hash of ``1``.
#: Bounded, so a long-lived process stays flat.
_memo_fnv1a = functools.lru_cache(maxsize=1 << 14)(_fnv1a)


def stable_hash(key: Any) -> int:
    """64-bit FNV-1a hash of a canonical key encoding; process-stable."""
    kind = type(key)
    if kind is int or kind is str:
        return _memo_fnv1a(key)
    return _fnv1a(key)


class Partitioner:
    """Maps partition keys to partition ids in ``[0, num_partitions)``."""

    def __init__(self, num_partitions: int) -> None:
        if num_partitions < 1:
            raise PartitionError(
                f"num_partitions must be >= 1, got {num_partitions}")
        self.num_partitions = num_partitions

    def partition(self, key: Any) -> int:
        """Return the partition id for ``key``."""
        raise NotImplementedError(
            f"{type(self).__name__} must implement partition()")

    def validate(self, partition_id: int) -> int:
        if not 0 <= partition_id < self.num_partitions:
            raise PartitionError(
                f"partition id {partition_id} out of range "
                f"[0, {self.num_partitions})")
        return partition_id


class HashPartitioner(Partitioner):
    """Stable-hash partitioning — the paper's default for base files and
    global indexes."""

    def partition(self, key: Any) -> int:
        return stable_hash(key) % self.num_partitions

    def __repr__(self) -> str:
        return f"HashPartitioner({self.num_partitions})"


class RangePartitioner(Partitioner):
    """Range partitioning over sorted split boundaries.

    ``boundaries`` are the *upper-exclusive* split points: with boundaries
    ``[10, 20]`` keys < 10 go to partition 0, keys in [10, 20) to partition
    1, and keys >= 20 to partition 2 (``num_partitions == len(boundaries)+1``).
    """

    def __init__(self, boundaries: Sequence[Any]) -> None:
        boundaries = list(boundaries)
        if sorted(boundaries) != boundaries:
            raise PartitionError("range boundaries must be sorted")
        if len(set(map(repr, boundaries))) != len(boundaries):
            raise PartitionError("range boundaries must be distinct")
        super().__init__(len(boundaries) + 1)
        self.boundaries = boundaries

    def partition(self, key: Any) -> int:
        return bisect.bisect_right(self.boundaries, key)

    def partition_range(self, low: Any, high: Any) -> range:
        """Partition ids that may hold keys in ``[low, high]``.

        Unlike hash partitioning, a range partitioner lets range probes prune
        partitions — a structural advantage ReDe can exploit.
        """
        first = 0 if low is None else bisect.bisect_right(self.boundaries, low)
        last = (self.num_partitions - 1 if high is None
                else bisect.bisect_right(self.boundaries, high))
        return range(first, last + 1)

    def __repr__(self) -> str:
        return f"RangePartitioner({self.boundaries!r})"
