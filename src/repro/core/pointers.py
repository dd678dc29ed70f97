"""The ``Pointer`` primitive of ReDe's I/O abstraction.

Paper, Section III-B: "A *Pointer* is a logical (e.g., record's primary key)
or physical (e.g., file offset) pointer used to locate a *Record* ...
a *Pointer* also contains partition information to properly locate a
*Record*.  Specifically, a *File* takes a partition key from a given
*Pointer*, applies it to a pre-configured *Partitioner* ... and locates a
*Record* with an in-partition key that can also be taken from the *Pointer*."

Broadcast joins (Section III-B, Expressibility) are expressed "by passing a
null value to the partition information of the pointer emitted by a
*Referencer*, which makes the system replicate the given pointer to all the
partitions" — here, ``partition_key is None`` marks a broadcast pointer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Optional

__all__ = ["PointerKind", "Pointer", "PointerRange"]


class PointerKind(enum.Enum):
    """How the in-partition key locates the record."""

    #: the in-partition key is a record key (primary key / index key)
    LOGICAL = "logical"
    #: the in-partition key is a physical location (partition slot)
    PHYSICAL = "physical"


class Pointer(tuple):
    """A reference to record(s) inside a named file or index.

    Attributes:
        file: name of the target structure (resolved through the catalog).
        partition_key: value fed to the file's partitioner; ``None`` means
            *broadcast* — the engine replicates the pointer to every
            partition.
        key: the in-partition key (logical) or slot (physical).
        kind: logical vs physical addressing.

    Every referencer emission builds one, so a pointer is an immutable
    ``tuple`` of its four fields with read-only properties over them:
    under half a frozen dataclass's construction cost.  It keeps the
    dataclass's semantics: it equals only other ``Pointer`` s (never a
    plain tuple), hashes as the tuple of its fields, is unordered, and
    rejects attribute writes.
    """

    __slots__ = ()

    file: str = property(itemgetter(0))  # type: ignore[assignment]
    partition_key: Optional[Any] = property(  # type: ignore[assignment]
        itemgetter(1))
    key: Any = property(itemgetter(2))  # type: ignore[assignment]
    kind: PointerKind = property(itemgetter(3))  # type: ignore[assignment]

    def __new__(cls, file: str, partition_key: Optional[Any], key: Any,
                kind: PointerKind = PointerKind.LOGICAL) -> "Pointer":
        return _new_tuple(cls, (file, partition_key, key, kind))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Pointer:
            return _tuple_eq(self, other)
        if isinstance(other, tuple):
            return False
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        if other.__class__ is Pointer:
            return _tuple_ne(self, other)
        if isinstance(other, tuple):
            return True
        return NotImplemented

    __hash__ = tuple.__hash__

    def _unordered(self, other: object) -> bool:
        return NotImplemented

    __lt__ = __le__ = __gt__ = __ge__ = _unordered  # type: ignore[assignment]

    def __reduce__(self) -> tuple:
        return (Pointer, tuple(self))

    @property
    def is_broadcast(self) -> bool:
        """True when the pointer carries no partition information."""
        return self[1] is None

    def __repr__(self) -> str:
        target = "*" if self.is_broadcast else repr(self.partition_key)
        return (f"Pointer({self.file!r}, part={target}, key={self.key!r}, "
                f"{self.kind.value})")


_new_tuple = tuple.__new__
_tuple_eq = tuple.__eq__
_tuple_ne = tuple.__ne__


@dataclass(frozen=True)
class PointerRange:
    """A pair of pointers denoting a key range within one structure.

    Paper: "A *dereference* function takes a pointer or two pointers and
    produces ... a set of records between the ranges that the two pointers
    point to."  Only meaningful against a ``BtreeFile``.
    """

    file: str
    low: Any
    high: Any
    #: None broadcasts the range probe to every partition of the index —
    #: the natural mode for probing a *local* secondary index on all nodes.
    partition_key: Optional[Any] = None
    inclusive_low: bool = True
    inclusive_high: bool = True

    @property
    def is_broadcast(self) -> bool:
        return self.partition_key is None

    def contains(self, key: Any) -> bool:
        """Key-range membership test honouring the inclusivity flags."""
        if self.low is not None:
            if key < self.low or (key == self.low and not self.inclusive_low):
                return False
        if self.high is not None:
            if key > self.high or (key == self.high and not self.inclusive_high):
                return False
        return True

    def __repr__(self) -> str:
        lo_bracket = "[" if self.inclusive_low else "("
        hi_bracket = "]" if self.inclusive_high else ")"
        return (f"PointerRange({self.file!r}, "
                f"{lo_bracket}{self.low!r}, {self.high!r}{hi_bracket})")
