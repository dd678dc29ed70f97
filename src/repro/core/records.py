"""The ``Record`` primitive of ReDe's I/O abstraction.

A *Record* is "a unit of data that ReDe reads and writes" (paper,
Section III-B).  Records are deliberately schema-free: the payload may be a
mapping (a relational-style row), a raw string (e.g., one Japanese insurance
claim in the standardized text format), or any other Python value.  Schema
interpretation happens at read time through :class:`~repro.core.interpreters.
Interpreter` functions — this is what preserves schema-on-read.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from typing import Any

from repro.core.pointers import Pointer

__all__ = ["Record", "estimate_size", "fixed_row_size"]

_SCALAR_SIZES = {int: 8, float: 8, bool: 1, type(None): 0}


def estimate_size(value: Any) -> int:
    """Estimate the serialized size of a value in bytes.

    Used to charge network-transfer and scan costs in the simulated cluster.
    The estimate is intentionally simple and stable: 8 bytes per number,
    one byte per character of text, and recursive sums for containers (plus a
    small per-field overhead for mappings).
    """
    value_type = type(value)
    if value_type is dict:
        # A row: almost every call.  Flat rows (text keys, scalar or text
        # values) are summed here without a recursive call per field.
        scalar_sizes = _SCALAR_SIZES
        total = 2 * len(value)
        for key, item in value.items():
            total += len(key) if type(key) is str else estimate_size(key)
            item_type = type(item)
            if item_type is str:
                total += len(item)
            elif item_type in scalar_sizes:
                total += scalar_sizes[item_type]
            else:
                total += estimate_size(item)
        return total
    if value_type in _SCALAR_SIZES:
        return _SCALAR_SIZES[value_type]
    if isinstance(value, (str, bytes)):
        return len(value)
    if isinstance(value, Mapping):
        return sum(estimate_size(k) + estimate_size(v) + 2
                   for k, v in value.items())
    if isinstance(value, Pointer):
        return 16  # an opaque object, though a tuple underneath
    if isinstance(value, (list, tuple, set, frozenset)):
        return sum(estimate_size(item) for item in value) + 8
    return 16  # opaque object: a fixed nominal footprint


def fixed_row_size(row: dict) -> int:
    """``estimate_size(row)`` less the lengths of its text values: what
    every row of ``row``'s shape adds to its own text lengths.

    A producer of many rows of one shape sizes each as this plus its
    text lengths, and hands the sum to :class:`Record`.  Raises
    ``ValueError`` unless the row is flat (text keys; text, number, bool
    or None values).
    """
    if not all(type(key) is str for key in row) or not all(
            type(item) is str or type(item) in _SCALAR_SIZES
            for item in row.values()):
        raise ValueError("only a flat row has a fixed size")
    return estimate_size(row) - sum(
        len(item) for item in row.values() if type(item) is str)


class Record:
    """A unit of stored data with a lazily computed size estimate.

    Attributes:
        data: the raw payload.  ReDe never interprets it; interpreters do.
    """

    __slots__ = ("data", "_size")

    def __init__(self, data: Any, size: int | None = None) -> None:
        self.data = data
        #: ``estimate_size(data)``; a caller that already summed it from
        #: the payload's parts passes it in, and it is trusted as is
        self._size = size

    @property
    def size_bytes(self) -> int:
        """Serialized-size estimate, cached after the first computation."""
        if self._size is None:
            self._size = estimate_size(self.data)
        return self._size

    def get(self, field: str, default: Any = None) -> Any:
        """Convenience accessor for mapping payloads.

        This is *not* schema enforcement — it is the schema-on-read shortcut
        used pervasively by interpreters over relational-style rows.
        """
        data = self.data
        if type(data) is dict or isinstance(data, Mapping):
            return data.get(field, default)
        return default

    def __getitem__(self, field: str) -> Any:
        data = self.data
        if type(data) is dict or isinstance(data, Mapping):
            return data[field]
        raise TypeError(
            f"record payload of type {type(self.data).__name__} is not "
            "field-addressable; use an Interpreter"
        )

    def __contains__(self, field: str) -> bool:
        data = self.data
        return ((type(data) is dict or isinstance(data, Mapping))
                and field in data)

    def fields(self) -> Iterator[str]:
        """Iterate field names for mapping payloads (empty otherwise)."""
        if isinstance(self.data, Mapping):
            yield from self.data

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Record) and self.data == other.data

    def __hash__(self) -> int:
        # Records with mapping payloads hash by sorted items so equal
        # records collide; falls back to repr for exotic payloads.
        data = self.data
        if isinstance(data, Mapping):
            return hash(tuple(sorted((k, _hashable(v)) for k, v in data.items())))
        return hash(_hashable(data))

    def __repr__(self) -> str:
        text = repr(self.data)
        if len(text) > 60:
            text = text[:57] + "..."
        return f"Record({text})"


def _hashable(value: Any) -> Any:
    """Best-effort conversion of a payload fragment to something hashable."""
    if isinstance(value, Mapping):
        return tuple(sorted((k, _hashable(v)) for k, v in value.items()))
    if isinstance(value, (list, set)):
        return tuple(_hashable(v) for v in value)
    return value
