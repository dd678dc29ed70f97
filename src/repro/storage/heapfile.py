"""A per-partition record heap with slot addressing and a primary-key map.

One :class:`HeapFile` holds one partition of a
:class:`~repro.storage.files.PartitionedFile`.  Records get monotonically
increasing *slots* (the physical-pointer address space); an optional
in-partition key map supports logical pointers ("a *File* ... locates a
*Record* with an in-partition key", paper Section III-B).
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro.core.records import Record
from repro.errors import RecordNotFound
from repro.storage.partitioner import stable_hash

__all__ = ["HeapFile"]


class HeapFile:
    """An append-only heap of records for a single partition."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._records: list[Record] = []
        self._key_map: dict[Any, list[int]] = {}
        self._offsets: list[int] = []
        self.total_bytes = 0
        #: distinct keys that :meth:`append` registered (aliases excluded)
        self.distinct_keys = 0

    def append(self, record: Record, key: Optional[Any] = None) -> int:
        """Store ``record``; returns its slot.

        With ``key`` given, the record also becomes addressable logically;
        duplicate keys accumulate (heap files do not enforce uniqueness —
        that is an index concern).
        """
        slot = len(self._records)
        self._records.append(record)
        self._offsets.append(self.total_bytes)
        self.total_bytes += record.size_bytes
        if key is not None:
            slots = self._key_map.get(key)
            if slots is None:
                self._key_map[key] = [slot]
                self.distinct_keys += 1
            else:
                slots.append(slot)
        return slot

    def alias(self, key: Any, slot: int) -> None:
        """Register an additional logical key for an existing slot.

        Used by delta→base compaction to keep synthetic delta-record
        addresses (ingest tags) resolvable after their run is folded
        into the heap: queries in flight across the fold still hold
        index entries targeting the tags.  Costs one key-map entry, no
        bytes, and no :attr:`distinct_keys` (a tag never equals a key
        that :meth:`append` registers).
        """
        if not 0 <= slot < len(self._records):
            raise RecordNotFound(
                f"slot {slot} out of range in heap {self.name!r}")
        self._key_map.setdefault(key, []).append(slot)

    def get(self, slot: int) -> Record:
        """Fetch by physical slot."""
        if not 0 <= slot < len(self._records):
            raise RecordNotFound(
                f"slot {slot} out of range in heap {self.name!r}")
        return self._records[slot]

    def lookup(self, key: Any) -> list[Record]:
        """Fetch all records stored under an in-partition key."""
        return [self._records[slot] for slot in self._key_map.get(key, [])]

    def slots_for_key(self, key: Any) -> list[int]:
        """Physical slots stored under an in-partition key."""
        return list(self._key_map.get(key, []))

    def probe_pages(self, key: Any, physical: bool,
                    page_size: int) -> list[int]:
        """The pages one probe of ``key`` touches: the heap's one page
        rule, shared by the per-probe and the batch page walks.

        A physical probe reads its slot's page.  A logical probe reads
        the sorted distinct pages of the key's slots, straight off the
        key map: its slots were range-checked on the way in
        (:meth:`append` creates them, :meth:`alias` checks them).  A miss
        (an absent key or an out-of-range slot) still reads the page the
        record would live in, chosen by key hash so repeated misses of
        one key stay cacheable without two absent keys aliasing each
        other onto page 0.
        """
        if physical:
            if 0 <= key < len(self._records):
                return [self._offsets[key] // page_size]
        else:
            slots = self._key_map.get(key)
            if slots:
                offsets = self._offsets
                if len(slots) == 1:
                    return [offsets[slots[0]] // page_size]
                return sorted({offsets[slot] // page_size
                               for slot in slots})
        return [stable_hash(key) % self.num_pages(page_size)]

    def page_of_slot(self, slot: int, page_size: int) -> int:
        """Page number holding ``slot``, under an append-only byte layout
        (records packed in slot order, ``page_size``-byte pages)."""
        if not 0 <= slot < len(self._records):
            raise RecordNotFound(
                f"slot {slot} out of range in heap {self.name!r}")
        return self._offsets[slot] // page_size

    def num_pages(self, page_size: int) -> int:
        """Pages this heap occupies (at least one, even when empty — a
        lookup must still read the page the record would live in)."""
        return max(1, -(-self.total_bytes // page_size))

    def scan(self) -> Iterator[Record]:
        """Iterate every record in slot order."""
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HeapFile({self.name!r}, records={len(self)})"
