"""Concrete implementations of the paper's I/O abstraction.

Section III-B defines three basic interfaces — *Record*, *Pointer*, *File* —
plus the special *BtreeFile*:

* :class:`PartitionedFile` — "a set of *Records* composes a *File*.  *File*
  is assumed to be distributed into partitions and can locate a *Record*
  with the corresponding *Pointer*."
* :class:`BtreeFile` — "can also locate a set of *Records* with a range of
  given *Pointers*."

Both carry a *placement* (partition id → node id) so the engines can charge
disk IO on the owning node and network transfer for cross-partition access.
The storage layer itself is synchronous and time-free: virtual time is the
engines' job.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from operator import add, attrgetter
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from repro.core.pointers import Pointer, PointerKind, PointerRange
from repro.core.records import Record, estimate_size
from repro.errors import PartitionError, StorageError
from repro.storage.btree import BPlusTree
from repro.storage.cache import PageId
from repro.storage.heapfile import HeapFile
from repro.storage.partitioner import (
    MEMO_SAFE_KEY_TYPES,
    HashPartitioner,
    Partitioner,
)

__all__ = ["File", "PartitionedFile", "BtreeFile", "EntryPayload",
           "IndexEntry", "index_buckets", "round_robin_placement"]

#: Per-entry B-tree key/pointer overhead used in index size estimates.
_ENTRY_OVERHEAD = 16

#: Field names of the index-entry record convention (see :func:`IndexEntry`).
TARGET_PARTITION_FIELD = "target_partition_key"
TARGET_KEY_FIELD = "target_key"
TARGET_KIND_FIELD = "target_kind"
INDEX_KEY_FIELD = "key"

#: ``target_kind`` of a physical entry; logical entries omit the field.
PHYSICAL_KIND = PointerKind.PHYSICAL.value
_PHYSICAL = PointerKind.PHYSICAL

_LOGICAL_FIELDS = (INDEX_KEY_FIELD, TARGET_PARTITION_FIELD, TARGET_KEY_FIELD)
_PHYSICAL_FIELDS = _LOGICAL_FIELDS + (TARGET_KIND_FIELD,)

#: ``estimate_size`` of an entry payload minus its three values: the
#: per-field overhead, the field names and, when physical, the kind tag.
_LOGICAL_FIXED_SIZE = (2 * len(_LOGICAL_FIELDS)
                       + sum(len(name) for name in _LOGICAL_FIELDS))
_PHYSICAL_FIXED_SIZE = (2 * len(_PHYSICAL_FIELDS)
                        + sum(len(name) for name in _PHYSICAL_FIELDS)
                        + estimate_size(PHYSICAL_KIND))
#: ``estimate_size`` of a heap slot (an int)
_SLOT_SIZE = estimate_size(0)

KeyFn = Callable[[Record], Any]
#: one heap's records -> per record, a key, a list of keys, or None
KeysFn = Callable[[Sequence[Record]], Sequence[Any]]
#: one index partition's entries sorted by key, and those keys
KeyedBucket = tuple[list[Any], list[Record]]

#: builds a :class:`PageId` from a 4-tuple without the namedtuple's
#: Python-level ``__new__`` (the page walks make one per page touched)
_new_page_id = tuple.__new__


class EntryPayload(Mapping):
    """The read-only payload of one index entry.

    It reads exactly like the dict it stands for, ``{"key": ...,
    "target_partition_key": ..., "target_key": ...}`` plus
    ``"target_kind": "physical"`` on a physical entry: same keys in the
    same order, ``get``/``in``/``len``/iteration, ``==`` with dicts both
    ways, the dict's ``repr`` and ``estimate_size``.  It holds the
    values in four slots instead of a hash table, and it cannot be
    written.  ``target_kind`` is None on a logical entry, whose mapping
    omits that field.  Hot readers use the attributes directly.
    """

    __slots__ = _PHYSICAL_FIELDS

    key: Any
    target_partition_key: Any
    target_key: Any
    target_kind: Optional[str]

    def __new__(cls, key: Any, target_partition_key: Any, target_key: Any,
                target_kind: Optional[str] = None) -> "EntryPayload":
        self = object.__new__(cls)
        _set_key(self, key)
        _set_partition_key(self, target_partition_key)
        _set_target_key(self, target_key)
        _set_kind(self, target_kind)
        return self

    def __setattr__(self, name: str, value: Any) -> None:
        raise TypeError("index entry payloads are read-only")

    def __delattr__(self, name: str) -> None:
        raise TypeError("index entry payloads are read-only")

    def __reduce__(self) -> tuple:
        return (EntryPayload, (self.key, self.target_partition_key,
                               self.target_key, self.target_kind))

    def __contains__(self, name: object) -> bool:
        return name in _LOGICAL_FIELDS or (name == TARGET_KIND_FIELD
                                           and self.target_kind is not None)

    def __getitem__(self, name: Any) -> Any:
        if name in self:
            return getattr(self, name)
        raise KeyError(name)

    def get(self, name: Any, default: Any = None) -> Any:
        return getattr(self, name) if name in self else default

    def __iter__(self) -> Iterator[str]:
        return iter(_LOGICAL_FIELDS if self.target_kind is None
                    else _PHYSICAL_FIELDS)

    def __len__(self) -> int:
        return 3 if self.target_kind is None else 4

    def __repr__(self) -> str:
        return repr(dict(self))


# The slots' own setters: they bypass the read-only __setattr__.
_set_key = EntryPayload.key.__set__
_set_partition_key = EntryPayload.target_partition_key.__set__
_set_target_key = EntryPayload.target_key.__set__
_set_kind = EntryPayload.target_kind.__set__


def IndexEntry(index_key: Any, target_partition_key: Any,
               target_key: Any,
               kind: PointerKind = PointerKind.LOGICAL) -> Record:
    """Build an index-entry record pointing into a base file.

    Paper, Section III-B/Fig. 4: dereferencing a B-tree index yields records
    that "consist of logical pointers of the Part file" — and a *Pointer*
    may equally be "physical (e.g., file offset)".  The convention used
    throughout this library is a mapping record with the index key, the base
    file's partition key (always logical — it routes through the
    partitioner) and the in-partition target (a record key, or a physical
    slot for ``kind=PHYSICAL``), held in a read-only :class:`EntryPayload`.

    Secondary indexes built by the DFS use **physical** targets so an entry
    resolves to exactly the record that produced it, even when the base
    file's logical key is non-unique (e.g. lineitem keyed by l_orderkey).
    Bulk builds make theirs in :func:`index_buckets`; this is the one-off
    path (single inserts, delta runs).
    """
    if kind is PointerKind.LOGICAL:
        payload = EntryPayload(index_key, target_partition_key, target_key)
        fixed = _LOGICAL_FIXED_SIZE
    else:
        payload = EntryPayload(index_key, target_partition_key, target_key,
                               PHYSICAL_KIND)
        fixed = _PHYSICAL_FIXED_SIZE
    return Record(payload, fixed + estimate_size(index_key)
                  + estimate_size(target_partition_key)
                  + estimate_size(target_key))


def index_buckets(base: "PartitionedFile", partition_key_fn: KeyFn,
                  targets: Sequence[tuple["BtreeFile", KeysFn]]
                  ) -> list[tuple[list[KeyedBucket], int]]:
    """Derive the physical entries of every target index in one pass over
    ``base``'s heaps.

    ``targets`` pairs an index with its batch key extraction: given one
    heap's records, one answer per record — a key, a list of keys, or
    None to skip the record.  Returns, per target, its per-partition
    buckets of entries sorted by index key — duplicates in base
    (partition, slot) order, the order a B-tree bulk load keeps — each
    with its keys beside it, and the bytes :attr:`BtreeFile.total_bytes`
    counts for them.  Local entries colocate with the base record's
    partition, global ones partition by the index key, replicated ones
    land in every replica.

    Each entry's size is summed from its parts, to exactly the
    ``estimate_size`` of its payload: the field names, the partition key
    and the index key.  All entries of one base record share its slot
    int.  Keys repeat heavily (a few hundred part keys over tens of
    thousands of lineitems), so within one build each distinct index
    key is sized and routed once, and each distinct partition key sized
    once, for a heap whose keys are all of
    :data:`~repro.storage.partitioner.MEMO_SAFE_KEY_TYPES`.
    """
    plans = []
    for index, keys_fn in targets:
        buckets: list[list[Record]] = [
            [] for __ in range(index.num_partitions)]
        bucket_keys: list[list[Any]] = [[] for __ in buckets]
        plans.append((keys_fn, index.scope, index.partitioner.partition,
                      buckets, bucket_keys, {}, {}))
    entry_bytes = [0] * len(plans)
    entry_counts = [0] * len(plans)
    target_sizes: dict[Any, int] = {}
    for heap in base.partitions:
        records = list(heap.scan())
        partition_keys = list(map(partition_key_fn, records))
        record_sizes = _memoized(_target_size, target_sizes, partition_keys)
        for i, (keys_fn, scope, route, buckets, bucket_keys, key_sizes,
                partitions) in enumerate(plans):
            keys, slots = _flatten_keys(keys_fn(records))
            entry_pks = _per_entry(partition_keys, slots)
            sizes = list(map(add, _per_entry(record_sizes, slots),
                             _memoized(estimate_size, key_sizes, keys)))
            if scope == "replicated":
                entries: list[list[Record]] = [[]]
                _fill(entries, [[]], [0] * len(keys), keys, entry_pks,
                      slots, sizes)
                for bucket, replica_keys in zip(buckets, bucket_keys):
                    bucket.extend(entries[0])
                    replica_keys.extend(keys)
            else:
                pids = (_memoized(route, partitions, keys)
                        if scope == "global" else
                        _per_entry(_memoized(route, partitions,
                                             partition_keys), slots))
                _fill(buckets, bucket_keys, pids, keys, entry_pks, slots,
                      sizes)
            entry_bytes[i] += sum(sizes)
            entry_counts[i] += len(sizes)
    result = []
    for (__, scope, __, buckets, bucket_keys, __, __), total, count in zip(
            plans, entry_bytes, entry_counts):
        copies = len(buckets) if scope == "replicated" else 1
        result.append(([_sorted_by_key(keys, bucket)
                        for keys, bucket in zip(bucket_keys, buckets)],
                       (total + _ENTRY_OVERHEAD * count) * copies))
    return result


def _sorted_by_key(keys: list[Any], entries: list[Record]) -> KeyedBucket:
    """``(keys, entries)`` in key order, equal keys in entry order: what
    ``entries.sort(key=entry_key)`` gives, without reading each key back
    through its entry."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return (list(map(keys.__getitem__, order)),
            list(map(entries.__getitem__, order)))


def _flatten_keys(answers: Sequence[Any]
                  ) -> tuple[Sequence[Any], Sequence[int]]:
    """One heap's key answers as per-entry ``(keys, slots)``: a None
    answer contributes no entry, a list one per key.  When every answer
    is one key, they are the keys and the slots are ``range(len)``."""
    kinds = set(map(type, answers))
    if type(None) not in kinds and not any(issubclass(kind, list)
                                           for kind in kinds):
        return answers, range(len(answers))
    keys: list[Any] = []
    slots: list[int] = []
    for slot, answer in enumerate(answers):
        if answer is None:
            continue  # schema-on-read: records missing the key
        if isinstance(answer, list):
            keys.extend(answer)
            slots.extend([slot] * len(answer))
        else:
            keys.append(answer)
            slots.append(slot)
    return keys, slots


def _per_entry(per_record: list[Any], slots: Sequence[int]
               ) -> Sequence[Any]:
    """A per-record list read out per entry (``slots`` from
    :func:`_flatten_keys`)."""
    if isinstance(slots, range):
        return per_record
    return list(map(per_record.__getitem__, slots))


def _memoized(fn: Callable[[Any], Any], memo: dict, keys: Sequence[Any]
              ) -> list[Any]:
    """``[fn(key) for key in keys]``, with ``fn`` run once per distinct
    key through ``memo`` when every key's type allows it."""
    if not set(map(type, keys)) <= MEMO_SAFE_KEY_TYPES:
        return list(map(fn, keys))
    for key in set(keys).difference(memo):
        memo[key] = fn(key)
    return list(map(memo.__getitem__, keys))


def _target_size(partition_key: Any) -> int:
    """The size of a physical entry's payload minus its index key."""
    return _PHYSICAL_FIXED_SIZE + _SLOT_SIZE + estimate_size(partition_key)


def _fill(buckets: list[list[Record]], bucket_keys: list[list[Any]],
          partitions: Sequence[int], keys: Sequence[Any],
          partition_keys: Sequence[Any], slots: Sequence[int],
          sizes: Sequence[int]) -> None:
    """Append one physical entry per key to its partition's bucket, and
    the key beside it."""
    new_object, new_record = object.__new__, Record
    for pid, index_key, partition_key, slot, size in zip(
            partitions, keys, partition_keys, slots, sizes):
        # EntryPayload(...) inlined: its Python-level __new__ per entry
        # would cost the build about 7 %.
        payload = new_object(EntryPayload)
        _set_key(payload, index_key)
        _set_partition_key(payload, partition_key)
        _set_target_key(payload, slot)
        _set_kind(payload, PHYSICAL_KIND)
        buckets[pid].append(new_record(payload, size))
        bucket_keys[pid].append(index_key)


#: the index key of an entry record
entry_key = attrgetter("data.key")


def round_robin_placement(num_partitions: int,
                          num_nodes: int) -> list[int]:
    """Default placement: partition ``i`` lives on node ``i % num_nodes``."""
    if num_nodes < 1:
        raise PartitionError("placement needs at least one node")
    return [i % num_nodes for i in range(num_partitions)]


class File:
    """Shared behaviour of partition-distributed structures."""

    def __init__(self, name: str, partitioner: Partitioner,
                 placement: Sequence[int]) -> None:
        if len(placement) != partitioner.num_partitions:
            raise PartitionError(
                f"placement has {len(placement)} entries for "
                f"{partitioner.num_partitions} partitions")
        self.name = name
        self.partitioner = partitioner
        self._placement = list(placement)

    @property
    def num_partitions(self) -> int:
        return self.partitioner.num_partitions

    def partition_of_key(self, partition_key: Any) -> int:
        """Partition id owning ``partition_key``."""
        return self.partitioner.partition(partition_key)

    def node_of(self, partition_id: int) -> int:
        """Node hosting partition ``partition_id``."""
        self.partitioner.validate(partition_id)
        return self._placement[partition_id]

    def node_of_key(self, partition_key: Any) -> int:
        return self.node_of(self.partition_of_key(partition_key))

    def partitions_on_node(self, node_id: int) -> list[int]:
        """Partition ids placed on ``node_id``."""
        return [pid for pid, node in enumerate(self._placement)
                if node == node_id]

    @property
    def placement(self) -> tuple[int, ...]:
        """Current partition→node placement (read-only snapshot)."""
        return tuple(self._placement)

    def move_partition(self, partition_id: int, node_id: int) -> int:
        """Re-home one partition (a rebalance commit); returns the old
        owner.  This is pure metadata — the bytes were already copied by
        whoever calls it (the storage layer is synchronous and time-free).
        """
        pid = self.partitioner.validate(partition_id)
        if node_id < 0:
            raise PartitionError(
                f"cannot place partition {pid} on negative node {node_id}")
        old = self._placement[pid]
        self._placement[pid] = node_id
        return old

    def lookup(self, pointer: Pointer) -> list[Record]:
        """Locate the record(s) a pointer refers to."""
        raise NotImplementedError(
            f"{type(self).__name__} must implement lookup()")


class PartitionedFile(File):
    """A hash/range-partitioned record file — ReDe's base-table storage.

    Records are inserted with an explicit partition key (e.g. the primary
    key for TPC-H base files) and an in-partition key; both default
    sensibly for the common primary-key layout where the two coincide.
    """

    def __init__(self, name: str, partitioner: Partitioner,
                 placement: Optional[Sequence[int]] = None,
                 num_nodes: Optional[int] = None) -> None:
        if placement is None:
            if num_nodes is None:
                raise PartitionError(
                    "PartitionedFile needs either a placement or num_nodes")
            placement = round_robin_placement(partitioner.num_partitions,
                                              num_nodes)
        super().__init__(name, partitioner, placement)
        self.partitions = [HeapFile(name=f"{name}[{pid}]")
                           for pid in range(self.num_partitions)]

    # -- writes ----------------------------------------------------------

    def insert(self, record: Record, partition_key: Any,
               key: Optional[Any] = None) -> Pointer:
        """Insert a record; returns a logical pointer to it.

        ``key`` defaults to ``partition_key`` — the paper's layout for base
        files hash-partitioned by primary key.
        """
        if key is None:
            key = partition_key
        self.append(record, partition_key, key)
        return Pointer(self.name, partition_key, key, PointerKind.LOGICAL)

    def append(self, record: Record, partition_key: Any,
               key: Optional[Any] = None) -> int:
        """Store a record in the partition owning ``partition_key``;
        returns its slot there.  ``key`` defaults as in :meth:`insert`."""
        if key is None:
            key = partition_key
        return self.partitions[self.partitioner.partition(
            partition_key)].append(record, key=key)

    # -- reads -----------------------------------------------------------

    def lookup(self, pointer: Pointer) -> list[Record]:
        """Resolve a (non-broadcast) pointer to its record(s)."""
        if pointer.file != self.name:
            raise StorageError(
                f"pointer targets {pointer.file!r}, not {self.name!r}")
        if pointer.is_broadcast:
            raise StorageError(
                "broadcast pointers are materialized by the engine before "
                "reaching storage")
        pid = self.partition_of_key(pointer.partition_key)
        return self.lookup_in_partition(pid, pointer)

    def lookup_in_partition(self, partition_id: int,
                            pointer: Pointer) -> list[Record]:
        """Resolve a pointer against one specific partition.

        Used both for normal lookups (partition derived from the pointer)
        and for broadcast pointers replicated to every partition.
        """
        heap = self.partitions[self.partitioner.validate(partition_id)]
        if pointer.kind is PointerKind.PHYSICAL:
            return [heap.get(pointer.key)]
        return heap.lookup(pointer.key)

    def probe_page_ids(self, partition_id: int, pointer: Pointer,
                       page_size: int) -> list[PageId]:
        """The exact heap pages one pointer fetch touches, under the
        heap's page rule (:meth:`HeapFile.probe_pages`)."""
        pid = self.partitioner.validate(partition_id)
        name = self.name
        return [_new_page_id(PageId, (name, pid, "heap", page))
                for page in self.partitions[pid].probe_pages(
                    pointer.key, pointer.kind is _PHYSICAL, page_size)]

    def probe_batch(self, partition_id: int, pointers: Sequence[Pointer],
                    page_size: Optional[int] = None
                    ) -> tuple[list[list[Record]], Optional[list[PageId]]]:
        """Answer a probe list against one partition in one call.

        Returns one fresh record list per pointer, in order (what
        :meth:`lookup_in_partition` returns for each) and, when
        ``page_size`` is given, the unique heap pages the probes touch in
        first-touch order: each probe's pages under the same rule as
        :meth:`probe_page_ids`, deduplicated as page numbers, each made a
        :class:`PageId` once.  Without ``page_size`` no page is walked
        and the pages are None.  An out-of-range physical pointer raises
        :class:`~repro.errors.RecordNotFound`.
        """
        pid = self.partitioner.validate(partition_id)
        heap = self.partitions[pid]
        get, lookup, probe_pages = heap.get, heap.lookup, heap.probe_pages
        fetched: list[list[Record]] = []
        append = fetched.append
        seen: dict[int, None] = {}
        for pointer in pointers:
            key = pointer.key
            physical = pointer.kind is _PHYSICAL
            append([get(key)] if physical else lookup(key))
            if page_size is not None:
                for page in probe_pages(key, physical, page_size):
                    seen[page] = None
        if page_size is None:
            return fetched, None
        name = self.name
        return fetched, [_new_page_id(PageId, (name, pid, "heap", page))
                         for page in seen]

    def scan_partition(self, partition_id: int) -> Iterator[Record]:
        heap = self.partitions[self.partitioner.validate(partition_id)]
        return heap.scan()

    def scan(self) -> Iterator[Record]:
        """Full scan across all partitions, in partition order."""
        for heap in self.partitions:
            yield from heap.scan()

    def __len__(self) -> int:
        return sum(len(heap) for heap in self.partitions)

    @property
    def total_bytes(self) -> int:
        return sum(heap.total_bytes for heap in self.partitions)

    @property
    def distinct_keys(self) -> int:
        """Distinct in-partition keys inserted, summed over partitions —
        the file's distinct-key count whenever equal keys share a
        partition."""
        return sum(heap.distinct_keys for heap in self.partitions)

    def partition_bytes(self, partition_id: int) -> int:
        return self.partitions[self.partitioner.validate(partition_id)].total_bytes

    @property
    def avg_record_bytes(self) -> float:
        count = len(self)
        return self.total_bytes / count if count else 0.0


class BtreeFile(File):
    """A partitioned B-tree structure — ReDe's index storage.

    The distinction between a *local* and a *global* secondary index (paper
    Section III-E) is purely one of partitioning:

    * **global**: partitioned by the *index key* itself (``scope='global'``),
      so an equality probe visits exactly one partition;
    * **local**: partition ``i`` of the index holds entries for partition
      ``i`` of the base file (``scope='local'``), so a probe must visit all
      partitions — each node probes its local ones;
    * **replicated**: every node holds a full copy (partition ``i`` is the
      replica on node ``i``), the FRI scheme of the Taniar & Rahayu
      taxonomy the paper cites — probes are always node-local, writes
      amplify by the node count.
    """

    def __init__(self, name: str, partitioner: Partitioner,
                 placement: Optional[Sequence[int]] = None,
                 num_nodes: Optional[int] = None,
                 scope: str = "global",
                 order: int = 64) -> None:
        if scope not in ("global", "local", "replicated"):
            raise StorageError(
                f"index scope must be global|local|replicated: {scope}")
        if placement is None:
            if num_nodes is None:
                raise PartitionError(
                    "BtreeFile needs either a placement or num_nodes")
            placement = round_robin_placement(partitioner.num_partitions,
                                              num_nodes)
        super().__init__(name, partitioner, placement)
        self.scope = scope
        self.order = order
        self.trees = [BPlusTree(order=order)
                      for __ in range(self.num_partitions)]
        self._total_bytes = 0

    # -- writes ----------------------------------------------------------

    def insert(self, index_key: Any, entry: Record,
               partition_key: Optional[Any] = None) -> None:
        """Insert an index entry.

        For a global index, ``partition_key`` defaults to the index key
        (that is what *makes* it global).  For a local index the caller must
        pass the *base file's* partition key so the entry is colocated.
        """
        if self.scope == "replicated":
            # Full replication: the entry lands in every node's copy.
            for tree in self.trees:
                tree.insert(index_key, entry)
            self._total_bytes += (entry.size_bytes
                                  + _ENTRY_OVERHEAD) * len(self.trees)
            return
        if partition_key is None:
            if self.scope == "local":
                raise StorageError(
                    "local index inserts need the base partition key")
            partition_key = index_key
        pid = self.partition_of_key(partition_key)
        self.trees[pid].insert(index_key, entry)
        self._total_bytes += entry.size_bytes + _ENTRY_OVERHEAD

    def bulk_build(self, entries: Iterable[tuple[Any, Record, Any]],
                   fill: float = 0.9) -> None:
        """(Re)build all partitions from ``(index_key, entry,
        partition_key)`` triples, each ``entry`` an :func:`IndexEntry`
        for ``index_key``: routes them into sorted buckets for
        :meth:`load_entries`."""
        buckets: list[list[Record]] = [
            [] for __ in range(self.num_partitions)]
        replicated = self.scope == "replicated"
        copies = len(buckets) if replicated else 1
        total = 0
        for __, entry, partition_key in entries:
            if replicated:
                for bucket in buckets:
                    bucket.append(entry)
            else:
                buckets[self.partition_of_key(partition_key)].append(entry)
            total += (entry.size_bytes + _ENTRY_OVERHEAD) * copies
        for bucket in buckets:
            bucket.sort(key=entry_key)
        self.load_entries([(list(map(entry_key, bucket)), bucket)
                           for bucket in buckets], total, fill)

    def load_entries(self, buckets: Sequence[KeyedBucket],
                     total_bytes: int, fill: float = 0.9) -> None:
        """(Re)build every partition from its bucket of entries sorted by
        index key, given with those keys; ``total_bytes`` is what they
        count towards :attr:`total_bytes` (see :func:`index_buckets`)."""
        for pid, (keys, bucket) in enumerate(buckets):
            self.trees[pid] = BPlusTree.bulk_load(
                zip(keys, bucket), order=self.order, fill=fill)
        self._total_bytes = total_bytes

    def set_replica_nodes(self, nodes: Sequence[int]) -> list[int]:
        """Re-home a replicated index to one full copy per listed node.

        Nodes already hosting a replica keep their tree; new nodes get a
        bulk-loaded copy of an existing replica.  Returns the node ids
        that received brand-new copies (the rebalancer charges the copy
        IO *before* calling this — storage stays time-free).
        """
        if self.scope != "replicated":
            raise StorageError(
                "set_replica_nodes applies to replicated indexes only")
        nodes = list(nodes)
        if not nodes:
            raise PartitionError("a replicated index needs >= 1 replica")
        if len(set(nodes)) != len(nodes):
            raise PartitionError("duplicate replica nodes")
        per_replica = self._total_bytes // len(self.trees)
        existing = {node: self.trees[pid]
                    for pid, node in enumerate(self._placement)}
        source = self.trees[0]
        added = []
        trees = []
        for node in nodes:
            tree = existing.get(node)
            if tree is None:
                tree = BPlusTree.bulk_load(list(source.items()),
                                           order=self.order)
                added.append(node)
            trees.append(tree)
        self.trees = trees
        self.partitioner = HashPartitioner(len(nodes))
        self._placement = nodes
        self._total_bytes = per_replica * len(nodes)
        return added

    # -- reads -----------------------------------------------------------

    def lookup(self, pointer: Pointer) -> list[Record]:
        """Equality probe by a pointer whose key is the index key."""
        if pointer.is_broadcast:
            raise StorageError(
                "broadcast pointers are materialized by the engine before "
                "reaching storage")
        pid = self.partition_of_key(pointer.partition_key)
        return self.lookup_in_partition(pid, pointer)

    def lookup_in_partition(self, partition_id: int,
                            pointer: Pointer) -> list[Record]:
        tree = self.trees[self.partitioner.validate(partition_id)]
        return tree.search(pointer.key)

    def range_lookup(self, pointer_range: PointerRange,
                     partition_id: int) -> list[Record]:
        """Range probe of one partition ("a set of *Records* with a range of
        given *Pointers*")."""
        return _tree_records(
            self.trees[self.partitioner.validate(partition_id)],
            pointer_range)

    def probe_io_count(self, num_results: int) -> int:
        """Random reads charged for one probe returning ``num_results``.

        This is the *uncached* cost model: inner nodes are assumed resident
        (they are tiny and hot), so the probe pays one read for the first
        leaf plus one per additional leaf the result set spans.  When the
        owning node has a buffer pool, the engine charges real page
        traversal via :meth:`probe_page_ids` instead.
        """
        leaf_capacity = max(1, self.order - 1)
        return 1 + max(0, math.ceil(num_results / leaf_capacity) - 1)

    def probe_page_ids(self, partition_id: int,
                       target: "Pointer | PointerRange") -> list[PageId]:
        """The exact B-tree pages one probe of ``partition_id`` touches:
        the interior root-to-leaf path, then every leaf the result set
        spans (no "interiors are free" assumption — a cold cache pays for
        the path, a warm one hits it)."""
        pid = self.partitioner.validate(partition_id)
        interior, leaves = _tree_walk(self.trees[pid], target)
        name = self.name
        return ([_new_page_id(PageId, (name, pid, "interior", page))
                 for page in interior]
                + [_new_page_id(PageId, (name, pid, "leaf", page))
                   for page in leaves])

    def probe_batch(self, partition_id: int,
                    targets: Sequence["Pointer | PointerRange"],
                    page_size: Optional[int] = None
                    ) -> tuple[list[list[Record]], Optional[list[PageId]]]:
        """Answer a probe list (equality pointers and ranges) against one
        partition in one call.

        Returns one fresh entry list per target, in order (what
        :meth:`lookup_in_partition` or :meth:`range_lookup` returns for
        it) and, when ``page_size`` is given, the unique pages the
        probes' walks touch in first-touch order — each probe's walk as
        :meth:`probe_page_ids` takes it, interior path first, in probe
        order, so pages are numbered in the same order.  Page numbers are
        unique within a tree, so they deduplicate as ints; each becomes a
        :class:`PageId` once.  ``page_size`` only switches the walk on:
        B-tree pages are numbered by traversal, not sized.
        """
        pid = self.partitioner.validate(partition_id)
        tree = self.trees[pid]
        fetched: list[list[Record]] = []
        seen: dict[int, str] = {}
        for target in targets:
            fetched.append(_tree_records(tree, target))
            if page_size is not None:
                interior, leaves = _tree_walk(tree, target)
                for page in interior:
                    seen.setdefault(page, "interior")
                for page in leaves:
                    seen.setdefault(page, "leaf")
        if page_size is None:
            return fetched, None
        name = self.name
        return fetched, [_new_page_id(PageId, (name, pid, kind, page))
                         for page, kind in seen.items()]

    def partition_page_ids(self, partition_id: int) -> list[PageId]:
        """Every B-tree page of one partition — the scrub sampling universe.

        B-tree pages are identified by traversal-order node numbers, not
        byte offsets, so no page size enters.
        """
        pid = self.partitioner.validate(partition_id)
        interior, leaves = self.trees[pid].all_pages()
        return ([PageId(self.name, pid, "interior", page)
                 for page in interior]
                + [PageId(self.name, pid, "leaf", page) for page in leaves])

    def __len__(self) -> int:
        return sum(len(tree) for tree in self.trees)

    @property
    def total_bytes(self) -> int:
        """Approximate size: every entry record plus per-entry key
        overhead, maintained as a running counter on the write paths so
        sizing a cluster around an index stays O(1)."""
        return self._total_bytes


def _tree_records(tree: BPlusTree, target: "Pointer | PointerRange"
                  ) -> list[Record]:
    """A fresh list of the entries one probe of ``tree`` returns."""
    if isinstance(target, PointerRange):
        return [entry for __, entry in tree.range(
            target.low, target.high, inclusive_low=target.inclusive_low,
            inclusive_high=target.inclusive_high)]
    return tree.search(target.key)


def _tree_walk(tree: BPlusTree, target: "Pointer | PointerRange"
               ) -> tuple[list[int], list[int]]:
    """``(interior, leaf)`` page numbers one probe of ``tree`` touches:
    the B-tree's one page rule, shared by the per-probe and the batch
    page walks."""
    if isinstance(target, PointerRange):
        return tree.range_traversal_pages(
            target.low, target.high, inclusive_low=target.inclusive_low,
            inclusive_high=target.inclusive_high)
    return tree.point_traversal_pages(target.key)
