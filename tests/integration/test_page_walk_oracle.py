"""Page walks against the walk they replaced, and batch probes against
the per-probe calls they stand for.

``PartitionedFile.probe_page_ids`` reads a key's pages straight off the
heap's key map, and both files' page walks build ``PageId`` s without the
namedtuple constructor.  The oracle below keeps the earlier walk —
``slots_for_key`` → ``page_of_slot`` per slot → sorted set, and
``PageId(...)`` per page — and every probe must return the same list of
the same type: every key of every partition of every base file of an
SF 0.002 TPC-H lake, fresh, after ingest flushes, after minor compaction
and after major compaction (which aliases delta tags onto heap slots);
physical pointers in and out of range; absent keys; B-tree point and
range probes.

A batch probe (``Dereferencer.fetch_batch`` → ``probe_batch``) answers a
probe list against one partition in one call.  For probe lists drawn
from the same lake states — duplicate keys, absent keys, physical
pointers, B-tree point and range probes — its records must equal the
per-probe ``fetch`` es and its pages ``dict.fromkeys`` over the chained
per-probe oracle walks, in order and of type ``PageId``.
"""

import copy
import random
from itertools import chain

import pytest

from repro.core import Record
from repro.core.functions import (FileLookupDereferencer,
                                  IndexRangeDereferencer)
from repro.core.pointers import Pointer, PointerKind, PointerRange
from repro.errors import RecordNotFound
from repro.ingest import Compactor, IngestCoordinator, MicroBatch
from repro.ingest.delta import delta_tag, is_delta_tag
from repro.queries import TpchWorkload
from repro.storage import BtreeFile, PartitionedFile
from repro.storage.cache import PageId
from repro.storage.partitioner import stable_hash

#: one default-sized page, and one small enough that a key's records
#: (lineitem rows share ``l_orderkey``) spread over several pages
PAGE_SIZES = (8192, 256)
ABSENT_KEYS = ("no-such-key", 10**9, -1, delta_tag(10**6, 0))


def oracle_heap_pages(file, pid, pointer, page_size):
    heap = file.partitions[pid]
    if pointer.kind is PointerKind.PHYSICAL:
        slots = [pointer.key] if 0 <= pointer.key < len(heap) else []
    else:
        slots = heap.slots_for_key(pointer.key)
    if slots:
        pages = sorted({heap.page_of_slot(slot, page_size)
                        for slot in slots})
    else:
        pages = [stable_hash(pointer.key) % heap.num_pages(page_size)]
    return [PageId(file.name, pid, "heap", page) for page in pages]


def oracle_btree_pages(index, pid, target):
    tree = index.trees[pid]
    if isinstance(target, PointerRange):
        interior, leaves = tree.range_traversal_pages(
            target.low, target.high, inclusive_low=target.inclusive_low,
            inclusive_high=target.inclusive_high)
    else:
        interior, leaves = tree.point_traversal_pages(target.key)
    return ([PageId(index.name, pid, "interior", page) for page in interior]
            + [PageId(index.name, pid, "leaf", page) for page in leaves])


def same_pages(got, expected):
    assert got == expected
    assert all(type(page) is PageId for page in got)


def check_base_files(catalog):
    """Every key (aliases included) and every slot of every partition of
    every base file; returns the delta tags seen aliased."""
    tags = 0
    bases = [f for f in map(catalog.dfs.get, catalog.dfs.names())
             if isinstance(f, PartitionedFile)]
    assert bases
    for file in bases:
        for pid, heap in enumerate(file.partitions):
            keys = list(heap._key_map)
            tags += sum(1 for key in keys if is_delta_tag(key))
            for page_size in PAGE_SIZES:
                for key in keys + list(ABSENT_KEYS):
                    pointer = Pointer(file.name, None, key)
                    same_pages(file.probe_page_ids(pid, pointer, page_size),
                               oracle_heap_pages(file, pid, pointer,
                                                 page_size))
                for slot in [-1, *range(len(heap)), len(heap),
                             len(heap) + 7]:
                    pointer = Pointer(file.name, None, slot,
                                      PointerKind.PHYSICAL)
                    same_pages(file.probe_page_ids(pid, pointer, page_size),
                               oracle_heap_pages(file, pid, pointer,
                                                 page_size))
    return tags


def check_indexes(catalog):
    indexes = [f for f in map(catalog.dfs.get, catalog.dfs.names())
               if isinstance(f, BtreeFile)]
    assert indexes
    for index in indexes:
        for pid, tree in enumerate(index.trees):
            keys = sorted({key for key, __ in tree.items()})
            for key in keys[::7] + keys[-1:]:
                pointer = Pointer(index.name, key, key)
                same_pages(index.probe_page_ids(pid, pointer),
                           oracle_btree_pages(index, pid, pointer))
            bounds = [None] + keys[::max(1, len(keys) // 6)] + [None]
            for low, high in zip(bounds, bounds[2:]):
                for inclusive in (True, False):
                    rng = PointerRange(index.name, low, high,
                                       inclusive_low=inclusive,
                                       inclusive_high=not inclusive)
                    same_pages(index.probe_page_ids(pid, rng),
                               oracle_btree_pages(index, pid, rng))


#: probes per batch: the engines' ``batch_size=64`` dispatch
BATCH = 64


def batches(probes, seed):
    """``probes`` shuffled (so batches mix kinds and repeat keys) and cut
    into engine-sized batches."""
    probes = list(probes)
    random.Random(seed).shuffle(probes)
    return [probes[i:i + BATCH] for i in range(0, len(probes), BATCH)]


def same_batch(dereferencer, file, pid, batch, page_size, oracle_walk):
    """One batch probe against the per-probe fetches and oracle walks."""
    expected = [dereferencer.fetch(file, target, pid) for target in batch]
    records, pages = dereferencer.fetch_batch(file, batch, pid, page_size)
    assert records == expected
    same_pages(pages, list(dict.fromkeys(chain.from_iterable(
        oracle_walk(target) for target in batch))))
    assert dereferencer.fetch_batch(file, batch, pid) == (expected, None)


def check_base_batches(catalog, seed=0):
    """Per partition of every base file: every key twice, the absent
    keys and every in-range slot, in shuffled batches; then a batch with
    one out-of-range slot must raise like ``fetch``."""
    bases = [f for f in map(catalog.dfs.get, catalog.dfs.names())
             if isinstance(f, PartitionedFile)]
    for file in bases:
        dereferencer = FileLookupDereferencer(file.name)
        for pid, heap in enumerate(file.partitions):
            keys = list(heap._key_map) * 2 + list(ABSENT_KEYS)
            probes = [Pointer(file.name, None, key) for key in keys] + [
                Pointer(file.name, None, slot, PointerKind.PHYSICAL)
                for slot in range(len(heap))]
            for page_size in PAGE_SIZES:
                for batch in batches(probes, seed + pid):
                    same_batch(dereferencer, file, pid, batch, page_size,
                               lambda target: oracle_heap_pages(
                                   file, pid, target, page_size))
            for slot in (-1, len(heap)):
                bad = Pointer(file.name, None, slot, PointerKind.PHYSICAL)
                with pytest.raises(RecordNotFound):
                    dereferencer.fetch(file, bad, pid)
                with pytest.raises(RecordNotFound):
                    dereferencer.fetch_batch(file, probes[:3] + [bad], pid,
                                             PAGE_SIZES[0])


def index_probes(index, tree):
    """Point probes (present, absent, repeated) and ranges (open, closed,
    half-open) over one partition's keys."""
    keys = sorted({key for key, __ in tree.items()})
    if not keys:
        return []
    probes = [Pointer(index.name, key, key)
              for key in keys[::5] + keys[::11]]
    if isinstance(keys[0], (int, float)):
        probes.append(Pointer(index.name, None, keys[-1] + 1))
    bounds = [None] + keys[::max(1, len(keys) // 6)] + [None]
    for low, high in zip(bounds, bounds[2:]):
        for inclusive in (True, False):
            probes.append(PointerRange(index.name, low, high,
                                       inclusive_low=inclusive,
                                       inclusive_high=not inclusive))
    return probes


def check_index_batches(catalog, seed=0):
    indexes = [f for f in map(catalog.dfs.get, catalog.dfs.names())
               if isinstance(f, BtreeFile)]
    for index in indexes:
        dereferencer = IndexRangeDereferencer(index.name)
        for pid, tree in enumerate(index.trees):
            for batch in batches(index_probes(index, tree), seed + pid):
                same_batch(dereferencer, index, pid, batch, PAGE_SIZES[0],
                           lambda target: oracle_btree_pages(
                               index, pid, target))


def check_fresh_numbering(catalog, seed=0):
    """B-tree pages are numbered on first traversal.  On trees no probe
    has walked yet, a batch numbers them exactly as its probes walked one
    by one do: the same ``PageId`` s, numbers included."""
    indexes = [f for f in map(catalog.dfs.get, catalog.dfs.names())
               if isinstance(f, BtreeFile)]
    for index in indexes:
        twin = copy.deepcopy(index)
        dereferencer = IndexRangeDereferencer(index.name)
        for pid, tree in enumerate(index.trees):
            for batch in batches(index_probes(index, tree), seed + pid):
                walked = list(dict.fromkeys(chain.from_iterable(
                    index.probe_page_ids(pid, target) for target in batch)))
                __, pages = dereferencer.fetch_batch(twin, batch, pid,
                                                     PAGE_SIZES[0])
                assert pages == walked


@pytest.fixture(scope="module")
def lake():
    return TpchWorkload(scale_factor=0.002, seed=0, num_nodes=4,
                        block_size=64 * 1024)


def test_page_walks_match_the_oracle_through_every_lake_state(lake):
    catalog = lake.catalog
    coordinator = IngestCoordinator(catalog)
    compactor = Compactor(catalog)
    orders = catalog.dfs.get_base("orders")
    lineitem = catalog.dfs.get_base("lineitem")

    check_fresh_numbering(catalog)
    assert check_base_files(catalog) == 0
    check_indexes(catalog)
    check_base_batches(catalog)
    check_index_batches(catalog)

    # ingest flushes: upserted orders, appended lines (heaps untouched,
    # delta runs on top)
    order_rows = list(orders.scan())
    line_rows = list(lineitem.scan())[:40]
    coordinator.flush(coordinator.stage(MicroBatch(
        "orders", upserts=[Record({**r.data, "o_comment": "upserted"})
                           for r in order_rows[::5]], event_time=1.0)))
    coordinator.flush(coordinator.stage(MicroBatch(
        "lineitem", appends=[Record({**r.data, "l_linenumber": 100 + i})
                             for i, r in enumerate(line_rows)],
        event_time=2.0)))
    check_base_files(catalog)
    check_indexes(catalog)
    check_base_batches(catalog, seed=1)
    check_index_batches(catalog, seed=1)

    # a second orders run, folded into one by minor compaction
    coordinator.flush(coordinator.stage(MicroBatch(
        "orders", upserts=[Record({**r.data, "o_comment": "again"})
                           for r in order_rows[1::5]], event_time=3.0)))
    compactor.compact("orders", "minor")
    assert catalog.delta_depth("orders") == 1
    check_base_files(catalog)
    check_indexes(catalog)
    check_base_batches(catalog, seed=2)
    check_index_batches(catalog, seed=2)

    # major compaction rewrites the heaps and aliases the delta tags
    compactor.compact("orders", "major")
    compactor.compact("lineitem", "major")
    assert catalog.delta_depth("orders") == catalog.delta_depth(
        "lineitem") == 0
    assert check_base_files(catalog) > 0
    check_indexes(catalog)
    check_base_batches(catalog, seed=3)
    check_index_batches(catalog, seed=3)

