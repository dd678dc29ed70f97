"""Page walks against the walk they replaced.

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
"""

import pytest

from repro.core import Record
from repro.core.pointers import Pointer, PointerKind, PointerRange
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

    assert check_base_files(catalog) == 0
    check_indexes(catalog)

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

    # a second orders run, folded into one by minor compaction
    coordinator.flush(coordinator.stage(MicroBatch(
        "orders", upserts=[Record({**r.data, "o_comment": "again"})
                           for r in order_rows[1::5]], event_time=3.0)))
    compactor.compact("orders", "minor")
    assert catalog.delta_depth("orders") == 1
    check_base_files(catalog)
    check_indexes(catalog)

    # major compaction rewrites the heaps and aliases the delta tags
    compactor.compact("orders", "major")
    compactor.compact("lineitem", "major")
    assert catalog.delta_depth("orders") == catalog.delta_depth(
        "lineitem") == 0
    assert check_base_files(catalog) > 0
    check_indexes(catalog)
