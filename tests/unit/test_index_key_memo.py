"""Index builds remember a key's size and route only where equal keys
share them.

``index_buckets`` sizes and routes each distinct index key once per
build, and sizes each distinct partition key once, when a heap's keys
are all of ``MEMO_SAFE_KEY_TYPES``; ``stable_hash`` memoizes the same
types.  ``1``, ``1.0`` and ``True`` are equal dict keys, but ``True`` is
one byte and hashes as a bool, while ``1`` and ``1.0`` (and ``0`` and
``-0.0``) size and hash alike.  An index over exactly such keys must
hold, per entry, what a one-off ``IndexEntry`` holds.
"""

from repro.core import PointerKind, Record
from repro.core.records import estimate_size
from repro.storage import DistributedFileSystem
from repro.storage.files import IndexEntry
from repro.storage.partitioner import MEMO_SAFE_KEY_TYPES, stable_hash

KEYS = [1, 1.0, True, -0.0, 0, False, 2, 2.5, 1, True, 0.0, False, 1.0]
PARTITION_KEYS = [True, 1, 1.0, 0, False, -0.0, 7]


def lake():
    dfs = DistributedFileSystem(num_nodes=3)
    rows = [Record({"pk": PARTITION_KEYS[i % len(PARTITION_KEYS)],
                    "k": KEYS[i % len(KEYS)]}) for i in range(60)]
    dfs.load("t", rows, lambda r: r["pk"])
    return dfs


def key_batch(records):
    return [record["k"] for record in records]


def expected_entries(dfs):
    """``(index key, one-off entry, base partition)`` per record, in base
    (partition, slot) order."""
    base = dfs.get_base("t")
    return [(record["k"],
             IndexEntry(record["k"], record["pk"], slot,
                        PointerKind.PHYSICAL),
             pid)
            for pid, heap in enumerate(base.partitions)
            for slot, record in enumerate(heap.scan())]


def typed(entry):
    return [(type(value), value) for value in dict(entry.data).values()]


def assert_index_holds(index, buckets):
    for pid, expected in enumerate(buckets):
        expected.sort(key=lambda pair: pair[0])
        actual = [entry for __, entry in index.trees[pid].items()]
        assert [typed(entry) for entry in actual] == \
            [typed(entry) for __, entry in expected]
        assert [entry.size_bytes for entry in actual] == \
            [entry.size_bytes for __, entry in expected]
        assert [entry.size_bytes for entry in actual] == \
            [estimate_size(dict(entry.data)) for entry in actual]
    assert index.total_bytes == sum(
        entry.size_bytes + 16 for bucket in buckets for __, entry in bucket)


def test_equal_keys_of_other_types_keep_their_own_sizes_and_routes():
    dfs = lake()
    entries = expected_entries(dfs)
    index = dfs.new_index("g", "t", "global", num_partitions=5)
    local = dfs.new_index("l", "t", "local")
    dfs.build_indexes("t", [(index, key_batch), (local, key_batch)])
    buckets = [[] for __ in range(index.num_partitions)]
    for key, entry, __ in entries:
        buckets[index.partitioner.partition(key)].append((key, entry))
    assert_index_holds(index, buckets)

    buckets = [[] for __ in range(local.num_partitions)]
    for key, entry, pid in entries:
        buckets[pid].append((key, entry))
    assert_index_holds(local, buckets)


def test_bools_stay_out_of_the_memos():
    assert bool not in MEMO_SAFE_KEY_TYPES
    assert stable_hash(1) == stable_hash(1.0)
    assert stable_hash(True) != stable_hash(1)
    assert stable_hash(0) == stable_hash(-0.0)
    assert stable_hash(False) != stable_hash(0)
