"""Unit tests for heap files, partitioned files, B-tree files, DFS, and the
block store."""

import pytest

from repro.core.pointers import Pointer, PointerKind, PointerRange
from repro.core.records import Record
from repro.errors import (
    PartitionError,
    RecordNotFound,
    StorageError,
    UnknownStructure,
)
from repro.storage import (
    BlockStore,
    BtreeFile,
    DistributedFileSystem,
    HashPartitioner,
    HeapFile,
    IndexEntry,
    PartitionedFile,
    round_robin_placement,
)


def rec(**fields):
    return Record(fields)


def build_index(dfs, name, base, scope, key_fn, **shape):
    """One index over ``base``, built as the catalog builds: shaped by
    ``new_index``, filled from one heap pass by ``build_indexes``."""
    index = dfs.new_index(name, base, scope, **shape)
    return dfs.build_indexes(
        base, [(index, lambda records: list(map(key_fn, records)))])[0]


class TestHeapFile:
    def test_append_get_roundtrip(self):
        heap = HeapFile("h")
        slot = heap.append(rec(a=1))
        assert heap.get(slot) == rec(a=1)
        assert len(heap) == 1

    def test_key_lookup_with_duplicates(self):
        heap = HeapFile("h")
        heap.append(rec(a=1), key="k")
        heap.append(rec(a=2), key="k")
        assert heap.lookup("k") == [rec(a=1), rec(a=2)]
        assert heap.lookup("missing") == []

    def test_bad_slot_raises(self):
        heap = HeapFile("h")
        with pytest.raises(RecordNotFound):
            heap.get(0)

    def test_scan_order_and_bytes(self):
        heap = HeapFile("h")
        records = [rec(i=i) for i in range(5)]
        for r in records:
            heap.append(r)
        assert list(heap.scan()) == records
        assert heap.total_bytes == sum(r.size_bytes for r in records)


class TestPartitionedFile:
    @pytest.fixture
    def file(self):
        return PartitionedFile("part", HashPartitioner(4), num_nodes=2)

    def test_insert_returns_resolvable_pointer(self, file):
        pointer = file.insert(rec(pk=7, v="x"), partition_key=7)
        assert pointer.file == "part"
        assert pointer.key == 7
        assert file.lookup(pointer) == [rec(pk=7, v="x")]

    def test_explicit_in_partition_key(self, file):
        pointer = file.insert(rec(pk=7), partition_key=7, key="custom")
        assert pointer.key == "custom"
        assert file.lookup(pointer) == [rec(pk=7)]

    def test_physical_pointer_lookup(self, file):
        file.insert(rec(pk=3), partition_key=3)
        pid = file.partition_of_key(3)
        physical = Pointer("part", 3, 0, PointerKind.PHYSICAL)
        assert file.lookup(physical) == [rec(pk=3)]
        assert file.lookup_in_partition(pid, physical) == [rec(pk=3)]

    def test_lookup_wrong_file_raises(self, file):
        with pytest.raises(StorageError):
            file.lookup(Pointer("other", 1, 1))

    def test_broadcast_pointer_rejected_at_storage(self, file):
        with pytest.raises(StorageError):
            file.lookup(Pointer("part", None, 1))

    def test_scan_covers_all_partitions(self, file):
        for i in range(20):
            file.insert(rec(pk=i), partition_key=i)
        assert sorted(r["pk"] for r in file.scan()) == list(range(20))
        assert len(file) == 20

    def test_placement_round_robin(self):
        placement = round_robin_placement(4, 2)
        assert placement == [0, 1, 0, 1]
        file = PartitionedFile("p", HashPartitioner(4), placement=placement)
        assert file.node_of(2) == 0
        assert file.node_of(3) == 1
        assert file.partitions_on_node(0) == [0, 2]

    def test_placement_length_mismatch(self):
        with pytest.raises(PartitionError):
            PartitionedFile("p", HashPartitioner(4), placement=[0, 1])

    def test_needs_placement_or_nodes(self):
        with pytest.raises(PartitionError):
            PartitionedFile("p", HashPartitioner(4))

    def test_avg_record_bytes(self, file):
        assert file.avg_record_bytes == 0.0
        file.insert(rec(pk=1, text="abcd"), partition_key=1)
        assert file.avg_record_bytes > 0


class TestBtreeFile:
    def test_global_index_partition_by_index_key(self):
        index = BtreeFile("idx", HashPartitioner(4), num_nodes=2,
                          scope="global")
        entry = IndexEntry(10, target_partition_key=99, target_key=99)
        index.insert(10, entry)
        pointer = Pointer("idx", 10, 10)
        assert index.lookup(pointer) == [entry]
        assert len(index) == 1

    def test_local_index_requires_base_partition_key(self):
        index = BtreeFile("idx", HashPartitioner(4), num_nodes=2,
                          scope="local")
        with pytest.raises(StorageError):
            index.insert(10, IndexEntry(10, 1, 1))
        index.insert(10, IndexEntry(10, 1, 1), partition_key=1)

    def test_range_lookup_per_partition(self):
        index = BtreeFile("idx", HashPartitioner(2), num_nodes=1,
                          scope="local")
        for key in range(10):
            index.insert(key, IndexEntry(key, key, key), partition_key=key)
        prange = PointerRange("idx", 3, 6)
        found = []
        for pid in range(2):
            found.extend(index.range_lookup(prange, pid))
        assert sorted(e["key"] for e in found) == [3, 4, 5, 6]

    def test_probe_io_count(self):
        index = BtreeFile("idx", HashPartitioner(1), num_nodes=1, order=11)
        assert index.probe_io_count(0) == 1
        assert index.probe_io_count(10) == 1
        assert index.probe_io_count(11) == 2
        assert index.probe_io_count(25) == 3

    def test_invalid_scope(self):
        with pytest.raises(StorageError):
            BtreeFile("idx", HashPartitioner(1), num_nodes=1, scope="both")

    def test_broadcast_lookup_rejected(self):
        index = BtreeFile("idx", HashPartitioner(1), num_nodes=1)
        with pytest.raises(StorageError):
            index.lookup(Pointer("idx", None, 1))


class TestDistributedFileSystem:
    @pytest.fixture
    def dfs(self):
        dfs = DistributedFileSystem(num_nodes=4)
        records = [rec(pk=i, fk=i % 5, date=2000 + i % 10, v=f"r{i}")
                   for i in range(100)]
        dfs.load("base", records, partition_key_fn=lambda r: r["pk"])
        return dfs

    def test_load_and_lookup(self, dfs):
        base = dfs.get_base("base")
        assert len(base) == 100
        pointer = Pointer("base", 17, 17)
        assert base.lookup(pointer)[0]["v"] == "r17"

    def test_duplicate_name_rejected(self, dfs):
        with pytest.raises(StorageError):
            dfs.create_file("base")

    def test_unknown_structure(self, dfs):
        with pytest.raises(UnknownStructure):
            dfs.get("missing")

    def test_get_base_type_check(self, dfs):
        build_index(dfs, "idx_fk", "base", "global", lambda r: r["fk"])
        with pytest.raises(StorageError):
            dfs.get_base("idx_fk")
        with pytest.raises(StorageError):
            dfs.get_index("base")

    def test_global_index_probe_single_partition(self, dfs):
        index = build_index(dfs, "idx_fk", "base", "global",
                            lambda r: r["fk"])
        assert index.scope == "global"
        # All fk=3 entries hash to one partition; probe finds all 20.
        pid = index.partition_of_key(3)
        entries = index.lookup_in_partition(pid, Pointer("idx_fk", 3, 3))
        assert len(entries) == 20
        # Entries route by the base partition key and address physically.
        assert all(e["target_partition_key"] % 5 == 3 for e in entries)
        assert all(e["target_kind"] == "physical" for e in entries)

    def test_local_index_colocated_with_base(self, dfs):
        base = dfs.get_base("base")
        index = build_index(dfs, "idx_date", "base", "local",
                            lambda r: r["date"])
        assert index.scope == "local"
        assert index.num_partitions == base.num_partitions
        for pid in range(index.num_partitions):
            assert index.node_of(pid) == base.node_of(pid)
        # Entries for a key are spread over (potentially) all partitions.
        total = sum(
            len(index.lookup_in_partition(pid, Pointer("idx_date", 0, 2005)))
            for pid in range(index.num_partitions))
        assert total == 10

    def test_local_index_range_union_matches_scan(self, dfs):
        index = build_index(dfs, "idx_date", "base", "local",
                            lambda r: r["date"])
        prange = PointerRange("idx_date", 2003, 2005)
        found = []
        for pid in range(index.num_partitions):
            found.extend(index.range_lookup(prange, pid))
        expected = [r for r in dfs.get_base("base").scan()
                    if 2003 <= r["date"] <= 2005]
        assert len(found) == len(expected)

    def test_index_skips_records_missing_key(self):
        dfs = DistributedFileSystem(num_nodes=2)
        records = [rec(pk=1, fk=5), rec(pk=2)]  # second lacks fk
        dfs.load("t", records, partition_key_fn=lambda r: r["pk"])
        index = build_index(dfs, "idx", "t", "global", lambda r: r.get("fk"))
        assert len(index) == 1

    def test_loader_info_required_for_index(self):
        dfs = DistributedFileSystem(num_nodes=2)
        dfs.create_file("empty")
        with pytest.raises(StorageError):
            build_index(dfs, "idx", "empty", "global", lambda r: r["x"])

    def test_drop(self, dfs):
        dfs.drop("base")
        assert "base" not in dfs
        with pytest.raises(UnknownStructure):
            dfs.drop("base")


class TestBlockStore:
    def test_load_packs_blocks_by_bytes(self):
        store = BlockStore(num_nodes=3, block_size=100)
        records = [Record({"v": "x" * 40}) for __ in range(10)]
        blocks = store.load("f", records)
        assert sum(len(b) for b in blocks) == 10
        assert all(b.nbytes >= 100 for b in blocks[:-1])

    def test_round_robin_placement(self):
        store = BlockStore(num_nodes=2, block_size=10)
        store.load("f", [Record({"v": "x" * 20}) for __ in range(4)])
        nodes = [b.node_id for b in store.blocks("f")]
        assert nodes == [0, 1, 0, 1]
        assert len(store.blocks_on_node("f", 0)) == 2

    def test_scan_yields_all_records(self):
        store = BlockStore(num_nodes=2, block_size=50)
        records = [rec(i=i) for i in range(25)]
        store.load("f", records)
        assert list(store.scan("f")) == records
        assert store.num_records("f") == 25

    def test_duplicate_and_unknown_names(self):
        store = BlockStore(num_nodes=1)
        store.load("f", [])
        with pytest.raises(StorageError):
            store.load("f", [])
        with pytest.raises(UnknownStructure):
            store.blocks("g")

    def test_invalid_params(self):
        with pytest.raises(StorageError):
            BlockStore(num_nodes=0)
        with pytest.raises(StorageError):
            BlockStore(num_nodes=1, block_size=0)


class TestHeapFilePages:
    def test_page_of_slot_follows_byte_layout(self):
        heap = HeapFile("h")
        records = [rec(i=i, pad="x" * 100) for i in range(20)]
        for r in records:
            heap.append(r, key=r["i"])
        page_size = 4 * records[0].size_bytes
        assert heap.page_of_slot(0, page_size) == 0
        assert heap.page_of_slot(4, page_size) == 1
        assert heap.num_pages(page_size) == 5
        # slots of one key resolve to the page their bytes live on
        assert heap.page_of_slot(heap.slots_for_key(7)[0], page_size) == 1

    def test_empty_heap_still_has_one_page(self):
        heap = HeapFile("h")
        assert heap.num_pages(8192) == 1

    def test_page_of_bad_slot_raises(self):
        heap = HeapFile("h")
        with pytest.raises(RecordNotFound):
            heap.page_of_slot(0, 8192)


class TestProbePageIds:
    PAGE_SIZE = 8192

    @pytest.fixture
    def file(self):
        file = PartitionedFile("part", HashPartitioner(2), num_nodes=1)
        for i in range(50):
            file.insert(rec(pk=i, pad="y" * 400), partition_key=i)
        return file

    def test_logical_pointer_pages(self, file):
        pid = file.partition_of_key(3)
        pages = file.probe_page_ids(pid, Pointer("part", 3, 3),
                                    self.PAGE_SIZE)
        assert len(pages) == 1
        page = pages[0]
        assert (page.file, page.partition, page.page_kind) == ("part", pid,
                                                               "heap")
        heap = file.partitions[pid]
        assert page.page_no == heap.page_of_slot(
            heap.slots_for_key(3)[0], self.PAGE_SIZE)

    def test_physical_pointer_pages(self, file):
        physical = Pointer("part", 3, 0, PointerKind.PHYSICAL)
        pid = file.partition_of_key(3)
        pages = file.probe_page_ids(pid, physical, self.PAGE_SIZE)
        assert [p.page_no for p in pages] == [0]

    def test_miss_reads_a_deterministic_page(self, file):
        pid = 0
        missing = Pointer("part", None, "no-such-key")
        first = file.probe_page_ids(pid, missing, self.PAGE_SIZE)
        second = file.probe_page_ids(pid, missing, self.PAGE_SIZE)
        assert first == second and len(first) == 1
        other = file.probe_page_ids(pid, Pointer("part", None, "also-gone"),
                                    self.PAGE_SIZE)
        # two absent keys need not share a page (no aliasing onto page 0)
        assert first[0].page_no < file.partitions[pid].num_pages(
            self.PAGE_SIZE)
        assert other == file.probe_page_ids(
            pid, Pointer("part", None, "also-gone"), self.PAGE_SIZE)

    def _index(self, n=300, order=8):
        index = BtreeFile("idx", HashPartitioner(1), num_nodes=1,
                          order=order)
        index.load_entries([(list(range(n)),
                             [IndexEntry(k, k, k) for k in range(n)])], 0)
        return index

    def test_btree_point_probe_pages(self):
        index = self._index()
        pages = index.probe_page_ids(0, Pointer("idx", 42, 42))
        kinds = [p.page_kind for p in pages]
        assert kinds.count("leaf") == 1
        assert kinds.count("interior") == index.trees[0].height - 1
        assert pages == index.probe_page_ids(0, Pointer("idx", 42, 42))

    def test_btree_range_probe_spans_more_leaves(self):
        index = self._index()
        narrow = index.probe_page_ids(0, PointerRange("idx", 10, 12))
        wide = index.probe_page_ids(0, PointerRange("idx", 10, 200))
        leaves = lambda pages: [p for p in pages if p.page_kind == "leaf"]
        assert len(leaves(wide)) > len(leaves(narrow)) >= 1
        # every leaf the range spans is enumerated: ~n/(order-1) of them
        assert len(leaves(wide)) >= (200 - 10) // 8

    def test_btree_pages_stable_across_probes(self):
        index = self._index()
        first = index.probe_page_ids(0, PointerRange("idx", 0, 299))
        again = index.probe_page_ids(0, PointerRange("idx", 0, 299))
        assert first == again
        point = index.probe_page_ids(0, Pointer("idx", 0, 0))
        # the point probe's leaf is one of the range probe's leaves
        assert point[-1] in first


class TestBtreeTotalBytes:
    @staticmethod
    def _dfs(n, num_nodes=1):
        dfs = DistributedFileSystem(num_nodes=num_nodes)
        dfs.load("t", [rec(k=k) for k in range(n)],
                 partition_key_fn=lambda r: r["k"])
        return dfs

    def test_counter_matches_between_write_paths(self):
        dfs = self._dfs(200)
        built = build_index(dfs, "a", "t", "global", lambda r: r["k"],
                            num_partitions=3)
        inserted = BtreeFile("b", HashPartitioner(3), num_nodes=1)
        for heap in dfs.get_base("t").partitions:
            for slot, record in enumerate(heap.scan()):
                inserted.insert(record["k"], IndexEntry(
                    record["k"], record["k"], slot, PointerKind.PHYSICAL),
                    record["k"])
        assert built.total_bytes == inserted.total_bytes > 0
        assert ([list(tree.items()) for tree in built.trees]
                == [list(tree.items()) for tree in inserted.trees])

    def test_replicated_counts_every_copy(self):
        dfs = self._dfs(50, num_nodes=4)
        single = dfs.new_index("s", "t", "global", num_partitions=1)
        replicated = dfs.new_index("r", "t", "replicated")
        key = lambda records: [r["k"] for r in records]
        dfs.build_indexes("t", [(single, key), (replicated, key)])
        assert replicated.total_bytes == 4 * single.total_bytes
        assert replicated.insert(999, IndexEntry(999, 999, 999)) == 4
        assert replicated.total_bytes > 4 * single.total_bytes

    def test_rebuild_resets_the_counter(self):
        dfs = self._dfs(100)
        index = build_index(dfs, "a", "t", "global", lambda r: r["k"],
                            num_partitions=2)
        first = index.total_bytes
        dfs.load_indexes("t", [(index, lambda records: [r["k"]
                                                        for r in records])])
        assert index.total_bytes == first
