"""Edge-case coverage across small surfaces of several modules."""

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.cluster.simulation import Simulator
from repro.core import (
    FileLookupDereferencer,
    JobBuilder,
    MappingInterpreter,
    Pointer,
    Record,
    StructureCatalog,
)
from repro.engine import ReDeExecutor
from repro.errors import SimulationError, StorageError
from repro.storage import BPlusTree, DistributedFileSystem, HeapFile

INTERP = MappingInterpreter()


class TestSimulatorEdges:
    def test_run_with_no_events_returns_none(self):
        sim = Simulator()
        assert sim.run() is None
        assert sim.now == 0.0

    def test_run_until_already_triggered(self):
        sim = Simulator()
        done = sim.timeout(0.0, value="x")
        sim.run()
        assert sim.run(until=done) == "x"

    def test_zero_delay_timeout(self):
        sim = Simulator()
        order = []

        def worker():
            yield sim.timeout(0.0)
            order.append("a")
            yield sim.timeout(0.0)
            order.append("b")

        sim.run(until=sim.process(worker()))
        assert order == ["a", "b"]
        assert sim.now == 0.0

    def test_events_processed_counter(self):
        sim = Simulator()
        sim.timeout(1.0)
        sim.timeout(2.0)
        sim.run()
        assert sim.events_processed == 2

    def test_process_return_without_yield(self):
        sim = Simulator()

        def instant():
            return 5
            yield  # pragma: no cover

        assert sim.run(until=sim.process(instant())) == 5


class TestBtreeEdges:
    def test_height_grows_with_inserts(self):
        tree = BPlusTree(order=4)
        assert tree.height == 1
        for key in range(100):
            tree.insert(key, key)
        assert tree.height >= 3

    def test_contains_protocol(self):
        tree = BPlusTree(order=4)
        tree.insert("k", 1)
        assert "k" in tree
        assert "missing" not in tree

    def test_range_on_empty_tree(self):
        assert list(BPlusTree(order=4).range(0, 100)) == []


class TestHeapFileEdges:
    def test_negative_slot(self):
        heap = HeapFile("h")
        heap.append(Record({"a": 1}))
        from repro.errors import RecordNotFound

        with pytest.raises(RecordNotFound):
            heap.get(-1)

    def test_append_without_key_not_logically_addressable(self):
        heap = HeapFile("h")
        heap.append(Record({"a": 1}))
        assert heap.lookup(0) == []


class TestDfsEdges:
    def test_default_partitions_override(self):
        dfs = DistributedFileSystem(num_nodes=2, default_partitions=10)
        dfs.load("t", [Record({"pk": i}) for i in range(5)],
                 partition_key_fn=lambda r: r["pk"])
        assert dfs.get_base("t").num_partitions == 10

    def test_invalid_node_count(self):
        with pytest.raises(StorageError):
            DistributedFileSystem(num_nodes=0)


class TestExecutorEdges:
    def test_duplicate_pointer_inputs_yield_duplicate_rows(self):
        """Jobs are mechanical: the engine does not dedupe inputs."""
        dfs = DistributedFileSystem(num_nodes=2)
        catalog = StructureCatalog(dfs)
        catalog.register_file("t", [Record({"pk": 1})], lambda r: r["pk"])
        job = (JobBuilder("dup")
               .dereference(FileLookupDereferencer("t"))
               .input(Pointer("t", 1, 1))
               .input(Pointer("t", 1, 1))
               .build())
        for mode in ("reference", "smpe", "partitioned"):
            cluster = (Cluster(ClusterSpec(num_nodes=2))
                       if mode != "reference" else None)
            result = ReDeExecutor(cluster, catalog, mode=mode).execute(job)
            assert len(result.rows) == 2, mode

    def test_job_with_many_inputs(self):
        dfs = DistributedFileSystem(num_nodes=2)
        catalog = StructureCatalog(dfs)
        catalog.register_file("t", [Record({"pk": i}) for i in range(300)],
                              lambda r: r["pk"])
        builder = JobBuilder("many").dereference(
            FileLookupDereferencer("t"))
        for key in range(300):
            builder.input(Pointer("t", key, key))
        cluster = Cluster(ClusterSpec(num_nodes=2))
        result = ReDeExecutor(cluster, catalog, mode="smpe").execute(
            builder.build())
        assert len(result.rows) == 300

    def test_resource_capacity_validation_message(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="capacity"):
            sim.resource(-3)
