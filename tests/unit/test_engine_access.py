"""Unit tests for the shared access layer, metrics, and executor facade."""

import math

import pytest

from repro.cluster import Cluster, ClusterSpec, NodeSpec
from repro.cluster.disk import DiskSpec
from repro.config import EngineConfig
from repro.core import (
    FileLookupDereferencer,
    IndexRangeDereferencer,
    JobBuilder,
    MappingInterpreter,
    Pointer,
    PointerRange,
    Record,
    StructureCatalog,
)
from repro.core.job import OutputRow
from repro.engine.access import (
    count_only_dereference,
    initial_probe_pids,
    recovering_dereference,
    resolve_partitions,
    simulated_dereference,
)
from repro.engine.executor import ReDeExecutor
from repro.engine.metrics import ExecutionMetrics, JobResult
from repro.errors import ExecutionError
from repro.storage import (
    BtreeFile,
    DistributedFileSystem,
    HashPartitioner,
    IndexEntry,
    PartitionedFile,
    RangePartitioner,
)

INTERP = MappingInterpreter()


@pytest.fixture
def base_file():
    file = PartitionedFile("base", HashPartitioner(4), num_nodes=2)
    for i in range(20):
        file.insert(Record({"pk": i}), partition_key=i)
    return file


class TestResolvePartitions:
    def test_keyed_pointer_single_partition(self, base_file):
        pointer = Pointer("base", 7, 7)
        assert resolve_partitions(base_file, pointer) == [
            base_file.partition_of_key(7)]

    def test_broadcast_all_partitions(self, base_file):
        pointer = Pointer("base", None, 7)
        assert resolve_partitions(base_file, pointer) == [0, 1, 2, 3]

    def test_local_only(self, base_file):
        pointer = Pointer("base", None, 7)
        pids = resolve_partitions(base_file, pointer, executing_node=0,
                                  local_only=True)
        assert pids == base_file.partitions_on_node(0)

    def test_local_only_requires_node(self, base_file):
        with pytest.raises(ExecutionError):
            resolve_partitions(base_file, Pointer("base", None, 7),
                               local_only=True)

    def test_range_partitioner_prunes_ranges(self):
        index = BtreeFile("idx", RangePartitioner([100, 200, 300]),
                          num_nodes=2)
        prange = PointerRange("idx", 120, 180)
        assert resolve_partitions(index, prange) == [1]
        wide = PointerRange("idx", 50, 250)
        assert resolve_partitions(index, wide) == [0, 1, 2]

    def test_range_partitioner_prunes_local_too(self):
        index = BtreeFile("idx", RangePartitioner([100, 200, 300]),
                          num_nodes=2)
        prange = PointerRange("idx", 120, 180)
        # Partition 1 lives on node 1 (round robin): node 0 has nothing to do.
        assert resolve_partitions(index, prange, executing_node=0,
                                  local_only=True) == []
        assert resolve_partitions(index, prange, executing_node=1,
                                  local_only=True) == [1]


class TestCountOnlyDereference:
    def test_counts_and_filters(self, base_file):
        metrics = ExecutionMetrics()
        deref = FileLookupDereferencer("base")
        pointer = Pointer("base", 3, 3)
        records = count_only_dereference(
            metrics, 0, deref, base_file, pointer,
            base_file.partition_of_key(3), {})
        assert [r["pk"] for r in records] == [3]
        assert metrics.record_accesses == 1
        assert metrics.base_record_accesses == 1
        assert metrics.index_entry_accesses == 0
        assert metrics.random_reads == 1
        assert metrics.stage_invocations[0] == 1

    def test_miss_still_costs_a_read(self, base_file):
        metrics = ExecutionMetrics()
        deref = FileLookupDereferencer("base")
        pointer = Pointer("base", 999, 999)
        records = count_only_dereference(
            metrics, 0, deref, base_file, pointer,
            base_file.partition_of_key(999), {})
        assert records == []
        assert metrics.record_accesses == 0
        assert metrics.random_reads == 1

    def test_index_fetch_counts_entries(self):
        index = BtreeFile("idx", HashPartitioner(1), num_nodes=1, order=4)
        for i in range(30):
            index.insert(i, IndexEntry(i, i, i))
        metrics = ExecutionMetrics()
        deref = IndexRangeDereferencer("idx")
        records = count_only_dereference(
            metrics, 0, deref, index, PointerRange("idx", 0, 29), 0, {})
        assert len(records) == 30
        assert metrics.index_entry_accesses == 30
        assert metrics.random_reads == index.probe_io_count(30)
        assert metrics.random_reads > 1  # spans several leaves at order 4


class TestSimulatedDereference:
    def run(self, generator, cluster):
        holder = {}

        def proc():
            holder["records"] = yield from generator

        __, elapsed = cluster.run_job(proc())
        return holder["records"], elapsed

    def test_local_fetch_charges_disk_only(self, base_file):
        cluster = Cluster(ClusterSpec(num_nodes=2))
        metrics = ExecutionMetrics()
        deref = FileLookupDereferencer("base")
        pid = base_file.partition_of_key(3)
        node = base_file.node_of(pid)
        records, elapsed = self.run(
            simulated_dereference(cluster, _config(), metrics, 0, deref,
                                  base_file, Pointer("base", 3, 3), pid,
                                  node, {}),
            cluster)
        assert [r["pk"] for r in records] == [3]
        assert metrics.remote_fetches == 0
        service = cluster.spec.node.disk.random_service_time
        assert elapsed >= service

    def test_remote_fetch_adds_network(self, base_file):
        cluster = Cluster(ClusterSpec(num_nodes=2))
        metrics = ExecutionMetrics()
        deref = FileLookupDereferencer("base")
        pid = base_file.partition_of_key(3)
        owner = base_file.node_of(pid)
        other = 1 - owner
        records, elapsed = self.run(
            simulated_dereference(cluster, _config(), metrics, 0, deref,
                                  base_file, Pointer("base", 3, 3), pid,
                                  other, {}),
            cluster)
        assert metrics.remote_fetches == 1
        assert metrics.bytes_transferred > 0
        assert cluster.network.messages == 2  # request + response


def _config():
    from repro.config import DEFAULT_ENGINE_CONFIG

    return DEFAULT_ENGINE_CONFIG


class TestFunnelKernelChoice:
    """``batch_size`` picks the charging kernel, never the probe count.

    One uncached range probe over a 10-leaf B-tree run, on a 4-spindle
    disk: the per-record kernel serializes the probe's dependent page
    reads, while the batch kernel stripes a batch — even a batch of one —
    across the spindles."""

    SPINDLES = 4

    def probe(self, batch_size):
        index = BtreeFile("idx", HashPartitioner(1), num_nodes=1, order=4)
        for i in range(30):
            index.insert(i, IndexEntry(i, i, i))
        cluster = Cluster(ClusterSpec(num_nodes=1, node=NodeSpec(
            disk=DiskSpec(spindles=self.SPINDLES))))
        metrics = ExecutionMetrics()
        holder = {}

        def proc():
            holder["outputs"] = yield from recovering_dereference(
                cluster, EngineConfig(batch_size=batch_size), metrics, 0,
                IndexRangeDereferencer("idx"), index,
                [(PointerRange("idx", 0, 29), {})], 0, 0)

        __, elapsed = cluster.run_job(proc())
        assert [len(records) for records in holder["outputs"]] == [30]
        reads = index.probe_io_count(30)
        assert reads == 10 and metrics.random_reads == reads
        node = cluster.spec.node
        cpu = 30 * node.tuple_cpu_time
        return elapsed - cpu, reads, node.disk.random_service_time, metrics

    def test_one_probe_batch_stripes_its_reads(self):
        disk_time, reads, service, metrics = self.probe(batch_size=8)
        assert disk_time == pytest.approx(
            math.ceil(reads / self.SPINDLES) * service)
        assert metrics.batches == 1

    def test_per_record_serializes_the_same_reads(self):
        disk_time, reads, service, metrics = self.probe(batch_size=1)
        assert disk_time == pytest.approx(reads * service)
        assert metrics.batches == 0


class TestExecutorFacade:
    def make_catalog(self):
        dfs = DistributedFileSystem(num_nodes=2)
        catalog = StructureCatalog(dfs)
        catalog.register_file("t", [Record({"pk": i}) for i in range(5)],
                              lambda r: r["pk"])
        return catalog

    def test_unknown_mode_rejected(self):
        with pytest.raises(ExecutionError):
            ReDeExecutor(None, self.make_catalog(), mode="turbo")

    def test_cluster_required_for_simulated_modes(self):
        with pytest.raises(ExecutionError):
            ReDeExecutor(None, self.make_catalog(), mode="smpe")
        with pytest.raises(ExecutionError):
            ReDeExecutor(None, self.make_catalog(), mode="partitioned")

    def test_reference_mode_needs_no_cluster(self):
        catalog = self.make_catalog()
        executor = ReDeExecutor(None, catalog, mode="reference")
        job = (JobBuilder("j").dereference(FileLookupDereferencer("t"))
               .input(Pointer("t", 2, 2)).build())
        result = executor.execute(job)
        assert len(result.rows) == 1
        assert result.metrics.elapsed_seconds == 0.0


class TestMetricsAndJobResult:
    def test_summary_keys(self):
        metrics = ExecutionMetrics()
        metrics.count_fetch(0, 5, True, 2)
        summary = metrics.summary()
        assert summary["record_accesses"] == 5
        assert summary["index_entry_accesses"] == 5
        assert summary["random_reads"] == 2

    def test_row_set_is_order_insensitive(self):
        rows_a = [OutputRow(Record({"v": 1}), {}),
                  OutputRow(Record({"v": 2}), {})]
        rows_b = list(reversed(rows_a))
        a = JobResult(rows_a, ExecutionMetrics())
        b = JobResult(rows_b, ExecutionMetrics())
        assert a.row_set(INTERP, ["v"]) == b.row_set(INTERP, ["v"])
        assert len(a) == 2

    def test_sorted_rows_deterministic(self):
        rows = [OutputRow(Record({"v": 2}), {}),
                OutputRow(Record({"v": 1}), {})]
        result = JobResult(rows, ExecutionMetrics())
        assert result.sorted_rows(INTERP, ["v"]) == [{"v": 1}, {"v": 2}]


class TestOpenEndedRangePruning:
    """Open-ended PointerRange bounds still prune range partitions."""

    def make_index(self):
        # Boundaries [100, 200, 300] -> partitions (-inf,100], (100,200],
        # (200,300], (300,+inf); round-robin over 2 nodes.
        return BtreeFile("idx", RangePartitioner([100, 200, 300]),
                         num_nodes=2)

    def test_open_low_prunes_upper_partitions(self):
        index = self.make_index()
        prange = PointerRange("idx", None, 150)
        assert resolve_partitions(index, prange) == [0, 1]

    def test_open_high_prunes_lower_partitions(self):
        index = self.make_index()
        prange = PointerRange("idx", 250, None)
        assert resolve_partitions(index, prange) == [2, 3]

    def test_fully_open_range_is_a_broadcast(self):
        index = self.make_index()
        prange = PointerRange("idx", None, None)
        assert resolve_partitions(index, prange) == [0, 1, 2, 3]

    def test_open_bounds_respect_local_only(self):
        index = self.make_index()
        prange = PointerRange("idx", 250, None)
        # Round robin: node 0 holds partitions {0, 2}, node 1 holds {1, 3}.
        assert resolve_partitions(index, prange, executing_node=0,
                                  local_only=True) == [2]
        assert resolve_partitions(index, prange, executing_node=1,
                                  local_only=True) == [3]


class TestInitialProbeRouting:
    """Stage-0 routing across the three index scopes."""

    def test_replicated_keyed_probe_served_by_one_node(self):
        index = BtreeFile("rep", HashPartitioner(2), num_nodes=2,
                          scope="replicated")
        for key in range(10):
            pointer = Pointer("rep", key, key)
            serving = [node for node in (0, 1)
                       if initial_probe_pids(index, pointer, node)]
            assert len(serving) == 1, "exactly one replica serves a key"
            node = serving[0]
            # The serving replica is the node's own copy: no remote hop.
            assert initial_probe_pids(index, pointer, node) == [node]

    def test_replicated_keys_spread_across_replicas(self):
        index = BtreeFile("rep", HashPartitioner(2), num_nodes=2,
                          scope="replicated")
        served_by = {node: 0 for node in (0, 1)}
        for key in range(20):
            for node in (0, 1):
                served_by[node] += bool(
                    initial_probe_pids(index, Pointer("rep", key, key),
                                       node))
        assert all(count > 0 for count in served_by.values())

    def test_replicated_broadcast_goes_to_one_replica(self):
        index = BtreeFile("rep", HashPartitioner(2), num_nodes=2,
                          scope="replicated")
        prange = PointerRange("rep", 0, 100)
        pids = [initial_probe_pids(index, prange, node) for node in (0, 1)]
        assert sum(len(p) for p in pids) == 1

    def test_local_scope_broadcast_fans_out_disjointly(self):
        index = BtreeFile("loc", HashPartitioner(4), num_nodes=2,
                          scope="local")
        prange = PointerRange("loc", 0, 100)
        shares = [initial_probe_pids(index, prange, node)
                  for node in (0, 1)]
        covered = [pid for share in shares for pid in share]
        assert sorted(covered) == [0, 1, 2, 3]
        assert len(set(covered)) == len(covered), "no partition probed twice"
        for node, share in enumerate(shares):
            assert share == index.partitions_on_node(node)

    def test_local_scope_keyed_probe_still_fans_out(self):
        # A local index partitions by the *base* key, so an index-keyed
        # probe is unroutable: every node serves its share.
        index = BtreeFile("loc", HashPartitioner(4), num_nodes=2,
                          scope="local")
        pointer = Pointer("loc", 7, 7)
        covered = sorted(pid for node in (0, 1)
                         for pid in initial_probe_pids(index, pointer, node))
        assert covered == [0, 1, 2, 3]

    def test_global_keyed_probe_lands_on_owner_only(self, base_file):
        pointer = Pointer("base", 7, 7)
        pid = base_file.partition_of_key(7)
        owner = base_file.node_of(pid)
        assert initial_probe_pids(base_file, pointer, owner) == [pid]
        assert initial_probe_pids(base_file, pointer, 1 - owner) == []


class TestCachedDereference:
    """The buffer-pool path of simulated_dereference."""

    def run(self, generator, cluster):
        holder = {}

        def proc():
            holder["records"] = yield from generator

        __, elapsed = cluster.run_job(proc())
        return holder["records"], elapsed

    def make_cluster(self, cache_bytes=1 << 20, policy="lru"):
        return Cluster(ClusterSpec(
            num_nodes=2,
            node=NodeSpec(cache_bytes=cache_bytes, cache_policy=policy)))

    def fetch(self, cluster, base_file, metrics, key=3):
        deref = FileLookupDereferencer("base")
        pid = base_file.partition_of_key(key)
        node = base_file.node_of(pid)
        return self.run(
            simulated_dereference(cluster, _config(), metrics, 0, deref,
                                  base_file, Pointer("base", key, key), pid,
                                  node, {}),
            cluster)

    def test_cold_fetch_misses_then_warm_fetch_hits(self, base_file):
        cluster = self.make_cluster()
        cold = ExecutionMetrics()
        __, cold_elapsed = self.fetch(cluster, base_file, cold)
        assert cold.cache_misses > 0 and cold.cache_hits == 0

        warm = ExecutionMetrics()
        records, warm_elapsed = self.fetch(cluster, base_file, warm)
        assert [r["pk"] for r in records] == [3]
        assert warm.cache_hits == cold.cache_misses
        assert warm.cache_misses == 0
        assert warm_elapsed < cold_elapsed

    def test_random_reads_equal_cache_misses(self, base_file):
        cluster = self.make_cluster()
        metrics = ExecutionMetrics()
        self.fetch(cluster, base_file, metrics, key=3)
        self.fetch(cluster, base_file, metrics, key=11)
        self.fetch(cluster, base_file, metrics, key=3)
        assert metrics.random_reads == metrics.cache_misses
        assert metrics.cache_hits > 0

    def test_uncached_cluster_reports_no_cache_traffic(self, base_file):
        cluster = Cluster(ClusterSpec(num_nodes=2))
        metrics = ExecutionMetrics()
        self.fetch(cluster, base_file, metrics)
        assert metrics.cache_hits == 0 and metrics.cache_misses == 0
        assert metrics.random_reads > 0

    def test_trace_events_carry_cache_counters(self, base_file):
        cluster = self.make_cluster()
        metrics = ExecutionMetrics()
        metrics.trace = []
        self.fetch(cluster, base_file, metrics)
        self.fetch(cluster, base_file, metrics)
        derefs = [e for e in metrics.trace if e.kind == "deref"]
        assert derefs[0].cache_misses > 0 and derefs[0].cache_hits == 0
        assert derefs[1].cache_hits > 0 and derefs[1].cache_misses == 0

    def test_cached_timing_is_deterministic(self, base_file):
        def one_run():
            cluster = self.make_cluster(policy="2q")
            metrics = ExecutionMetrics()
            elapsed = []
            for key in (3, 11, 3, 3, 11):
                __, dt = self.fetch(cluster, base_file, metrics, key=key)
                elapsed.append(dt)
            return elapsed, metrics.cache_hits, metrics.cache_misses

        assert one_run() == one_run()

    def test_index_probe_populates_per_kind_stats(self):
        index = BtreeFile("idx", HashPartitioner(1), num_nodes=1, order=4)
        for i in range(100):
            index.insert(i, IndexEntry(i, i, i))
        cluster = Cluster(ClusterSpec(
            num_nodes=1, node=NodeSpec(cache_bytes=1 << 20)))
        metrics = ExecutionMetrics()
        deref = IndexRangeDereferencer("idx")
        self.run(
            simulated_dereference(cluster, _config(), metrics, 0, deref,
                                  index, PointerRange("idx", 0, 99), 0, 0,
                                  {}),
            cluster)
        stats = cluster.cache_stats()
        summary = stats.summary()
        # A cold range probe touches interiors and leaves, never heap.
        assert summary["misses"] == metrics.cache_misses
        kinds = stats.hits_by_kind + stats.misses_by_kind
        assert kinds["leaf"] > 0
        assert kinds["interior"] > 0
        assert kinds["heap"] == 0


class TestExecutorCacheProvisioning:
    """The NodeSpec provisions the pools an executor's jobs run against."""

    def make_catalog(self):
        dfs = DistributedFileSystem(num_nodes=2)
        catalog = StructureCatalog(dfs)
        catalog.register_file("t", [Record({"pk": i}) for i in range(50)],
                              lambda r: r["pk"])
        return catalog

    def job(self, key):
        return (JobBuilder("j").dereference(FileLookupDereferencer("t"))
                .input(Pointer("t", key, key)).build())

    def test_warm_rerun_is_faster_and_hits(self):
        cluster = Cluster(ClusterSpec(
            num_nodes=2, node=NodeSpec(cache_bytes=1 << 20)))
        executor = ReDeExecutor(cluster, self.make_catalog(),
                                mode="partitioned")
        cold = executor.execute(self.job(7))
        warm = executor.execute(self.job(7))
        assert [r.record["pk"] for r in warm.rows] == [7]
        assert cold.metrics.cache_hits == 0
        assert warm.metrics.cache_hits > 0 and warm.metrics.cache_misses == 0
        assert (warm.metrics.elapsed_seconds
                < cold.metrics.elapsed_seconds)

    def test_default_config_leaves_cluster_uncached(self):
        cluster = Cluster(ClusterSpec(num_nodes=2))
        executor = ReDeExecutor(cluster, self.make_catalog(),
                                mode="partitioned")
        result = executor.execute(self.job(7))
        assert all(node.buffer_pool is None for node in cluster.nodes)
        assert result.metrics.cache_hits == 0
        assert result.metrics.cache_misses == 0
