"""Unit tests for disk, network, node, and cluster models."""

import pytest

from repro.cluster import Cluster, ClusterSpec, DiskSpec, NetworkSpec, NodeSpec
from repro.cluster.disk import Disk
from repro.cluster.network import Network
from repro.cluster.simulation import Simulator, all_of
from repro.errors import SimulationError


class TestDisk:
    def test_single_random_read_costs_service_time(self):
        sim = Simulator()
        disk = Disk(sim, DiskSpec(spindles=4, random_service_time=0.005))

        def reader():
            yield from disk.random_read()

        sim.run(until=sim.process(reader()))
        assert sim.now == pytest.approx(0.005)
        assert disk.random_reads == 1

    def test_random_reads_parallel_up_to_spindles(self):
        sim = Simulator()
        disk = Disk(sim, DiskSpec(spindles=4, random_service_time=0.005))

        def reader():
            yield from disk.random_read()

        procs = [sim.process(reader()) for _ in range(8)]
        sim.run(until=all_of(sim, procs))
        # 8 reads on 4 spindles -> two waves.
        assert sim.now == pytest.approx(0.010)
        assert disk._spindles.max_in_use == 4

    def test_sequential_read_bandwidth_bound(self):
        sim = Simulator()
        disk = Disk(sim, DiskSpec(seq_bandwidth=1e9))

        def scanner(nbytes):
            yield from disk.sequential_read(nbytes)

        sim.run(until=sim.process(scanner(2_000_000_000)))
        assert sim.now == pytest.approx(2.0)
        assert disk.bytes_scanned == 2_000_000_000

    def test_concurrent_scans_serialize(self):
        sim = Simulator()
        disk = Disk(sim, DiskSpec(seq_bandwidth=1e9))

        def scanner():
            yield from disk.sequential_read(1_000_000_000)

        procs = [sim.process(scanner()) for _ in range(3)]
        sim.run(until=all_of(sim, procs))
        # Aggregate throughput stays at array bandwidth.
        assert sim.now == pytest.approx(3.0)

    def test_random_iops_property(self):
        spec = DiskSpec(spindles=24, random_service_time=0.005)
        assert spec.random_iops == pytest.approx(4800.0)

    def test_invalid_specs_rejected(self):
        with pytest.raises(SimulationError):
            DiskSpec(spindles=0)
        with pytest.raises(SimulationError):
            DiskSpec(random_service_time=0)
        with pytest.raises(SimulationError):
            DiskSpec(seq_bandwidth=-1)

    def test_negative_scan_rejected(self):
        sim = Simulator()
        disk = Disk(sim, DiskSpec())

        def scanner():
            yield from disk.sequential_read(-5)

        sim.process(scanner())
        with pytest.raises(SimulationError):
            sim.run()


class TestNetwork:
    def test_local_transfer_free(self):
        sim = Simulator()
        net = Network(sim, NetworkSpec(), num_nodes=2)

        def sender():
            yield from net.transfer(0, 0, 10**9)

        sim.run(until=sim.process(sender()))
        assert sim.now == 0.0
        assert net.messages == 0

    def test_remote_transfer_costs_transmission_plus_latency(self):
        sim = Simulator()
        net = Network(sim, NetworkSpec(bandwidth=1e9, latency=100e-6),
                      num_nodes=2)

        def sender():
            yield from net.transfer(0, 1, 1_000_000)

        sim.run(until=sim.process(sender()))
        assert sim.now == pytest.approx(0.001 + 100e-6)
        assert net.bytes_sent == 1_000_000

    def test_small_messages_pipeline_on_latency(self):
        sim = Simulator()
        net = Network(sim, NetworkSpec(bandwidth=1.25e9, latency=1e-3,
                                       channels=8), num_nodes=2)

        def sender():
            yield from net.transfer(0, 1, 100)

        procs = [sim.process(sender()) for _ in range(8)]
        sim.run(until=all_of(sim, procs))
        # All eight overlap their latency; total << 8 * 1ms.
        assert sim.now < 2e-3

    def test_request_response_round_trip(self):
        sim = Simulator()
        net = Network(sim, NetworkSpec(bandwidth=1e9, latency=50e-6),
                      num_nodes=2)

        def fetcher():
            yield from net.request_response(0, 1, 100, 8192)

        sim.run(until=sim.process(fetcher()))
        expected = (100 / 1e9 + 50e-6) + (8192 / 1e9 + 50e-6)
        assert sim.now == pytest.approx(expected)

    def test_invalid_specs_rejected(self):
        with pytest.raises(SimulationError):
            NetworkSpec(bandwidth=0)
        with pytest.raises(SimulationError):
            NetworkSpec(latency=-1)
        sim = Simulator()
        with pytest.raises(SimulationError):
            Network(sim, NetworkSpec(), num_nodes=0)


class TestNodeAndCluster:
    def test_compute_bounded_by_cores(self):
        cluster = Cluster(ClusterSpec(num_nodes=1, node=NodeSpec(cores=2)))
        node = cluster.node(0)

        def worker():
            yield from node.compute(1.0)

        procs = [cluster.launch(worker()) for _ in range(4)]
        cluster.run_until(cluster.sim.all_of(procs))
        assert cluster.sim.now == pytest.approx(2.0)

    def test_process_tuples_charges_cpu(self):
        cluster = Cluster(ClusterSpec(num_nodes=1,
                                      node=NodeSpec(tuple_cpu_time=1e-6)))
        node = cluster.node(0)

        def worker():
            yield from node.process_tuples(1_000_000)

        __, elapsed = cluster.run_job(worker())
        assert elapsed == pytest.approx(1.0)

    def test_run_job_measures_elapsed_from_launch(self):
        cluster = Cluster(ClusterSpec(num_nodes=1))

        def first():
            yield cluster.sim.timeout(5.0)

        cluster.run_job(first())

        def second():
            yield cluster.sim.timeout(1.0)
            return "ok"

        result, elapsed = cluster.run_job(second())
        assert result == "ok"
        assert elapsed == pytest.approx(1.0)

    def test_node_lookup_bounds(self):
        cluster = Cluster(ClusterSpec(num_nodes=2))
        with pytest.raises(SimulationError):
            cluster.node(2)
        with pytest.raises(SimulationError):
            cluster.node(-1)

    def test_cluster_aggregates_io_counters(self):
        cluster = Cluster(ClusterSpec(num_nodes=2))

        def reader(node_id):
            yield from cluster.node(node_id).disk.random_read()
            yield from cluster.node(node_id).disk.sequential_read(1000)

        procs = [cluster.launch(reader(i)) for i in range(2)]
        cluster.run_until(cluster.sim.all_of(procs))
        assert sum(node.disk.random_reads for node in cluster.nodes) == 2
        assert sum(node.disk.bytes_scanned for node in cluster.nodes) == 2000


def test_paper_and_laptop_presets():
    from repro.config import laptop_cluster_spec, paper_cluster_spec

    paper = paper_cluster_spec()
    assert paper.num_nodes == 128
    assert paper.node.cores == 16
    assert paper.node.disk.spindles == 24
    laptop = laptop_cluster_spec()
    assert laptop.num_nodes == 8
    assert laptop.node == paper.node
