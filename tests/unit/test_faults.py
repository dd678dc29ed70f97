"""Unit tests: the seeded fault-injection framework and faulty hardware.

Covers the FaultPlan/FaultInjector contract (validation, determinism of the
seeded streams, crash timers, straggler factors), the crash-aware cluster
membership helpers, and the disk's fault behaviour — including the
accounting rule that a random read is only counted once a spindle has been
acquired.
"""

import pytest

from repro.cluster import (Cluster, ClusterSpec, FaultInjector, FaultPlan,
                           NodeCrash, PageCorruption, RebalanceCrash,
                           SlowDisk)
from repro.cluster.disk import Disk, DiskSpec
from repro.cluster.simulation import Simulator
from repro.errors import (JobDefinitionError, NodeCrashed, SimulationError,
                          TransientIOError)

NUM_NODES = 4


def make_cluster(plan=None):
    return Cluster(ClusterSpec(num_nodes=NUM_NODES), fault_plan=plan)


class TestFaultPlanValidation:
    """Fault specs are job definitions: a plan naming an impossible fault
    raises :class:`JobDefinitionError` eagerly, at construction — not a
    silent never-fires at run time."""

    def test_rates_must_be_probabilities(self):
        with pytest.raises(JobDefinitionError, match="transient_io_rate"):
            FaultPlan(transient_io_rate=1.0)
        with pytest.raises(JobDefinitionError, match="network_drop_rate"):
            FaultPlan(network_drop_rate=-0.1)

    def test_duplicate_crash_rejected(self):
        with pytest.raises(JobDefinitionError, match="crash twice"):
            FaultPlan(node_crashes=(NodeCrash(1, 0.5), NodeCrash(1, 0.9)))

    def test_crash_at_time_zero_rejected(self):
        with pytest.raises(JobDefinitionError, match="crash time"):
            NodeCrash(1, 0.0)

    def test_crash_of_negative_node_rejected(self):
        with pytest.raises(JobDefinitionError, match="negative node"):
            NodeCrash(-1, 0.5)

    def test_negative_crash_time_rejected(self):
        with pytest.raises(JobDefinitionError, match="crash time"):
            NodeCrash(1, -0.5)

    def test_slow_disk_factor_below_one_rejected(self):
        with pytest.raises(JobDefinitionError, match="factor"):
            SlowDisk(0, factor=0.5)

    def test_slow_disk_negative_node_rejected(self):
        with pytest.raises(JobDefinitionError, match="negative node"):
            SlowDisk(-2)

    def test_slow_disk_negative_from_time_rejected(self):
        with pytest.raises(JobDefinitionError, match="from_time"):
            SlowDisk(0, from_time=-1.0)

    def test_corruption_negative_node_rejected(self):
        with pytest.raises(JobDefinitionError, match="negative node"):
            PageCorruption(file="idx", rate=0.1, node=-1)

    def test_rebalance_crash_validation(self):
        with pytest.raises(JobDefinitionError, match="after_moves"):
            RebalanceCrash(after_moves=-1, node=0)
        with pytest.raises(JobDefinitionError, match="victim"):
            RebalanceCrash(after_moves=0, node=0, victim="bystander")
        with pytest.raises(JobDefinitionError, match="node id"):
            RebalanceCrash(after_moves=0)  # victim="node" needs an id
        with pytest.raises(JobDefinitionError, match="negative node"):
            RebalanceCrash(after_moves=0, node=-3)
        with pytest.raises(JobDefinitionError, match="do not pass"):
            RebalanceCrash(after_moves=0, node=1, victim="target")
        # Valid forms construct fine.
        RebalanceCrash(after_moves=2, node=1)
        RebalanceCrash(after_moves=0, victim="source")
        RebalanceCrash(after_moves=1, victim="target")

    def test_lists_are_canonicalized_to_tuples(self):
        plan = FaultPlan(slow_disks=[SlowDisk(0)],
                         node_crashes=[NodeCrash(1, 1.0)],
                         rebalance_crashes=[RebalanceCrash(0, node=1)])
        assert isinstance(plan.slow_disks, tuple)
        assert isinstance(plan.node_crashes, tuple)
        assert isinstance(plan.rebalance_crashes, tuple)


class TestFaultInjectorValidation:
    def test_unknown_nodes_rejected(self):
        with pytest.raises(JobDefinitionError, match="unknown node 99"):
            make_cluster(FaultPlan(node_crashes=(NodeCrash(99, 1.0),)))
        with pytest.raises(JobDefinitionError, match="unknown node 99"):
            make_cluster(FaultPlan(slow_disks=(SlowDisk(99),)))

    def test_rebalance_crash_of_unknown_node_rejected(self):
        with pytest.raises(JobDefinitionError, match="unknown node 42"):
            make_cluster(FaultPlan(
                rebalance_crashes=(RebalanceCrash(0, node=42),)))

    def test_crashing_every_node_rejected(self):
        crashes = tuple(NodeCrash(n, 1.0 + n) for n in range(NUM_NODES))
        with pytest.raises(JobDefinitionError, match="every node"):
            make_cluster(FaultPlan(node_crashes=crashes))

    def test_double_injection_rejected(self):
        # Not a definition error: the plan is fine, the cluster state
        # is not — this stays a SimulationError.
        cluster = make_cluster(FaultPlan(transient_io_rate=0.1))
        with pytest.raises(SimulationError):
            cluster.inject_faults(FaultPlan(seed=2))


class TestSeededDeterminism:
    def test_same_seed_same_draw_sequence(self):
        draws = []
        for __ in range(2):
            cluster = make_cluster(FaultPlan(seed=42, transient_io_rate=0.3,
                                             network_drop_rate=0.2))
            io = [cluster.faults.draw_io_fault(n % NUM_NODES)
                  for n in range(200)]
            net = [cluster.faults.draw_net_drop(n % NUM_NODES)
                   for n in range(200)]
            draws.append((io, net))
        assert draws[0] == draws[1]
        assert any(draws[0][0]) and any(draws[0][1])

    def test_different_seeds_differ(self):
        def sequence(seed):
            cluster = make_cluster(FaultPlan(seed=seed,
                                             transient_io_rate=0.3))
            return [cluster.faults.draw_io_fault(0) for __ in range(200)]

        assert sequence(1) != sequence(2)

    def test_per_node_streams_are_independent(self):
        cluster = make_cluster(FaultPlan(seed=7, transient_io_rate=0.3))
        node0 = [cluster.faults.draw_io_fault(0) for __ in range(100)]
        cluster2 = make_cluster(FaultPlan(seed=7, transient_io_rate=0.3))
        # Interleave draws on another node: node 0's stream is unaffected.
        node0_again = []
        for __ in range(100):
            cluster2.faults.draw_net_drop(1)
            cluster2.faults.draw_io_fault(3)
            node0_again.append(cluster2.faults.draw_io_fault(0))
        assert node0 == node0_again

    def test_zero_rate_never_fires_and_draws_nothing(self):
        cluster = make_cluster(FaultPlan(seed=3))
        assert not any(cluster.faults.draw_io_fault(0) for __ in range(50))
        assert cluster.faults.stats == {}


class TestCrashAndMembership:
    def test_crash_timer_kills_node_at_time(self):
        cluster = make_cluster(FaultPlan(node_crashes=(NodeCrash(2, 0.25),)))
        assert cluster.alive(2)
        cluster.sim.run()
        assert not cluster.alive(2)
        assert cluster.node(2).crashed_at == pytest.approx(0.25)
        assert cluster.faults.stats["node-crash"] == 1
        assert [n for n in range(4) if cluster.alive(n)] == [0, 1, 3]

    def test_serving_node_promotes_next_survivor(self):
        cluster = make_cluster(FaultPlan(node_crashes=(NodeCrash(2, 0.1),
                                                       NodeCrash(3, 0.1))))
        assert cluster.serving_node(2) == 2
        cluster.sim.run()
        assert cluster.serving_node(2) == 0  # 3 is dead too: wraps to 0
        assert cluster.serving_node(3) == 0
        assert cluster.serving_node(1) == 1

    def test_serving_node_with_no_survivors_raises(self):
        cluster = make_cluster()
        for node in cluster.nodes:
            node.alive = False
        with pytest.raises(NodeCrashed):
            cluster.serving_node(0)

    def test_crash_listeners_fire_and_unregister(self):
        cluster = make_cluster(FaultPlan(node_crashes=(NodeCrash(1, 0.1),
                                                       NodeCrash(2, 0.2))))
        seen = []
        cluster.on_node_crash(seen.append)
        cluster.sim.run(until=cluster.sim.timeout(0.15))
        assert seen == [1]
        cluster.remove_crash_listener(seen.append)
        cluster.sim.run()
        assert seen == [1]

    def test_dead_node_compute_and_disk_raise(self):
        cluster = make_cluster(FaultPlan(node_crashes=(NodeCrash(0, 0.1),)))
        cluster.sim.run()
        with pytest.raises(NodeCrashed):
            cluster.run_until(cluster.launch(cluster.node(0).compute(1e-4)))
        with pytest.raises(NodeCrashed):
            cluster.run_until(cluster.launch(
                cluster.node(0).disk.random_read()))


class TestSlowDisk:
    def test_straggler_factor_applies_from_time(self):
        plan = FaultPlan(slow_disks=(SlowDisk(1, from_time=0.5, factor=4.0),))
        cluster = make_cluster(plan)
        assert cluster.faults.disk_factor(1) == 1.0
        assert cluster.faults.disk_factor(0) == 1.0
        cluster.sim.run(until=cluster.sim.timeout(0.6))
        assert cluster.faults.disk_factor(1) == 4.0
        assert cluster.faults.disk_factor(0) == 1.0

    def test_slow_disk_stretches_service_time(self):
        plan = FaultPlan(slow_disks=(SlowDisk(0, factor=4.0),))
        cluster = make_cluster(plan)
        done = cluster.launch(cluster.node(0).disk.random_read())
        cluster.run_until(done)
        nominal = cluster.spec.node.disk.random_service_time
        assert cluster.sim.now == pytest.approx(4.0 * nominal)


class TestDiskAccounting:
    def test_read_counted_only_after_spindle_acquired(self):
        # One spindle: the second read queues and must not be counted (nor
        # its bytes recorded) until it is actually served.
        sim = Simulator()
        disk = Disk(sim, DiskSpec(spindles=1, random_service_time=0.01))
        sim.process(disk.random_read())
        sim.process(disk.random_read())
        sim.run(until=sim.timeout(0.005))
        assert disk.random_reads == 1
        assert disk.bytes_read == disk.spec.page_size
        sim.run()
        assert disk.random_reads == 2
        assert disk.bytes_read == 2 * disk.spec.page_size

    def test_bytes_read_honours_explicit_size(self):
        sim = Simulator()
        disk = Disk(sim, DiskSpec())
        sim.process(disk.random_read(nbytes=1234))
        sim.run()
        assert disk.bytes_read == 1234

    def test_transient_fault_charges_time_and_counts(self):
        cluster = make_cluster(FaultPlan(seed=0, transient_io_rate=0.9999))
        disk = cluster.node(0).disk
        with pytest.raises(TransientIOError):
            cluster.run_until(cluster.launch(disk.random_read()))
        # A failed IO still occupied its spindle for a full service time
        # and is part of the op count.
        assert cluster.sim.now == pytest.approx(
            disk.spec.random_service_time)
        assert disk.random_reads == 1
        assert cluster.faults.stats["transient-io"] == 1


class TestNetworkFaults:
    def test_drop_raises_after_transmission(self):
        cluster = make_cluster(FaultPlan(seed=0, network_drop_rate=0.9999))
        with pytest.raises(TransientIOError):
            cluster.run_until(cluster.launch(
                cluster.network.transfer(0, 1, 10_000)))
        assert cluster.sim.now > 0
        assert cluster.faults.stats["network-drop"] == 1

    def test_transfer_to_dead_node_raises(self):
        cluster = make_cluster(FaultPlan(node_crashes=(NodeCrash(1, 0.1),)))
        cluster.sim.run()
        with pytest.raises(NodeCrashed):
            cluster.run_until(cluster.launch(
                cluster.network.transfer(0, 1, 10_000)))
