"""Unit tests for elastic topology: join/drain membership, epochs, and
the rebalancer's placement diff.

Integration-grade chaos (crashes mid-rebalance, resumability, answer
identity under concurrent queries) lives in
``tests/integration/test_rebalance_chaos.py``; this module pins the
membership state machine and the movement math.
"""

import pytest

from repro.cluster import (
    Cluster,
    ClusterSpec,
    NodeState,
    TopologyController,
)
from repro.core import (
    AccessMethodDefinition,
    MappingInterpreter,
    Record,
    StructureCatalog,
)
from repro.errors import SimulationError
from repro.storage import DistributedFileSystem

INTERP = MappingInterpreter()

NUM_NODES = 4
NUM_PARTITIONS = 8  # more partitions than nodes, so joins force moves


def make_catalog(num_nodes=NUM_NODES):
    dfs = DistributedFileSystem(num_nodes=num_nodes)
    catalog = StructureCatalog(dfs)
    records = [Record({"pk": i, "fk": i % 7}) for i in range(160)]
    catalog.register_file("t", records, lambda r: r["pk"],
                          num_partitions=NUM_PARTITIONS)
    catalog.register_access_method(AccessMethodDefinition(
        name="idx_fk", base_file="t", interpreter=INTERP, key_field="fk",
        scope="global"))
    catalog.register_access_method(AccessMethodDefinition(
        name="idx_rep", base_file="t", interpreter=INTERP, key_field="fk",
        scope="replicated"))
    catalog.build_all()
    return catalog


def make_pair(num_nodes=NUM_NODES, **kwargs):
    catalog = make_catalog(num_nodes)
    cluster = Cluster(ClusterSpec(num_nodes=num_nodes))
    return cluster, catalog, TopologyController(cluster, catalog, **kwargs)


def round_robin_placement(file, targets):
    return {pid: targets[pid % len(targets)]
            for pid in range(file.num_partitions)}


def placement_of(file):
    return {pid: file.node_of(pid) for pid in range(file.num_partitions)}


class TestMembership:
    def test_attach_is_exclusive(self):
        cluster, catalog, __ = make_pair()
        assert cluster.topology is not None
        with pytest.raises(SimulationError, match="already has"):
            TopologyController(cluster, catalog)

    def test_negative_pause_rejected(self):
        catalog = make_catalog()
        cluster = Cluster(ClusterSpec(num_nodes=NUM_NODES))
        with pytest.raises(SimulationError, match="pause_between_moves"):
            TopologyController(cluster, catalog, pause_between_moves=-1.0)

    def test_initial_membership_is_converged(self):
        __, __, topology = make_pair()
        assert topology.epoch == 0
        assert topology.active_nodes() == list(range(NUM_NODES))
        assert all(topology.state(n) is NodeState.ACTIVE
                   for n in range(NUM_NODES))
        assert topology.converged
        assert topology.rebalancer.pending_moves() == []
        assert topology.rebalancer.pending_replica_changes() == []

    def test_state_of_unknown_node_rejected(self):
        __, __, topology = make_pair()
        with pytest.raises(SimulationError, match="no such node"):
            topology.state(99)

    def test_join_grows_membership_and_bumps_epoch(self):
        cluster, catalog, topology = make_pair()
        node_id = topology.join_node()
        assert node_id == NUM_NODES
        assert cluster.num_nodes == NUM_NODES + 1
        assert catalog.dfs.num_nodes == NUM_NODES + 1
        assert topology.state(node_id) is NodeState.JOINING
        assert topology.epoch == 1
        assert node_id in topology.active_nodes()  # joiners receive data
        assert [e.kind for e in topology.events] == ["join"]

    def test_drain_validation(self):
        cluster, __, topology = make_pair()
        with pytest.raises(SimulationError, match="unknown node"):
            topology.drain_node(99)
        topology.drain_node(1)
        assert topology.state(1) is NodeState.DRAINING
        assert 1 not in topology.active_nodes()
        with pytest.raises(SimulationError, match="already draining"):
            topology.drain_node(1)
        cluster.nodes[2].alive = False
        with pytest.raises(SimulationError, match="crashed node"):
            topology.drain_node(2)

    def test_cannot_drain_last_active_node(self):
        __, __, topology = make_pair(num_nodes=2)
        topology.drain_node(0)
        with pytest.raises(SimulationError, match="last active node"):
            topology.drain_node(1)


class TestRebalance:
    def test_static_cluster_rebalances_for_free(self):
        cluster, __, topology = make_pair()
        before = cluster.sim.now
        elapsed = topology.rebalance()
        assert elapsed == 0.0
        assert cluster.sim.now == before
        assert topology.moves_committed == 0
        assert topology.epoch == 0
        assert topology.events == []

    def test_join_converges_to_fresh_cluster_placement(self):
        cluster, catalog, topology = make_pair()
        topology.join_node()
        assert not topology.converged
        elapsed = topology.rebalance()
        assert elapsed > 0.0  # movement is charged, never free
        assert topology.converged
        targets = list(range(NUM_NODES + 1))
        for name in ("t", "idx_fk"):
            file = catalog.dfs.get(name)
            assert placement_of(file) == round_robin_placement(file,
                                                               targets)
        # the replicated index fans out to one full copy per member
        assert list(catalog.dfs.get("idx_rep").placement) == targets
        assert topology.state(NUM_NODES) is NodeState.ACTIVE

    def test_drain_moves_everything_off_then_retires(self):
        cluster, catalog, topology = make_pair()
        topology.drain_node(0)
        topology.rebalance()
        assert topology.converged
        survivors = [1, 2, 3]
        for name in ("t", "idx_fk"):
            owners = set(placement_of(catalog.dfs.get(name)).values())
            assert owners <= set(survivors)
        assert list(catalog.dfs.get("idx_rep").placement) == survivors
        assert topology.state(0) is NodeState.RETIRED
        assert cluster.nodes[0].retired and not cluster.nodes[0].alive
        kinds = [e.kind for e in topology.events]
        assert kinds[0] == "drain" and kinds[-1] == "retire"

    def test_every_commit_bumps_the_epoch(self):
        __, __, topology = make_pair()
        topology.join_node()
        epoch_after_join = topology.epoch
        topology.rebalance()
        # one bump per committed move plus the joiner's activation
        assert (topology.epoch
                == epoch_after_join + topology.moves_committed + 1)

    def test_checkpoints_cleared_at_convergence(self):
        __, catalog, topology = make_pair()
        topology.join_node()
        topology.rebalance()
        assert topology.moves_committed > 0
        for name in ("t", "idx_fk", "idx_rep"):
            assert catalog.completed_partitions(f"rebalance:{name}") \
                == frozenset()

    def test_rebalance_is_idempotent(self):
        __, __, topology = make_pair()
        topology.join_node()
        topology.rebalance()
        moved = topology.moves_committed
        epoch = topology.epoch
        assert topology.rebalance() == 0.0  # converged: a free no-op
        assert topology.moves_committed == moved
        assert topology.epoch == epoch

    def test_throttle_stretches_the_rebalance(self):
        __, __, eager = make_pair()
        eager.join_node()
        fast = eager.rebalance()

        __, __, throttled = make_pair(pause_between_moves=5e-3)
        throttled.join_node()
        slow = throttled.rebalance()
        assert throttled.moves_committed == eager.moves_committed
        assert slow >= fast + 5e-3 * (throttled.moves_committed - 1)
