"""Cluster assembly: nodes plus the interconnect, with fluent helpers.

A :class:`Cluster` is the execution substrate handed to every engine.  It is
deliberately engine-agnostic: engines express their work as simulated
processes that charge node CPU, node disk, and network resources, and the
resulting completion time is emergent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional

from repro.cluster.faults import FaultInjector, FaultPlan
from repro.cluster.network import Network, NetworkSpec
from repro.cluster.node import Node, NodeSpec
from repro.cluster.simulation import Event, Simulator
from repro.errors import NodeCrashed, SimulationError
from repro.storage.cache import CacheStats

__all__ = ["ClusterSpec", "Cluster"]


@dataclass(frozen=True)
class ClusterSpec:
    """Static description of a whole cluster."""

    num_nodes: int = 8
    node: NodeSpec = field(default_factory=NodeSpec)
    network: NetworkSpec = field(default_factory=NetworkSpec)

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise SimulationError("cluster needs at least one node")


class Cluster:
    """A simulated cluster: ``num_nodes`` nodes behind one switch."""

    def __init__(self, spec: Optional[ClusterSpec] = None,
                 fault_plan: Optional[FaultPlan] = None) -> None:
        self.spec = spec or ClusterSpec()
        self.sim = Simulator()
        self.nodes = [
            Node(self.sim, self.spec.node, node_id=i)
            for i in range(self.spec.num_nodes)
        ]
        self.network = Network(self.sim, self.spec.network, self.spec.num_nodes)
        self.faults: Optional[FaultInjector] = None
        #: elastic-membership controller (``cluster.topology.
        #: TopologyController``); ``None`` on static clusters, which keeps
        #: every membership-aware code path a strict no-op
        self.topology: Optional[Any] = None
        self._crash_listeners: list[Callable[[int], None]] = []
        if fault_plan is not None:
            self.inject_faults(fault_plan)

    @property
    def num_nodes(self) -> int:
        """Current membership size (grows when nodes join online)."""
        return len(self.nodes)

    def node(self, node_id: int) -> Node:
        if not 0 <= node_id < self.num_nodes:
            raise SimulationError(f"no such node: {node_id}")
        return self.nodes[node_id]

    # -- fault injection and membership ----------------------------------

    def inject_faults(self, plan: FaultPlan) -> FaultInjector:
        """Attach a seeded :class:`FaultPlan` to this cluster's hardware.

        Arms the plan's crash timers on the event heap and hands every
        disk and the network a reference to the injector.  One plan per
        cluster: injecting twice is an error (compose one plan instead).
        """
        if self.faults is not None:
            raise SimulationError("cluster already has a fault plan")
        injector = FaultInjector(self, plan)
        self.faults = injector
        for node in self.nodes:
            node.disk.faults = injector
        self.network.faults = injector
        injector.arm()
        return injector

    def add_node(self) -> Node:
        """Grow the cluster by one node (contiguous id); returns it.

        The joiner gets the shared :class:`NodeSpec` (and so the same
        buffer-pool parameters), its own NIC and fresh fault-injection RNG
        streams (so pre-join draws are unchanged).  Placement is *not*
        touched here: data moves only when a :class:`~repro.cluster.
        topology.TopologyController` rebalances onto the new member.
        """
        node = Node(self.sim, self.spec.node, node_id=len(self.nodes))
        self.nodes.append(node)
        self.network.add_node()
        if self.faults is not None:
            node.disk.faults = self.faults
            self.faults.add_node()
        return node

    def alive(self, node_id: int) -> bool:
        return self.node(node_id).alive

    def serving_node(self, node_id: int) -> int:
        """The node currently serving ``node_id``'s data and work.

        Identity while the node is alive.  After a permanent crash, the
        next alive node (scanning upward, wrapping) adopts the dead node's
        partitions — the simulated equivalent of replica promotion in the
        paper's distributed file system.  Deterministic by construction.
        """
        if self.nodes[node_id].alive:
            return node_id
        for step in range(1, self.num_nodes):
            candidate = (node_id + step) % self.num_nodes
            if self.nodes[candidate].alive:
                return candidate
        raise NodeCrashed("every node in the cluster has crashed",
                          node=node_id)

    def on_node_crash(self, listener: Callable[[int], None]) -> None:
        """Register ``listener(node_id)`` to run at node-crash time."""
        self._crash_listeners.append(listener)

    def remove_crash_listener(self, listener: Callable[[int], None]) -> None:
        if listener in self._crash_listeners:
            self._crash_listeners.remove(listener)

    def _notify_crash(self, node_id: int) -> None:
        for listener in list(self._crash_listeners):
            listener(node_id)

    # -- convenience wrappers over the simulator -------------------------

    def launch(self, generator: Generator, name: str = "") -> Event:
        """Start a simulated process and return its completion event."""
        return self.sim.process(generator, name=name)

    def run_until(self, event: Event, max_time: Optional[float] = None) -> Any:
        """Drive the simulation until ``event`` fires; returns its value."""
        return self.sim.run(until=event, max_time=max_time)

    def run_job(self, generator: Generator, name: str = "",
                max_time: Optional[float] = None) -> tuple[Any, float]:
        """Run one job process to completion on a fresh time window.

        Returns ``(result, elapsed_seconds)`` where elapsed is measured in
        simulated time from launch to completion.
        """
        start = self.sim.now
        done = self.launch(generator, name=name)
        result = self.run_until(done, max_time=max_time)
        return result, self.sim.now - start

    # -- buffer pools ----------------------------------------------------

    def cache_stats(self) -> CacheStats:
        """Aggregate buffer-pool statistics across all nodes (alive or
        crashed — a dead node's counters still describe work it did)."""
        return CacheStats.aggregate(
            node.buffer_pool.stats()
            for node in self.nodes if node.buffer_pool is not None)

    def invalidate_cached_file(self, file_name: str,
                               partition: Optional[int] = None) -> int:
        """Drop every cached page of ``file_name`` cluster-wide (structure
        rebuilt or reloaded).  Returns the number of pages dropped."""
        dropped = 0
        for node in self.nodes:
            if node.buffer_pool is not None:
                dropped += node.buffer_pool.invalidate_file(
                    file_name, partition)
        return dropped
