"""Compute-node model: CPU cores plus a data-disk array.

A node bundles the two resources the engines contend for locally.  CPU work
is charged through :meth:`Node.compute`, which holds one core; IO goes
through the node's :class:`~repro.cluster.disk.Disk`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.cluster.disk import Disk, DiskSpec
from repro.cluster.simulation import Resource, Simulator, Timeout
from repro.errors import NodeCrashed, SimulationError
from repro.storage.cache import CACHE_POLICIES, BufferPool

__all__ = ["NodeSpec", "Node"]


@dataclass(frozen=True)
class NodeSpec:
    """Static description of one compute node.

    Attributes:
        cores: CPU cores (static parallelism bound for scan engines).
        tuple_cpu_time: seconds of CPU to process one tuple through one
            operator (hash, probe, predicate evaluation, interpretation).
        disk: the node's data-disk array specification.
        cache_bytes: RAM byte budget for the node's buffer pool; 0 (the
            default) disables caching and preserves the classic cost model.
        cache_policy: eviction policy for the pool ("lru", "clock", "2q").
    """

    cores: int = 16
    tuple_cpu_time: float = 100e-9
    disk: DiskSpec = DiskSpec()
    cache_bytes: int = 0
    cache_policy: str = "lru"

    def __post_init__(self) -> None:
        if self.cores < 1 or self.tuple_cpu_time < 0:
            raise SimulationError("invalid node spec")
        if self.cache_bytes < 0:
            raise SimulationError(
                f"negative cache_bytes: {self.cache_bytes}")
        if self.cache_policy not in CACHE_POLICIES:
            raise SimulationError(
                f"unknown cache policy {self.cache_policy!r}; "
                f"expected one of {CACHE_POLICIES}")


class Node:
    """A simulated compute node."""

    def __init__(self, sim: Simulator, spec: NodeSpec, node_id: int) -> None:
        self.sim = sim
        self.spec = spec
        self.node_id = node_id
        self.cores = Resource(sim, spec.cores, name=f"node{node_id}.cores")
        self.disk = Disk(sim, spec.disk, name=f"node{node_id}.disk")
        self.disk.node = self
        self.cpu_seconds = 0.0
        #: liveness: flipped permanently by FaultInjector node crashes
        self.alive = True
        self.crashed_at: Optional[float] = None
        #: True when the node left gracefully (drain), not by crashing —
        #: listeners use this to tell planned departures from failures
        self.retired = False
        #: per-node page cache; ``None`` means uncached (classic cost model)
        self.buffer_pool: Optional[BufferPool] = None
        if spec.cache_bytes > 0:
            self.buffer_pool = BufferPool(
                spec.cache_bytes, policy=spec.cache_policy,
                name=f"node{node_id}.cache")

    def provision_cache(self, cache_bytes: int, policy: str = "lru") -> None:
        """Attach a buffer pool after construction (engine-level override).

        Does nothing if a pool is already attached — spec-level provisioning
        wins, and a warm pool survives across jobs on the same cluster.
        """
        if self.buffer_pool is None and cache_bytes > 0:
            self.buffer_pool = BufferPool(
                cache_bytes, policy=policy, name=f"node{self.node_id}.cache")

    def drop_cache(self) -> int:
        """Discard every cached page (crash semantics: RAM contents are
        lost, accumulated statistics are not).  Returns pages dropped."""
        if self.buffer_pool is None:
            return 0
        return self.buffer_pool.drop_all()

    def _crashed(self) -> NodeCrashed:
        return NodeCrashed(f"node {self.node_id} crashed",
                           node=self.node_id)

    def compute(self, seconds: float) -> Generator:
        """Process helper: hold one core for ``seconds`` of CPU work."""
        if seconds < 0:
            raise SimulationError(f"negative compute time: {seconds}")
        if not self.alive:
            raise self._crashed()
        self.cpu_seconds += seconds
        yield self.cores.request()
        try:
            yield Timeout(self.sim, seconds)
            if not self.alive:
                raise self._crashed()
        finally:
            self.cores.release()

    def process_tuples(self, count: int) -> Generator:
        """Process helper: charge CPU for pushing ``count`` tuples through
        one operator."""
        return self.compute(count * self.spec.tuple_cpu_time)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node(id={self.node_id}, cores={self.spec.cores})"
