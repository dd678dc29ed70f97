"""Network model: per-node NICs connected through a non-blocking switch.

The paper's cluster uses a 10 Gbps switch.  We model each NIC as a FIFO
transmission server: a message holds the sender's NIC for its transmission
time (``bytes / bandwidth``) and then pays propagation latency without
holding anything, which lets many small messages pipeline — the regime
ReDe's remote dereferences live in — while bulk shuffles (the scan engine's
grace hash join) are properly bandwidth-bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Optional

from repro.cluster.simulation import Resource, Simulator, Timeout
from repro.errors import NodeCrashed, SimulationError, TransientIOError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.faults import FaultInjector

__all__ = ["NetworkSpec", "Network"]


@dataclass(frozen=True)
class NetworkSpec:
    """Static description of the cluster interconnect.

    Attributes:
        bandwidth: per-NIC bandwidth in bytes/second (10 Gbps = 1.25e9 B/s).
        latency: one-way propagation + switching latency in seconds.
        channels: concurrent DMA/transmit channels per NIC.  Values > 1 let a
            NIC overlap several in-flight messages, as modern NICs do.
    """

    bandwidth: float = 1.25e9
    latency: float = 50e-6
    channels: int = 8

    def __post_init__(self) -> None:
        if self.bandwidth <= 0 or self.latency < 0 or self.channels < 1:
            raise SimulationError("invalid network spec")


class Network:
    """The cluster fabric; owns one transmit resource per node."""

    def __init__(self, sim: Simulator, spec: NetworkSpec, num_nodes: int) -> None:
        if num_nodes < 1:
            raise SimulationError("network needs at least one node")
        self.sim = sim
        self.spec = spec
        self._nics = [
            Resource(sim, spec.channels, name=f"nic[{i}]") for i in range(num_nodes)
        ]
        self.messages = 0
        self.bytes_sent = 0
        #: fault source (set by Cluster.inject_faults); None = reliable
        self.faults: Optional["FaultInjector"] = None

    def add_node(self) -> None:
        """Grow the fabric by one NIC (a node joined the cluster)."""
        self._nics.append(Resource(self.sim, self.spec.channels,
                                   name=f"nic[{len(self._nics)}]"))

    def _crashed(self, node_id: int) -> NodeCrashed:
        return NodeCrashed(f"node {node_id} crashed; message undeliverable",
                           node=node_id)

    def transfer(self, src: int, dst: int, nbytes: int) -> Generator:
        """Process helper: move ``nbytes`` from node ``src`` to node ``dst``.

        Local transfers (``src == dst``) are free — the engines use this
        helper unconditionally so locality emerges from partition placement.
        With faults attached, a message may be dropped (after paying its
        transmission time) and messages to/from crashed nodes raise
        :class:`NodeCrashed`.
        """
        return self._send(((src, dst, nbytes),))

    def request_response(self, src: int, dst: int, request_bytes: int,
                         response_bytes: int) -> Generator:
        """Process helper: a round trip (e.g., remote record fetch)."""
        return self._send(((src, dst, request_bytes),
                           (dst, src, response_bytes)))

    def _send(self, legs: tuple[tuple[int, int, int], ...]) -> Generator:
        """One generator for a sequence of messages, sent one after the
        other.  Liveness and drops are consulted only with a fault plan
        attached; without one a message costs its two timeouts and
        nothing else."""
        for src, dst, nbytes in legs:
            if src == dst:
                continue
            if nbytes < 0:
                raise SimulationError(f"negative transfer size: {nbytes}")
            faults = self.faults
            if faults is not None:
                for node_id in (src, dst):
                    if not faults.node_alive(node_id):
                        raise self._crashed(node_id)
            self.messages += 1
            self.bytes_sent += nbytes
            nic = self._nics[src]
            yield nic.request()
            try:
                yield Timeout(self.sim, nbytes / self.spec.bandwidth)
            finally:
                nic.release()
            yield Timeout(self.sim, self.spec.latency)
            faults = self.faults
            if faults is not None:
                if not faults.node_alive(dst):
                    raise self._crashed(dst)
                if faults.draw_net_drop(src):
                    raise TransientIOError(
                        f"network drop: message {src} -> {dst} lost")
