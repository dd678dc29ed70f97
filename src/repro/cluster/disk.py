"""Disk-array model for simulated nodes.

The paper's data nodes carry twenty-four 10K-RPM SAS HDDs in RAID-6.  What
matters for reproducing Figure 7 is the contrast between the two access
patterns the engines exercise:

* **random point reads** (ReDe dereferences): bounded by spindle concurrency
  and per-op service time — the array sustains roughly
  ``spindles / random_service_time`` IOPS;
* **sequential scans** (Impala-like table scans): bounded by aggregate
  sequential bandwidth.

Random reads hold one slot of a ``spindles``-capacity resource for one
service time, so concurrency up to the spindle count is free and beyond it
queues — exactly the behaviour SMPE is designed to exploit.  Sequential scans
hold a single scan channel at full array bandwidth, which makes total scan
time equal total bytes over bandwidth regardless of how the engine chops the
scan up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Optional

from repro.cluster.simulation import Resource, Simulator, Timeout
from repro.errors import NodeCrashed, SimulationError, TransientIOError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.faults import FaultInjector
    from repro.cluster.node import Node

__all__ = ["DiskSpec", "Disk"]


@dataclass(frozen=True)
class DiskSpec:
    """Static description of a node's data-disk array.

    Attributes:
        spindles: number of independently seekable devices (concurrency cap
            for random IO).
        random_service_time: seconds per random point read on one spindle
            (seek + rotational latency + transfer of a small page).
        seq_bandwidth: aggregate sequential read bandwidth in bytes/second.
        page_size: bytes fetched by one random read.
    """

    spindles: int = 24
    random_service_time: float = 0.005
    seq_bandwidth: float = 1.2e9
    page_size: int = 8192

    def __post_init__(self) -> None:
        if self.spindles < 1:
            raise SimulationError("disk needs at least one spindle")
        if self.random_service_time <= 0 or self.seq_bandwidth <= 0:
            raise SimulationError("disk timings must be positive")

    @property
    def random_iops(self) -> float:
        """Peak random read operations per second for the whole array."""
        return self.spindles / self.random_service_time


class Disk:
    """A simulated disk array attached to one node."""

    def __init__(self, sim: Simulator, spec: DiskSpec, name: str = "disk") -> None:
        self.sim = sim
        self.spec = spec
        self._spindles = Resource(sim, spec.spindles, name=f"{name}.spindles")
        self._scan_channel = Resource(sim, 1, name=f"{name}.scan")
        self.random_reads = 0
        self.bytes_read = 0
        self.bytes_scanned = 0
        #: owning node (set by Node); carries liveness for crash checks
        self.node: Optional["Node"] = None
        #: fault source (set by Cluster.inject_faults); None = reliable
        self.faults: Optional["FaultInjector"] = None

    def _crashed(self) -> NodeCrashed:
        assert self.node is not None
        return NodeCrashed(
            f"node {self.node.node_id} crashed; its disk is gone",
            node=self.node.node_id)

    def _service_time(self, nominal: float) -> float:
        """``nominal`` scaled by the straggler factor; untouched (no
        ``× 1.0``) when no fault plan is attached."""
        if self.faults is None or self.node is None:
            return nominal
        return nominal * self.faults.disk_factor(self.node.node_id)

    def random_read(self, nbytes: int = 0) -> Generator:
        """Process helper: one random point read (a ReDe dereference IO).

        The read is accounted (op count and bytes) only once a spindle is
        acquired: queued-but-unserved reads must not inflate the stats.
        With faults attached, the read may fail transiently *after* paying
        its service time (a failed IO still occupies the spindle), and any
        read against a crashed node raises :class:`NodeCrashed`.
        """
        node = self.node
        if node is not None and not node.alive:
            raise self._crashed()
        yield self._spindles.request()
        try:
            self.random_reads += 1
            self.bytes_read += nbytes if nbytes > 0 else self.spec.page_size
            service = self.spec.random_service_time
            if self.faults is not None:
                service = self._service_time(service)
            yield Timeout(self.sim, service)
            if node is not None and not node.alive:
                raise self._crashed()
            if (self.faults is not None and node is not None
                    and self.faults.draw_io_fault(node.node_id)):
                raise TransientIOError(
                    f"transient IO error on {self._spindles.name}")
        finally:
            self._spindles.release()

    def random_read_batch(self, count: int, nbytes: int = 0) -> Generator:
        """Process helper: ``count`` random reads dispatched as one batch.

        The batch charging kernel's disk model: the batch holds a single
        spindle slot and pays ``ceil(count / spindles)`` service times —
        the array streams the batch across all spindles, so ``spindles``
        reads complete per service interval.  Accounting still records
        every read (op count and bytes), keeping IO totals reconcilable
        with the per-read path.  Holding one slot (instead of ``count``)
        also avoids self-deadlock when a batch exceeds the spindle count.
        One fault draw covers the whole batch: a transient error fails
        the batch as a unit, after its service time is paid.
        """
        if count <= 0:
            return
        node = self.node
        if node is not None and not node.alive:
            raise self._crashed()
        yield self._spindles.request()
        try:
            self.random_reads += count
            self.bytes_read += (nbytes if nbytes > 0
                                else count * self.spec.page_size)
            rounds = -(-count // self.spec.spindles)
            yield Timeout(self.sim, self._service_time(
                rounds * self.spec.random_service_time))
            if node is not None and not node.alive:
                raise self._crashed()
            if (self.faults is not None and node is not None
                    and self.faults.draw_io_fault(node.node_id)):
                raise TransientIOError(
                    f"transient IO error on {self._spindles.name}")
        finally:
            self._spindles.release()

    def sequential_read(self, nbytes: int) -> Generator:
        """Process helper: scan ``nbytes`` at full array bandwidth.

        Concurrent scans serialize on the scan channel, which keeps aggregate
        throughput at the array's bandwidth — the property that determines a
        scan engine's total runtime.
        """
        if nbytes < 0:
            raise SimulationError(f"negative scan size: {nbytes}")
        node = self.node
        if node is not None and not node.alive:
            raise self._crashed()
        self.bytes_scanned += nbytes
        yield self._scan_channel.request()
        try:
            yield Timeout(self.sim, self._service_time(
                nbytes / self.spec.seq_bandwidth))
            if node is not None and not node.alive:
                raise self._crashed()
        finally:
            self._scan_channel.release()

    @property
    def peak_concurrent_reads(self) -> int:
        """Highest number of random reads ever in flight at once."""
        return self._spindles.max_in_use

    def spindle_utilization(self, start: float, end: float) -> float:
        """Mean fraction of spindles busy over ``[start, end]`` — how close
        the workload came to the array's IOPS capacity."""
        return self._spindles.utilization(start, end)

    def spindle_busy_snapshot(self) -> float:
        """Busy integral up to now (for windowed utilization deltas)."""
        return self._spindles.busy_snapshot()

    @property
    def spindle_count(self) -> int:
        return self._spindles.capacity
