"""Deterministic, seeded fault injection for the simulated cluster.

The paper evaluates ReDe on a 128-node cluster where transient IO errors,
straggler disks, and node crashes are routine; this module makes the
simulated substrate able to misbehave the same way, *deterministically*:

* :class:`FaultPlan` — a frozen, seeded description of everything that will
  go wrong: transient IO-error rates, slow-disk straggler degradation from
  a point in time, node crash-at-time-T, and network message drops.
* :class:`FaultInjector` — the runtime: attached to a
  :class:`~repro.cluster.cluster.Cluster`, it arms crash timers on the
  event heap and answers the per-operation fault draws the hardware models
  consult.

Determinism: every draw comes from a per-node ``random.Random`` stream
seeded arithmetically from ``(plan.seed, node_id, channel)`` (never from
string hashes, which are salted per process), and the event kernel fires
simultaneous events in scheduling order — so a seeded fault plan produces
byte-for-byte identical fault sequences, timings, and engine recoveries
across runs and machines.

The injector only *raises* faults; surviving them is the engines' job (see
``repro.engine.access.recovering_dereference`` and the recovery paths in
``SmpeEngine`` / ``PartitionedEngine``).
"""

from __future__ import annotations

import random
import zlib
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.errors import JobDefinitionError
from repro.storage.cache import PageId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cluster import Cluster

__all__ = ["SlowDisk", "NodeCrash", "PageCorruption", "RebalanceCrash",
           "FaultPlan", "FaultInjector"]

#: channel tags for decorrelated per-node RNG streams
_IO_CHANNEL = 1
_NET_CHANNEL = 2
_CORRUPTION_CHANNEL = 3
#: base tag for retry-backoff jitter; attempt number offsets within it
_RETRY_CHANNEL = 1009


def _stream(seed: int, node_id: int, channel: int) -> random.Random:
    """A dedicated RNG stream for one (node, fault channel) pair.

    Seeds are derived arithmetically (no string hashing) so streams are
    reproducible across processes regardless of ``PYTHONHASHSEED``.
    """
    return random.Random(seed * 1_000_003 + node_id * 7919 + channel)


@dataclass(frozen=True)
class SlowDisk:
    """Straggler degradation: one node's disk slows down from a point in time.

    From ``from_time`` on, every IO on ``node``'s disk array takes
    ``factor``× its nominal service time — the gray-failure mode (a sick
    RAID controller, a rebuilding array) that per-invocation timeouts are
    designed to surface.
    """

    node: int
    from_time: float = 0.0
    factor: float = 4.0

    def __post_init__(self) -> None:
        if self.node < 0:
            raise JobDefinitionError(
                f"slow disk names negative node id {self.node}")
        if self.factor < 1.0:
            raise JobDefinitionError(
                f"slow-disk factor must be >= 1, got {self.factor}")
        if self.from_time < 0:
            raise JobDefinitionError("slow-disk from_time must be >= 0")


@dataclass(frozen=True)
class NodeCrash:
    """Permanent node failure at a fixed simulated time."""

    node: int
    at_time: float

    def __post_init__(self) -> None:
        if self.node < 0:
            raise JobDefinitionError(
                f"crash names negative node id {self.node}")
        if self.at_time <= 0:
            raise JobDefinitionError(
                "crash time must be > 0 (nodes must exist before they die)")


@dataclass(frozen=True)
class PageCorruption:
    """Silent data corruption: a fraction of one structure's pages is bad.

    Each page of ``file`` independently has probability ``rate`` of being
    corrupt — decided once per page by a seeded draw, so the corrupt set
    is fixed for the run and every read of a corrupt page fails its
    checksum the same way (bit rot, not a flaky transfer).  ``node``
    restricts the corruption to pages homed on one node (a single sick
    disk array); ``None`` means any node's share can be affected.
    """

    file: str
    rate: float
    node: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.file:
            raise JobDefinitionError("page corruption needs a file name")
        if not 0.0 <= self.rate <= 1.0:
            raise JobDefinitionError(
                f"corruption rate must be in [0, 1], got {self.rate}")
        if self.node is not None and self.node < 0:
            raise JobDefinitionError(
                f"page corruption names negative node id {self.node}")


@dataclass(frozen=True)
class RebalanceCrash:
    """Kill a node *mid-rebalance*, keyed to migration progress.

    Fires when the rebalancer starts its next partition move after
    ``after_moves`` moves have committed (``0`` = the very first move).
    The ``victim`` selects who dies at that instant: an explicit
    ``node``, or the ``"source"`` / ``"target"`` of the in-flight move —
    the two ends of a migration are exactly the crashes a rebalance must
    survive without orphaning or double-owning a partition.
    """

    after_moves: int
    node: Optional[int] = None
    victim: str = "node"

    def __post_init__(self) -> None:
        if self.after_moves < 0:
            raise JobDefinitionError(
                f"after_moves must be >= 0, got {self.after_moves}")
        if self.victim not in ("node", "source", "target"):
            raise JobDefinitionError(
                f"rebalance-crash victim must be node|source|target, "
                f"got {self.victim!r}")
        if self.victim == "node":
            if self.node is None:
                raise JobDefinitionError(
                    "rebalance crash with victim='node' needs a node id")
            if self.node < 0:
                raise JobDefinitionError(
                    f"rebalance crash names negative node id {self.node}")
        elif self.node is not None:
            raise JobDefinitionError(
                "rebalance crash resolves its victim from the in-flight "
                "move; do not pass a node id with victim="
                f"{self.victim!r}")


@dataclass(frozen=True)
class FaultPlan:
    """Everything that will go wrong in one simulated run, seeded.

    Attributes:
        seed: root seed of all per-node fault streams.
        transient_io_rate: probability that any one random disk read fails
            with :class:`~repro.errors.TransientIOError` (after paying its
            service time, as a real failed IO does).
        network_drop_rate: probability that any one network message is lost
            in transit (fails after paying its transmission time).
        slow_disks: straggler degradations (see :class:`SlowDisk`).
        node_crashes: permanent node failures (see :class:`NodeCrash`).
        page_corruptions: silent per-page structure corruption (see
            :class:`PageCorruption`).
        rebalance_crashes: crashes keyed to rebalance progress instead of
            wall time (see :class:`RebalanceCrash`).
    """

    seed: int = 0
    transient_io_rate: float = 0.0
    network_drop_rate: float = 0.0
    slow_disks: tuple[SlowDisk, ...] = ()
    node_crashes: tuple[NodeCrash, ...] = ()
    page_corruptions: tuple[PageCorruption, ...] = ()
    rebalance_crashes: tuple[RebalanceCrash, ...] = ()

    def __post_init__(self) -> None:
        for name in ("transient_io_rate", "network_drop_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise JobDefinitionError(
                    f"{name} must be in [0, 1), got {rate}")
        # Accept lists for convenience; store canonical tuples.
        object.__setattr__(self, "slow_disks", tuple(self.slow_disks))
        object.__setattr__(self, "node_crashes", tuple(self.node_crashes))
        object.__setattr__(self, "page_corruptions",
                           tuple(self.page_corruptions))
        object.__setattr__(self, "rebalance_crashes",
                           tuple(self.rebalance_crashes))
        crashed = [c.node for c in self.node_crashes]
        if len(crashed) != len(set(crashed)):
            raise JobDefinitionError("a node cannot crash twice")


class FaultInjector:
    """Runtime fault source bound to one cluster.

    Created by :meth:`Cluster.inject_faults`; the hardware models hold a
    reference and consult it per operation:

    * ``draw_io_fault`` / ``draw_net_drop`` — seeded Bernoulli draws;
    * ``disk_factor`` — current straggler slowdown of a node's disk;
    * ``node_alive`` — liveness (crash timers armed on the event heap
      flip this and notify the cluster's crash listeners).

    ``stats`` counts every fault actually injected, keyed by kind — the
    ground truth the chaos tests compare engine metrics against.
    """

    def __init__(self, cluster: "Cluster", plan: FaultPlan) -> None:
        num_nodes = cluster.num_nodes
        for slow in plan.slow_disks:
            if not 0 <= slow.node < num_nodes:
                raise JobDefinitionError(
                    f"slow disk on unknown node {slow.node}")
        for crash in plan.node_crashes:
            if not 0 <= crash.node < num_nodes:
                raise JobDefinitionError(
                    f"crash of unknown node {crash.node}")
        if len({c.node for c in plan.node_crashes}) >= num_nodes:
            raise JobDefinitionError("a fault plan cannot crash every node")
        for spec in plan.page_corruptions:
            if spec.node is not None and not 0 <= spec.node < num_nodes:
                raise JobDefinitionError(
                    f"page corruption on unknown node {spec.node}")
        for reb in plan.rebalance_crashes:
            if reb.node is not None and not 0 <= reb.node < num_nodes:
                raise JobDefinitionError(
                    f"rebalance crash of unknown node {reb.node}")
        self.cluster = cluster
        self.plan = plan
        self.sim = cluster.sim
        self._io_rngs = [_stream(plan.seed, n, _IO_CHANNEL)
                         for n in range(num_nodes)]
        self._net_rngs = [_stream(plan.seed, n, _NET_CHANNEL)
                          for n in range(num_nodes)]
        self._slow = {s.node: s for s in plan.slow_disks}
        self._retry_rngs: dict[tuple[int, int], random.Random] = {}
        self._page_verdicts: dict[PageId, bool] = {}
        self._repaired: set[str] = set()
        self._pending_rebalance = sorted(plan.rebalance_crashes,
                                         key=lambda c: c.after_moves)
        self._moves_committed = 0
        self.stats: Counter = Counter()

    def add_node(self) -> None:
        """Extend the per-node fault streams for a node that joined online.

        The joiner gets the streams its id would have had at construction,
        so pre-join draws on incumbent nodes are byte-identical with or
        without the join.
        """
        new_id = len(self._io_rngs)
        self._io_rngs.append(_stream(self.plan.seed, new_id, _IO_CHANNEL))
        self._net_rngs.append(_stream(self.plan.seed, new_id, _NET_CHANNEL))

    # -- arming ----------------------------------------------------------

    def arm(self) -> None:
        """Schedule the plan's crash timers on the cluster's event heap."""
        for crash in self.plan.node_crashes:
            timer = self.sim.timeout(crash.at_time)
            timer.add_callback(
                lambda _event, node=crash.node: self._kill(node))

    def _kill(self, node_id: int) -> None:
        node = self.cluster.node(node_id)
        if not node.alive:  # pragma: no cover - plans forbid double crashes
            return
        node.alive = False
        node.crashed_at = self.sim.now
        node.drop_cache()  # RAM dies with the node
        self.stats["node-crash"] += 1
        self.cluster._notify_crash(node_id)

    # -- rebalance-keyed crashes -----------------------------------------

    def note_move_start(self, source: int, target: int) -> None:
        """Rebalancer hook: a partition migration is about to begin.

        Fires every armed :class:`RebalanceCrash` whose ``after_moves``
        threshold has been reached, killing the explicit victim or the
        in-flight move's source/target — so the migration itself trips
        over the crash it just caused, exactly like a real mid-copy
        failure.
        """
        due = [c for c in self._pending_rebalance
               if self._moves_committed >= c.after_moves]
        for crash in due:
            self._pending_rebalance.remove(crash)
            victim = (crash.node if crash.victim == "node"
                      else source if crash.victim == "source"
                      else target)
            assert victim is not None
            self._kill(victim)

    def note_move_commit(self) -> None:
        """Rebalancer hook: one partition migration committed."""
        self._moves_committed += 1

    # -- per-operation draws ---------------------------------------------

    def node_alive(self, node_id: int) -> bool:
        return self.cluster.node(node_id).alive

    def draw_io_fault(self, node_id: int) -> bool:
        """True when this random read should fail transiently."""
        rate = self.plan.transient_io_rate
        if rate <= 0.0:
            return False
        hit = self._io_rngs[node_id].random() < rate
        if hit:
            self.stats["transient-io"] += 1
        return hit

    def draw_net_drop(self, src: int) -> bool:
        """True when this network message should be dropped."""
        rate = self.plan.network_drop_rate
        if rate <= 0.0:
            return False
        hit = self._net_rngs[src].random() < rate
        if hit:
            self.stats["network-drop"] += 1
        return hit

    def retry_jitter(self, node_id: int, attempt: int) -> float:
        """Full-jitter fraction in ``(0, 1]`` for one retry backoff.

        Drawn from a dedicated stream per (node, attempt number), created
        lazily — concurrent jobs whose dereferences fault on the same
        node at the same instant draw *successive* values from the same
        stream (event order is deterministic), so their capped-backoff
        delays spread over ``(0, delay]`` instead of synchronizing into a
        retry storm that re-saturates the recovering disk.
        """
        key = (node_id, attempt)
        rng = self._retry_rngs.get(key)
        if rng is None:
            rng = _stream(self.plan.seed, node_id,
                          _RETRY_CHANNEL + attempt)
            self._retry_rngs[key] = rng
        return 1.0 - rng.random()

    def disk_factor(self, node_id: int) -> float:
        """Current service-time multiplier of a node's disk array."""
        slow = self._slow.get(node_id)
        if slow is None or self.sim.now < slow.from_time:
            return 1.0
        return slow.factor

    # -- page corruption -------------------------------------------------

    def _corruption_rate(self, node_id: int, file: str) -> float:
        """Corruption probability for pages of ``file`` homed on ``node_id``."""
        if file in self._repaired:
            return 0.0
        for spec in self.plan.page_corruptions:
            if spec.file == file and (spec.node is None
                                      or spec.node == node_id):
                return spec.rate
        return 0.0

    def page_corrupt(self, node_id: int, page: PageId) -> bool:
        """True when this page's checksum fails to verify.

        The verdict is drawn once per page from a stream seeded by the
        page's full identity (file, kind, partition, page number) plus the
        home node, then cached — bit rot is sticky, so every read of a
        corrupt page fails the same way until :meth:`repair_file` rewrites
        it.  Callers must pass the page's *home* node so the verdict does
        not depend on which survivor currently serves the partition.
        """
        rate = self._corruption_rate(node_id, page.file)
        if rate <= 0.0:
            return False
        cached = self._page_verdicts.get(page)
        if cached is not None:
            return cached
        mix = (zlib.crc32(f"{page.file}:{page.page_kind}".encode())
               + page.partition * 52_711 + page.page_no * 15_485_863)
        rng = random.Random(self.plan.seed * 1_000_003 + node_id * 7919
                            + _CORRUPTION_CHANNEL + mix)
        hit = rng.random() < rate
        self._page_verdicts[page] = hit
        if hit:
            self.stats["page-corruption"] += 1
        return hit

    def repair_file(self, file_name: str) -> None:
        """Mark a structure as rewritten: its pages verify clean again."""
        self._repaired.add(file_name)
        self._page_verdicts = {p: v for p, v in self._page_verdicts.items()
                               if p.file != file_name}

    @property
    def has_corruption(self) -> bool:
        """True while any un-repaired corruption spec is active."""
        return any(spec.rate > 0.0 and spec.file not in self._repaired
                   for spec in self.plan.page_corruptions)
