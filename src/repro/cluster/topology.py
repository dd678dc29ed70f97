"""Elastic topology: online node join/drain with crash-safe rebalancing.

The paper's scaling experiments (Section VI) freeze the cluster at
construction; production lakes add capacity and drain sick nodes *under
load*.  This module makes membership a first-class, simulated-time
concern:

* :class:`TopologyController` — the membership authority: planned node
  **join** (``join_node``) and graceful **drain** (``drain_node``), a
  monotonically increasing **placement epoch** bumped on every membership
  change and every committed partition move, and a per-node state machine
  ``ACTIVE → DRAINING → RETIRED`` / ``JOINING → ACTIVE``.
* :class:`Rebalancer` — the data mover: computes the placement diff
  between where partitions *are* and where the current membership says
  they *should* be, then migrates them one at a time as a charged,
  throttled, crash-resumable process generator (sequential read on the
  source, network transfer, sequential write on the target), committing
  each move with a single placement flip plus a per-partition checkpoint
  in the catalog (the same ledger catalog builds and ingest flushes use).

Robustness invariants:

* **Single owner, always.**  A partition's placement entry changes only
  *after* its bytes are fully charged; a crash mid-move leaves the old
  owner serving.  No partition is ever orphaned or double-owned.
* **Resume pays only the remainder.**  The diff is recomputed from live
  placement after any crash, so a resumed rebalance migrates exactly the
  unmoved partitions; committed moves are also checkpointed under the
  ``rebalance:<file>`` namespace for observability.
* **Epoch-safe routing.**  In-flight jobs resolve owners per attempt
  (``engine.access.simulated_dereference`` re-reads ``file.node_of``), so
  they either complete against the old placement or re-route through the
  existing retry path; queries never fail because data moved.
* **Drains finish their work.**  A DRAINING node keeps serving until its
  last partition has moved; only then is it retired, and the cluster's
  crash listeners fire so engines re-queue its pending work to survivors
  (classified as a planned departure via ``Node.retired``).

The controller is inert until attached: a cluster without one behaves —
event for event — exactly as before.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.errors import NodeCrashed, SimulationError, TransientIOError
from repro.storage.files import BtreeFile, PartitionedFile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cluster import Cluster

__all__ = ["NodeState", "TopologyEvent", "PartitionMove", "Rebalancer",
           "TopologyController"]

logger = logging.getLogger("repro.topology")


class NodeState(enum.Enum):
    """Membership lifecycle of one node.

    ::

        JOINING ---> ACTIVE ---> DRAINING ---> RETIRED
        (no data yet)    (serving)   (serving until    (gone; work
                                      partitions move)  re-queued)
    """

    ACTIVE = "active"
    JOINING = "joining"
    DRAINING = "draining"
    RETIRED = "retired"


@dataclass(frozen=True)
class TopologyEvent:
    """One membership or movement event, for reports and benchmarks."""

    kind: str          # join | drain | activate | retire | move | replica
    node: int
    time: float
    epoch: int
    detail: str = ""


@dataclass(frozen=True)
class PartitionMove:
    """One pending migration: ``file``'s partition from source to target."""

    file: str
    partition_id: int
    source: int
    target: int


class Rebalancer:
    """Computes and executes the placement diff for one controller.

    All movement funnels through :meth:`job` — a plain process generator,
    so it can run directly (``cluster.run_job``) or through the serving
    gateway's background lane (``service.background_rebalance``), where it
    competes with queries under the same admission control as any other
    maintenance.
    """

    def __init__(self, controller: "TopologyController") -> None:
        self.controller = controller
        self.cluster = controller.cluster
        self.catalog = controller.catalog
        #: committed migrations (partition moves + replica copies)
        self.moves_committed = 0
        #: True while a rebalance generator is executing
        self.active = False

    # -- the diff ---------------------------------------------------------

    def pending_moves(self) -> list[PartitionMove]:
        """Partition migrations the current membership still requires.

        Non-replicated files converge to round-robin over the active
        nodes (``targets[pid % len(targets)]``) — for a full, healthy
        membership this *is* the placement every file was constructed
        with, so zero topology changes means zero moves, and a join of
        contiguous ids converges to exactly the placement a fresh
        cluster of the new size would have.
        """
        targets = self.controller.active_nodes()
        if not targets:
            raise SimulationError("no active nodes to rebalance onto")
        moves: list[PartitionMove] = []
        dfs = self.catalog.dfs
        for name in sorted(dfs.names()):
            file = dfs.get(name)
            if getattr(file, "scope", None) == "replicated":
                continue
            for pid in range(file.num_partitions):
                want = targets[pid % len(targets)]
                have = file.node_of(pid)
                if have != want:
                    moves.append(PartitionMove(name, pid, have, want))
        return moves

    def pending_replica_changes(self) -> list[str]:
        """Replicated structures whose replica set != the active nodes."""
        targets = self.controller.active_nodes()
        names: list[str] = []
        dfs = self.catalog.dfs
        for name in sorted(dfs.names()):
            file = dfs.get(name)
            if getattr(file, "scope", None) != "replicated":
                continue
            if list(file.placement) != targets:
                names.append(name)
        return names

    @property
    def converged(self) -> bool:
        return not self.pending_moves() and not self.pending_replica_changes()

    # -- byte accounting ---------------------------------------------------

    def _partition_bytes(self, name: str, file: Any,
                         partition_id: int) -> int:
        """Everything that moves with one partition: heap pages or B-tree
        share, plus this partition's slice of every unmerged delta run."""
        if isinstance(file, PartitionedFile):
            nbytes = file.partition_bytes(partition_id)
        elif isinstance(file, BtreeFile):
            total = len(file)
            share = (len(file.trees[partition_id]) / total) if total else 0.0
            nbytes = int(file.total_bytes * share)
        else:  # pragma: no cover - no other File kinds exist
            nbytes = 0
        for run in self.catalog.delta_runs(name):
            if partition_id in run.partitions():
                nbytes += run.partition_bytes(partition_id)
        return nbytes

    # -- movement ----------------------------------------------------------

    def _copy(self, src: int, dst: int, nbytes: int) -> Generator:
        """Charge one partition copy: read at the source, ship it, write
        at the target.  A dropped transfer is re-sent (each resend pays
        transmission again); a crashed endpoint raises to the caller."""
        cluster = self.cluster
        yield from cluster.node(src).disk.sequential_read(nbytes)
        while True:
            try:
                yield from cluster.network.transfer(src, dst, nbytes)
                break
            except TransientIOError:
                continue
        yield from cluster.node(dst).disk.sequential_read(nbytes)

    def _migrate(self, move: PartitionMove) -> Generator:
        """One charged partition migration; commits only after the bytes
        are fully paid (the crash-safety invariant)."""
        cluster = self.cluster
        faults = cluster.faults
        if faults is not None:
            # May kill this move's source or target: the charges below
            # then raise NodeCrashed and the caller recomputes the diff.
            faults.note_move_start(move.source, move.target)
        file = self.catalog.dfs.get(move.file)
        nbytes = self._partition_bytes(move.file, file, move.partition_id)
        src = cluster.serving_node(move.source)
        yield from self._copy(src, move.target, nbytes)
        # Commit: one placement flip (queries now route to the target),
        # a checkpoint, and cache invalidation (moved pages start cold).
        file.move_partition(move.partition_id, move.target)
        self.catalog.record_checkpoint(f"rebalance:{move.file}",
                                       move.partition_id)
        cluster.invalidate_cached_file(move.file, move.partition_id)
        self.moves_committed += 1
        self.controller.epoch += 1
        if faults is not None:
            faults.note_move_commit()
        self.controller._log("move", move.target,
                             detail=f"{move.file}[{move.partition_id}] "
                                    f"{move.source}->{move.target}")

    def _reconcile_replicas(self, name: str) -> Generator:
        """Bring one replicated structure to one copy per active node.

        Each new replica is charged and committed individually, so a
        crash mid-copy loses at most the replica in flight; stale
        replicas (drained/dead hosts) are dropped at the end for free.
        """
        cluster = self.cluster
        faults = cluster.faults
        targets = self.controller.active_nodes()
        file = self.catalog.dfs.get(name)
        have = list(file.placement)
        per_replica = file.total_bytes // max(1, len(file.trees))
        src = next((n for n in have if cluster.nodes[n].alive),
                   cluster.serving_node(have[0]))
        for node in targets:
            if node in have:
                continue
            if faults is not None:
                faults.note_move_start(src, node)
            yield from self._copy(src, node, per_replica)
            file.set_replica_nodes(have + [node])
            have = list(file.placement)
            self.catalog.record_checkpoint(f"rebalance:{name}", node)
            self.moves_committed += 1
            self.controller.epoch += 1
            if faults is not None:
                faults.note_move_commit()
            self.controller._log("replica", node, detail=f"{name}+{node}")
        if have != targets:
            file.set_replica_nodes(targets)
            cluster.invalidate_cached_file(name)
            self.controller._log("replica", -1, detail=f"{name}={targets}")

    def job(self) -> Generator:
        """The rebalance as one resumable process generator.

        Idempotent: dispatching against a converged topology (or while
        another rebalance runs) is a free no-op, so the gateway can
        re-submit it safely.  A node crash mid-move abandons the current
        diff and recomputes it from live placement — committed moves stay
        committed, the crashed node drops out of the target set, and the
        loop converges because crashes are permanent and finite.
        """
        if self.active:
            return
        self.active = True
        try:
            while True:
                moves = self.pending_moves()
                replicas = self.pending_replica_changes()
                if not moves and not replicas:
                    break
                try:
                    for move in moves:
                        if not self.cluster.nodes[move.target].alive:
                            break  # membership changed; recompute
                        yield from self._migrate(move)
                        if self.controller.pause_between_moves > 0:
                            yield self.cluster.sim.timeout(
                                self.controller.pause_between_moves)
                    for name in replicas:
                        yield from self._reconcile_replicas(name)
                except NodeCrashed:
                    logger.warning("rebalance interrupted by a crash; "
                                   "recomputing the placement diff")
                    continue
        finally:
            self.active = False
        self.controller._on_converged()


class TopologyController:
    """Online membership for one cluster: join, drain, rebalance, epochs.

    Attaching a controller is the opt-in: ``cluster.topology`` is set,
    engines start stamping placement epochs and classifying planned
    departures.  A cluster without one is bit-identical to the
    pre-elastic substrate.
    """

    def __init__(self, cluster: "Cluster", catalog: Any, *,
                 pause_between_moves: float = 0.0) -> None:
        if cluster.topology is not None:
            raise SimulationError(
                "cluster already has a topology controller")
        if pause_between_moves < 0:
            raise SimulationError(
                f"negative pause_between_moves: {pause_between_moves}")
        self.cluster = cluster
        self.catalog = catalog
        #: simulated-time gap between committed moves — the rebalance
        #: throttle (besides the fair-share the gateway lane imposes)
        self.pause_between_moves = pause_between_moves
        #: placement epoch: bumped on every membership change and every
        #: committed move; jobs stamp the epoch they started under
        self.epoch = 0
        self._states: dict[int, NodeState] = {
            n: NodeState.ACTIVE for n in range(cluster.num_nodes)}
        self.events: list[TopologyEvent] = []
        self.rebalancer = Rebalancer(self)
        cluster.topology = self

    # -- membership --------------------------------------------------------

    def state(self, node_id: int) -> NodeState:
        if node_id not in self._states:
            raise SimulationError(f"no such node: {node_id}")
        return self._states[node_id]

    def active_nodes(self) -> list[int]:
        """Placement targets: alive members that are not leaving.

        JOINING nodes count — the whole point of a join is to receive
        partitions; DRAINING/RETIRED and crashed nodes do not.
        """
        return sorted(
            n for n, s in self._states.items()
            if s in (NodeState.ACTIVE, NodeState.JOINING)
            and self.cluster.nodes[n].alive)

    def join_node(self) -> int:
        """Add one node (contiguous id) to the membership; returns its id.

        The node serves immediately (empty), the DFS places *new*
        structures over the grown membership, and existing partitions
        move only when the rebalancer runs.
        """
        node = self.cluster.add_node()
        self._states[node.node_id] = NodeState.JOINING
        self.catalog.dfs.num_nodes = self.cluster.num_nodes
        self.epoch += 1
        self._log("join", node.node_id)
        return node.node_id

    def drain_node(self, node_id: int) -> None:
        """Begin a graceful drain: the node keeps serving until its last
        partition has moved, then retires (work re-queued to survivors)."""
        state = self._states.get(node_id)
        if state is None:
            raise SimulationError(f"cannot drain unknown node {node_id}")
        if state in (NodeState.DRAINING, NodeState.RETIRED):
            raise SimulationError(
                f"node {node_id} is already {state.value}")
        if not self.cluster.nodes[node_id].alive:
            raise SimulationError(
                f"cannot drain crashed node {node_id}")
        if len(self.active_nodes()) <= 1:
            raise SimulationError(
                "cannot drain the last active node")
        self._states[node_id] = NodeState.DRAINING
        self.epoch += 1
        self._log("drain", node_id)

    # -- rebalancing --------------------------------------------------------

    @property
    def converged(self) -> bool:
        """True when placement matches membership (nothing to move)."""
        return self.rebalancer.converged

    @property
    def moves_committed(self) -> int:
        return self.rebalancer.moves_committed

    def rebalance_job(self) -> Generator:
        """The charged, throttled, crash-resumable movement generator."""
        return self.rebalancer.job()

    def rebalance(self, max_time: Optional[float] = None) -> float:
        """Run one rebalance to completion inline; returns simulated
        seconds.  (Production-shaped callers submit :meth:`rebalance_job`
        through the gateway's background lane instead.)"""
        __, elapsed = self.cluster.run_job(self.rebalance_job(),
                                           name="rebalance",
                                           max_time=max_time)
        return elapsed

    # -- convergence --------------------------------------------------------

    def _on_converged(self) -> None:
        """Post-rebalance bookkeeping: joiners become full members,
        drained nodes retire (and their pending work is re-queued via the
        cluster's crash listeners, classified as planned departures)."""
        for node_id in sorted(self._states):
            state = self._states[node_id]
            if state is NodeState.JOINING:
                self._states[node_id] = NodeState.ACTIVE
                self.epoch += 1
                self._log("activate", node_id)
            elif state is NodeState.DRAINING:
                node = self.cluster.nodes[node_id]
                node.retired = True
                node.alive = False
                node.drop_cache()
                self._states[node_id] = NodeState.RETIRED
                self.epoch += 1
                self._log("retire", node_id)
                self.cluster._notify_crash(node_id)
        for name in sorted(self.catalog.dfs.names()):
            self.catalog.abandon_build(f"rebalance:{name}")

    def _log(self, kind: str, node: int, detail: str = "") -> None:
        self.events.append(TopologyEvent(
            kind=kind, node=node, time=self.cluster.sim.now,
            epoch=self.epoch, detail=detail))
