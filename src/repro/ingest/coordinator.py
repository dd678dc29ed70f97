"""The ingest control plane: staged micro-batches, charged flushes,
atomic commits.

A :class:`MicroBatch` moves through the PR-4 lifecycle states:

* ``PENDING`` — staged: accepted, invisible to queries;
* ``BUILDING`` — a flush charged part of its simulated IO and was
  interrupted (node crash); the per-partition checkpoint set records
  exactly what was paid for, and a later flush pays only the rest;
* ``READY`` — committed: one sealed :class:`~repro.ingest.delta.
  DeltaRun` per affected structure registered in the catalog's
  :class:`~repro.ingest.delta.DeltaRegistry`, watermark advanced.

The flush follows the charge-then-atomic-commit pattern of
:class:`~repro.core.maintenance.MaintenanceWorker`: all simulated cost
is paid first (per-node process generators, crash-tolerant per node),
and the data-plane mutation happens in one synchronous step at the end.
A crash mid-flush therefore leaves checkpointed partial state — never a
half-visible batch.
"""

from __future__ import annotations

import logging
from typing import Any, Optional

from repro.cluster.cluster import Cluster
from repro.core.catalog import StructureCatalog, StructureState
from repro.errors import NodeCrashed, ReproError
from repro.ingest.delta import DeltaRegistry, DeltaRun, delta_tag
from repro.ingest.source import MicroBatch
from repro.ingest.watermark import FreshnessWatermark
from repro.storage.files import IndexEntry

__all__ = ["IngestBatch", "IngestCoordinator"]

logger = logging.getLogger(__name__)


class IngestBatch:
    """One staged micro-batch and its flush lifecycle."""

    def __init__(self, batch_id: int, micro: MicroBatch) -> None:
        self.batch_id = batch_id
        self.micro = micro
        self.state = StructureState.PENDING
        #: base partitions whose flush IO is already charged
        self.checkpoints: set[int] = set()
        self.commit_time: Optional[float] = None

    @property
    def committed(self) -> bool:
        return self.state is StructureState.READY

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"IngestBatch(#{self.batch_id}, {self.micro.file_name!r}, "
                f"{len(self.micro)} records, {self.state.value})")


class IngestCoordinator:
    """Accepts micro-batches and turns them into committed delta runs."""

    def __init__(self, catalog: StructureCatalog,
                 cluster: Optional[Cluster] = None) -> None:
        self.catalog = catalog
        self.cluster = cluster
        registry = catalog.delta_registry
        if registry is None:
            registry = DeltaRegistry()
            catalog.attach_delta_registry(registry)
        self.registry: DeltaRegistry = registry
        if cluster is not None and catalog.cache_invalidator is None:
            catalog.cache_invalidator = cluster.invalidate_cached_file
        self.batches: list[IngestBatch] = []
        self._next_id = 0

    # -- staging ---------------------------------------------------------

    def stage(self, micro: MicroBatch) -> IngestBatch:
        """Accept a micro-batch; its records stay invisible until a
        flush commits it."""
        if micro.file_name not in self.catalog.dfs:
            raise ReproError(
                f"ingest into unknown base file {micro.file_name!r}")
        self.catalog.dfs.loader_info(micro.file_name)  # must be loadable
        batch = IngestBatch(self._next_id, micro)
        self._next_id += 1
        self.batches.append(batch)
        self.registry.pending_batches += 1
        return batch

    def pending(self) -> list[IngestBatch]:
        return [batch for batch in self.batches if not batch.committed]

    def watermark(self) -> FreshnessWatermark:
        return self.registry.watermark()

    # -- flushing --------------------------------------------------------

    def flush_job(self, batch: IngestBatch):
        """Process generator for one (possibly resumed) flush of
        ``batch``: charge per-partition write IO with checkpoints, then
        commit atomically.  Crash-tolerant per node, idempotent when the
        batch is already committed (safe to re-dispatch through the
        gateway's background lane)."""
        assert self.cluster is not None
        cluster = self.cluster
        if batch.committed:
            return
        batch.state = StructureState.BUILDING
        base = self.catalog.dfs.get_base(batch.micro.file_name)
        loader = self.catalog.dfs.loader_info(batch.micro.file_name)
        writes_per_record = 1 + len(self._maintained(batch.micro.file_name))
        counts: dict[int, int] = {}
        for record in batch.micro.appends + batch.micro.upserts:
            pid = base.partition_of_key(loader.partition_key_fn(record))
            counts[pid] = counts.get(pid, 0) + writes_per_record

        def node_flush(node_id: int):
            try:
                node = cluster.node(cluster.serving_node(node_id))
                for pid in base.partitions_on_node(node_id):
                    if pid not in counts or pid in batch.checkpoints:
                        continue
                    for __ in range(counts[pid]):
                        yield from node.disk.random_read()  # write ~ 1 IO
                    batch.checkpoints.add(pid)
            except NodeCrashed:
                # This node's share dies with it; already-checkpointed
                # partitions stay paid, the rest wait for a resumed flush.
                return

        procs = [cluster.launch(node_flush(n), name=f"ingest@{n}")
                 for n in range(cluster.num_nodes)]
        yield cluster.sim.all_of(procs)
        if all(pid in batch.checkpoints for pid in counts):
            self._commit(batch, now=cluster.sim.now)
        else:
            logger.warning(
                "flush of batch #%d interrupted after %d/%d partitions",
                batch.batch_id, len(batch.checkpoints), len(counts))

    def flush(self, batch: IngestBatch) -> float:
        """Flush one batch; returns simulated seconds (0.0 clusterless).

        With a cluster the flush runs on a fresh time window (the
        serving gateway's background lane runs :meth:`flush_job` inline
        on the shared timeline instead).  Without a cluster the commit
        is immediate and free — the reference path for tests.
        """
        if batch.committed:
            return 0.0
        if self.cluster is None:
            self._commit(batch, now=0.0)
            return 0.0
        __, elapsed = self.cluster.run_job(
            self.flush_job(batch), name=f"ingest:{batch.batch_id}")
        return elapsed

    def flush_pending(self) -> float:
        """Flush every staged batch in arrival order."""
        return sum(self.flush(batch) for batch in self.pending())

    # -- the atomic commit ----------------------------------------------

    def _maintained(self, file_name: str) -> list:
        """Materialized access methods over ``file_name``.

        Registered-but-unmaterialized definitions are skipped here: their
        build scans the base heap, which does not see delta records.  The
        gap is closed at materialization time — ``StructureCatalog.
        ensure_built`` backfills one index delta run per committed base
        run, so a structure built mid-stream answers fresh probes exactly
        like one maintained from the start.
        """
        return [definition
                for definition in self.catalog.definitions_over(file_name)
                if definition.name in self.catalog.dfs]

    def _commit(self, batch: IngestBatch, now: float) -> None:
        micro = batch.micro
        base = self.catalog.dfs.get_base(micro.file_name)
        loader = self.catalog.dfs.loader_info(micro.file_name)
        definitions = self._maintained(micro.file_name)
        indexes = [(d, self.catalog.dfs.get_index(d.name))
                   for d in definitions]

        base_run = DeltaRun(micro.file_name, micro.file_name,
                            batch.batch_id, now)
        index_runs = {d.name: DeltaRun(d.name, micro.file_name,
                                       batch.batch_id, now)
                      for d, __ in indexes}
        upserts: dict[int, set] = {}
        tombstones: dict[str, dict[int, set]] = {
            d.name: {} for d, __ in indexes}

        # Newest-wins applies inside a batch too: a later upsert replaces
        # every earlier record of the same (partition, key) staged in
        # this same micro-batch, exactly as it replaces older runs.
        live: list[tuple[Record, bool, Any, int, Any]] = []
        for record, is_upsert in (
                [(r, False) for r in micro.appends]
                + [(r, True) for r in micro.upserts]):
            partition_key = loader.partition_key_fn(record)
            key = loader.key_fn(record)
            pid = base.partition_of_key(partition_key)
            if is_upsert:
                live = [entry for entry in live
                        if (entry[3], entry[4]) != (pid, key)]
            live.append((record, is_upsert, partition_key, pid, key))

        seq = 0
        for record, is_upsert, partition_key, pid, key in live:
            tag = delta_tag(batch.batch_id, seq)
            seq += 1
            base_run.add(pid, key, record, (pid, key), tag=tag)
            for definition, index in indexes:
                for index_key in definition.extract_keys(record):
                    entry = IndexEntry(index_key, partition_key, tag)
                    for ipid in index.entry_partitions(partition_key,
                                                       index_key):
                        index_runs[definition.name].add(
                            ipid, index_key, entry, (pid, key))
            if not is_upsert:
                continue
            upserts.setdefault(pid, set()).add(key)
            # Kill the physical entries of every heap-resident version
            # this upsert replaces (older delta versions die by origin).
            heap = base.partitions[pid]
            for slot in heap.slots_for_key(key):
                old = heap.get(slot)
                old_pk = loader.partition_key_fn(old)
                for definition, index in indexes:
                    for old_key in definition.extract_keys(old):
                        triple = (old_key, old_pk, slot)
                        for ipid in index.entry_partitions(old_pk,
                                                           old_key):
                            tombstones[definition.name].setdefault(
                                ipid, set()).add(triple)

        frozen_upserts = {pid: frozenset(keys)
                          for pid, keys in upserts.items()}
        base_run.upserts = frozen_upserts
        self.registry.register(base_run.seal())
        for definition, __ in indexes:
            run = index_runs[definition.name]
            run.upserts = frozen_upserts
            run.tombstones = {
                pid: frozenset(triples) for pid, triples in
                tombstones[definition.name].items()}
            self.registry.register(run.seal())

        if micro.late_count:
            self.registry.late_records += micro.late_count
        elif (self.registry.committed_through is not None
                and micro.event_time <= self.registry.committed_through):
            self.registry.late_records += len(micro)
        self.registry.note_commit(micro.event_time, now)
        # A commit leaves heap/tree pages untouched (the new records live
        # in delta runs beside them), so buffer pools stay valid — but
        # every semantic result derived from these structures is stale.
        self.catalog.invalidate_results(micro.file_name)
        for definition in definitions:
            self.catalog.invalidate_results(definition.name)
        batch.state = StructureState.READY
        batch.commit_time = now
        logger.info("committed batch #%d into %r (%d records, %d runs)",
                    batch.batch_id, micro.file_name, len(micro),
                    1 + len(indexes))

