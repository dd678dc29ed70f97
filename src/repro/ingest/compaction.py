"""Tiered delta→base compaction, runnable as gateway background work.

Two tiers bound the per-probe delta overhead:

* **minor** — fold a base file's runs (and each of its indexes' runs)
  into one merged run apiece.  Cheap: only delta bytes move, the heap
  and trees are untouched.  Probe depth drops to 1.
* **major** — rewrite the base heap partitions (applying newest-wins
  upserts, appending delta records) and bulk-rebuild every materialized
  index from the new heap with physical entries, exactly as the DFS
  builds them.  Probe depth drops to 0: the lake is static again and
  the delta-aware query path returns to its bit-identical passthrough.

Both are process generators charged through the cluster before any
data-plane mutation (charge-then-atomic-commit, as PR 4's builds), so a
crash mid-compaction leaves the runs in place and the structures
queryable; major compaction checkpoints per base partition in the
:class:`~repro.ingest.delta.DeltaRegistry` so a resumed pass pays only
the remainder.  Submitted through the PR-5 ``QueryGateway`` background
lane they are subject to admission control and shedding like any other
maintenance work.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

from repro.cluster.cluster import Cluster
from repro.core.catalog import StructureCatalog
from repro.errors import NodeCrashed, ReproError
from repro.ingest.delta import live_records, merge_runs
from repro.storage.files import PartitionedFile
from repro.storage.heapfile import HeapFile

__all__ = ["CompactionPolicy", "Compactor"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class CompactionPolicy:
    """When to fold deltas back into base structures.

    ``minor_after``/``major_after`` are run-count thresholds on the
    *base file* (each committed batch adds one run there).  Mode
    ``"none"`` never compacts — the degradation baseline.
    """

    mode: str = "lazy"
    minor_after: int = 4
    major_after: int = 8

    @classmethod
    def none(cls) -> "CompactionPolicy":
        return cls(mode="none", minor_after=0, major_after=0)

    @classmethod
    def lazy(cls) -> "CompactionPolicy":
        return cls(mode="lazy", minor_after=4, major_after=8)

    @classmethod
    def eager(cls) -> "CompactionPolicy":
        return cls(mode="eager", minor_after=2, major_after=3)

    def due(self, depth: int) -> Optional[str]:
        """The compaction tier a run depth calls for, if any."""
        if self.mode == "none" or depth <= 0:
            return None
        if self.major_after and depth >= self.major_after:
            return "major"
        if self.minor_after and depth >= self.minor_after:
            return "minor"
        return None


class Compactor:
    """Plans and executes delta→base merges for one catalog."""

    def __init__(self, catalog: StructureCatalog,
                 cluster: Optional[Cluster] = None,
                 policy: Optional[CompactionPolicy] = None) -> None:
        self.catalog = catalog
        self.cluster = cluster
        self.policy = policy or CompactionPolicy.lazy()
        self.minor_compactions = 0
        self.major_compactions = 0

    # -- planning --------------------------------------------------------

    def _registry(self):
        registry = self.catalog.delta_registry
        if registry is None:
            raise ReproError("no delta registry attached to the catalog")
        return registry

    def base_files_with_runs(self) -> list[str]:
        registry = self.catalog.delta_registry
        if registry is None:
            return []
        return [name for name in registry.structures()
                if isinstance(self.catalog.dfs.get(name), PartitionedFile)]

    def due(self) -> list[tuple[str, str]]:
        """(base file, tier) pairs the policy wants compacted now."""
        return [(name, tier) for name in self.base_files_with_runs()
                for tier in [self.policy.due(
                    self.catalog.delta_depth(name))]
                if tier is not None]

    # -- execution -------------------------------------------------------

    def compaction_job(self, file_name: str, tier: str):
        """Process generator for one charged (resumable) compaction."""
        assert self.cluster is not None
        if tier == "minor":
            yield from self._minor_job(file_name)
        elif tier == "major":
            yield from self._major_job(file_name)
        else:
            raise ReproError(f"unknown compaction tier {tier!r}")

    def compact(self, file_name: str, tier: str) -> float:
        """Run one compaction; returns simulated seconds.

        Clusterless, commits immediately and free — the reference path
        the equivalence tests drive.
        """
        if self.cluster is None:
            if tier == "minor":
                self._commit_minor(file_name)
            else:
                self._commit_major(file_name)
            return 0.0
        __, elapsed = self.cluster.run_job(
            self.compaction_job(file_name, tier),
            name=f"compact-{tier}:{file_name}")
        return elapsed

    # -- minor tier ------------------------------------------------------

    def _structures_with_runs(self, file_name: str) -> list[str]:
        """The base file plus its indexes, where runs exist."""
        registry = self._registry()
        names = [file_name] + [d.name for d in
                               self.catalog.definitions_over(file_name)]
        return [name for name in names if registry.depth(name) > 0]

    def _minor_job(self, file_name: str):
        cluster = self.cluster
        assert cluster is not None
        registry = self._registry()
        if registry.depth(file_name) <= 1:
            return  # nothing to fold (or a concurrent pass beat us)
        # Read + write every delta byte, on the node owning each
        # structure partition the runs touch.
        per_node: dict[int, int] = {}
        for name in self._structures_with_runs(file_name):
            structure = self.catalog.dfs.get(name)
            for run in registry.runs(name):
                for pid in run.partitions():
                    node = structure.node_of(pid)
                    per_node[node] = (per_node.get(node, 0)
                                      + run.partition_bytes(pid))

        def node_merge(node_id: int):
            try:
                node = cluster.node(cluster.serving_node(node_id))
                nbytes = per_node.get(node_id, 0)
                if nbytes:
                    yield from node.disk.sequential_read(2 * nbytes)
            except NodeCrashed:
                return

        procs = [cluster.launch(node_merge(n), name=f"compact@{n}")
                 for n in range(cluster.num_nodes)]
        yield cluster.sim.all_of(procs)
        self._commit_minor(file_name)

    def _commit_minor(self, file_name: str) -> None:
        registry = self._registry()
        folded = 0
        for name in self._structures_with_runs(file_name):
            runs = registry.runs(name)
            if len(runs) <= 1:
                continue
            folded += len(runs)
            registry.replace_runs(name, [merge_runs(runs)])
        if folded:
            self.minor_compactions += 1
            # A fold rewrites the delta runs behind the base *and* every
            # maintained index over it: any cached page or semantic
            # result derived from those runs is stale.  Mirror
            # ``Catalog.insert_record`` — invalidate the base file and
            # each maintained index, not just the base.
            self.catalog.invalidate_cached(file_name)
            for name in self.catalog.maintained_structures(file_name):
                self.catalog.invalidate_cached(name)
            logger.info("minor compaction folded %d runs over %r",
                        folded, file_name)

    # -- major tier ------------------------------------------------------

    def _major_job(self, file_name: str):
        cluster = self.cluster
        assert cluster is not None
        registry = self._registry()
        if registry.depth(file_name) == 0:
            return  # already folded (idempotent re-dispatch)
        base = self.catalog.dfs.get_base(file_name)
        runs = registry.runs(file_name)
        done = registry.compaction_checkpoints.setdefault(file_name, set())
        indexes = [self.catalog.dfs.get_index(d.name)
                   for d in self.catalog.definitions_over(file_name)
                   if d.name in self.catalog.dfs]

        def node_rewrite(node_id: int):
            try:
                node = cluster.node(cluster.serving_node(node_id))
                for pid in base.partitions_on_node(node_id):
                    if pid in done:
                        continue
                    nbytes = base.partition_bytes(pid) + sum(
                        run.partition_bytes(pid) for run in runs)
                    rows = len(base.partitions[pid]) + sum(
                        run.partition_len(pid) for run in runs)
                    # read old heap + deltas, write merged heap back
                    yield from node.disk.sequential_read(2 * nbytes)
                    if rows:
                        yield from node.process_tuples(rows)
                    done.add(pid)
                # Index rebuilds: bulk-load every local tree partition.
                for index in indexes:
                    per_part = (index.total_bytes
                                // max(1, index.num_partitions))
                    nbytes = per_part * len(
                        index.partitions_on_node(node_id))
                    if nbytes:
                        yield from node.disk.sequential_read(2 * nbytes)
            except NodeCrashed:
                # Checkpointed partitions stay paid; a resumed pass
                # charges the remainder before committing.
                return

        procs = [cluster.launch(node_rewrite(n), name=f"compact@{n}")
                 for n in range(cluster.num_nodes)]
        yield cluster.sim.all_of(procs)
        if all(pid in done for pid in range(base.num_partitions)):
            self._commit_major(file_name)
        else:
            logger.warning(
                "major compaction of %r interrupted after %d/%d partitions",
                file_name, len(done), base.num_partitions)

    def _commit_major(self, file_name: str) -> None:
        """Atomic data-plane rewrite: merged heap, rebuilt trees."""
        registry = self._registry()
        base = self.catalog.dfs.get_base(file_name)
        loader = self.catalog.dfs.loader_info(file_name)
        runs = registry.runs(file_name)
        if not runs:
            return
        merged: list[list[tuple]] = [[] for __ in base.partitions]
        for pid, __, record, tag in live_records(base, runs, loader.key_fn):
            merged[pid].append((record, tag))
        for pid, records in enumerate(merged):
            fresh = HeapFile(name=base.partitions[pid].name)
            for record, tag in records:
                slot = fresh.append(record, key=loader.key_fn(record))
                if tag is not None:
                    # Queries in flight across this fold still hold index
                    # entries targeting the delta tag.
                    fresh.alias(tag, slot)
            base.partitions[pid] = fresh
        # Every materialized index is rebuilt — appends add entries and
        # removed upsert victims shift heap slots, so even run-less
        # trees must be reloaded from the new heap.
        dfs = self.catalog.dfs
        definitions = [d for d in self.catalog.definitions_over(file_name)
                       if d.name in dfs]
        dfs.load_indexes(file_name, [(dfs.get_index(d.name), d.keys_batch)
                                     for d in definitions])
        for definition in definitions:
            registry.retire(definition.name)
            self.catalog.invalidate_cached(definition.name)
        registry.retire(file_name)
        self.catalog.invalidate_cached(file_name)
        self.major_compactions += 1
        logger.info("major compaction folded %d runs into %r",
                    len(runs), file_name)
