"""Structure maintenance: lazy background builds and workload-adaptive advice.

Two pieces:

* :class:`MaintenanceWorker` — materializes registered-but-unbuilt indexes
  "in the background" (paper, Section III-D).  Given a simulated cluster it
  also charges the build's cost — each node scans its local base partitions
  and CPU-processes the records — so experiments can weigh build cost
  against query speedup, the trade-off Section V-B calls out ("more
  structures could cause more performance and capacity overheads for
  loading new data").
* :class:`WorkloadStats` / :class:`StructureAdvisor` — an implementation of
  the Section V-B research direction: "structure maintenance should be
  adaptive to workload changes".  The stats record which (file, field)
  pairs jobs filter on after fetching; the advisor proposes access methods
  for hot pairs that have no index yet and can auto-register them.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.catalog import (AccessMethodDefinition, StructureCatalog,
                                StructureState)
from repro.core.functions import Dereferencer
from repro.core.interpreters import (
    FieldEqualsFilter,
    FieldRangeFilter,
    Interpreter,
)
from repro.core.job import Job
from repro.errors import NodeCrashed

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.cluster.cluster import Cluster

__all__ = ["MaintenanceWorker", "WorkloadStats", "StructureAdvisor",
           "IndexAdvice"]

logger = logging.getLogger("repro.maintenance")


class MaintenanceWorker:
    """Builds pending indexes, optionally charging simulated build cost."""

    def __init__(self, catalog: StructureCatalog,
                 cluster: Optional[Cluster] = None) -> None:
        self.catalog = catalog
        self.cluster = cluster
        if cluster is not None:
            # Wire the catalog's cache hook so direct mutations (e.g.
            # Catalog.insert_record) drop stale buffer-pool pages too.
            catalog.cache_invalidator = cluster.invalidate_cached_file

    def run_pending(self) -> tuple[list[str], float]:
        """Build every pending index, checkpointing per base partition.

        Returns ``(names_built, simulated_build_seconds)``; the time is 0.0
        without a cluster.

        With a cluster, each build runs :meth:`materialize_job` on a fresh
        time window.  A :class:`~repro.errors.NodeCrashed` mid-build
        therefore leaves the structure ``BUILDING`` with a consistent
        completed-partition set — the next ``run_pending`` charges only
        the missing partitions before materializing.  The
        charge/materialize pair is atomic per structure: if
        materialization raises, the build is rolled back to ``PENDING``
        and the catalog is unchanged.
        """
        pending = self.catalog.pending()
        total_elapsed = 0.0
        built: list[str] = []
        for name in pending:
            if self.cluster is None:
                self.catalog.ensure_built(name)
                built.append(name)
                continue
            materialized, elapsed = self.cluster.run_job(
                self.materialize_job(name), name=f"build:{name}")
            total_elapsed += elapsed
            if materialized:
                built.append(name)
        if built:
            logger.info("background build of %s took %.4fs simulated",
                        built, total_elapsed)
        return built, total_elapsed

    def materialize_job(self, name: str):
        """Process generator: one (possibly resumed) checkpointed build of
        ``name``; a no-op when it is already ``READY``.

        Enters (or re-enters) ``BUILDING``, pays :meth:`build_job`, and
        materializes the structure if every partition checkpointed (see
        :meth:`finalize_build`).  Returns whether this pass materialized
        it.  :meth:`run_pending` runs it on a fresh time window; the
        serving gateway's background lane runs it on the shared cluster
        timeline, where it competes with queries for the disks.
        """
        if self.catalog.state(name) is StructureState.READY:
            return False
        self.catalog.begin_build(name)
        yield from self.build_job(name)
        return self.finalize_build(name)

    def build_job(self, name: str):
        """Process generator for one (possibly resumed) build pass of
        ``name``.

        Every node scans its local base partitions in parallel and pays
        per-record CPU, skipping partitions already checkpointed by an
        earlier interrupted run and recording a checkpoint after each one
        it finishes.  A node crash stops that node's share cleanly — the
        job still completes, and the checkpoint set tells the caller how
        far the build got.  Crashed nodes' partitions are scanned by their
        serving survivors (the DFS replica path).  The charge alone:
        :meth:`materialize_job` and the scrub worker's repair wrap it with
        their own catalog transitions.
        """
        assert self.cluster is not None
        definition = self.catalog.definition(name)
        base = self.catalog.dfs.get_base(definition.base_file)
        catalog = self.catalog
        cluster = self.cluster
        done = catalog.completed_partitions(name)

        def node_build(node_id: int):
            try:
                node = cluster.node(cluster.serving_node(node_id))
                for pid in base.partitions_on_node(node_id):
                    if pid in done:
                        continue
                    nbytes = base.partition_bytes(pid)
                    count = len(base.partitions[pid])
                    yield from node.disk.sequential_read(nbytes)
                    yield from node.process_tuples(count)
                    catalog.record_checkpoint(name, pid)
            except NodeCrashed:
                # This node's share dies with it; partitions it had already
                # finished stay checkpointed, the rest wait for a resume.
                return

        procs = [cluster.launch(node_build(n), name=f"build@{n}")
                 for n in range(cluster.num_nodes)]
        yield cluster.sim.all_of(procs)

    def finalize_build(self, name: str) -> bool:
        """Materialize a charged build; False while it is still incomplete.

        An incomplete build (a crash interrupted its job) stays
        ``BUILDING`` with its checkpoints, resumable by the next pass.
        The materialization is atomic: if it raises, the build rolls back
        to ``PENDING`` and the catalog is unchanged.
        """
        if not self.catalog.build_complete(name):
            definition = self.catalog.definition(name)
            total = self.catalog.dfs.get_base(
                definition.base_file).num_partitions
            logger.warning(
                "build of %r interrupted after %d/%d partitions", name,
                len(self.catalog.completed_partitions(name)), total)
            return False
        try:
            self.catalog.ensure_built(name)
        except Exception:
            self.catalog.abandon_build(name)
            raise
        if self.cluster is not None:
            # A rebuilt structure's old pages are stale RAM.
            self.cluster.invalidate_cached_file(name)
        return True


    # -- loading path -----------------------------------------------------

    def load_records(self, file_name: str,
                     records) -> tuple[int, int, float]:
        """Insert records while maintaining built indexes.

        Returns ``(records_inserted, index_writes, simulated_seconds)``.
        With a cluster, every base insert costs one random write and each
        index maintenance one more, charged to the record's ingest node
        (a local write-ahead model); nodes ingest their shares in
        parallel, which is how distributed loaders actually run.
        """
        records = list(records)
        base = self.catalog.dfs.get_base(file_name)
        loader = self.catalog.dfs.loader_info(file_name)
        total_writes = 0
        placements: list[tuple] = []
        for record in records:
            partition_key = loader.partition_key_fn(record)
            node = base.node_of(base.partition_of_key(partition_key))
            __, writes = self.catalog.insert_record(file_name, record)
            total_writes += writes
            placements.append((node, 1 + writes))
        elapsed = 0.0
        if self.cluster is not None:
            elapsed = self._charge_load_cost(placements)
            if records:
                # Loaded pages shift the heap layout and rewrite index
                # leaves: drop the base file's cached pages and those of
                # every structure maintained over it.
                self.cluster.invalidate_cached_file(file_name)
                for name in self.catalog.maintained_structures(file_name):
                    self.cluster.invalidate_cached_file(name)
        return len(records), total_writes, elapsed

    def _charge_load_cost(self, placements) -> float:
        """Each (node, write_count) streams its writes on that node."""
        assert self.cluster is not None
        cluster = self.cluster
        per_node: dict[int, int] = {}
        for node, writes in placements:
            per_node[node] = per_node.get(node, 0) + writes

        def node_ingest(node_id: int, writes: int):
            disk = cluster.node(node_id).disk
            for __ in range(writes):
                yield from disk.random_read()  # write ~ one random IO

        def load_job():
            procs = [cluster.launch(node_ingest(node, writes),
                                    name=f"ingest@{node}")
                     for node, writes in per_node.items()]
            yield cluster.sim.all_of(procs)

        __, elapsed = cluster.run_job(load_job(), name="load")
        return elapsed


@dataclass(frozen=True)
class IndexAdvice:
    """One advised structure: index ``field`` of ``base_file``."""

    base_file: str
    field: str
    kind: str  # "range" or "equality"
    demand: int  # how many times the workload wanted it

    def suggested_name(self) -> str:
        return f"idx_{self.base_file}_{self.field}"

    def suggested_scope(self) -> str:
        # Range predicates favour local (colocated, range-scannable)
        # indexes; equality probes favour global single-partition probes.
        return "local" if self.kind == "range" else "global"


class WorkloadStats:
    """Counts post-fetch filter usage per (file, field, kind)."""

    def __init__(self) -> None:
        self._counts: Counter[tuple[str, str, str]] = Counter()

    def note(self, base_file: str, field: str, kind: str,
             count: int = 1) -> None:
        self._counts[(base_file, field, kind)] += count

    def observe_job(self, job: Job) -> None:
        """Harvest filter shapes from a job definition.

        A dereferencer that fetches from file F and then filters on field X
        is exactly the access an index on (F, X) would accelerate.
        """
        for function in job.functions:
            if not isinstance(function, Dereferencer):
                continue
            filter_ = function.filter
            if isinstance(filter_, FieldRangeFilter):
                self.note(function.file_name, filter_.field, "range")
            elif isinstance(filter_, FieldEqualsFilter):
                self.note(function.file_name, filter_.field, "equality")

    def demand(self, base_file: str, field: str) -> int:
        return sum(count for (file, fld, __), count in self._counts.items()
                   if file == base_file and fld == field)

    def items(self):
        return self._counts.items()


class StructureAdvisor:
    """Proposes (and optionally registers) indexes for hot filtered fields."""

    def __init__(self, catalog: StructureCatalog,
                 stats: WorkloadStats) -> None:
        self.catalog = catalog
        self.stats = stats

    def advise(self, min_demand: int = 2) -> list[IndexAdvice]:
        """Advice for (file, field) pairs with demand >= ``min_demand`` and
        no existing structure, hottest first."""
        advice = []
        for (base_file, field, kind), count in self.stats.items():
            if count < min_demand:
                continue
            name = f"idx_{base_file}_{field}"
            if name in self.catalog:
                continue
            if base_file not in self.catalog:
                continue
            advice.append(IndexAdvice(base_file, field, kind, count))
        advice.sort(key=lambda a: (-a.demand, a.base_file, a.field))
        return advice

    def auto_apply(self, interpreter: Interpreter,
                   min_demand: int = 2) -> list[str]:
        """Register access methods for all current advice.

        The indexes stay lazy — they build on first use or on the next
        maintenance run, which is what makes the adaptation cheap to decide
        and pay-as-you-go to apply.
        """
        applied = []
        for item in self.advise(min_demand=min_demand):
            definition = AccessMethodDefinition(
                name=item.suggested_name(),
                base_file=item.base_file,
                interpreter=interpreter,
                key_field=item.field,
                scope=item.suggested_scope(),
            )
            self.catalog.register_access_method(definition)
            applied.append(definition.name)
        return applied
