"""The per-stage planner: cost each chain hop, pick its access path.

This is the repository's one optimizer — the one Section III-E says ReDe
lacks.  For every logical node the planner consults structure
statistics — B-tree cardinalities for the initial probe, row/byte counts
and distinct-key counts from the catalog — and prices two options:

* **index**: pay a random read per probe (page-granular, cache-aware
  when buffer pools are provisioned);
* **scan**: pay one parallel sequential pass over the target to build a
  replicated hash table, then probe it in memory (the
  :class:`~repro.plan.scanstage.ScanLookupDereferencer` lowering).

The emitted :class:`PlannedQuery` carries the mixed plan, both degenerate
plans (all-index job, all-scan operator tree), and every estimate, so
executors and benchmarks can run any of the three.  Planning is
deterministic: identical catalogs and logical plans produce identical
physical plans and estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Optional, Sequence, Union

from repro.baselines.scan_engine import HashJoinNode, PlanNode, ScanNode
from repro.cluster.cluster import ClusterSpec
from repro.core.functions import Dereferencer
from repro.core.interpreters import (
    ContextMatchFilter,
    FieldEqualsFilter,
    FieldRangeFilter,
    Filter,
)
from repro.core.pointers import Pointer, PointerRange
from repro.errors import CatalogError, ExecutionError, JobDefinitionError
from repro.plan.logical import JoinNode, LogicalPlan, SourceNode
from repro.plan.lowering import compile_logical, to_scan_plan
from repro.plan.physical import ACCESS_INDEX, ACCESS_SCAN, PhysicalPlan
from repro.storage.cache import CACHE_HIT_TIME
from repro.storage.files import BtreeFile, PartitionedFile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.catalog import StructureCatalog
    from repro.core.job import Job
    from repro.storage.blockstore import BlockStore

__all__ = [
    "StageEstimate",
    "PlannedQuery",
    "StagePlanner",
    "initial_cardinality",
    "estimate_indexed_job_seconds",
    "estimate_scan_plan_seconds",
    "expected_cache_hit_rate",
    "working_set_bytes",
]

Target = Union[Pointer, PointerRange]

#: the mixed plan runs only when its per-stage estimate undercuts the best
#: degenerate (whole-query) estimate by at least ``1 - MARGIN``
MARGIN = 0.9


# --------------------------------------------------------------------------
# Whole-job cost primitives: the degenerate all-index and all-scan plans.
# --------------------------------------------------------------------------


def initial_cardinality(catalog: "StructureCatalog",
                        inputs: Sequence[Target]) -> int:
    """Exact cardinality of a job's initial probes.

    First-class structures make statistics trivial: the B-tree *is* the
    statistic.  Each input is counted on exactly the partitions the
    engines probe for it, once each: one replica of a replicated index,
    every partition of a local index or for a broadcast target, and the
    owning partition for a keyed probe of a global index.

    Under streaming ingest the built tree alone is freshness-blind:
    unmerged delta runs hold committed entries the tree has not absorbed
    (and tombstones that kill entries it still holds), so the count
    folds in the registry's per-partition delta matches — appends add,
    tombstoned/superseded entries subtract.  With no runs registered the
    fold is skipped entirely.
    """
    total = 0
    for target in inputs:
        file = catalog.resolve(target.file)
        if not isinstance(file, BtreeFile):
            total += 1
            continue
        runs = catalog.delta_runs(target.file)
        for pid in _probed_partitions(file, target):
            matches = (file.range_lookup(target, pid)
                       if isinstance(target, PointerRange)
                       else file.lookup_in_partition(pid, target))
            total += len(matches)
            if runs:
                total += _delta_adjustment(runs, target, pid, matches)
    return max(0, total)


def _probed_partitions(file: BtreeFile, target: Target) -> Sequence[int]:
    """The index partitions the engines probe for one initial input —
    the routing of ``engine.access.resolve_partitions``, restated here
    because the plan layer does not import the engines."""
    if file.scope == "replicated":
        return (0,)  # every replica holds everything
    if file.scope == "local" or target.partition_key is None:
        return range(file.num_partitions)
    return (file.partition_of_key(target.partition_key),)


def _delta_adjustment(runs: list, target: Target, pid: int,
                      built_matches: Sequence[Any]) -> int:
    """Net cardinality correction from one partition's unmerged runs.

    Mirrors the engine-side merge (``access._merge_deltas``): live delta
    additions matching the probe count positive, built-tree entries
    killed by upsert tombstones count negative.  Pure bookkeeping over
    in-memory runs — no charged IO.
    """
    # Probe helpers are plain data-structure accessors (layering rule 11:
    # plan, like engine, may use ingest.delta's probe helpers for
    # freshness-aware statistics); imported lazily to keep the static
    # planning path import-free of the ingest package.
    from repro.ingest.delta import (live_entries, probe_delta_runs,
                                    tombstone_set)

    killed = 0
    tombstones = tombstone_set(runs, pid)
    if tombstones:
        killed = len(built_matches) - len(live_entries(built_matches,
                                                       tombstones))
    additions, __ = probe_delta_runs(runs, pid, target)
    return len(additions) - killed


def expected_cache_hit_rate(spec: ClusterSpec,
                            working_bytes: float) -> float:
    """Steady-state hit rate of the cluster's pools over a working set."""
    total_cache = spec.node.cache_bytes * spec.num_nodes
    if total_cache <= 0 or working_bytes <= 0:
        return 0.0
    return min(1.0, total_cache / working_bytes)


def working_set_bytes(catalog: "StructureCatalog", job: "Job") -> int:
    """Bytes of every distinct structure a job dereferences."""
    return sum(catalog.resolve(name).total_bytes
               for name in dict.fromkeys(job.structures()))


def estimate_indexed_job_seconds(
        spec: ClusterSpec, catalog: "StructureCatalog", job: "Job",
        per_match_access_factor: Optional[float] = None) -> float:
    """floor (chain latency) + throughput term (accesses over IOPS).

    With buffer pools provisioned (``spec.node.cache_bytes > 0``) the
    throughput term discounts repeated probes by the expected hit rate:
    hits pay RAM service time instead of a cold random read.
    """
    cardinality = initial_cardinality(catalog, job.inputs)
    num_derefs = sum(1 for f in job.functions
                     if isinstance(f, Dereferencer))
    factor = (per_match_access_factor
              if per_match_access_factor is not None
              else float(num_derefs))
    accesses = max(1.0, cardinality * factor)
    disk = spec.node.disk
    total_iops = disk.random_iops * spec.num_nodes
    latency_floor = num_derefs * disk.random_service_time
    if spec.node.cache_bytes <= 0:
        return latency_floor + accesses / total_iops
    hit_rate = expected_cache_hit_rate(spec,
                                       working_set_bytes(catalog, job))
    misses = accesses * (1.0 - hit_rate)
    hits = accesses - misses
    return (latency_floor + misses / total_iops
            + hits * CACHE_HIT_TIME / spec.num_nodes)


def estimate_scan_plan_seconds(spec: ClusterSpec, store: "BlockStore",
                               plan: PlanNode) -> float:
    """Scan phases at array bandwidth plus per-tuple join CPU."""
    tables = plan_tables(plan)
    total_bytes = sum(store.file_bytes(t) for t in tables)
    total_rows = sum(store.num_records(t) for t in tables)
    node = spec.node
    scan_seconds = (total_bytes / spec.num_nodes
                    / node.disk.seq_bandwidth)
    num_joins = plan_joins(plan)
    # Every row flows through roughly each join's build-or-probe once.
    cpu_seconds = (total_rows * (1 + num_joins) * node.tuple_cpu_time
                   / (spec.num_nodes * node.cores))
    return scan_seconds + cpu_seconds


def plan_tables(plan: PlanNode) -> list[str]:
    if isinstance(plan, ScanNode):
        return [plan.table]
    if isinstance(plan, HashJoinNode):
        return plan_tables(plan.build) + plan_tables(plan.probe)
    raise ExecutionError(f"unknown plan node {plan!r}")


def plan_joins(plan: PlanNode) -> int:
    if isinstance(plan, ScanNode):
        return 0
    if isinstance(plan, HashJoinNode):
        return 1 + plan_joins(plan.build) + plan_joins(plan.probe)
    raise ExecutionError(f"unknown plan node {plan!r}")


# --------------------------------------------------------------------------
# Per-stage planning
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class StageEstimate:
    """Both access-path prices for one logical node."""

    label: str
    access_path: str  # the chosen one
    index_seconds: float
    scan_seconds: Optional[float]  # None = scan-backing unavailable
    rows_in: float
    rows_out: float


@dataclass
class PlannedQuery:
    """Everything the planner decided about one query."""

    logical: LogicalPlan
    mixed: PhysicalPlan
    all_index: PhysicalPlan
    scan_plan: Optional[PlanNode]
    stage_estimates: list[StageEstimate]
    #: per-stage sum for the mixed plan
    mixed_estimate: float
    #: whole-job estimates of the two degenerate plans
    index_estimate: float
    scan_estimate: Optional[float]
    chosen: str  # "mixed" | "index" | "scan"
    initial_cardinality: float

    def describe(self) -> str:
        scan_est = ("n/a" if self.scan_estimate is None
                    else f"{self.scan_estimate * 1e3:.1f}ms")
        lines = [
            f"PlannedQuery {self.logical.name!r}: chosen={self.chosen}  "
            f"(mixed {self.mixed_estimate * 1e3:.1f}ms, "
            f"index {self.index_estimate * 1e3:.1f}ms, "
            f"scan {scan_est}; initial cardinality "
            f"{self.initial_cardinality:.0f})",
            f"{'stage':<28s} {'path':<6s} {'index':>10s} {'scan':>10s} "
            f"{'rows out':>9s}",
        ]
        for est in self.stage_estimates:
            scan_col = ("-" if est.scan_seconds is None
                        else f"{est.scan_seconds * 1e3:.2f}ms")
            lines.append(
                f"{est.label:<28s} {est.access_path:<6s} "
                f"{est.index_seconds * 1e3:>8.2f}ms {scan_col:>10s} "
                f"{est.rows_out:>9.0f}")
        return "\n".join(lines)


class StagePlanner:
    """Cost every stage of a logical plan and emit the mixed plan.

    :data:`MARGIN` keeps the planner honest: the mixed plan is chosen
    only when its per-stage estimate undercuts the *best degenerate*
    estimate by at least ``1 - MARGIN`` — otherwise the planner falls
    back to the whole-query choice between the all-index and all-scan
    plans, so its envelope can never regress below ``min(ReDe, scan)``.
    """

    def __init__(self, catalog: "StructureCatalog", store: "BlockStore",
                 cluster_spec: ClusterSpec) -> None:
        if store.catalog is not catalog:
            raise CatalogError(
                "the planner's block store must be bound to its catalog "
                "(BlockStore(..., catalog=catalog)); a store loaded on its "
                "own answers from a copy ingest never updates")
        self.catalog = catalog
        self.store = store
        self.spec = cluster_spec
        self._distinct_cache: dict[tuple, int] = {}
        self._selectivity_cache: dict[tuple, float] = {}
        self._stats_version: Optional[int] = None

    def note_lake_state(self, version: int) -> None:
        """Invalidate cached statistics when the lake changed.

        ``version`` is the catalog version, which every data-plane
        mutation (registration, builds, ingest commits, compaction,
        demotion) bumps.  While it is unchanged the expensive full-scan
        statistics — distinct counts, filter selectivities — are reused
        across plans; a new version drops them all.
        """
        if version != self._stats_version:
            self._distinct_cache.clear()
            self._selectivity_cache.clear()
            self._stats_version = version

    # -- statistics ------------------------------------------------------

    def _file(self, name: str):
        return self.catalog.resolve(name)

    def _rows(self, name: str) -> int:
        return len(self._file(name))

    def _bytes(self, name: str) -> int:
        return self._file(name).total_bytes

    def _distinct_loader_keys(self, table: str) -> int:
        # Read off the heaps' key directories in O(partitions).  Every heap
        # append (the DFS load, catalog inserts, major compaction) keys its
        # record by the loader's key_fn, and records with equal loader keys
        # share a partition (every loader keys by its partition key or by a
        # unique id), so the per-partition counts sum to exactly
        # len({key_fn(r) for r in file.scan()}).
        return self.catalog.dfs.get_base(table).distinct_keys

    def _distinct_index_keys(self, index_name: str) -> int:
        cache_key = (index_name, "__index__")
        if cache_key not in self._distinct_cache:
            definition = self.catalog.definition(index_name)
            base = self._file(definition.base_file)
            keys = set()
            for record in base.scan():
                keys.update(definition.extract_keys(record))
            self._distinct_cache[cache_key] = len(keys)
        return self._distinct_cache[cache_key]

    def _distinct_field(self, table: str, flt: Filter,
                        fieldname: str) -> int:
        cache_key = (table, "__field__", fieldname)
        if cache_key not in self._distinct_cache:
            file = self._file(table)
            interpreter = getattr(flt, "interpreter", None)
            values = set()
            for record in file.scan():
                if interpreter is None:
                    break
                values.add(interpreter.field(record, fieldname))
            self._distinct_cache[cache_key] = max(1, len(values))
        return self._distinct_cache[cache_key]

    def _filter_selectivity(self, table: str,
                            filters: Sequence[Filter]) -> float:
        """Combined selectivity of a node's filters over its target.

        Field equality/range filters are answered exactly by one cached
        pass over the target; context matches fall back to the classic
        ``1/distinct`` heuristic; opaque predicates are assumed to pass.
        """
        selectivity = 1.0
        for flt in filters:
            if isinstance(flt, (FieldEqualsFilter, FieldRangeFilter)):
                selectivity *= self._exact_filter_fraction(table, flt)
            elif isinstance(flt, ContextMatchFilter):
                selectivity *= 1.0 / self._distinct_field(table, flt,
                                                          flt.field)
        return selectivity

    def _exact_filter_fraction(self, table: str, flt: Filter) -> float:
        if isinstance(flt, FieldEqualsFilter):
            cache_key = (table, "eq", flt.field, repr(flt.value))
        else:
            assert isinstance(flt, FieldRangeFilter)
            cache_key = (table, "range", flt.field, repr(flt.low),
                         repr(flt.high))
        if cache_key not in self._selectivity_cache:
            file = self._file(table)
            total = matched = 0
            for record in file.scan():
                total += 1
                if flt.matches(record, {}):
                    matched += 1
            self._selectivity_cache[cache_key] = (
                matched / total if total else 1.0)
        return self._selectivity_cache[cache_key]

    def _join_fanout(self, join: JoinNode) -> float:
        """Expected matching target records per probe key."""
        rows = self._rows(join.target)
        if join.via_index is not None:
            distinct = self._distinct_index_keys(join.via_index)
        else:
            distinct = self._distinct_loader_keys(join.target)
        return rows / max(1, distinct)

    # -- per-stage estimates ---------------------------------------------

    @property
    def _total_iops(self) -> float:
        return self.spec.node.disk.random_iops * self.spec.num_nodes

    def _cache_discount(self, structure_bytes: float,
                        ios: float) -> tuple[float, float]:
        """(effective IO seconds, hit CPU seconds) for ``ios`` reads."""
        hit_rate = expected_cache_hit_rate(self.spec, structure_bytes)
        misses = ios * (1.0 - hit_rate)
        hits = ios - misses
        return (misses / self._total_iops,
                hits * CACHE_HIT_TIME / self.spec.num_nodes)

    def _tuple_seconds(self, tuples: float) -> float:
        node = self.spec.node
        return tuples * node.tuple_cpu_time / (self.spec.num_nodes
                                               * node.cores)

    def _delta_probe_seconds(self, probes: float,
                             table: Optional[str]) -> float:
        """Extra cost of delta-aware probes of ``table``: one random read
        per unmerged run whose in-memory key filter holds the probe's key
        (runs are small and uncached — no discount).  A run of ``n``
        entries over a table of ``d`` distinct keys holds a uniformly
        drawn key with probability ``min(1, n / d)``.  Exactly 0.0 on a
        static lake."""
        if table is None:
            return 0.0
        runs = self.catalog.delta_runs(table)
        if not runs:
            return 0.0
        if isinstance(self._file(table), BtreeFile):
            distinct = self._distinct_index_keys(table)
        else:
            distinct = self._distinct_loader_keys(table)
        held = sum(min(1.0, len(run) / max(1, distinct)) for run in runs)
        return probes * held / self._total_iops

    def _scan_stage_seconds(self, table: str, probes: float,
                            fanout: float) -> float:
        """Build a replicated hash table by scanning, then probe it.

        On a fresh table the build also folds in the unmerged delta
        runs (the scan-backed stage merges them newest-wins at build
        time), so the price carries the extra sequential bytes and
        build CPU — exactly 0.0 extra on a static lake."""
        nbytes = self._bytes(table)
        rows = self._rows(table)
        spec = self.spec
        node = spec.node
        per_node_bytes = nbytes / spec.num_nodes
        scan = per_node_bytes / node.disk.seq_bandwidth
        # One core per node builds its local share of the table.
        build_cpu = (rows / spec.num_nodes) * node.tuple_cpu_time
        network = (per_node_bytes * (spec.num_nodes - 1) / spec.num_nodes
                   / spec.network.bandwidth)
        probe_cpu = self._tuple_seconds(probes * max(1.0, fanout))
        delta_seconds = 0.0
        for run in self.catalog.delta_runs(table):
            delta_bytes = sum(run.partition_bytes(pid)
                              for pid in run.partitions())
            delta_rows = sum(run.partition_len(pid)
                             for pid in run.partitions())
            delta_seconds += (delta_bytes / spec.num_nodes
                              / node.disk.seq_bandwidth
                              + (delta_rows / spec.num_nodes)
                              * node.tuple_cpu_time)
        return scan + build_cpu + network + probe_cpu + delta_seconds

    def _heap_pages_per_probe(self, table: str, fanout: float) -> float:
        file = self._file(table)
        page_size = self.spec.node.disk.page_size
        if not isinstance(file, PartitionedFile) or len(file) == 0:
            return 1.0
        return max(1.0, math.ceil(fanout * file.avg_record_bytes
                                  / page_size))

    def _index_join_seconds(self, join: JoinNode, probes: float,
                            fanout: float) -> float:
        disk = self.spec.node.disk
        probe_ios = 0.0
        hops = 1
        structure_bytes = float(self._bytes(join.target))
        if join.via_index is not None:
            index = self._file(join.via_index)
            if isinstance(index, BtreeFile):
                probe_ios = index.probe_io_count(max(1, round(fanout)))
            structure_bytes += self._bytes(join.via_index)
            hops = 2
        heap_pages = self._heap_pages_per_probe(join.target, fanout)
        if join.broadcast:
            # Every partition is probed; each pays at least one page.
            heap_pages = max(heap_pages,
                             float(self._file(join.target).num_partitions))
        ios = probes * (probe_ios + heap_pages)
        io_seconds, hit_seconds = self._cache_discount(structure_bytes, ios)
        cpu = self._tuple_seconds(probes * max(1.0, fanout))
        delta = (self._delta_probe_seconds(probes, join.via_index)
                 + self._delta_probe_seconds(probes, join.target))
        return (hops * disk.random_service_time + io_seconds + hit_seconds
                + cpu + delta)

    def _source_estimates(self, source: SourceNode,
                          cardinality: float) -> StageEstimate:
        """Price the source: the probe is always indexed; the base fetch
        (when present) can be index- or scan-backed."""
        disk = self.spec.node.disk
        probe_ios = float(max(1, int(math.ceil(cardinality))))
        index_file = self._file(source.structure)
        if isinstance(index_file, BtreeFile):
            probe_ios = float(index_file.probe_io_count(
                max(1, int(math.ceil(cardinality)))))
        probe_io_seconds, probe_hit_seconds = self._cache_discount(
            float(self._bytes(source.structure)), probe_ios)
        probe_seconds = (disk.random_service_time + probe_io_seconds
                         + probe_hit_seconds
                         + self._tuple_seconds(cardinality)
                         + self._delta_probe_seconds(
                             cardinality, source.structure))
        scan_seconds: Optional[float] = None
        if source.base is None:
            rows_out = cardinality * self._selectivity_of(source)
            return StageEstimate(
                label=f"source:{source.structure}",
                access_path=ACCESS_INDEX, index_seconds=probe_seconds,
                scan_seconds=None, rows_in=cardinality, rows_out=rows_out)
        fetch_pages = cardinality * self._heap_pages_per_probe(
            source.base, 1.0)
        fetch_io, fetch_hit = self._cache_discount(
            float(self._bytes(source.base)), fetch_pages)
        index_seconds = (probe_seconds + disk.random_service_time
                         + fetch_io + fetch_hit
                         + self._tuple_seconds(cardinality)
                         + self._delta_probe_seconds(
                             cardinality, source.base))
        if self._scan_backable_base(source):
            scan_seconds = probe_seconds + self._scan_stage_seconds(
                source.base, probes=cardinality, fanout=1.0)
        rows_out = cardinality * self._selectivity_of(source)
        chosen = (ACCESS_SCAN
                  if scan_seconds is not None and scan_seconds < index_seconds
                  else ACCESS_INDEX)
        return StageEstimate(
            label=f"source:{source.structure}->{source.base}",
            access_path=chosen, index_seconds=index_seconds,
            scan_seconds=scan_seconds, rows_in=cardinality,
            rows_out=rows_out)

    def _selectivity_of(self, node: Union[SourceNode, JoinNode]) -> float:
        return self._filter_selectivity(node.fetches, node.filters)

    def _join_estimate(self, join: JoinNode,
                       rows_in: float) -> StageEstimate:
        fanout = self._join_fanout(join)
        index_seconds = self._index_join_seconds(join, rows_in, fanout)
        scan_seconds: Optional[float] = None
        if self._scan_backable_join(join):
            scan_seconds = self._scan_stage_seconds(join.target, rows_in,
                                                    fanout)
        chosen = (ACCESS_SCAN
                  if scan_seconds is not None and scan_seconds < index_seconds
                  else ACCESS_INDEX)
        if (chosen == ACCESS_INDEX and scan_seconds is not None
                and join.via_index is not None
                and not self.catalog.healthy(join.via_index)):
            # A degraded/quarantined index must not serve probes, whatever
            # its price: fall back to the scan-backed stage.
            chosen = ACCESS_SCAN
        rows_out = rows_in * fanout * self._selectivity_of(join)
        label = (f"join:{join.target}" if join.via_index is None
                 else f"join:{join.target} via {join.via_index}")
        return StageEstimate(
            label=label, access_path=chosen, index_seconds=index_seconds,
            scan_seconds=scan_seconds, rows_in=rows_in, rows_out=rows_out)

    # -- scan-backability -------------------------------------------------

    def _scan_backable_base(self, source: SourceNode) -> bool:
        # Fresh tables are fair game: the scan-backed stage's hash table
        # merges unmerged delta runs at build time (newest-wins), so the
        # planner prices scans against the delta-inclusive build cost
        # instead of gating them off.
        if source.base is None:
            return False
        return self._has_loader(source.base)

    def _scan_backable_join(self, join: JoinNode) -> bool:
        if join.broadcast:
            return False
        if not isinstance(self._file(join.target), PartitionedFile):
            return False
        if join.via_index is not None:
            try:
                self.catalog.definition(join.via_index)
            except Exception:
                return False
            return True
        return self._has_loader(join.target)

    def _has_loader(self, table: str) -> bool:
        try:
            self.catalog.dfs.loader_info(table)
        except Exception:
            return False
        return True

    # -- the plan ---------------------------------------------------------

    def plan(self, logical: LogicalPlan,
             per_match_access_factor: Optional[float] = None
             ) -> PlannedQuery:
        """Cost every stage, build the mixed plan, pick what to run."""
        if not logical.nodes:
            raise JobDefinitionError("cannot plan an empty chain")
        all_index = compile_logical(logical, self.catalog)
        index_job = all_index.to_job(self.catalog)
        cardinality = initial_cardinality(self.catalog, index_job.inputs)
        index_estimate = estimate_indexed_job_seconds(
            self.spec, self.catalog, index_job, per_match_access_factor)
        scan_plan: Optional[PlanNode] = None
        scan_estimate: Optional[float] = None
        try:
            scan_plan = to_scan_plan(logical, self.catalog)
        except JobDefinitionError:
            scan_plan = None
        if scan_plan is not None:
            # The catalog-bound store lays each table out from its live
            # view, so pure scan plans read (and are priced on) live rows
            # while delta runs exist too.
            scan_estimate = estimate_scan_plan_seconds(self.spec,
                                                       self.store,
                                                       scan_plan)

        estimates: list[StageEstimate] = []
        source_estimate = self._source_estimates(logical.source,
                                                 float(cardinality))
        estimates.append(source_estimate)
        rows = source_estimate.rows_out
        for join in logical.joins:
            estimate = self._join_estimate(join, rows)
            estimates.append(estimate)
            rows = estimate.rows_out
        for node, estimate in zip(logical.nodes, estimates):
            node.estimated_rows = estimate.rows_out
        mixed_paths = [e.access_path for e in estimates]
        mixed = compile_logical(logical, self.catalog, mixed_paths)
        mixed.stages = [
            replace(stage, estimated_rows=estimate.rows_out,
                    estimated_seconds=(estimate.scan_seconds
                                       if estimate.access_path == ACCESS_SCAN
                                       else estimate.index_seconds))
            for stage, estimate in zip(mixed.stages, estimates)]
        mixed_estimate = sum(
            (e.scan_seconds if e.access_path == ACCESS_SCAN
             else e.index_seconds)
            for e in estimates)

        best_degenerate = min(index_estimate,
                              scan_estimate if scan_estimate is not None
                              else math.inf)
        degenerate_choice = ("index"
                             if scan_estimate is None
                             or index_estimate <= scan_estimate
                             else "scan")
        if (not mixed.is_pure_index
                and mixed_estimate < MARGIN * best_degenerate):
            chosen = "mixed"
        else:
            chosen = degenerate_choice

        # Health gating: a non-READY structure must not serve probes.
        # Unbuilt (PENDING/BUILDING) structures are healthy — laziness is
        # not sickness — so fault-free planning is unchanged.
        source_sick = not self.catalog.healthy(logical.source.structure)
        sick_joins = [join.via_index for join in logical.joins
                      if join.via_index is not None
                      and not self.catalog.healthy(join.via_index)]
        sick_index_stage = any(
            est.access_path == ACCESS_INDEX and join.via_index is not None
            and not self.catalog.healthy(join.via_index)
            for join, est in zip(logical.joins, estimates[1:]))
        if source_sick or sick_index_stage:
            # Even the mixed plan would touch the sick structure; only the
            # pure scan plan avoids it entirely.  Without one, the choice
            # stands and the engines' quarantine fallback covers the run.
            if scan_plan is not None:
                chosen = "scan"
        elif sick_joins and chosen == "index":
            # Every sick stage was forced to scan in the estimates, so the
            # mixed plan is the cheapest shape that avoids them all.
            chosen = "mixed"
        return PlannedQuery(
            logical=logical, mixed=mixed, all_index=all_index,
            scan_plan=scan_plan, stage_estimates=estimates,
            mixed_estimate=mixed_estimate, index_estimate=index_estimate,
            scan_estimate=scan_estimate, chosen=chosen,
            initial_cardinality=float(cardinality))
