"""An Impala-like scan engine: the data-lake baseline of Figure 7.

"Impala is a query engine focusing on analytical workloads and not
supporting indexes" — so every table access is a full scan of the HDFS-like
block store, joins are grace hash joins, and parallelism is *static*: the
cores of each node ("dozens of statically defined parallelism (usually
matching the number of CPU cores) in each computing node").

Plans are small operator trees (:class:`ScanNode` / :class:`HashJoinNode`).
Execution is phase-serial (scan or join at a time), each phase parallel
across nodes — a faithful-enough skeleton of a vectorized scan engine whose
runtime is dominated by scan bandwidth plus join CPU/shuffle, flat-ish in
predicate selectivity.  The data plane is real: answers are checked against
the reference executor in the integration tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Union, cast

from repro.baselines.hashjoin import HashJoinStats, join_sized_rows
from repro.cluster.cluster import Cluster
from repro.core.interpreters import Interpreter, MappingInterpreter
from repro.core.records import estimate_size
from repro.errors import ExecutionError
from repro.storage.blockstore import BlockStore

__all__ = ["ScanNode", "HashJoinNode", "ScanEngine", "ScanResult"]

Row = dict[str, Any]
Predicate = Callable[[Row], bool]


@dataclass
class ScanNode:
    """Scan a block-store table, filter, and emit row dicts.

    On a catalog-bound store the table is a layout of the catalog's base
    file, so the scan reads its live records: delta upserts and
    appends, compactions and inserts included.
    """

    table: str
    predicate: Optional[Predicate] = None
    interpreter: Interpreter = field(default_factory=MappingInterpreter)


@dataclass
class HashJoinNode:
    """Grace hash join of two sub-plans on an equality key."""

    build: "PlanNode"
    probe: "PlanNode"
    build_key: Callable[[Row], Any]
    probe_key: Callable[[Row], Any]
    residual: Optional[Predicate] = None


PlanNode = Union[ScanNode, HashJoinNode]


@dataclass
class ScanEngineMetrics:
    """Cost accounting for one baseline query."""

    bytes_scanned: int = 0
    rows_scanned: int = 0
    bytes_shuffled: int = 0
    tuples_processed: int = 0
    joins: list[HashJoinStats] = field(default_factory=list)
    elapsed_seconds: float = 0.0


@dataclass
class ScanResult:
    rows: list[Row]
    metrics: ScanEngineMetrics

    def __len__(self) -> int:
        return len(self.rows)


class ScanEngine:
    """Executes scan/hash-join plans over a block store on the cluster."""

    def __init__(self, cluster: Cluster, store: BlockStore,
                 memory_per_node: int = 64 * 1024 ** 3) -> None:
        self.cluster = cluster
        self.store = store
        self.memory_per_node = memory_per_node

    def execute(self, plan: PlanNode,
                max_time: Optional[float] = None) -> ScanResult:
        metrics = ScanEngineMetrics()
        holder: dict[str, list[Row]] = {}

        def query_process():
            rows, __ = yield from self._execute_node(plan, metrics)
            holder["rows"] = rows

        __, elapsed = self.cluster.run_job(query_process(),
                                           name="scan-engine",
                                           max_time=max_time)
        metrics.elapsed_seconds = elapsed
        rows = holder["rows"]
        if isinstance(plan, ScanNode):
            # Scan rows are the interpreter's views and may alias stored
            # payloads; join outputs are fresh dicts.  The caller owns
            # what it gets back, so a bare scan copies its output once.
            rows = [dict(row) for row in rows]
        return ScanResult(rows, metrics)

    # -- operators ---------------------------------------------------------

    def _execute_node(self, node: PlanNode, metrics: ScanEngineMetrics):
        """Run ``node``; returns its rows and each row's ``estimate_size``."""
        if isinstance(node, ScanNode):
            return (yield from self._scan(node, metrics))
        if isinstance(node, HashJoinNode):
            return (yield from self._join(node, metrics))
        raise ExecutionError(f"unknown plan node {node!r}")

    def _scan(self, node: ScanNode, metrics: ScanEngineMetrics):
        """Every node scans its local blocks in parallel; filters on cores.

        Block at a time: one ``interpret_batch`` per block.  Rows are the
        interpreter's views, not copies, so they may alias stored
        payloads and are read-only inside the engine (SMPE's filters and
        referencers see the same objects).
        """
        cluster = self.cluster
        per_node_rows: list[list[Row]] = [[] for __ in range(cluster.num_nodes)]
        per_node_sizes: list[list[int]] = [[] for __ in range(cluster.num_nodes)]
        interpret_batch = node.interpreter.interpret_batch
        predicate = node.predicate
        # One read of the table (and of a bound store's stamp) per scan.
        blocks = self.store.blocks(node.table)

        def scan_on(node_id: int):
            sim_node = cluster.node(node_id)
            rows = per_node_rows[node_id]
            sizes = per_node_sizes[node_id]
            for block in blocks:
                if block.node_id != node_id:
                    continue
                records = block.records
                metrics.bytes_scanned += block.nbytes
                metrics.rows_scanned += len(records)
                yield from sim_node.disk.sequential_read(block.nbytes)
                yield from self._charge_tuples(node_id, len(records))
                # Views are read-only mappings, handled as rows.
                views = cast("list[Row]", interpret_batch(records))
                # The record's own payload is sized (and cached) at load;
                # any other view is sized here, once.
                if predicate is None:
                    rows.extend(views)
                    sizes.extend([
                        record.size_bytes if view is record.data
                        else estimate_size(view)
                        for record, view in zip(records, views)])
                    continue
                for record, view in zip(records, views):
                    if predicate(view):
                        rows.append(view)
                        sizes.append(record.size_bytes if view is record.data
                                     else estimate_size(view))

        procs = [cluster.launch(scan_on(n), name=f"scan@{n}")
                 for n in range(cluster.num_nodes)]
        yield cluster.sim.all_of(procs)
        rows: list[Row] = []
        sizes: list[int] = []
        for node_rows, node_sizes in zip(per_node_rows, per_node_sizes):
            rows.extend(node_rows)
            sizes.extend(node_sizes)
        return rows, sizes

    def _join(self, node: HashJoinNode, metrics: ScanEngineMetrics):
        build_rows, build_sizes = yield from self._execute_node(node.build,
                                                                metrics)
        probe_rows, probe_sizes = yield from self._execute_node(node.probe,
                                                                metrics)

        # Row sizes travel with the rows from the scan up (each row is sized
        # once per job), and the data plane runs before the shuffle (it
        # touches no simulated state) so its per-input byte totals price
        # the shuffle.  A raising key/residual callable therefore aborts the
        # job before any shuffle time or ``bytes_shuffled`` is charged.
        output, output_sizes, stats = join_sized_rows(
            build_rows, build_sizes, probe_rows, probe_sizes,
            node.build_key, node.probe_key, node.residual)

        # Grace partition phase: both inputs shuffle across the cluster.
        yield from self._charge_shuffle(build_rows, stats.build_bytes,
                                        metrics)
        yield from self._charge_shuffle(probe_rows, stats.probe_bytes,
                                        metrics)
        metrics.joins.append(stats)

        # Build + probe + emit CPU, spread across every node's cores.
        total_tuples = (stats.build_rows + stats.probe_rows
                        + stats.output_rows)
        yield from self._charge_tuples_all_nodes(total_tuples)
        return output, output_sizes

    # -- cost helpers --------------------------------------------------------

    def _charge_tuples(self, node_id: int, count: int):
        """CPU for ``count`` tuples with static core-level parallelism."""
        metrics_node = self.cluster.node(node_id)
        cores = metrics_node.spec.cores
        yield from metrics_node.compute(
            count * metrics_node.spec.tuple_cpu_time / cores)

    def _charge_tuples_all_nodes(self, count: int):
        cluster = self.cluster
        share = count // cluster.num_nodes + 1

        def work(node_id: int):
            yield from self._charge_tuples(node_id, share)

        procs = [cluster.launch(work(n), name=f"join@{n}")
                 for n in range(cluster.num_nodes)]
        yield cluster.sim.all_of(procs)

    def _charge_shuffle(self, rows: list[Row], total_bytes: int,
                        metrics: ScanEngineMetrics):
        """Hash-repartition cost of ``rows`` (``total_bytes`` in all): each
        node ships (N-1)/N of its share."""
        cluster = self.cluster
        num_nodes = cluster.num_nodes
        if num_nodes == 1 or not rows:
            return
        out_per_node = int(total_bytes / num_nodes
                           * (num_nodes - 1) / num_nodes)
        metrics.bytes_shuffled += out_per_node * num_nodes

        def send_from(node_id: int):
            dst = (node_id + 1) % num_nodes  # representative peer
            yield from cluster.network.transfer(node_id, dst, out_per_node)

        procs = [cluster.launch(send_from(n), name=f"shuffle@{n}")
                 for n in range(num_nodes)]
        yield cluster.sim.all_of(procs)
