"""TPC-H Q5′ — the workload of the paper's preliminary evaluation (Fig. 7).

"We used a simplified TPC-H query (TPC-H Q5'), which is a variant of the
TPC-H Q5 query, where the sorting and aggregation are removed to focus on
clarifying the performance differences for a SPJ (select-project-join)
workload.  We also varied the selectivities of the query using the
predicates."  The query::

    SELECT * FROM customer, orders, lineitem, supplier, nation, region
    WHERE c_custkey  = o_custkey  AND l_orderkey  = o_orderkey
      AND l_suppkey  = s_suppkey  AND c_nationkey = s_nationkey
      AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
      AND r_name = <REGION> AND o_orderdate BETWEEN <LO> AND <HI>

:class:`TpchWorkload` loads one lake: the DFS with local/global indexes
for ReDe, and over it a catalog-bound block store, the scan baseline's
HDFS-like *layout* of the same base files (it re-lays a table out when
ingest, compaction or an insert changes the file; see
:mod:`repro.storage.blockstore`).  It produces the query in both
dialects:

* :meth:`TpchWorkload.q5_chain` — the Reference-Dereference chain: probe
  the local ``o_orderdate`` index, fetch orders, fetch customers, check
  nation → region, return to lineitems by the carried order key, fetch
  suppliers with the residual ``s_nationkey = c_nationkey`` filter.
  :meth:`TpchWorkload.q5_job` is its all-index compilation.
* :meth:`TpchWorkload.q5_scan_plan` — the scan/grace-hash-join plan an
  Impala-like engine runs: small-to-large build order, the residual on the
  final join.  It stays hand-written rather than derived with
  :func:`repro.plan.lowering.to_scan_plan`, which builds left-deep from
  orders: the same rows, but 0.15 simulated ms slower at selectivity 0.4
  (which would move Figure 7's Impala-like cell) and, in one measurement,
  about a quarter more host time per run.

Both produce identical row sets (asserted in the integration tests) via
:func:`canonical_q5_rows_*`.
"""

from __future__ import annotations

from repro.core.catalog import AccessMethodDefinition, StructureCatalog
from repro.core.chain import ChainQuery
from repro.core.interpreters import MappingInterpreter
from repro.core.job import Job
from repro.baselines.scan_engine import HashJoinNode, ScanNode
from repro.datagen.tpch import TpchGenerator
from repro.engine.metrics import JobResult
from repro.baselines.scan_engine import ScanResult
from repro.storage.blockstore import BlockStore
from repro.storage.dfs import DistributedFileSystem

__all__ = ["TpchWorkload", "canonical_q5_rows_rede",
           "canonical_q5_rows_scan", "DEFAULT_REGION"]

_INTERP = MappingInterpreter()

DEFAULT_REGION = "ASIA"

#: the canonical projection both engines are compared on
_CANONICAL_FIELDS = ("c_custkey", "o_orderkey", "l_linenumber", "l_suppkey")


class TpchWorkload:
    """One generated TPC-H dataset: the catalog's files, and the block
    layout the scan baseline reads them through."""

    def __init__(self, scale_factor: float = 0.005, seed: int = 0,
                 num_nodes: int = 8,
                 block_size: int = 4 * 1024 * 1024) -> None:
        self.generator = TpchGenerator(scale_factor=scale_factor, seed=seed)
        self.num_nodes = num_nodes
        self.tables = self.generator.generate_all()

        self.dfs = DistributedFileSystem(num_nodes=num_nodes)
        self.catalog = StructureCatalog(self.dfs)
        self._load_rede()

        # Catalog tables lay out over the catalog's own records; partsupp
        # has no catalog file and is loaded as a plain block file.
        self.blockstore = BlockStore(num_nodes=num_nodes,
                                     block_size=block_size,
                                     catalog=self.catalog)
        for name, rows in self.tables.items():
            self.blockstore.load(name, rows)
        # Summed from the generated tables as loaded, before any mutation.
        self._total_bytes = sum(self.blockstore.file_bytes(name)
                                for name in self.tables)

    # -- ReDe-side layout (paper Section III-E) ---------------------------

    def _load_rede(self) -> None:
        """Hash-partition base files by primary key; index per the paper.

        "the files ... distributed ... by hashing with their primary keys.
        We also created local secondary indexes on the date columns (e.g.,
        o_orderdate in Order) of each file and global indexes for each
        foreign key of each file."
        """
        catalog = self.catalog
        catalog.register_file("region", self.tables["region"],
                              lambda r: r["r_regionkey"])
        catalog.register_file("nation", self.tables["nation"],
                              lambda r: r["n_nationkey"])
        catalog.register_file("supplier", self.tables["supplier"],
                              lambda r: r["s_suppkey"])
        catalog.register_file("customer", self.tables["customer"],
                              lambda r: r["c_custkey"])
        catalog.register_file("part", self.tables["part"],
                              lambda r: r["p_partkey"])
        catalog.register_file("orders", self.tables["orders"],
                              lambda r: r["o_orderkey"])
        # Lineitem partitions by l_orderkey; in-partition keying by
        # l_orderkey too, so one pointer fetches all lines of an order.
        catalog.register_file("lineitem", self.tables["lineitem"],
                              lambda r: r["l_orderkey"])

        catalog.register_access_method(AccessMethodDefinition(
            name="idx_orders_orderdate", base_file="orders",
            interpreter=_INTERP, key_field="o_orderdate", scope="local"))
        catalog.register_access_method(AccessMethodDefinition(
            name="idx_lineitem_partkey", base_file="lineitem",
            interpreter=_INTERP, key_field="l_partkey", scope="global"))
        catalog.register_access_method(AccessMethodDefinition(
            name="idx_lineitem_suppkey", base_file="lineitem",
            interpreter=_INTERP, key_field="l_suppkey", scope="global"))
        catalog.register_access_method(AccessMethodDefinition(
            name="idx_orders_custkey", base_file="orders",
            interpreter=_INTERP, key_field="o_custkey", scope="global"))
        catalog.register_access_method(AccessMethodDefinition(
            name="idx_part_retailprice", base_file="part",
            interpreter=_INTERP, key_field="p_retailprice", scope="local"))
        # Structures are built up front so Figure 7 measures query time
        # only, as the paper's setup does.
        catalog.build_all()

    # -- selectivity handling ---------------------------------------------

    def date_range(self, selectivity: float) -> tuple[str, str]:
        """Date window matching ~``selectivity`` of orders."""
        return self.generator.date_range_for_selectivity(selectivity)

    @property
    def total_bytes(self) -> int:
        """Size of the whole generated dataset, as generated.

        It includes ``partsupp``, which the block store holds and the
        catalog does not.  Fixed at load, so a mutated lake never
        re-provisions the clusters :meth:`make_cluster` sizes from it.
        """
        return self._total_bytes

    def make_cluster(self, scan_seconds: float = 0.5, cache_bytes: int = 0,
                     cache_policy: str = "lru"):
        """A fresh scale-model cluster balanced for this dataset's size.

        See :func:`repro.config.balanced_cluster_spec` for why Figure 7
        needs the scan-to-IOPS balance pinned rather than the paper's raw
        bandwidth number.  ``cache_bytes`` > 0 gives every node a buffer
        pool of that size (``cache_policy`` eviction).
        """
        from repro.cluster.cluster import Cluster
        from repro.config import balanced_cluster_spec

        return Cluster(balanced_cluster_spec(self.total_bytes,
                                             num_nodes=self.num_nodes,
                                             scan_seconds=scan_seconds,
                                             cache_bytes=cache_bytes,
                                             cache_policy=cache_policy))

    # -- the ReDe job -------------------------------------------------------

    def q5_job(self, date_low: str, date_high: str,
               region: str = DEFAULT_REGION) -> Job:
        """Q5′ as a Reference-Dereference multi-way index NLJ: the
        all-index compilation of :meth:`q5_chain`."""
        return self.q5_chain(date_low, date_high, region).build()

    def q5_chain(self, date_low: str, date_high: str,
                 region: str = DEFAULT_REGION) -> ChainQuery:
        """Q5′ as a :class:`~repro.core.chain.ChainQuery`.

        Its :meth:`~repro.core.chain.ChainQuery.logical_plan` is what the
        per-stage planner (:class:`repro.plan.planner.StagePlanner`)
        inspects to emit mixed scan/index physical plans.
        """
        return (ChainQuery("tpch_q5", interpreter=_INTERP)
                .from_index_range("idx_orders_orderdate", date_low,
                                  date_high, base="orders")
                .join("customer", key="o_custkey",
                      carry=["o_orderkey", "o_orderdate"])
                .join("nation", key="c_nationkey",
                      carry=["c_custkey", "c_nationkey"])
                .join("region", key="n_regionkey", carry=["n_name"])
                .filter_equals("r_name", region)
                # Back to lineitem via the carried order key (the
                # cross-partition hop: lineitem is partitioned by
                # l_orderkey).
                .join("lineitem", context_key="o_orderkey",
                      carry=["r_name"])
                .join("supplier", key="l_suppkey",
                      carry=["l_orderkey", "l_linenumber", "l_suppkey",
                             "l_extendedprice", "l_discount"])
                .filter_context_match("s_nationkey", "c_nationkey"))

    # -- the scan-engine plan -------------------------------------------------

    def q5_scan_plan(self, date_low: str, date_high: str,
                     region: str = DEFAULT_REGION) -> HashJoinNode:
        """Q5′ as scans + grace hash joins, small-to-large build order."""
        region_scan = ScanNode("region",
                               predicate=lambda r: r["r_name"] == region)
        j_nation = HashJoinNode(
            build=region_scan, probe=ScanNode("nation"),
            build_key=lambda r: r["r_regionkey"],
            probe_key=lambda r: r["n_regionkey"])
        j_customer = HashJoinNode(
            build=j_nation, probe=ScanNode("customer"),
            build_key=lambda r: r["n_nationkey"],
            probe_key=lambda r: r["c_nationkey"])
        orders_scan = ScanNode(
            "orders",
            predicate=lambda r: date_low <= r["o_orderdate"] <= date_high)
        j_orders = HashJoinNode(
            build=j_customer, probe=orders_scan,
            build_key=lambda r: r["c_custkey"],
            probe_key=lambda r: r["o_custkey"])
        j_lineitem = HashJoinNode(
            build=j_orders, probe=ScanNode("lineitem"),
            build_key=lambda r: r["o_orderkey"],
            probe_key=lambda r: r["l_orderkey"])
        return HashJoinNode(
            build=ScanNode("supplier"), probe=j_lineitem,
            build_key=lambda r: r["s_suppkey"],
            probe_key=lambda r: r["l_suppkey"],
            residual=lambda r: r["s_nationkey"] == r["c_nationkey"])


def q5_revenue_by_nation(result: JobResult) -> dict[str, float]:
    """The aggregation the paper's Q5′ strips from TPC-H Q5, restored.

    Real Q5 computes ``sum(l_extendedprice * (1 - l_discount))`` grouped
    by nation name; this reconstructs it from a Q5′ job result (the
    needed lineitem attributes and ``n_name`` are carried in context), so
    the full query is answerable on top of the SPJ engine output.
    """
    revenue: dict[str, float] = {}
    for row in result.rows:
        context = row.context
        nation = context.get("n_name")
        price = context.get("l_extendedprice")
        discount = context.get("l_discount")
        if nation is None or price is None or discount is None:
            continue
        revenue[nation] = (revenue.get(nation, 0.0)
                           + price * (1.0 - discount))
    return revenue


def canonical_q5_rows_rede(result: JobResult) -> set[tuple]:
    """Comparable projection of a ReDe Q5′ result."""
    rows = set()
    for row in result.rows:
        flat = row.project(_INTERP, ["s_suppkey", "s_nationkey"])
        rows.add(tuple(flat[name] for name in _CANONICAL_FIELDS))
    return rows


def canonical_q5_rows_scan(result: ScanResult) -> set[tuple]:
    """Comparable projection of a scan-engine Q5′ result."""
    return {tuple(row[name] for name in _CANONICAL_FIELDS)
            for row in result.rows}
