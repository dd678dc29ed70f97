"""One physical lake: the scan side reads the catalog's own files.

The scan baseline's block store is a layout over the catalog's base
files.  Ingest, compaction and ``insert_record`` change only the catalog;
the store must notice and re-lay the table out from the live view, so
``force="scan"``, ``"index"``, ``"mixed"`` and the un-forced plan all
return what ``reference`` returns on a freshly loaded equivalent lake —
with unmerged delta runs, after minor and major compaction, and after a
direct insert.  The scan estimate must price the live bytes.
"""

import pytest

from repro.cluster import ClusterSpec
from repro.core import (AccessMethodDefinition, ChainQuery,
                        MappingInterpreter, Record, StructureCatalog)
from repro.engine import PlanningExecutor, ReDeExecutor
from repro.errors import CatalogError, StorageError
from repro.ingest import Compactor, IngestCoordinator, MicroBatch
from repro.plan import StagePlanner, compile_logical
from repro.plan.planner import estimate_scan_plan_seconds
from repro.queries import (TpchWorkload, canonical_q5_rows_rede,
                           canonical_q5_rows_scan)
from repro.storage import BlockStore, DistributedFileSystem

INTERP = MappingInterpreter()
REGION = "ASIA"
FORCES = ("index", "scan", "mixed", None)
OUT_OF_RANGE = "1900-01-01"

#: (table, partition key) exactly as ``TpchWorkload`` registers them
TPCH_KEYS = (("region", "r_regionkey"), ("nation", "n_nationkey"),
             ("supplier", "s_suppkey"), ("customer", "c_custkey"),
             ("part", "p_partkey"), ("orders", "o_orderkey"),
             ("lineitem", "l_orderkey"))


def key_fn(field):
    return lambda record: record[field]


# -- reference answers on a freshly loaded lake ----------------------------


def fresh_tpch_lake(tables, num_nodes):
    """The lake ``TpchWorkload`` would load from ``tables``, with the
    one index Q5' probes, and its catalog-bound store."""
    catalog = StructureCatalog(DistributedFileSystem(num_nodes=num_nodes))
    store = BlockStore(num_nodes=num_nodes, block_size=64 * 1024,
                       catalog=catalog)
    for name, field in TPCH_KEYS:
        catalog.register_file(name, tables[name], key_fn(field))
        store.load(name, tables[name])
    catalog.register_access_method(AccessMethodDefinition(
        name="idx_orders_orderdate", base_file="orders",
        interpreter=INTERP, key_field="o_orderdate", scope="local"))
    catalog.build_all()
    return catalog, store


def reference_rows(catalog, logical):
    job = compile_logical(logical, catalog).to_job(catalog)
    return ReDeExecutor(None, catalog, mode="reference").execute(job)


def canonical(result):
    if getattr(result, "executed", None) == "scan":
        return canonical_q5_rows_scan(result)
    return canonical_q5_rows_rede(result)


def upsert(tables, name, field, records):
    """Apply newest-wins upserts to the expected table contents."""
    keys = {record[field] for record in records}
    tables[name] = ([r for r in tables[name] if r[field] not in keys]
                    + list(records))


# -- the TPC-H lake --------------------------------------------------------


@pytest.fixture
def tpch():
    workload = TpchWorkload(scale_factor=0.002, seed=0, num_nodes=4,
                            block_size=64 * 1024)
    low, high = workload.date_range(0.3)
    logical = workload.q5_chain(low, high, REGION).logical_plan()
    return workload, low, high, logical


def test_scan_after_upsert_and_major_compaction_is_not_stale(tpch):
    """Upsert every order in range out of it, then fold: every plan
    returns no rows (the scan side returned the pre-upsert rows)."""
    workload, low, high, logical = tpch
    orders = workload.catalog.dfs.get_base("orders")
    coordinator = IngestCoordinator(workload.catalog)
    coordinator.flush(coordinator.stage(MicroBatch(
        "orders", upserts=[Record({**r.data, "o_orderdate": OUT_OF_RANGE})
                           for r in orders.scan()
                           if low <= r["o_orderdate"] <= high],
        event_time=1.0)))
    Compactor(workload.catalog).compact("orders", "major")
    assert len(reference_rows(workload.catalog, logical).rows) == 0
    executor = PlanningExecutor(workload.catalog, workload.blockstore,
                                workload.make_cluster().spec)
    for force in FORCES:
        assert len(executor.execute(logical, force=force).rows) == 0, force


def test_tpch_plans_match_a_fresh_lake_at_every_mutation_point(tpch):
    workload, low, high, logical = tpch
    catalog = workload.catalog
    tables = {name: list(rows) for name, rows in workload.tables.items()}
    spec = workload.make_cluster().spec
    executor = PlanningExecutor(catalog, workload.blockstore, spec)
    coordinator = IngestCoordinator(catalog)
    compactor = Compactor(catalog)
    in_range = sorted((r for r in tables["orders"]
                       if low <= r["o_orderdate"] <= high),
                      key=lambda r: r["o_orderkey"])
    out_range = sorted((r for r in tables["orders"]
                        if not low <= r["o_orderdate"] <= high),
                       key=lambda r: r["o_orderkey"])

    def flush(name, field, event_time, appends=(), upserts=()):
        coordinator.flush(coordinator.stage(MicroBatch(
            name, appends=list(appends), upserts=list(upserts),
            event_time=event_time)))
        tables[name] = tables[name] + list(appends)
        upsert(tables, name, field, upserts)

    def check(point):
        fresh, fresh_store = fresh_tpch_lake(tables, workload.num_nodes)
        expected = canonical_q5_rows_rede(reference_rows(fresh, logical))
        assert canonical_q5_rows_rede(
            reference_rows(catalog, logical)) == expected, point
        for force in FORCES:
            result = executor.execute(logical, force=force)
            assert canonical(result) == expected, (point, force)
        planned = executor.plan(logical)
        assert planned.scan_estimate == estimate_scan_plan_seconds(
            spec, fresh_store, planned.scan_plan), point
        return planned.scan_estimate

    # 1. unmerged runs on orders and lineitem: orders move out of and
    #    into the window; one order gets extra lines, another's lines
    #    are replaced by a single one.
    flush("orders", "o_orderkey", 1.0,
          upserts=[Record({**r.data, "o_orderdate": OUT_OF_RANGE})
                   for r in in_range[::3]]
          + [Record({**r.data, "o_orderdate": low}) for r in out_range[::4]])
    lines = [r for r in tables["lineitem"]
             if r["l_orderkey"] == in_range[1]["o_orderkey"]]
    replaced = [r for r in tables["lineitem"]
                if r["l_orderkey"] == in_range[2]["o_orderkey"]][:1]
    flush("lineitem", "l_orderkey", 2.0,
          appends=[Record({**r.data, "l_linenumber": r["l_linenumber"] + 100})
                   for r in lines],
          upserts=[Record({**r.data, "l_suppkey": r["l_suppkey"]})
                   for r in replaced])
    assert catalog.delta_depth("orders") == 1
    check("delta runs")

    # 2. a second orders run, folded by minor compaction.
    flush("orders", "o_orderkey", 3.0,
          upserts=[Record({**r.data, "o_orderdate": OUT_OF_RANGE})
                   for r in in_range[1::3]])
    compactor.compact("orders", "minor")
    assert catalog.delta_depth("orders") == 1
    check("minor compaction")

    # 3. major compaction empties every run.
    compactor.compact("orders", "major")
    compactor.compact("lineitem", "major")
    assert catalog.delta_depth("orders") == catalog.delta_depth(
        "lineitem") == 0
    before = check("major compaction")

    # 4. direct inserts: a new line for an order still in the window.
    survivor = next(r for r in tables["orders"]
                    if low <= r["o_orderdate"] <= high)
    line = next(r for r in tables["lineitem"]
                if r["l_orderkey"] == survivor["o_orderkey"])
    extra = Record({**line.data, "l_linenumber": 999})
    catalog.insert_record("lineitem", extra)
    tables["lineitem"] = tables["lineitem"] + [extra]
    after = check("insert_record")
    assert after > before  # the scan estimate prices the live bytes


# -- the 200-row lake ------------------------------------------------------


def small_lake():
    catalog = StructureCatalog(DistributedFileSystem(num_nodes=2))
    rows = [Record({"pk": i, "grp": i % 5}) for i in range(200)]
    catalog.register_file("facts", rows, key_fn("pk"))
    catalog.register_access_method(AccessMethodDefinition(
        "idx_grp", "facts", interpreter=INTERP, key_field="grp",
        scope="global"))
    catalog.build_all()
    store = BlockStore(num_nodes=2, block_size=64 * 1024, catalog=catalog)
    store.load("facts", rows)
    return catalog, store, rows


def small_logical():
    return (ChainQuery("fresh", interpreter=INTERP)
            .from_index_lookup("idx_grp", [2], base="facts")
            .logical_plan())


def pks(result):
    if getattr(result, "executed", None) == "scan":
        return sorted(row["pk"] for row in result.rows)
    return sorted(row.record["pk"] for row in result.rows)


def test_unforced_scan_sees_an_inserted_record():
    """The planner picks the pure scan on this lake; after one insert it
    must return 41 rows, as index and mixed do (it returned 40)."""
    catalog, store, __ = small_lake()
    catalog.insert_record("facts", Record({"pk": 500, "grp": 2}))
    executor = PlanningExecutor(catalog, store, ClusterSpec(num_nodes=2))
    unforced = executor.execute(small_logical())
    assert unforced.executed == "scan"
    assert len(unforced.rows) == 41
    for force in ("index", "scan", "mixed"):
        assert len(executor.execute(small_logical(), force=force).rows) \
            == 41, force


def test_small_lake_plans_match_a_fresh_lake_at_every_mutation_point():
    catalog, store, rows = small_lake()
    expected_rows = list(rows)
    spec = ClusterSpec(num_nodes=2)
    executor = PlanningExecutor(catalog, store, spec)
    coordinator = IngestCoordinator(catalog)
    compactor = Compactor(catalog)
    estimates = [executor.plan(small_logical()).scan_estimate]

    def flush(event_time, appends=(), upserts=()):
        coordinator.flush(coordinator.stage(MicroBatch(
            "facts", appends=list(appends), upserts=list(upserts),
            event_time=event_time)))
        expected_rows.extend(appends)
        keys = {r["pk"] for r in upserts}
        expected_rows[:] = ([r for r in expected_rows if r["pk"] not in keys]
                            + list(upserts))

    def check(point):
        fresh = StructureCatalog(DistributedFileSystem(num_nodes=2))
        fresh.register_file("facts", expected_rows, key_fn("pk"))
        fresh.register_access_method(AccessMethodDefinition(
            "idx_grp", "facts", interpreter=INTERP, key_field="grp",
            scope="global"))
        fresh.build_all()
        expected = pks(reference_rows(fresh, small_logical()))
        for force in FORCES:
            result = executor.execute(small_logical(), force=force)
            assert pks(result) == expected, (point, force)
        estimates.append(executor.plan(small_logical()).scan_estimate)

    flush(1.0, appends=[Record({"pk": 1000 + i, "grp": 2})
                        for i in range(5)],
          upserts=[Record({"pk": pk, "grp": 3}) for pk in (2, 7, 12)])
    check("delta runs")
    flush(2.0, upserts=[Record({"pk": pk, "grp": 2}) for pk in (3, 8)]
          + [Record({"pk": 1000, "grp": 4})])
    compactor.compact("facts", "minor")
    assert catalog.delta_depth("facts") == 1
    check("minor compaction")
    compactor.compact("facts", "major")
    assert catalog.delta_depth("facts") == 0
    check("major compaction")
    inserted = Record({"pk": 2000, "grp": 2})
    catalog.insert_record("facts", inserted)
    expected_rows.append(inserted)
    check("insert_record")
    # Appends and inserts add live bytes, compaction moves none.
    static, runs, minor, major, inserted = estimates
    assert static < runs
    assert minor == major < inserted


# -- the store itself ------------------------------------------------------


def test_unmutated_tables_keep_the_load_order_layout():
    workload = TpchWorkload(scale_factor=0.001, seed=0, num_nodes=4,
                            block_size=16 * 1024)
    plain = BlockStore(num_nodes=4, block_size=16 * 1024)
    for name, rows in workload.tables.items():
        plain.load(name, rows)

    def layout(store, name):
        return [(block.node_id, [id(r) for r in block.records])
                for block in store.blocks(name)]

    for name in workload.tables:
        assert layout(workload.blockstore, name) == layout(plain, name)
    blocks = workload.blockstore.blocks("orders")
    assert workload.blockstore.blocks("orders") is blocks  # no re-layout

    first_node = blocks[0].node_id
    record = Record({**workload.tables["orders"][0].data,
                     "o_orderkey": 10 ** 9})
    workload.catalog.insert_record("orders", record)
    relaid = workload.blockstore.blocks("orders")
    assert relaid is not blocks
    assert relaid[0].node_id == first_node
    assert any(r is record for r in workload.blockstore.scan("orders"))
    assert workload.blockstore.num_records("orders") == len(
        workload.tables["orders"]) + 1
    for name in workload.tables:  # the rotation of other tables holds
        if name != "orders":
            assert layout(workload.blockstore, name) == layout(plain, name)


def test_total_bytes_is_fixed_at_load():
    workload = TpchWorkload(scale_factor=0.001, seed=0, num_nodes=4)
    before = workload.total_bytes
    assert before == sum(r.size_bytes for rows in workload.tables.values()
                         for r in rows)
    workload.catalog.insert_record("orders", Record(
        {**workload.tables["orders"][0].data, "o_orderkey": 10 ** 9}))
    assert workload.total_bytes == before
    assert workload.blockstore.file_bytes("orders") > sum(
        r.size_bytes for r in workload.tables["orders"])


def test_loading_other_records_under_a_catalog_name_raises():
    catalog, __, rows = small_lake()
    store = BlockStore(num_nodes=2, catalog=catalog)
    with pytest.raises(StorageError):
        store.load("facts", rows[:-1])
    assert "facts" not in store
    assert store.load("facts", rows)[0].node_id == 0  # rotation untouched


def test_planners_reject_a_store_not_bound_to_their_catalog():
    catalog, __, rows = small_lake()
    spec = ClusterSpec(num_nodes=2)
    loose = BlockStore(num_nodes=2, block_size=64 * 1024)
    loose.load("facts", rows)
    other, __, __ = small_lake()
    for store in (loose, BlockStore(num_nodes=2, catalog=other)):
        with pytest.raises(CatalogError):
            PlanningExecutor(catalog, store, spec)
        with pytest.raises(CatalogError):
            StagePlanner(catalog, store, spec)
