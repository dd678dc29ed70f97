"""Property: the planner's distinct-loader-key count is exact on every lake.

``StagePlanner._distinct_loader_keys`` reads the count off the base
file's heap key directories instead of scanning the table.  It must equal
the full-scan set ``len({key_fn(r) for r in file.scan()})`` on a fresh
lake, with unmerged delta runs, after minor compaction, after major
compaction — which registers every folded delta record's ingest tag as
an extra key-map entry (an *alias*) — and after direct inserts.  Alias
tags make a naive ``len(_key_map)`` count overshoot, and a changed count
would silently change plans.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec
from repro.core import (
    AccessMethodDefinition,
    MappingInterpreter,
    Record,
    StructureCatalog,
)
from repro.ingest import Compactor, IngestCoordinator, MicroBatch
from repro.plan.planner import StagePlanner
from repro.queries import TpchWorkload
from repro.storage import BlockStore, DistributedFileSystem

INTERP = MappingInterpreter()


def full_scan_count(catalog, table):
    key_fn = catalog.dfs.loader_info(table).key_fn
    return len({key_fn(record)
                for record in catalog.dfs.get_base(table).scan()})


def naive_count(catalog, table):
    return sum(len(heap._key_map)
               for heap in catalog.dfs.get_base(table).partitions)


def assert_exact(catalog, store, spec, tables):
    planner = StagePlanner(catalog, store, spec)
    for table in tables:
        expected = full_scan_count(catalog, table)
        assert catalog.dfs.get_base(table).distinct_keys == expected
        assert planner._distinct_loader_keys(table) == expected


def test_tpch_lake_through_ingest_and_compaction():
    workload = TpchWorkload(scale_factor=0.001, seed=1, num_nodes=4,
                            block_size=64 * 1024)
    catalog, store = workload.catalog, workload.blockstore
    spec = workload.make_cluster().spec
    tables = ["region", "nation", "supplier", "customer", "part", "orders",
              "lineitem"]
    assert_exact(catalog, store, spec, tables)

    # New lines for existing orders (keys already present) and new
    # versions of existing lines (upserts), as ``ingest_mixed`` draws them.
    source = workload.tables["lineitem"]
    coordinator = IngestCoordinator(catalog)
    next_line = 10_000
    for batch in range(4):
        appends, upserts = [], []
        for i in range(12):
            data = dict(source[(batch * 37 + i * 11) % len(source)].data)
            data["l_linenumber"] = next_line
            next_line += 1
            appends.append(Record(data))
        for i in range(4):
            data = dict(source[(batch * 53 + i * 7) % len(source)].data)
            data["l_quantity"] = 1 + batch + i
            upserts.append(Record(data))
        coordinator.flush(coordinator.stage(MicroBatch(
            "lineitem", appends=appends, upserts=upserts,
            event_time=float(batch + 1))))
    assert catalog.delta_depth("lineitem") > 1
    assert_exact(catalog, store, spec, tables)

    compactor = Compactor(catalog)
    compactor.compact("lineitem", "minor")
    assert_exact(catalog, store, spec, tables)

    compactor.compact("lineitem", "major")
    assert catalog.delta_depth("lineitem") == 0
    assert_exact(catalog, store, spec, tables)
    # The folded tags are aliases: counting key-map entries would not do.
    assert (naive_count(catalog, "lineitem")
            > full_scan_count(catalog, "lineitem"))

    data = dict(source[0].data)
    data["l_linenumber"] = next_line
    catalog.insert_record("lineitem", Record(data))
    data = dict(source[0].data)
    data["l_orderkey"] = 10 ** 9
    catalog.insert_record("lineitem", Record(data))
    assert_exact(catalog, store, spec, tables)


#: one lake operation: a micro-batch of (is_upsert, pk) records, a
#: compaction tier, or a direct insert of one pk
operations = st.one_of(
    st.tuples(st.just("batch"),
              st.lists(st.tuples(st.booleans(),
                                 st.integers(min_value=0, max_value=40)),
                       min_size=1, max_size=8)),
    st.tuples(st.just("minor"), st.none()),
    st.tuples(st.just("major"), st.none()),
    st.tuples(st.just("insert"), st.integers(min_value=0, max_value=40)),
)


@settings(max_examples=60, deadline=None)
@given(num_records=st.integers(min_value=0, max_value=25),
       duplicate_every=st.integers(min_value=1, max_value=5),
       num_nodes=st.integers(min_value=1, max_value=4),
       ops=st.lists(operations, max_size=8))
def test_count_is_exact_after_every_operation(num_records, duplicate_every,
                                              num_nodes, ops):
    catalog = StructureCatalog(DistributedFileSystem(num_nodes=num_nodes))
    # Non-unique keys: every ``duplicate_every`` records share a pk.
    records = [Record({"pk": i // duplicate_every, "v": i})
               for i in range(num_records)]
    catalog.register_file("t", records, lambda r: r["pk"])
    catalog.register_access_method(AccessMethodDefinition(
        name="idx_v", base_file="t", interpreter=INTERP, key_field="v",
        scope="global"))
    catalog.ensure_built("idx_v")
    store = BlockStore(num_nodes=num_nodes, catalog=catalog)
    spec = ClusterSpec(num_nodes=num_nodes)
    coordinator = IngestCoordinator(catalog)
    compactor = Compactor(catalog)
    assert_exact(catalog, store, spec, ["t"])
    for step, (kind, arg) in enumerate(ops):
        if kind == "batch":
            appends = [Record({"pk": pk, "v": 100 + step})
                       for is_upsert, pk in arg if not is_upsert]
            upserts = [Record({"pk": pk, "v": 200 + step})
                       for is_upsert, pk in arg if is_upsert]
            coordinator.flush(coordinator.stage(MicroBatch(
                "t", appends=appends, upserts=upserts,
                event_time=float(step + 1))))
        elif kind == "minor":
            if catalog.delta_depth("t") > 1:
                compactor.compact("t", "minor")
        elif kind == "major":
            compactor.compact("t", "major")
        else:
            catalog.insert_record("t", Record({"pk": arg, "v": step}))
        assert_exact(catalog, store, spec, ["t"])
