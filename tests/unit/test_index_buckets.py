"""Differential: ``index_buckets`` reproduces the per-index dict-entry
loop it replaced.

The oracle below is the loop every index build, major compaction and
scan-recovery table used to run on its own: one heap pass per index,
a fresh dict payload per entry, a triples list bucketed by placement
and sorted stably by key.  ``index_buckets`` makes compact read-only
payloads for all indexes of a base file in one pass and sums their
sizes from parts.  Per partition, keys, entry fields, duplicate order,
per-entry ``size_bytes`` and ``BtreeFile.total_bytes`` must all match,
for local, global, replicated and range-partitioned global indexes, on
a TPC-H lake and on the claims lake (list-valued keys).
"""

import bisect
from collections import Counter

import pytest

from repro.core import AccessMethodDefinition, MappingInterpreter, Record
from repro.core.catalog import StructureCatalog
from repro.datagen.claims import (ClaimsGenerator, claim_id_of,
                                  disease_codes_of, medicine_codes_of)
from repro.datagen.tpch import TpchGenerator
from repro.engine.access import _ScanRecoveryTable
from repro.ingest import Compactor, IngestCoordinator, MicroBatch
from repro.core.pointers import PointerRange
from repro.storage import DistributedFileSystem, EntryPayload, HeapFile

INTERP = MappingInterpreter()
ENTRY_OVERHEAD = 16


# -- the oracle: the per-index dict-entry loop ------------------------------


def oracle_buckets(catalog, name):
    """Per-partition ``(index_key, Record(dict))`` pairs of one index,
    derived the way every build did before ``index_buckets``."""
    definition = catalog.definition(name)
    index = catalog.dfs.get_index(name)
    base = catalog.dfs.get_base(definition.base_file)
    loader = catalog.dfs.loader_info(definition.base_file)
    entries = []
    for pid, heap in enumerate(base.partitions):
        for slot, record in enumerate(heap.scan()):
            base_pk = loader.partition_key_fn(record)
            for index_key in definition.extract_keys(record):
                entry = Record({"key": index_key,
                                "target_partition_key": base_pk,
                                "target_key": slot,
                                "target_kind": "physical"})
                placement_key = (base_pk if definition.scope == "local"
                                 else index_key)
                entries.append((index_key, entry, placement_key))
    buckets = [[] for __ in range(index.num_partitions)]
    for index_key, entry, placement_key in entries:
        if index.scope == "replicated":
            for bucket in buckets:
                bucket.append((index_key, entry))
            continue
        buckets[index.partition_of_key(placement_key)].append(
            (index_key, entry))
    for bucket in buckets:
        bucket.sort(key=lambda pair: pair[0])
    return buckets


def oracle_bytes(buckets):
    return sum(entry.size_bytes + ENTRY_OVERHEAD
               for bucket in buckets for __, entry in bucket)


def oracle_insert(catalog, buckets, name, record, slot, totals):
    """The single-record index write ``insert_record`` used to make."""
    definition = catalog.definition(name)
    index = catalog.dfs.get_index(name)
    loader = catalog.dfs.loader_info(definition.base_file)
    base_pk = loader.partition_key_fn(record)
    for index_key in definition.extract_keys(record):
        entry = Record({"key": index_key, "target_partition_key": base_pk,
                        "target_key": slot, "target_kind": "physical"})
        if definition.scope == "replicated":
            targets = buckets
        else:
            placement_key = (base_pk if definition.scope == "local"
                             else index_key)
            targets = [buckets[index.partition_of_key(placement_key)]]
        for bucket in targets:
            # B-tree inserts append after every equal key.
            at = bisect.bisect_right([key for key, __ in bucket], index_key)
            bucket.insert(at, (index_key, entry))
            totals[name] += entry.size_bytes + ENTRY_OVERHEAD


def assert_same_entries(actual, expected):
    """``actual`` and ``expected`` are one partition's (key, entry)
    pairs; the entries built now must be the oracle's, field for field,
    in the same duplicate order and with the same sizes."""
    assert [key for key, __ in actual] == [key for key, __ in expected]
    assert all(type(entry.data) is EntryPayload for __, entry in actual)
    assert ([dict(entry.data) for __, entry in actual]
            == [entry.data for __, entry in expected])
    assert ([entry.size_bytes for __, entry in actual]
            == [entry.size_bytes for __, entry in expected])


def assert_index_matches(catalog, name, buckets, total_bytes):
    index = catalog.dfs.get_index(name)
    assert index.num_partitions == len(buckets)
    for pid, bucket in enumerate(buckets):
        assert_same_entries(list(index.trees[pid].items()), bucket)
    assert index.total_bytes == total_bytes


# -- lakes -------------------------------------------------------------------


def tpch_lake():
    tables = TpchGenerator(scale_factor=0.001, seed=3).generate_all()
    catalog = StructureCatalog(DistributedFileSystem(num_nodes=3))
    catalog.register_file("orders", tables["orders"],
                          lambda r: r["o_orderkey"])
    catalog.register_file("lineitem", tables["lineitem"],
                          lambda r: r["l_orderkey"])
    for name, base, field, scope, partitioning, parts in (
            ("idx_o_date", "orders", "o_orderdate", "local", "hash", None),
            ("idx_o_cust", "orders", "o_custkey", "global", "hash", 5),
            ("idx_o_price", "orders", "o_totalprice", "global", "range",
             None),
            ("idx_o_status", "orders", "o_orderstatus", "replicated",
             "hash", None),
            ("idx_l_part", "lineitem", "l_partkey", "global", "hash", None),
            ("idx_l_ship", "lineitem", "l_shipdate", "local", "hash", None),
            ("idx_l_supp", "lineitem", "l_suppkey", "replicated", "hash",
             None)):
        catalog.register_access_method(AccessMethodDefinition(
            name=name, base_file=base, interpreter=INTERP, key_field=field,
            scope=scope, partitioning=partitioning, num_partitions=parts))
    orders = tables["orders"]
    top = max(row["o_orderkey"] for row in orders)
    appends = [Record({**row.data, "o_orderkey": top + 1 + i})
               for i, row in enumerate(orders[:6])]
    upserts = [Record({**row.data, "o_custkey": row["o_custkey"] + 1,
                       "o_totalprice": 1.5, "o_orderstatus": "P"})
               for row in orders[10:16]]
    lines = [Record({**row.data, "l_partkey": 7, "l_shipdate": "1995-01-01"})
             for row in tables["lineitem"][:5]]
    return catalog, {"orders": (appends, upserts), "lineitem": (lines, [])}


def claims_lake():
    claims = ClaimsGenerator(num_claims=150, seed=11).generate()
    catalog = StructureCatalog(DistributedFileSystem(num_nodes=3))
    catalog.register_file("claims", claims, claim_id_of)
    for name, key_fn, scope, partitioning in (
            ("idx_c_disease", disease_codes_of, "global", "hash"),
            ("idx_c_medicine", medicine_codes_of, "global", "range"),
            ("idx_c_disease_local", disease_codes_of, "local", "hash"),
            ("idx_c_medicine_repl", medicine_codes_of, "replicated",
             "hash")):
        catalog.register_access_method(AccessMethodDefinition(
            name=name, base_file="claims", key_fn=key_fn, scope=scope,
            partitioning=partitioning))
    appends = ClaimsGenerator(num_claims=160, seed=11).generate()[150:]
    upserts = ClaimsGenerator(num_claims=12, seed=99).generate()
    return catalog, {"claims": (appends, upserts)}


LAKES = {"tpch": tpch_lake, "claims": claims_lake}


@pytest.fixture(params=sorted(LAKES))
def lake(request):
    return LAKES[request.param]()


def check_every_index(catalog):
    names = catalog.access_methods()
    assert names
    for name in names:
        buckets = oracle_buckets(catalog, name)
        assert_index_matches(catalog, name, buckets, oracle_bytes(buckets))


# -- the four entry paths ---------------------------------------------------


def test_build_all_matches_oracle(lake, monkeypatch):
    catalog, __ = lake
    scans = Counter()
    heap_scan = HeapFile.scan

    def counting_scan(heap):
        scans[heap.name] += 1
        return heap_scan(heap)

    monkeypatch.setattr(HeapFile, "scan", counting_scan)
    built = catalog.build_all()
    monkeypatch.undo()
    assert sorted(built) == catalog.access_methods()
    assert catalog.build_log == built
    check_every_index(catalog)
    # One pass per base heap for all of its indexes, plus the key
    # sampling pass of each range-partitioned one.
    for file_name in {catalog.definition(name).base_file for name in built}:
        ranged = sum(definition.partitioning == "range"
                     for definition in catalog.definitions_over(file_name))
        for heap in catalog.dfs.get_base(file_name).partitions:
            assert scans[heap.name] == 1 + ranged


def test_insert_record_matches_oracle(lake):
    catalog, fresh = lake
    catalog.build_all()
    expected = {name: oracle_buckets(catalog, name)
                for name in catalog.access_methods()}
    totals = {name: oracle_bytes(buckets)
              for name, buckets in expected.items()}
    for file_name, (appends, __) in fresh.items():
        base = catalog.dfs.get_base(file_name)
        loader = catalog.dfs.loader_info(file_name)
        for record in appends:
            pid = base.partition_of_key(loader.partition_key_fn(record))
            slot = len(base.partitions[pid])
            __, writes = catalog.insert_record(file_name, record)
            assert writes > 0
            for name in catalog.maintained_structures(file_name):
                oracle_insert(catalog, expected[name], name, record, slot,
                              totals)
    for name, buckets in expected.items():
        assert_index_matches(catalog, name, buckets, totals[name])


def test_major_compaction_matches_oracle(lake):
    catalog, fresh = lake
    catalog.build_all()
    coordinator = IngestCoordinator(catalog)
    for i, (file_name, (appends, upserts)) in enumerate(fresh.items()):
        coordinator.flush(coordinator.stage(MicroBatch(
            file_name, appends=appends, upserts=upserts,
            event_time=float(i + 1))))
    compactor = Compactor(catalog)
    for file_name in fresh:
        assert catalog.delta_depth(file_name) == 1
        compactor.compact(file_name, "major")
        assert catalog.delta_depth(file_name) == 0
    check_every_index(catalog)


def test_scan_recovery_table_matches_oracle(lake):
    catalog, __ = lake
    catalog.build_all()
    for name in catalog.access_methods():
        index = catalog.dfs.get_index(name)
        table = _ScanRecoveryTable(catalog, index)
        table._materialize()
        everything = PointerRange(name, None, None)
        for pid, bucket in enumerate(oracle_buckets(catalog, name)):
            served = table.probe(everything, pid)
            assert_same_entries([(entry["key"], entry) for entry in served],
                                bucket)
