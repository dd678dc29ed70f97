"""Footprint guard: the memory an index entry keeps alive.

Index entries are the largest allocation of every lake.  With dict
payloads ``catalog.build_all()`` on this lake retained about 272 bytes
per entry; with slotted read-only payloads, sizes summed from parts and
one slot int per base record it retains about 142 (141.6 on CPython
3.10, 3.11 and 3.13, 141.5 on 3.12).  The bound below is that
measurement plus about 13 % for allocator and interpreter-version
noise, so a change that re-inflates entries fails here instead of only
in the benchmark's ``peak_rss_mb``.
"""

import gc
import tracemalloc

from repro.core import AccessMethodDefinition, MappingInterpreter
from repro.core.catalog import StructureCatalog
from repro.datagen.tpch import TpchGenerator
from repro.storage import DistributedFileSystem

#: measured 141.6 B/entry retained (Q5' index set, SF 0.001, 4 nodes;
#: CPython 3.10, 3.11 and 3.13; 141.5 on 3.12)
MAX_BYTES_PER_ENTRY = 160

INTERP = MappingInterpreter()


def q5_lake():
    tables = TpchGenerator(scale_factor=0.001, seed=1).generate_all()
    catalog = StructureCatalog(DistributedFileSystem(num_nodes=4))
    for table, key in (("orders", "o_orderkey"), ("lineitem", "l_orderkey"),
                       ("part", "p_partkey")):
        catalog.register_file(table, tables[table],
                              lambda row, key=key: row[key])
    for name, base, field, scope in (
            ("idx_orders_orderdate", "orders", "o_orderdate", "local"),
            ("idx_lineitem_partkey", "lineitem", "l_partkey", "global"),
            ("idx_lineitem_suppkey", "lineitem", "l_suppkey", "global"),
            ("idx_orders_custkey", "orders", "o_custkey", "global"),
            ("idx_part_retailprice", "part", "p_retailprice", "local")):
        catalog.register_access_method(AccessMethodDefinition(
            name=name, base_file=base, interpreter=INTERP, key_field=field,
            scope=scope))
    return catalog


def test_build_all_retains_bounded_bytes_per_entry():
    catalog = q5_lake()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        built = catalog.build_all()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    entries = sum(len(catalog.dfs.get_index(name)) for name in built)
    assert entries > 10_000
    assert retained / entries <= MAX_BYTES_PER_ENTRY, (
        f"{retained / entries:.1f} bytes retained per index entry")
