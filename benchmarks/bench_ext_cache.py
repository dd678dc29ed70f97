"""Buffer-pool extension: cache size x policy on Q5', and scan resistance.

Two experiments over the per-node :class:`~repro.storage.cache.BufferPool`:

* ``test_cache_size_sweep`` — TPC-H Q5' (partitioned mode) against
  per-node pool sizes from 0 (uncached) upward, cold and warm runs per
  size.  Saved to ``benchmarks/results/ext_cache_size.txt``.  Asserts the
  hit-rate -> runtime curve: warm runtime is monotonically non-increasing
  and hit rate non-decreasing as the pool grows.

* ``test_scan_resistance`` — a skewed claims-style workload: a hot set of
  diseases is probed (twice each, so 2Q promotes them), a full index scan
  pollutes the pool, then the hot set is probed again.  Saved to
  ``benchmarks/results/ext_cache_policies.txt``.  Asserts 2Q's probation
  queue absorbs the scan: its post-scan hit rate and runtime beat LRU's.

Run::

    pytest benchmarks/bench_ext_cache.py --benchmark-only

``REPRO_BENCH_QUICK=1`` shrinks both sweeps for CI smoke runs (results
are not overwritten in quick mode).
"""

import os

import pytest

from repro.bench import SweepTable, format_seconds
from repro.cluster import Cluster
from repro.config import laptop_cluster_spec
from repro.core import (
    AccessMethodDefinition,
    FileLookupDereferencer,
    IndexEntryReferencer,
    IndexRangeDereferencer,
    JobBuilder,
    MappingInterpreter,
    PointerRange,
    Record,
    StructureCatalog,
)
from repro.engine import ReDeExecutor
from repro.queries import TpchWorkload
from repro.storage import CACHE_POLICIES, DistributedFileSystem

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

# -- experiment 1: cache size sweep on Q5' ---------------------------------

SCALE_FACTOR = 0.002
NUM_NODES = 4
SCAN_SECONDS = 0.25
SELECTIVITIES = (0.05,) if QUICK else (0.01, 0.05)
CACHE_KIB = (0, 256, 4096) if QUICK else (0, 64, 256, 1024, 4096)

# -- experiment 2: scan resistance of the eviction policies ----------------

NUM_CLAIMS = 20_000 if QUICK else 60_000
CLAIMS_PER_DISEASE = 40
NUM_HOT = 10 if QUICK else 30
#: per-node pool: comfortably holds the hot set, ~7% of the dataset
POLICY_CACHE_BYTES = 40 * 8192


@pytest.fixture(scope="module")
def workload():
    return TpchWorkload(scale_factor=SCALE_FACTOR, seed=1,
                        num_nodes=NUM_NODES, block_size=256 * 1024)


def run_size_sweep(workload):
    measurements = {}
    for selectivity in SELECTIVITIES:
        low, high = workload.date_range(selectivity)
        job = workload.q5_job(low, high)
        for kib in CACHE_KIB:
            cluster = workload.make_cluster(scan_seconds=SCAN_SECONDS,
                                            cache_bytes=kib * 1024)
            executor = ReDeExecutor(cluster, workload.catalog,
                                    mode="partitioned")
            cold = executor.execute(job)
            warm = executor.execute(job)
            stats = cluster.cache_stats()
            measurements[(selectivity, kib)] = {
                "cold": cold.metrics.elapsed_seconds,
                "warm": warm.metrics.elapsed_seconds,
                "warm_hits": warm.metrics.cache_hits,
                "warm_misses": warm.metrics.cache_misses,
                "stats": stats.summary(),
            }
    return measurements


def test_cache_size_sweep(benchmark, show, save_result, workload):
    sweep = benchmark.pedantic(run_size_sweep, args=(workload,),
                               iterations=1, rounds=1)

    table = SweepTable(
        title="Buffer pool size sweep: TPC-H Q5' partitioned mode "
              f"(SF={SCALE_FACTOR}, {NUM_NODES} nodes, LRU)",
        columns=["selectivity", "cache KiB/node", "cold run", "warm run",
                 "warm hit rate", "interior", "leaf", "heap"])
    for (selectivity, kib), m in sweep.items():
        lookups = m["warm_hits"] + m["warm_misses"]
        rate = m["warm_hits"] / lookups if lookups else 0.0
        s = m["stats"]
        table.add_row(selectivity, kib,
                      format_seconds(m["cold"]), format_seconds(m["warm"]),
                      f"{rate:.1%}",
                      f"{s['hit_rate_interior']:.1%}",
                      f"{s['hit_rate_leaf']:.1%}",
                      f"{s['hit_rate_heap']:.1%}")
    table.add_note("hit-rate -> runtime curve: a larger pool can only "
                   "turn 5ms disk reads into 25us RAM hits, so warm "
                   "runtime falls as capacity grows")
    show(table)
    if not QUICK:
        save_result("ext_cache_size", table)

    for selectivity in SELECTIVITIES:
        series = [sweep[(selectivity, kib)] for kib in CACHE_KIB]
        # Warm runtime monotonically non-increasing with capacity (LRU's
        # inclusion property; tiny tolerance for interleaving shifts).
        for smaller, larger in zip(series, series[1:]):
            assert larger["warm"] <= smaller["warm"] * 1.005, (
                f"warm runtime rose with capacity at s={selectivity}")
        # Hit counts non-decreasing, and the largest pool beats uncached.
        for smaller, larger in zip(series, series[1:]):
            assert larger["warm_hits"] >= smaller["warm_hits"]
        assert series[-1]["warm"] < series[0]["warm"]
        assert series[-1]["warm_hits"] > 0


# -- experiment 2: scan resistance -----------------------------------------


@pytest.fixture(scope="module")
def claims_catalog():
    """A skewed claims lake: NUM_CLAIMS padded records, one disease per
    CLAIMS_PER_DISEASE consecutive claims.  The base file is partitioned
    by disease, so a disease's records sit on contiguous heap slots and
    the hot set occupies few pages — cacheable locality."""
    dfs = DistributedFileSystem(num_nodes=NUM_NODES)
    catalog = StructureCatalog(dfs)
    records = [Record({"pk": i, "disease": i // CLAIMS_PER_DISEASE,
                       "cost": float(i % 997),
                       "notes": "x" * 200})
               for i in range(NUM_CLAIMS)]
    catalog.register_file("claims", records, lambda r: r["disease"],
                          key_fn=lambda r: r["pk"])
    catalog.register_access_method(AccessMethodDefinition(
        name="idx_disease", base_file="claims",
        interpreter=MappingInterpreter(), key_field="disease",
        scope="global", partitioning="range"))
    # The polluter: pk is unique, so this index has ~NUM_CLAIMS/order
    # leaves — a full sweep floods every node's pool many times over.
    catalog.register_access_method(AccessMethodDefinition(
        name="idx_pk", base_file="claims",
        interpreter=MappingInterpreter(), key_field="pk",
        scope="global", partitioning="range"))
    catalog.build_all()
    return catalog


def probe_job(diseases, name):
    """Fetch every claim of each disease; each disease appears twice
    back-to-back so a second touch follows the first (2Q promotion)."""
    builder = (JobBuilder(name)
               .dereference(IndexRangeDereferencer("idx_disease"))
               .reference(IndexEntryReferencer("claims"))
               .dereference(FileLookupDereferencer("claims")))
    for disease in diseases:
        builder.input(PointerRange("idx_disease", disease, disease))
        builder.input(PointerRange("idx_disease", disease, disease))
    return builder.build()


def scan_job():
    """One sweep of the whole pk index through the dereference path — the
    pool-polluting antagonist.  Index-only on purpose: a range probe
    touches each leaf page exactly once, the signature access pattern
    scan-resistant policies exist to survive."""
    return (JobBuilder("pollute")
            .dereference(IndexRangeDereferencer("idx_pk"))
            .input(PointerRange("idx_pk", 0, NUM_CLAIMS))
            .build())


def run_policy(catalog, policy):
    hot = [d * 7 for d in range(NUM_HOT)]  # spread across partitions
    cluster = Cluster(laptop_cluster_spec(
        NUM_NODES, cache_bytes=POLICY_CACHE_BYTES, cache_policy=policy))
    executor = ReDeExecutor(cluster, catalog, mode="partitioned")
    executor.execute(probe_job(hot, "warmup"))
    executor.execute(scan_job())
    after = executor.execute(probe_job(hot, "after-scan"))
    lookups = after.metrics.cache_hits + after.metrics.cache_misses
    return {
        "elapsed": after.metrics.elapsed_seconds,
        "hits": after.metrics.cache_hits,
        "misses": after.metrics.cache_misses,
        "hit_rate": after.metrics.cache_hits / lookups if lookups else 0.0,
        "rows": len(after.rows),
    }


def run_policies(catalog):
    return {policy: run_policy(catalog, policy) for policy in CACHE_POLICIES}


def test_scan_resistance(benchmark, show, save_result, claims_catalog):
    results = benchmark.pedantic(run_policies, args=(claims_catalog,),
                                 iterations=1, rounds=1)

    table = SweepTable(
        title="Eviction policies vs a polluting scan: hot-set re-probe "
              f"after a full sweep ({NUM_CLAIMS} claims, {NUM_HOT} hot "
              f"diseases, {POLICY_CACHE_BYTES // 1024}KiB/node)",
        columns=["policy", "re-probe time", "hits", "misses", "hit rate"])
    for policy, m in results.items():
        table.add_row(policy, format_seconds(m["elapsed"]),
                      m["hits"], m["misses"], f"{m['hit_rate']:.1%}")
    table.add_note("2Q admits scanned pages into a probation FIFO only, "
                   "so the scan churns probation while the promoted hot "
                   "set survives in the protected segment; LRU lets the "
                   "scan flush everything")
    show(table)
    if not QUICK:
        save_result("ext_cache_policies", table)

    # Every policy returns the same (correct) rows from its own cache
    # state; only the time/IO profile may differ.
    assert len({m["rows"] for m in results.values()}) == 1

    # The headline claim: 2Q survives the scan, LRU does not.
    assert results["2q"]["hit_rate"] > results["lru"]["hit_rate"]
    assert results["2q"]["elapsed"] < results["lru"]["elapsed"]
