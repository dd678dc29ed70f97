"""Extension: adaptive re-optimization and the semantic result cache.

Two experiments on simulated time:

* **mis-estimated selectivity sweep** — a three-table chain whose middle
  join hides one pathologically hot key.  The planner prices the final
  join from its 1-row seed cardinality and keeps it on the index; at
  runtime the hot key explodes the intermediate by ``hot_fanout``.  The
  adaptive controller notices the shortfall mid-job, re-prices the
  trailing stage, and switches it to a scan-backed table build.  The
  sweep widens the mis-estimation and reports static vs adaptive
  elapsed; answers are identical row-for-row at every point.
* **repeated traffic through the caching gateway** — a skewed query mix
  (a few hot ranges, some strictly-contained ones) replayed through the
  admission-controlled gateway with and without the semantic result
  cache.  Exact repeats are served from the cache at zero simulated
  latency and contained ranges are served by subsumption; afterwards an
  ingest commit and a major compaction each demonstrably invalidate the
  affected entries (the next run misses and sees the new rows).

Run::

    pytest benchmarks/bench_ext_adaptive.py --benchmark-only

``REPRO_BENCH_QUICK=1`` shrinks everything for CI smoke runs (results
from quick runs are not saved).
"""

import os

from repro.bench import SweepTable, format_factor, format_seconds
from repro.cluster import Cluster, ClusterSpec
from repro.core import (
    AccessMethodDefinition,
    ChainQuery,
    MappingInterpreter,
    Record,
    StructureCatalog,
)
from repro.engine import PlanningExecutor
from repro.ingest import Compactor, IngestCoordinator, MicroBatch
from repro.service import QueryGateway, TenantSpec, percentile
from repro.service.result_cache import SemanticResultCache
from repro.storage import DistributedFileSystem
from repro.storage.blockstore import BlockStore

INTERP = MappingInterpreter()
QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

NUM_NODES = 2
THRESHOLD = 4.0
GRAND_ROWS = 80000
PAYLOAD = 200
#: enough parents that the averaged fanout estimate stays small across
#: the whole sweep — the static plan prices the final join onto the
#: index at every point while the hot key's true fanout explodes it
NUM_PARENTS = 200
#: below ~500 the planner's scan price already wins at plan time and
#: there is nothing to adapt
FANOUTS = (500,) if QUICK else (500, 1000, 2000, 4000)

SERVING_ROWS = 1000
#: hot ranges repeat (exact hits); (2, 5) is contained in (0, 9) and is
#: served by subsumption once the wider entry is resident
WORKLOAD_RANGES = [(0, 9), (10, 19), (3, 7), (0, 9), (2, 5)]
WORKLOAD_REPEATS = 2 if QUICK else 6
CACHE_BUDGET = 8 << 20


def make_skew_lake(hot_fanout):
    """Parent -> child -> grand; child's pk 0 hides ``hot_fanout``
    children, every other parent has exactly one."""
    dfs = DistributedFileSystem(num_nodes=NUM_NODES)
    catalog = StructureCatalog(dfs)
    parents = [Record({"pk": i}) for i in range(NUM_PARENTS)]
    children, cid = [], 0
    for pk in range(NUM_PARENTS):
        for __ in range(hot_fanout if pk == 0 else 1):
            children.append(Record({"cid": cid, "fk": pk,
                                    "gk": cid % GRAND_ROWS}))
            cid += 1
    pad = "x" * PAYLOAD
    grands = [Record({"gk": i, "pad": pad, "payload": i % 7})
              for i in range(GRAND_ROWS)]
    catalog.register_file("parent", parents, lambda r: r["pk"])
    catalog.register_file("child", children, lambda r: r["cid"])
    catalog.register_file("grand", grands, lambda r: r["gk"])
    for name, base, key in (("idx_pk", "parent", "pk"),
                            ("idx_fk", "child", "fk"),
                            ("idx_gk", "grand", "gk")):
        catalog.register_access_method(AccessMethodDefinition(
            name, base, interpreter=INTERP, key_field=key,
            scope="global"))
    catalog.build_all()
    store = BlockStore(num_nodes=NUM_NODES, block_size=64 * 1024,
                       catalog=catalog)
    store.load("parent", parents)
    store.load("child", children)
    store.load("grand", grands)
    return catalog, store


def skew_chain():
    return (ChainQuery("skew", interpreter=INTERP)
            .from_index_lookup("idx_pk", [0], base="parent")
            .join("child", key="pk", via_index="idx_fk", carry=["pk"])
            .join("grand", key="gk", via_index="idx_gk")
            .logical_plan())


def run_misestimation_sweep():
    points = {}
    for fanout in FANOUTS:
        catalog, store = make_skew_lake(fanout)
        spec = ClusterSpec(num_nodes=NUM_NODES)

        def run(threshold):
            executor = PlanningExecutor(catalog, store, spec,
                                        adaptive_threshold=threshold)
            result = executor.execute(skew_chain(), force="mixed")
            rows = sorted((r.record["gk"], r.record["payload"])
                          for r in result.rows)
            switches = ([] if result.adaptive is None
                        else result.adaptive.switches)
            return result.elapsed_seconds, rows, switches

        static_t, static_rows, __ = run(None)
        adaptive_t, adaptive_rows, switches = run(THRESHOLD)
        assert adaptive_rows == static_rows, fanout
        points[fanout] = {
            "static": static_t,
            "adaptive": adaptive_t,
            "switches": [s.describe() for s in switches],
            "rows": len(static_rows),
        }
    return points


def serving_catalog():
    dfs = DistributedFileSystem(num_nodes=NUM_NODES)
    catalog = StructureCatalog(dfs)
    records = [Record({"pk": i, "attr": i % 50, "grp": i % 5})
               for i in range(SERVING_ROWS)]
    catalog.register_file("t", records, lambda r: r["pk"])
    catalog.register_access_method(AccessMethodDefinition(
        "idx_attr", "t", interpreter=INTERP, key_field="attr",
        scope="global"))
    catalog.build_all()
    return catalog


def range_job(low, high):
    return (ChainQuery(f"r{low}-{high}", interpreter=INTERP)
            .from_index_range("idx_attr", low, high, base="t")
            .build())


def play_workload(catalog, cache):
    cluster = Cluster(ClusterSpec(num_nodes=NUM_NODES))
    gateway = QueryGateway(cluster, catalog, result_cache=cache)
    gateway.register(TenantSpec("t0"))

    def serve(job):
        ticket = gateway.submit("t0", job)
        if not ticket.finished:
            cluster.run_until(ticket.done)
        assert ticket.state == "completed"
        return ticket

    latencies, answers = [], []
    for __ in range(WORKLOAD_REPEATS):
        for low, high in WORKLOAD_RANGES:
            ticket = serve(range_job(low, high))
            latencies.append(ticket.latency)
            answers.append(sorted(
                (row.record["pk"], dict(row.context).get("pk", None))
                for row in ticket.result.rows))
    return cluster, gateway, serve, latencies, answers


def run_repeated_traffic():
    catalog = serving_catalog()
    __, __, __, cold_lat, cold_answers = play_workload(catalog, None)
    cache = SemanticResultCache(CACHE_BUDGET)
    __, __, serve, warm_lat, warm_answers = play_workload(catalog, cache)
    assert warm_answers == cold_answers
    workload_stats = cache.stats()

    # invalidation: an ingest commit drops the affected entries and the
    # next run of the hottest query misses and sees the new rows
    coordinator = IngestCoordinator(catalog)
    coordinator.flush(coordinator.stage(MicroBatch(
        "t", appends=[Record({"pk": SERVING_ROWS + i, "attr": 5,
                              "grp": 0}) for i in range(4)],
        event_time=1.0)))
    after_ingest = serve(range_job(0, 9))
    assert not after_ingest.served_from_cache
    assert {row.record["pk"] for row in after_ingest.result.rows} \
        >= {SERVING_ROWS, SERVING_ROWS + 3}
    ingest_invalidations = cache.invalidations

    # ... and so does a major compaction (the base file is rewritten)
    serve(range_job(0, 9))
    assert serve(range_job(0, 9)).served_from_cache
    Compactor(catalog).compact("t", "major")
    after_compaction = serve(range_job(0, 9))
    assert not after_compaction.served_from_cache

    return {
        "jobs": len(warm_lat),
        "cold": cold_lat,
        "warm": warm_lat,
        "stats": workload_stats,
        "ingest_invalidations": ingest_invalidations,
        "total_invalidations": cache.invalidations,
    }


def run_all():
    return {
        "sweep": run_misestimation_sweep(),
        "serving": run_repeated_traffic(),
    }


def test_ext_adaptive(benchmark, show, save_result):
    results = benchmark.pedantic(run_all, iterations=1, rounds=1)

    sweep = results["sweep"]
    table = SweepTable(
        title="Extension: adaptive re-optimization under mis-estimated "
              f"selectivity (hot-key fanout sweep, threshold "
              f"{THRESHOLD:g}x, {GRAND_ROWS} grand rows)",
        columns=["hot fanout", "static", "adaptive", "speedup",
                 "switches", "rows"])
    worst = None
    for fanout, point in sweep.items():
        speedup = point["static"] / point["adaptive"]
        worst = speedup if worst is None else min(worst, speedup)
        table.add_row(fanout, format_seconds(point["static"]),
                      format_seconds(point["adaptive"]),
                      format_factor(speedup), len(point["switches"]),
                      point["rows"])
    sample = next(iter(sweep.values()))
    if sample["switches"]:
        table.add_note(f"example switch: {sample['switches'][0]}")
    table.add_note("answers are identical row-for-row at every sweep "
                   "point; with the threshold disabled the plan, rows, "
                   "and simulated time match the static run bit-for-bit")
    show(table)

    serving = results["serving"]
    cold_p50 = percentile(serving["cold"], 0.50)
    warm_p50 = percentile(serving["warm"], 0.50)
    serving_table = SweepTable(
        title="Extension: repeated traffic through the semantic result "
              f"cache ({serving['jobs']} jobs, "
              f"{len(WORKLOAD_RANGES)} distinct ranges, "
              f"{CACHE_BUDGET >> 20} MiB budget)",
        columns=["traffic", "jobs", "p50", "p99"])
    for label, lat in (("uncached", serving["cold"]),
                       ("cached", serving["warm"])):
        serving_table.add_row(label, len(lat),
                              format_seconds(percentile(lat, 0.50)),
                              format_seconds(percentile(lat, 0.99)))
    stats = serving["stats"]
    served = stats["hits"] + stats["subsumed_hits"]
    p50_gain = ("inf" if warm_p50 == 0.0
                else format_factor(cold_p50 / warm_p50))
    serving_table.add_note(
        f"{served}/{serving['jobs']} jobs served from cache "
        f"({stats['hits']} exact, {stats['subsumed_hits']} subsumed); "
        f"p50 speedup {p50_gain}; answers identical to the uncached "
        f"gateway on every job")
    serving_table.add_note(
        f"an ingest commit invalidated {serving['ingest_invalidations']}"
        f" entr{'y' if serving['ingest_invalidations'] == 1 else 'ies'} "
        f"and the next run saw the new rows; a major compaction "
        f"invalidated again ({serving['total_invalidations']} total)")
    show(serving_table)

    if not QUICK:
        worst_point = min(sweep, key=lambda f: sweep[f]["static"]
                          / sweep[f]["adaptive"])
        assert (sweep[worst_point]["static"]
                / sweep[worst_point]["adaptive"]) >= 1.5
        assert warm_p50 * 5 <= cold_p50
        save_result("ext_adaptive", table)
        save_result("ext_adaptive_serving", serving_table)
