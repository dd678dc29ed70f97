"""Command-line interface: quick demos of the reproduction.

Usage::

    python -m repro demo                 # 60-second LakeHarbor walkthrough
    python -m repro fig7 [--scale 0.002] # regenerate Figure 7's series
    python -m repro fig9 [--claims 5000] # regenerate Figure 9's comparison
    python -m repro inventory            # structures of a demo lake

The CLI uses reduced default scales so every command finishes in seconds;
the full benchmark harness lives in ``benchmarks/``.
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from repro.baselines import ClaimsWarehouse, ScanEngine
from repro.bench import SweepTable, format_factor, format_seconds
from repro.datagen import ClaimsGenerator
from repro.engine import ReDeExecutor
from repro.queries import (
    CASE_STUDY_QUERIES,
    ClaimsLake,
    TpchWorkload,
    canonical_q5_rows_rede,
    canonical_q5_rows_scan,
)
from repro.storage.cache import CACHE_POLICIES

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of LakeHarbor/ReDe (ICDE 2024)")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("demo", help="run the quickstart walkthrough")

    fig7 = commands.add_parser("fig7",
                               help="regenerate the Figure 7 series")
    fig7.add_argument("--scale", type=float, default=0.002,
                      help="TPC-H scale factor (default 0.002)")
    fig7.add_argument("--nodes", type=int, default=8)
    fig7.add_argument("--cache-mb", type=float, default=0.0,
                      help="per-node buffer-pool size in MiB for the ReDe "
                           "engines (default 0 = uncached)")
    fig7.add_argument("--cache-policy", choices=CACHE_POLICIES,
                      default="lru",
                      help="buffer-pool eviction policy (default lru)")
    fig7.add_argument("--batch-size", type=int, default=1,
                      help="dereference batch size for the ReDe engines "
                           "(default 1 = per-record dispatch)")

    fig9 = commands.add_parser("fig9",
                               help="regenerate the Figure 9 comparison")
    fig9.add_argument("--claims", type=int, default=5000,
                      help="number of synthetic claims (default 5000)")

    commands.add_parser("inventory",
                        help="show a demo lake's structure catalog")

    plan = commands.add_parser(
        "plan",
        help="show the per-stage planner's decision table for Q5'")
    plan.add_argument("--scale", type=float, default=0.002,
                      help="TPC-H scale factor (default 0.002)")
    plan.add_argument("--nodes", type=int, default=8)
    plan.add_argument("--selectivity", type=float, default=0.2,
                      help="Q5' date-range selectivity (default 0.2)")
    plan.add_argument("--execute", action="store_true",
                      help="also run the chosen plan and report its "
                           "simulated runtime")
    plan.add_argument("--batch-size", type=int, default=1,
                      help="dereference batch size for execution "
                           "(default 1 = per-record dispatch)")
    plan.add_argument("--adaptive", type=float, default=None,
                      metavar="THRESHOLD",
                      help="enable runtime re-optimization: a stage whose "
                           "observed cardinality exceeds its estimate by "
                           "this factor re-prices the remaining stages "
                           "and may switch them to scan-backed access "
                           "mid-query (default off)")

    chaos = commands.add_parser(
        "chaos",
        help="run a fault-injected Q5' and print the failure report")
    chaos.add_argument("--scale", type=float, default=0.002,
                       help="TPC-H scale factor (default 0.002)")
    chaos.add_argument("--nodes", type=int, default=4)
    chaos.add_argument("--seed", type=int, default=7,
                       help="fault-plan seed (default 7)")
    chaos.add_argument("--rate", type=float, default=0.05,
                       help="transient IO-error rate (default 0.05)")
    chaos.add_argument("--drop-rate", type=float, default=0.0,
                       help="network message drop rate (default 0)")
    chaos.add_argument("--policy", choices=("fail", "retry", "skip"),
                       default="retry",
                       help="on_error policy (default retry)")
    chaos.add_argument("--max-retries", type=int, default=6,
                       help="retry budget per dereference (default 6; a "
                            "Q5'-sized job issues thousands of "
                            "dereferences, so exhausting a small budget "
                            "somewhere is near-certain)")
    chaos.add_argument("--crash-node", type=int, default=None,
                       help="also crash this node mid-run")
    chaos.add_argument("--crash-at", type=float, default=0.01,
                       help="crash time in simulated seconds "
                            "(default 0.01)")
    chaos.add_argument("--corruption", type=float, default=0.0,
                       help="per-page silent-corruption probability "
                            "applied to every index structure (default 0;"
                            " corrupt probes quarantine the structure and"
                            " re-serve the stage by scan)")
    chaos.add_argument("--crash-during-rebalance", type=int, default=None,
                       metavar="N",
                       help="join a node, rebalance concurrently with the "
                            "query, and crash a migration endpoint when "
                            "move N starts (0 = the very first move); the "
                            "rebalance must still converge with the "
                            "catalog consistent")
    chaos.add_argument("--rebalance-victim", choices=("source", "target"),
                       default="target",
                       help="which end of the in-flight migration the "
                            "rebalance-keyed crash kills (default target)")

    scrub = commands.add_parser(
        "scrub",
        help="corrupt index pages, then detect/repair them with the "
             "online scrub worker")
    scrub.add_argument("--scale", type=float, default=0.002,
                       help="TPC-H scale factor (default 0.002)")
    scrub.add_argument("--nodes", type=int, default=4)
    scrub.add_argument("--seed", type=int, default=7,
                       help="fault-plan seed (default 7)")
    scrub.add_argument("--corruption", type=float, default=0.1,
                       help="per-page corruption probability for every "
                            "index structure (default 0.1)")
    scrub.add_argument("--sample-every", type=int, default=1,
                       help="scrub every Nth page per partition "
                            "(default 1 = full scrub)")

    serve = commands.add_parser(
        "serve",
        help="drive open-loop traffic through the admission-controlled "
             "query gateway and print per-tenant serving metrics")
    serve.add_argument("--rate", type=float, default=60.0,
                       help="arrivals per simulated second per tenant "
                            "(default 60)")
    serve.add_argument("--duration", type=float, default=1.0,
                       help="simulated seconds of traffic (default 1.0)")
    serve.add_argument("--nodes", type=int, default=4)
    serve.add_argument("--tenants", type=int, default=2,
                       help="number of interactive tenants (default 2)")
    serve.add_argument("--slots", type=int, default=4,
                       help="concurrent serving slots (default 4)")
    serve.add_argument("--queue-limit", type=int, default=32,
                       help="global queue-depth limit (default 32)")
    serve.add_argument("--deadline", type=float, default=None,
                       help="per-request deadline in simulated seconds "
                            "(default none)")
    serve.add_argument("--seed", type=int, default=11,
                       help="arrival-process seed (default 11)")
    serve.add_argument("--maintenance", action="store_true",
                       help="also submit background index builds on the "
                            "maintenance lane")
    serve.add_argument("--batch-size", type=int, default=1,
                       help="dereference batch size for the serving "
                            "engine (default 1 = per-record dispatch)")
    serve.add_argument("--result-cache-mb", type=float, default=0.0,
                       help="semantic result-cache budget in MB; repeated "
                            "(and subsumed) queries are served instantly "
                            "from cached results until an ingest commit "
                            "or compaction invalidates them (default 0 = "
                            "no cache)")

    ingest = commands.add_parser(
        "ingest",
        help="stream IoT sensor batches into a lake through the gateway's "
             "background lane while interactive queries run")
    ingest.add_argument("--duration", type=float, default=2.0,
                        help="simulated seconds of streaming (default 2.0)")
    ingest.add_argument("--nodes", type=int, default=4)
    ingest.add_argument("--sensors", type=int, default=64,
                        help="fleet size (default 64)")
    ingest.add_argument("--batch-size", type=int, default=100,
                        help="readings per micro-batch (default 100)")
    ingest.add_argument("--batch-rate", type=float, default=8.0,
                        help="micro-batch arrivals per simulated second "
                             "(default 8)")
    ingest.add_argument("--query-rate", type=float, default=20.0,
                        help="interactive queries per simulated second "
                             "(default 20)")
    ingest.add_argument("--policy", choices=("none", "lazy", "eager"),
                        default="lazy",
                        help="delta compaction policy (default lazy)")
    ingest.add_argument("--seed", type=int, default=11,
                        help="arrival-process seed (default 11)")
    return parser


def _run_demo_inline() -> int:
    """The quickstart flow, inlined so the CLI works without examples/."""
    from repro.core import (
        AccessMethodDefinition,
        ChainQuery,
        MappingInterpreter,
        Record,
        StructureCatalog,
    )
    from repro.cluster import Cluster
    from repro.config import laptop_cluster_spec
    from repro.storage import DistributedFileSystem

    dfs = DistributedFileSystem(num_nodes=4)
    catalog = StructureCatalog(dfs)
    events = [Record({"event_id": i, "severity": i % 100})
              for i in range(5000)]
    catalog.register_file("events", events, lambda r: r["event_id"])
    catalog.register_access_method(AccessMethodDefinition(
        name="idx_severity", base_file="events",
        interpreter=MappingInterpreter(), key_field="severity",
        scope="global"))
    job = (ChainQuery("severe")
           .from_index_range("idx_severity", 98, 99, base="events")
           .build())
    executor = ReDeExecutor(Cluster(laptop_cluster_spec(4)), catalog,
                            mode="smpe")
    result = executor.execute(job)
    print(f"lazily built {catalog.build_log}; fetched {len(result.rows)} "
          f"of 5000 events in {result.metrics.elapsed_seconds * 1e3:.1f} "
          "simulated ms "
          f"(peak {result.metrics.peak_parallelism} threads)")
    return 0


def cmd_fig7(scale: float, nodes: int, cache_mb: float = 0.0,
             cache_policy: str = "lru", batch_size: int = 1) -> int:
    from repro.config import EngineConfig

    workload = TpchWorkload(scale_factor=scale, seed=1, num_nodes=nodes,
                            block_size=256 * 1024)
    config = EngineConfig(batch_size=batch_size)
    cache_bytes = int(cache_mb * 1024 * 1024)
    caption = (f", cache {cache_mb:g}MiB/{cache_policy}" if cache_bytes
               else "")
    if batch_size > 1:
        caption += f", batch {batch_size}"
    table = SweepTable(
        title=f"Figure 7 (SF={scale}, {nodes} nodes{caption})",
        columns=["selectivity", "Impala-like", "ReDe w/o SMPE",
                 "ReDe w/ SMPE", "SMPE vs Impala"])
    hit_totals = miss_totals = 0
    for selectivity in (0.001, 0.01, 0.05, 0.2, 0.4):
        low, high = workload.date_range(selectivity)
        job = workload.q5_job(low, high)
        plan = workload.q5_scan_plan(low, high)
        scan = ScanEngine(workload.make_cluster(scan_seconds=0.25),
                          workload.blockstore).execute(plan)
        smpe = ReDeExecutor(
            workload.make_cluster(scan_seconds=0.25,
                                  cache_bytes=cache_bytes,
                                  cache_policy=cache_policy),
            workload.catalog, config=config, mode="smpe").execute(job)
        part = ReDeExecutor(
            workload.make_cluster(scan_seconds=0.25,
                                  cache_bytes=cache_bytes,
                                  cache_policy=cache_policy),
            workload.catalog, config=config,
            mode="partitioned").execute(job)
        assert canonical_q5_rows_rede(smpe) == canonical_q5_rows_scan(scan)
        hit_totals += smpe.metrics.cache_hits + part.metrics.cache_hits
        miss_totals += smpe.metrics.cache_misses + part.metrics.cache_misses
        table.add_row(selectivity,
                      format_seconds(scan.metrics.elapsed_seconds),
                      format_seconds(part.metrics.elapsed_seconds),
                      format_seconds(smpe.metrics.elapsed_seconds),
                      format_factor(scan.metrics.elapsed_seconds
                                    / smpe.metrics.elapsed_seconds))
    print(table.render())
    if cache_bytes:
        lookups = hit_totals + miss_totals
        rate = hit_totals / lookups if lookups else 0.0
        print(f"buffer pools: {hit_totals} hits / {miss_totals} misses "
              f"across the sweep ({rate:.1%} hit rate; pools are cold per "
              "run — each cluster is fresh)")
    return 0


def cmd_fig9(num_claims: int) -> int:
    claims = ClaimsGenerator(num_claims=num_claims, seed=9).generate()
    lake = ClaimsLake(claims, num_nodes=4)
    warehouse = ClaimsWarehouse(claims, num_nodes=4)
    table = SweepTable(
        title=f"Figure 9 ({num_claims} claims): record accesses, "
              "normalized to the warehouse",
        columns=["query", "DWH", "ReDe", "normalized"])
    for query_id, (__, diseases, medicines) in CASE_STUDY_QUERIES.items():
        lake_total, lake_result = lake.query_expenses(diseases, medicines)
        dw_total, dw_result = warehouse.query_expenses(diseases, medicines)
        assert lake_total == dw_total
        dw = dw_result.metrics.record_accesses
        rede = lake_result.metrics.record_accesses
        table.add_row(query_id, dw, rede, round(rede / dw, 3))
    print(table.render())
    return 0


def cmd_chaos(scale: float, nodes: int, seed: int, rate: float,
              drop_rate: float, policy: str, max_retries: int,
              crash_node: Optional[int], crash_at: float,
              corruption: float = 0.0,
              crash_during_rebalance: Optional[int] = None,
              rebalance_victim: str = "target") -> int:
    """A small fault-injected Q5′: chaos run vs fault-free run, plus the
    structured FailureReport of everything the chaos run lost."""
    from repro.cluster import (FaultPlan, NodeCrash, PageCorruption,
                               RebalanceCrash, TopologyController)
    from repro.config import EngineConfig

    workload = TpchWorkload(scale_factor=scale, seed=1, num_nodes=nodes,
                            block_size=256 * 1024)
    low, high = workload.date_range(0.2)
    job = workload.q5_job(low, high)

    clean = ReDeExecutor(workload.make_cluster(), workload.catalog,
                         mode="smpe").execute(job)

    crashes = ((NodeCrash(crash_node, crash_at),)
               if crash_node is not None else ())
    corruptions = (tuple(PageCorruption(name, corruption)
                         for name in workload.catalog.access_methods())
                   if corruption > 0.0 else ())
    rebalance_crashes = (
        (RebalanceCrash(after_moves=crash_during_rebalance,
                        victim=rebalance_victim),)
        if crash_during_rebalance is not None else ())
    plan = FaultPlan(seed=seed, transient_io_rate=rate,
                     network_drop_rate=drop_rate, node_crashes=crashes,
                     page_corruptions=corruptions,
                     rebalance_crashes=rebalance_crashes)
    cluster = workload.make_cluster()
    cluster.inject_faults(plan)
    topology = None
    rebalance_proc = None
    if crash_during_rebalance is not None:
        # Elasticity chaos: a node joins, node 0 drains (so every one of
        # its partitions must move), the rebalancer migrates them
        # concurrently with the query, and the armed RebalanceCrash
        # kills one end of an in-flight move.
        topology = TopologyController(cluster, workload.catalog)
        topology.join_node()
        topology.drain_node(0)
        rebalance_proc = cluster.launch(topology.rebalance_job(),
                                        name="rebalance")
    config = EngineConfig(on_error=policy, max_retries=max_retries)
    chaotic = ReDeExecutor(cluster, workload.catalog, config=config,
                           mode="smpe").execute(job)
    if rebalance_proc is not None:
        cluster.run_until(rebalance_proc)

    summary = chaotic.metrics
    print(f"Q5' under chaos (seed={seed}, io-rate={rate}, "
          f"drop-rate={drop_rate}, policy={policy}"
          + (f", crash node {crash_node}@{crash_at}s" if crashes else "")
          + (f", page-corruption {corruption:g}" if corruptions else "")
          + (f", {rebalance_victim} crash at rebalance move "
             f"{crash_during_rebalance}" if rebalance_crashes else "")
          + ")")
    print(f"  fault-free: {len(clean.rows)} rows in "
          f"{clean.metrics.elapsed_seconds * 1e3:.1f} simulated ms")
    print(f"  chaos:      {len(chaotic.rows)} rows in "
          f"{summary.elapsed_seconds * 1e3:.1f} simulated ms")
    print(f"  faults observed: {summary.transient_faults} transient, "
          f"{summary.timeouts} timeouts, {summary.node_crashes} crashes; "
          f"{summary.retries} retries, {summary.reroutes} reroutes, "
          f"{summary.tasks_skipped} units skipped")
    if corruptions:
        print(f"  corruption: {summary.corruptions_detected} corrupt "
              f"probes detected, {summary.quarantines} structures "
              f"quarantined, {summary.corruption_fallbacks} probes "
              "re-served by scan")
    if topology is not None:
        assert topology.converged, "rebalance failed to converge"
        print(f"  rebalance: {topology.moves_committed} moves committed, "
              f"converged at epoch {topology.epoch} "
              f"({len(topology.active_nodes())} active nodes)")
        for event in topology.events:
            detail = f" ({event.detail})" if event.detail else ""
            print(f"    {event.time * 1e3:8.2f}ms epoch {event.epoch:2d} "
                  f"{event.kind} node {event.node}{detail}")
    if canonical_q5_rows_rede(chaotic) == canonical_q5_rows_rede(clean):
        print("  result: identical to the fault-free answer")
    else:
        print("  result: PARTIAL — see the failure report")
    print(chaotic.failure_report.render())
    return 0


def cmd_scrub(scale: float, nodes: int, seed: int, corruption: float,
              sample_every: int) -> int:
    """Corrupt index pages, query through the quarantine fallback, then
    let the scrub worker detect and repair everything."""
    from repro.cluster import FaultPlan, PageCorruption
    from repro.core.scrub import ScrubWorker

    workload = TpchWorkload(scale_factor=scale, seed=1, num_nodes=nodes,
                            block_size=256 * 1024)
    low, high = workload.date_range(0.2)
    job = workload.q5_job(low, high)

    clean = ReDeExecutor(workload.make_cluster(), workload.catalog,
                         mode="smpe").execute(job)

    structures = workload.catalog.access_methods()
    plan = FaultPlan(seed=seed, page_corruptions=tuple(
        PageCorruption(name, corruption) for name in structures))
    cluster = workload.make_cluster()
    cluster.inject_faults(plan)
    corrupted = ReDeExecutor(cluster, workload.catalog,
                             mode="smpe").execute(job)

    print(f"Q5' with page corruption {corruption:g} on "
          f"{len(structures)} structures (seed={seed})")
    print(f"  fault-free: {len(clean.rows)} rows in "
          f"{clean.metrics.elapsed_seconds * 1e3:.1f} simulated ms")
    summary = corrupted.metrics
    print(f"  corrupted:  {len(corrupted.rows)} rows in "
          f"{summary.elapsed_seconds * 1e3:.1f} simulated ms "
          f"({summary.corruptions_detected} corrupt probes, "
          f"{summary.quarantines} quarantines, "
          f"{summary.corruption_fallbacks} scan fallbacks)")
    identical = (canonical_q5_rows_rede(corrupted)
                 == canonical_q5_rows_rede(clean))
    print("  result: " + ("identical to the fault-free answer" if identical
                          else "MISMATCH (bug!)"))

    report = ScrubWorker(workload.catalog, cluster,
                         sample_every=sample_every).run_once()
    print(report.render())

    after = ReDeExecutor(cluster, workload.catalog,
                         mode="smpe").execute(job)
    healed = (canonical_q5_rows_rede(after)
              == canonical_q5_rows_rede(clean)
              and after.metrics.corruptions_detected == 0)
    print("  after repair: " + (
        f"{len(after.rows)} rows, 0 corrupt probes — clean" if healed
        else f"{after.metrics.corruptions_detected} corrupt probes "
             "remain (raise --sample-every coverage)"))
    return 0 if identical else 1


def cmd_plan(scale: float, nodes: int, selectivity: float,
             execute: bool, batch_size: int = 1,
             adaptive: Optional[float] = None) -> int:
    """Print the per-stage planner's decision table for Q5′."""
    from repro.config import EngineConfig
    from repro.engine import PlanningExecutor

    workload = TpchWorkload(scale_factor=scale, seed=1, num_nodes=nodes,
                            block_size=256 * 1024)
    spec = workload.make_cluster(scan_seconds=0.25).spec
    executor = PlanningExecutor(workload.catalog, workload.blockstore,
                                spec,
                                config=EngineConfig(batch_size=batch_size),
                                adaptive_threshold=adaptive)
    low, high = workload.date_range(selectivity)
    logical = workload.q5_chain(low, high).logical_plan()
    planned = executor.plan(logical)
    print(f"Q5' at selectivity {selectivity:g} "
          f"(SF={scale:g}, {nodes} nodes)")
    print(planned.describe())
    if execute:
        result = executor.execute(logical)
        print(f"executed {result.executed} plan: {len(result.rows)} rows "
              f"in {result.elapsed_seconds * 1e3:.1f} simulated ms "
              f"({result.record_accesses} record accesses)")
        if result.adaptive is not None:
            switches = result.adaptive.switches
            if switches:
                print(f"adaptive re-optimization "
                      f"(threshold {adaptive:g}x):")
                for event in switches:
                    print(f"  {event.describe()}")
            else:
                print(f"adaptive re-optimization armed "
                      f"(threshold {adaptive:g}x): no stage exceeded "
                      f"its estimate — static plan ran unchanged")
    return 0


def cmd_serve(rate: float, duration: float, nodes: int, tenants: int,
              slots: int, queue_limit: int, deadline: Optional[float],
              seed: int, maintenance: bool, batch_size: int = 1,
              result_cache_mb: float = 0.0) -> int:
    """Open-loop Poisson traffic through the query gateway."""
    import random

    from repro.cluster import Cluster
    from repro.config import EngineConfig, laptop_cluster_spec
    from repro.core import (
        AccessMethodDefinition,
        ChainQuery,
        MappingInterpreter,
        Record,
        StructureCatalog,
    )
    from repro.core.maintenance import MaintenanceWorker
    from repro.service import QueryGateway, TenantSpec, background_build
    from repro.service.result_cache import SemanticResultCache
    from repro.storage import DistributedFileSystem

    interp = MappingInterpreter()
    dfs = DistributedFileSystem(num_nodes=nodes)
    catalog = StructureCatalog(dfs)
    events = [Record({"event_id": i, "severity": i % 100})
              for i in range(5000)]
    catalog.register_file("events", events, lambda r: r["event_id"])
    catalog.register_access_method(AccessMethodDefinition(
        name="idx_severity", base_file="events", interpreter=interp,
        key_field="severity", scope="global"))
    catalog.ensure_built("idx_severity")
    # A second, lazy structure gives the maintenance lane real work.
    catalog.register_access_method(AccessMethodDefinition(
        name="idx_event", base_file="events", interpreter=interp,
        key_field="event_id", scope="global"))

    cluster = Cluster(laptop_cluster_spec(nodes))
    cache = None
    if result_cache_mb > 0:
        cache = SemanticResultCache(
            budget_bytes=int(result_cache_mb * (1 << 20)))
    gateway = QueryGateway(cluster, catalog,
                           EngineConfig(batch_size=batch_size),
                           max_concurrent=slots,
                           global_queue_limit=queue_limit,
                           result_cache=cache)
    sim = cluster.sim
    tickets = []

    def make_job(tenant: str, k: int):
        low = (k * 7) % 90
        return (ChainQuery(f"{tenant}-q{k}", interpreter=interp)
                .from_index_range("idx_severity", low, low + 4,
                                  base="events")
                .build())

    def driver(tenant: str, stream: random.Random):
        clock, k = 0.0, 0
        while True:
            gap = stream.expovariate(rate)
            if clock + gap >= duration:
                return
            clock += gap
            yield sim.timeout(gap)
            tickets.append(gateway.submit(
                tenant, make_job(tenant, k), deadline=deadline))
            k += 1

    drivers = []
    for i in range(tenants):
        name = f"tenant{i}"
        gateway.register(TenantSpec(name))
        drivers.append(cluster.launch(
            driver(name, random.Random(seed + i)), name=f"drive:{name}"))
    if maintenance:
        gateway.register(TenantSpec("maintenance", weight=0.5))
        worker = MaintenanceWorker(catalog, cluster)
        tickets.append(gateway.submit(
            "maintenance", work=background_build(worker, "idx_event"),
            lane="background"))

    cluster.run_until(sim.all_of(drivers))
    pendings = [t.done for t in tickets if not t.finished]
    if pendings:
        cluster.run_until(sim.all_of(pendings))
    gateway.close()

    table = SweepTable(
        title=f"Serving {rate:g} req/s/tenant for {duration:g}s on "
              f"{nodes} nodes ({slots} slots, queue limit {queue_limit})",
        columns=["tenant", "submitted", "completed", "dropped", "p50",
                 "p99", "queue p99", "goodput/s"])
    for name, m in sorted(gateway.metrics.items()):
        table.add_row(name, m.submitted, m.completed, m.dropped,
                      format_seconds(m.latency_p50()),
                      format_seconds(m.latency_p99()),
                      format_seconds(m.queue_wait_p99()),
                      round(m.goodput(), 1))
    actions = {}
    for decision in gateway.decisions:
        actions[decision.action] = actions.get(decision.action, 0) + 1
    table.add_note("decisions: " + ", ".join(
        f"{k}={v}" for k, v in sorted(actions.items())))
    print(table.render())
    if cache is not None:
        stats = cache.stats()
        print(f"result cache ({result_cache_mb:g} MB budget): "
              f"{stats['hits']} hits, {stats['subsumed_hits']} subsumed, "
              f"{stats['misses']} misses, {stats['insertions']} inserted, "
              f"{stats['evictions']} evicted, "
              f"{stats['invalidations']} invalidated, "
              f"{stats['used_bytes']} bytes used")
    if maintenance:
        print(f"idx_event state after serving: "
              f"{catalog.state('idx_event').name}")
    return 0


def cmd_ingest(duration: float, nodes: int, sensors: int, batch_size: int,
               batch_rate: float, query_rate: float, policy: str,
               seed: int) -> int:
    """Streaming sensor ingest with concurrent interactive queries."""
    import random

    from repro.cluster import Cluster
    from repro.config import laptop_cluster_spec
    from repro.core import (
        AccessMethodDefinition,
        ChainQuery,
        StructureCatalog,
    )
    from repro.datagen import (
        DEVICES_FILE,
        READINGS_FILE,
        SensorInterpreter,
        TrafficSensorGenerator,
    )
    from repro.ingest import CompactionPolicy, Compactor, IngestCoordinator
    from repro.service import (QueryGateway, TenantSpec,
                               background_compaction, background_ingest)
    from repro.storage import DistributedFileSystem

    interp = SensorInterpreter()
    generator = TrafficSensorGenerator(num_sensors=sensors, seed=seed)
    dfs = DistributedFileSystem(num_nodes=nodes)
    catalog = StructureCatalog(dfs)
    catalog.register_file(
        READINGS_FILE, generator.initial_readings(8 * sensors),
        lambda r: interp.field(r, "device_id"),
        key_fn=lambda r: interp.field(r, "reading_id"))
    catalog.register_file(
        DEVICES_FILE, generator.initial_devices(),
        lambda r: interp.field(r, "device_id"),
        key_fn=lambda r: interp.field(r, "device_id"))
    catalog.register_access_method(AccessMethodDefinition(
        name="idx_readings_by_device", base_file=READINGS_FILE,
        interpreter=interp, key_field="device_id", scope="global"))
    catalog.ensure_built("idx_readings_by_device")

    cluster = Cluster(laptop_cluster_spec(nodes))
    gateway = QueryGateway(cluster, catalog)
    coordinator = IngestCoordinator(catalog, cluster)
    compactor = Compactor(catalog, cluster,
                          policy=getattr(CompactionPolicy, policy)())
    gateway.register(TenantSpec("analyst"))
    gateway.register(TenantSpec("sensors", weight=0.5))
    sim = cluster.sim
    tickets = []

    def ingest_driver(stream: random.Random):
        clock, k = 0.0, 0
        while True:
            gap = stream.expovariate(batch_rate)
            if clock + gap >= duration:
                return
            clock += gap
            yield sim.timeout(gap)
            micro = (generator.status_batch(k) if k % 4 == 3
                     else generator.readings_batch(k, batch_size))
            batch = coordinator.stage(micro)
            tickets.append(gateway.submit(
                "sensors", work=background_ingest(coordinator, batch),
                lane="background"))
            for name, tier in compactor.due():
                tickets.append(gateway.submit(
                    "sensors",
                    work=background_compaction(compactor, name, tier),
                    lane="background"))
            k += 1

    def query_driver(stream: random.Random):
        clock, k = 0.0, 0
        while True:
            gap = stream.expovariate(query_rate)
            if clock + gap >= duration:
                return
            clock += gap
            yield sim.timeout(gap)
            device = f"dev-{stream.randrange(sensors):04d}"
            job = (ChainQuery(f"readings-q{k}", interpreter=interp)
                   .from_index_lookup("idx_readings_by_device", [device],
                                      base=READINGS_FILE)
                   .build())
            tickets.append(gateway.submit("analyst", job))
            k += 1

    drivers = [
        cluster.launch(ingest_driver(random.Random(seed)), name="ingest"),
        cluster.launch(query_driver(random.Random(seed + 1)), name="query"),
    ]
    cluster.run_until(sim.all_of(drivers))
    pendings = [t.done for t in tickets if not t.finished]
    if pendings:
        cluster.run_until(sim.all_of(pendings))
    # Anything still staged (its flush was shed under load) commits now.
    coordinator.flush_pending()
    gateway.close()

    table = SweepTable(
        title=f"Streaming {batch_rate:g} batches/s + {query_rate:g} q/s "
              f"for {duration:g}s on {nodes} nodes (policy {policy})",
        columns=["tenant", "submitted", "completed", "dropped", "p50",
                 "p99", "goodput/s"])
    for name, m in sorted(gateway.metrics.items()):
        table.add_row(name, m.submitted, m.completed, m.dropped,
                      format_seconds(m.latency_p50()),
                      format_seconds(m.latency_p99()),
                      round(m.goodput(), 1))
    wm = coordinator.watermark()
    table.add_note(
        f"watermark: committed_through={wm.committed_through} "
        f"({wm.committed_batches} batches, {wm.pending_batches} pending, "
        f"{wm.delta_runs} delta runs, {wm.late_records} late records)")
    table.add_note(
        f"compactions: minor={compactor.minor_compactions} "
        f"major={compactor.major_compactions}; "
        f"delta depth now: readings="
        f"{catalog.delta_depth(READINGS_FILE)} devices="
        f"{catalog.delta_depth(DEVICES_FILE)}")
    served = [t.result.metrics.freshness_watermark for t in tickets
              if t.tenant == "analyst" and t.result is not None]
    stamped = [w for w in served if w is not None]
    if stamped:
        table.add_note(
            f"query freshness: {len(stamped)}/{len(served)} stamped, "
            f"newest watermark seen {max(stamped):g}")
    table.add_note(f"decisions logged: {len(gateway.decisions)} "
                   f"(dropped {gateway.decisions_dropped})")
    print(table.render())
    return 0


def cmd_inventory() -> int:
    claims = ClaimsGenerator(num_claims=500, seed=1).generate()
    lake = ClaimsLake(claims, num_nodes=4)
    print(f"{'name':24s} {'kind':14s} {'base':10s} state")
    print("-" * 60)
    for row in lake.catalog.inventory():
        print(f"{row['name']:24s} {row['kind']:14s} {row['base']:10s} "
              f"{row['state']}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "demo":
        return _run_demo_inline()
    if args.command == "fig7":
        return cmd_fig7(args.scale, args.nodes, args.cache_mb,
                        args.cache_policy, args.batch_size)
    if args.command == "fig9":
        return cmd_fig9(args.claims)
    if args.command == "inventory":
        return cmd_inventory()
    if args.command == "plan":
        return cmd_plan(args.scale, args.nodes, args.selectivity,
                        args.execute, args.batch_size, args.adaptive)
    if args.command == "chaos":
        return cmd_chaos(args.scale, args.nodes, args.seed, args.rate,
                         args.drop_rate, args.policy, args.max_retries,
                         args.crash_node, args.crash_at, args.corruption,
                         args.crash_during_rebalance, args.rebalance_victim)
    if args.command == "scrub":
        return cmd_scrub(args.scale, args.nodes, args.seed,
                         args.corruption, args.sample_every)
    if args.command == "serve":
        return cmd_serve(args.rate, args.duration, args.nodes,
                         args.tenants, args.slots, args.queue_limit,
                         args.deadline, args.seed, args.maintenance,
                         args.batch_size, args.result_cache_mb)
    if args.command == "ingest":
        return cmd_ingest(args.duration, args.nodes, args.sensors,
                          args.batch_size, args.batch_rate,
                          args.query_rate, args.policy, args.seed)
    return 2  # pragma: no cover - argparse enforces the choices
