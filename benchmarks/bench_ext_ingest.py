"""Extension: steady-state streaming ingest under concurrent Q5′ queries.

The static TPC-H lake of Figure 7 becomes a streaming one: lineitem
micro-batches arrive on simulated time, flushed into delta segments
through the ``QueryGateway`` background lane while an analyst tenant
keeps firing TPC-H Q5′ at the same gateway.  Three experiments:

* **zero-ingest guard** — with a delta registry attached but zero
  batches ingested, one Q5′ through the gateway is bit-identical (rows
  and every engine counter) to direct engine submission on a lake with
  no registry at all;
* **compaction-policy sweep** — the same seeded arrival streams under
  ``none`` / ``lazy`` / ``eager`` compaction: staleness and interactive
  latency trade off against compaction interference, and the
  no-compaction baseline shows delta-probe degradation (monotonically
  deeper runs, more per-query delta probes);
* **convergence** — after each run, flushing the stragglers and major-
  compacting returns the lake to depth 0 with exactly the row set the
  delta-aware probes served (canonical Q5′ rows compare equal).

Every completed analyst query carries a freshness watermark; the bench
asserts the stamps advance monotonically in completion order while
ingest and compaction run as background work without starving the
interactive lane.

``REPRO_BENCH_QUICK=1`` shrinks the streams for CI smoke runs (results
from quick runs are not saved).

Run::

    pytest benchmarks/bench_ext_ingest.py --benchmark-only
"""

import os
import random

from repro.bench import SweepTable, format_seconds
from repro.core import Record
from repro.engine import SmpeEngine
from repro.ingest import (
    CompactionPolicy,
    Compactor,
    IngestCoordinator,
    MicroBatch,
)
from repro.queries import TpchWorkload, canonical_q5_rows_rede
from repro.service import (
    QueryGateway,
    TenantSpec,
    background_compaction,
    background_ingest,
)

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

SCALE_FACTOR = 0.002
NUM_NODES = 4
SCAN_SECONDS = 0.25
SELECTIVITY = 0.05
REGION = "ASIA"
SEED = 11
POLICIES = ("none", "eager") if QUICK else ("none", "lazy", "eager")
NUM_BATCHES = 4 if QUICK else 10
PER_BATCH = 20 if QUICK else 40
NUM_QUERIES = 6 if QUICK else 24


def fresh_workload():
    return TpchWorkload(scale_factor=SCALE_FACTOR, seed=1,
                        num_nodes=NUM_NODES, block_size=256 * 1024)


def q5(workload, k=0):
    low, high = workload.date_range(SELECTIVITY)
    return workload.q5_job(low, high, REGION)


def lineitem_batches(workload, seed=SEED):
    """Seeded append streams: new lines for existing orders, so fresh
    records surface through the very joins Q5′ already runs."""
    rng = random.Random(seed)
    source = workload.tables["lineitem"]
    batches = []
    next_line = 10_000
    for b in range(NUM_BATCHES):
        rows = []
        for __ in range(PER_BATCH):
            data = dict(rng.choice(source).data)
            data["l_linenumber"] = next_line
            next_line += 1
            rows.append(Record(data))
        batches.append(MicroBatch("lineitem", appends=rows, upserts=[],
                                  event_time=float(b + 1)))
    return batches


def solo_q5_latency(workload):
    cluster = workload.make_cluster(scan_seconds=SCAN_SECONDS)
    done, result = SmpeEngine(cluster, workload.catalog).submit(q5(workload))
    cluster.run_until(done)
    return result.metrics.elapsed_seconds


def check_zero_ingest_guard():
    """Attached-but-empty registry == no registry, bit for bit."""
    streaming = fresh_workload()
    IngestCoordinator(streaming.catalog)  # attaches an empty registry
    cluster = streaming.make_cluster(scan_seconds=SCAN_SECONDS)
    gateway = QueryGateway(cluster, streaming.catalog)
    gateway.register(TenantSpec("analyst"))
    ticket = gateway.submit("analyst", q5(streaming))
    cluster.run_until(ticket.done)

    static = fresh_workload()
    direct_cluster = static.make_cluster(scan_seconds=SCAN_SECONDS)
    done, direct = SmpeEngine(direct_cluster, static.catalog).submit(
        q5(static))
    direct_cluster.run_until(done)

    assert ticket.state == "completed"
    assert ticket.result.metrics.freshness_watermark is None
    assert ticket.result.metrics.summary() == direct.metrics.summary()
    assert (canonical_q5_rows_rede(ticket.result)
            == canonical_q5_rows_rede(direct))
    return direct.metrics.elapsed_seconds


def run_policy(policy_name, solo_latency):
    """One steady-state run: background ingest + compaction vs Q5′."""
    workload = fresh_workload()
    cluster = workload.make_cluster(scan_seconds=SCAN_SECONDS)
    gateway = QueryGateway(cluster, workload.catalog,
                           global_queue_limit=256)
    gateway.register(TenantSpec("analyst", max_queued=128))
    gateway.register(TenantSpec("ingest", weight=0.5, max_queued=128))
    coordinator = IngestCoordinator(workload.catalog, cluster)
    policy = getattr(CompactionPolicy, policy_name)()
    compactor = Compactor(workload.catalog, cluster, policy=policy)
    batches = lineitem_batches(workload)

    batch_gap = 4.0 * solo_latency
    query_gap = 2.0 * solo_latency
    tickets = []
    queries = []
    newest_staged = [0.0]

    def ingest_driver():
        for micro in batches:
            yield cluster.sim.timeout(batch_gap)
            staged = coordinator.stage(micro)
            newest_staged[0] = micro.event_time
            tickets.append(gateway.submit(
                "ingest", work=background_ingest(coordinator, staged),
                lane="background"))
            for file_name, tier in compactor.due():
                tickets.append(gateway.submit(
                    "ingest",
                    work=background_compaction(compactor, file_name, tier),
                    lane="background"))

    def query_driver():
        stream = random.Random(SEED + 7)
        for k in range(NUM_QUERIES):
            yield cluster.sim.timeout(
                stream.expovariate(1.0 / query_gap))
            ticket = gateway.submit("analyst", q5(workload, k))
            queries.append((ticket, newest_staged[0]))
            tickets.append(ticket)

    drivers = [cluster.launch(ingest_driver(), name="ingest-driver"),
               cluster.launch(query_driver(), name="query-driver")]
    cluster.run_until(cluster.sim.all_of(drivers))
    pending = [t.done for t in tickets if not t.finished]
    if pending:
        cluster.run_until(cluster.sim.all_of(pending))
    gateway.close()

    # Convergence: flush stragglers, fold everything, same Q5' rows.
    before_cluster = workload.make_cluster(scan_seconds=SCAN_SECONDS)
    done, before = SmpeEngine(
        before_cluster, workload.catalog).submit(q5(workload))
    before_cluster.run_until(done)
    final_depth = workload.catalog.delta_depth("lineitem")
    coordinator.flush_pending()
    Compactor(workload.catalog).compact("lineitem", "major")
    assert workload.catalog.delta_depth("lineitem") == 0
    compact_cluster = workload.make_cluster(scan_seconds=SCAN_SECONDS)
    done, after = SmpeEngine(
        compact_cluster, workload.catalog).submit(q5(workload))
    compact_cluster.run_until(done)

    return {
        "workload": workload,
        "gateway": gateway,
        "coordinator": coordinator,
        "compactor": compactor,
        "queries": queries,
        "tickets": tickets,
        "final_depth": final_depth,
        "before_rows": canonical_q5_rows_rede(before),
        "before_delta_probes": before.metrics.delta_probes,
        "after_rows": canonical_q5_rows_rede(after),
        "after_delta_probes": after.metrics.delta_probes,
        "metrics": gateway.metrics["analyst"],
    }


def run_all():
    solo = check_zero_ingest_guard()
    runs = {}
    for policy_name in POLICIES:
        runs[policy_name] = run_policy(policy_name, solo)
    return {"solo": solo, "runs": runs}


def completed_queries(run):
    return [(t, staged) for t, staged in run["queries"]
            if t.state == "completed"]


def mean(values):
    return sum(values) / len(values) if values else 0.0


def test_ext_ingest(benchmark, show, save_result):
    results = benchmark.pedantic(run_all, iterations=1, rounds=1)
    solo = results["solo"]

    table = SweepTable(
        title=f"Extension: streaming lineitem ingest vs TPC-H Q5' on "
              f"{NUM_NODES} nodes ({NUM_BATCHES} batches x {PER_BATCH} "
              f"rows through the gateway background lane, "
              f"Q5' selectivity {SELECTIVITY:g})",
        columns=["compaction", "queries", "p50", "p99",
                 "staleness (batches)", "delta probes/q", "delta reads/q",
                 "final depth", "minor", "major"])
    for policy_name, run in results["runs"].items():
        done = completed_queries(run)
        stamps = [(t.result.metrics.freshness_watermark or 0.0, staged)
                  for t, staged in done]
        staleness = mean([staged - stamp for stamp, staged in stamps])
        probes = mean([t.result.metrics.delta_probes for t, __ in done])
        reads = mean([t.result.metrics.delta_run_reads for t, __ in done])
        m = run["metrics"]
        table.add_row(
            policy_name, f"{m.completed}/{m.submitted}",
            format_seconds(m.latency_p50()),
            format_seconds(m.latency_p99()),
            round(staleness, 2), round(probes, 1), round(reads, 1),
            run["final_depth"],
            run["compactor"].minor_compactions,
            run["compactor"].major_compactions)
    table.add_note(
        f"solo Q5' latency {format_seconds(solo)}; zero-ingest guard: "
        "empty registry is bit-identical to no registry")
    table.add_note(
        "no-compaction baseline accumulates runs (deeper probes per "
        "query); compaction bounds depth at the cost of background work "
        "sharing the cluster with the analyst")
    table.add_note(
        "after each run: flush stragglers + major compaction -> depth 0 "
        "with canonical Q5' rows identical to the delta-served answer")
    show(table)
    if not QUICK:
        save_result("ext_ingest", table)

    for policy_name, run in results["runs"].items():
        # No starvation: every interactive query completes, and every
        # background flush/compaction ticket reaches a terminal state.
        m = run["metrics"]
        assert m.completed == m.submitted > 0
        assert all(t.finished for t in run["tickets"])
        assert not run["coordinator"].pending()

        # Watermarks advance monotonically in completion order and reach
        # the newest committed batch.
        done = sorted((t for t, __ in completed_queries(run)),
                      key=lambda t: t.finished_at)
        stamps = [t.result.metrics.freshness_watermark or 0.0
                  for t in done]
        assert stamps == sorted(stamps)
        assert (run["coordinator"].watermark().committed_through
                == float(NUM_BATCHES))

        # Convergence: the compacted lake serves the same Q5' rows with
        # zero delta probes.
        assert run["before_rows"] == run["after_rows"]
        assert run["after_delta_probes"] == 0

    # The degradation baseline: without compaction, runs pile up and
    # every query pays more delta probes than under eager compaction.
    if "none" in results["runs"] and "eager" in results["runs"]:
        none_run = results["runs"]["none"]
        eager_run = results["runs"]["eager"]
        assert none_run["final_depth"] > eager_run["final_depth"]
        none_probes = mean([t.result.metrics.delta_probes
                            for t, __ in completed_queries(none_run)])
        eager_probes = mean([t.result.metrics.delta_probes
                             for t, __ in completed_queries(eager_run)])
        assert none_probes >= eager_probes
        # The end-of-run probe sees the full accumulated depth: strictly
        # more delta probes than on the eagerly compacted lake.
        assert (none_run["before_delta_probes"]
                > eager_run["before_delta_probes"])
        # Eager compaction actually ran (majors only trigger when the
        # background lane falls behind arrivals, so count both tiers).
        assert (eager_run["compactor"].minor_compactions
                + eager_run["compactor"].major_compactions) > 0
