"""The five benchmark workloads, driven through ``repro``'s public API.

Every workload has the same four-step shape, which is all the runner
knows about:

* ``Workload(seed, tracer)`` — set-up: generate the lake from the seed,
  build its structures, compute the ``reference``-engine answer of every
  distinct job, warm whatever the workload keeps warm;
* ``reset()`` — untimed per-round preparation (only ``ingest_mixed``
  regenerates its lake; the others return at once);
* ``run_round()`` — one pass over the fixed, seeded job list: the timed
  unit.  Returns a :class:`Round` holding one :class:`Outcome` per job
  and the deterministic per-layer counters the result objects expose;
* ``verify(round)`` — untimed: canonicalize every completed job's rows
  and compare them to the reference answer; returns the wrong-answer
  count.

A *job* is one query submitted and answered or refused.  Closed-loop
workloads submit the next job when the previous one returned; open-loop
workloads schedule arrivals on *simulated* time, so the generator is a
simulated process and is never late.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.baselines import ScanEngine
from repro.config import EngineConfig
from repro.core import Record
from repro.engine import PlanningExecutor, ReDeExecutor
from repro.ingest import (CompactionPolicy, Compactor, IngestCoordinator,
                          MicroBatch)
from repro.queries import (TpchWorkload, canonical_q5_rows_rede,
                           canonical_q5_rows_scan)
from repro.service import (QueryGateway, TenantSpec, background_compaction,
                           background_ingest, percentile)

__all__ = ["WORKLOADS", "Outcome", "Round"]

REGIONS = ("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST")
REGION = "ASIA"
#: per-node full-scan seconds of the scale-model cluster (Fig. 7's regime)
SCAN_SECONDS = 0.25
BLOCK_SIZE = 256 * 1024
#: a completed job counts towards goodput only within this sim latency
GOODPUT_LIMIT_S = 0.5
#: An open-loop trace is part of its workload, not of the run: arrival
#: times, tenants, job classes and micro-batch draws come from this
#: constant, and ``--seed`` changes the lake under them.  A 200-300 job
#: trace is a small sample of a queueing system — on ``serve_burst`` the
#: median even sits on the knee between the low-rate and the backlog
#: latency mode — so re-drawing arrivals per seed moves p50/p95 by 25-45 %
#: (quartile distance over ten seeds); replaying one trace brings that
#: to 5-15 %, which is what the lake alone contributes.
TRACE_SEED = 2024


@dataclass
class Outcome:
    """One job: what was asked, what came back."""

    #: job class; the key of its reference answer
    key: tuple
    #: completed | refused | shed | expired | failed; ``verify`` turns
    #: a completed job with the wrong rows into ``wrong``
    state: str
    #: simulated arrival -> answer, completed jobs only
    sim_latency: Optional[float] = None
    record_accesses: int = 0
    #: the engine's result object, canonicalized by ``verify``
    result: Any = None
    canonical: Callable[[Any], set] = canonical_q5_rows_rede


@dataclass
class Round:
    outcomes: list[Outcome]
    #: simulated seconds the round spans
    sim_seconds: float
    #: kernel events fired, where the workload holds its simulators
    events: Optional[int] = None
    #: deterministic per-layer counters read off public result objects
    counters: dict[str, float] = field(default_factory=dict)
    #: ``ingest_mixed`` only: state needed by the convergence check
    extra: Any = None


def fold_engine(metrics: list) -> dict[str, float]:
    """Per-layer counters from the ``ExecutionMetrics`` of a round's
    finished jobs."""
    jobs = len(metrics)
    accesses = sum(m.record_accesses for m in metrics)
    reads = sum(m.random_reads for m in metrics)
    capacity = sum(m.batched_capacity for m in metrics)
    lookups = sum(m.cache_hits + m.cache_misses for m in metrics)
    return {
        "cluster.disk_utilization":
            statistics.fmean(m.disk_utilization for m in metrics),
        "engine.batch_fill":
            sum(m.batched_probes for m in metrics) / capacity
            if capacity else 0.0,
        "engine.random_reads_per_record":
            reads / accesses if accesses else 0.0,
        "engine.peak_parallelism":
            max(m.peak_parallelism for m in metrics),
        "engine.remote_fetches_per_job":
            sum(m.remote_fetches for m in metrics) / jobs,
        "engine.bytes_transferred_per_job":
            sum(m.bytes_transferred for m in metrics) / jobs,
        "engine.retries": sum(m.retries for m in metrics),
        "engine.timeouts": sum(m.timeouts for m in metrics),
        "engine.reroutes": sum(m.reroutes for m in metrics),
        "engine.tasks_skipped": sum(m.tasks_skipped for m in metrics),
        "storage.cache_hit_rate":
            sum(m.cache_hits for m in metrics) / lookups
            if lookups else 0.0,
        "storage.random_reads_per_job": reads / jobs,
    }


class _Q5Lake:
    """Shared set-up: a seeded TPC-H lake and reference Q5' answers."""

    scale_factor = 0.004
    num_nodes = 8

    def __init__(self, seed: int, tracer) -> None:
        self.seed = seed
        self.tracer = tracer
        self.lake = self.make_lake()
        self.order_dates = sorted(
            row["o_orderdate"] for row in self.lake.tables["orders"])
        self.reference: dict[tuple, set] = {}
        #: host seconds of each ``reset`` that did something
        self.reset_seconds: list[float] = []

    def make_lake(self) -> TpchWorkload:
        with self.tracer.setup_spans():
            return TpchWorkload(scale_factor=self.scale_factor,
                                seed=self.seed, num_nodes=self.num_nodes,
                                block_size=BLOCK_SIZE)

    def window(self, selectivity: float) -> tuple[str, str]:
        """The ``o_orderdate`` window holding ``selectivity`` of the
        orders, exact up to ties on its closing day.

        ``TpchWorkload.date_range`` sizes the window in calendar days, so
        the share of orders inside it — and with it every count and
        latency — wanders by several percent from seed to seed.
        """
        dates = self.order_dates
        return dates[0], dates[max(1, round(selectivity * len(dates))) - 1]

    def q5(self, selectivity: float, region: str = REGION):
        low, high = self.window(selectivity)
        return self.lake.q5_job(low, high, region)

    def add_references(self, keys) -> None:
        """Canonical rows of every distinct job, from the oracle."""
        with self.tracer.span("setup.reference_answers"):
            oracle = ReDeExecutor(None, self.lake.catalog, mode="reference")
            for key in keys:
                selectivity, region = key[-2], key[-1]
                self.reference[key] = canonical_q5_rows_rede(
                    oracle.execute(self.q5(selectivity, region)))

    def reset(self) -> None:
        """Nothing to regenerate: rounds leave the lake untouched."""

    def verify(self, rnd: Round) -> int:
        wrong = 0
        for outcome in rnd.outcomes:
            if outcome.state != "completed" or outcome.result is None:
                continue
            with self.tracer.span("job.verify"):
                rows = outcome.canonical(outcome.result)
                if rows != self.reference[outcome.key]:
                    outcome.state = "wrong"
                    wrong += 1
            outcome.result = None
        return wrong


class Q5IndexSmpe(_Q5Lake):
    """Closed loop: Q5' via SMPE, cold cluster per job, no batching."""

    name = "q5_index_smpe"
    loop = "closed loop, 1 client"
    selectivities = (0.01, 0.05, 0.1)

    def __init__(self, seed: int, tracer) -> None:
        super().__init__(seed, tracer)
        self.keys = [("smpe", s, REGION) for s in self.selectivities]
        self.add_references(self.keys)

    def run_round(self) -> Round:
        outcomes, metrics, events, sim = [], [], 0, 0.0
        for key in self.keys:
            with self.tracer.span("job.build"):
                cluster = self.lake.make_cluster(scan_seconds=SCAN_SECONDS)
                executor = ReDeExecutor(cluster, self.lake.catalog,
                                        mode="smpe")
                job = self.q5(key[1])
            with self.tracer.span("job.execute"):
                result = executor.execute(job)
            m = result.metrics
            metrics.append(m)
            events += cluster.sim.events_processed
            sim += m.elapsed_seconds
            outcomes.append(Outcome(key, "completed", m.elapsed_seconds,
                                    m.record_accesses, result))
        return Round(outcomes, sim, events, fold_engine(metrics))


class Q5IndexPartitionedBatch(_Q5Lake):
    """Closed loop: Q5' via the partitioned engine's batch path on one
    long-lived cluster whose 4 MiB/node LRU pool is warmed in set-up."""

    name = "q5_index_partitioned_batch"
    loop = "closed loop, 1 client"
    selectivities = (0.01, 0.05, 0.2, 0.4)
    cache_bytes = 4 * 1024 * 1024

    def __init__(self, seed: int, tracer) -> None:
        super().__init__(seed, tracer)
        self.keys = [("partitioned", s, REGION)
                     for s in self.selectivities]
        self.add_references(self.keys)
        self.cluster = self.lake.make_cluster(
            scan_seconds=SCAN_SECONDS, cache_bytes=self.cache_bytes)
        self.executor = ReDeExecutor(
            self.cluster, self.lake.catalog,
            config=EngineConfig(batch_size=64), mode="partitioned")
        with self.tracer.span("setup.cache_warmup"):
            self.run_round()

    def run_round(self) -> Round:
        outcomes, metrics, sim = [], [], 0.0
        events_before = self.cluster.sim.events_processed
        cache_before = self.cluster.cache_stats()
        for key in self.keys:
            with self.tracer.span("job.build"):
                job = self.q5(key[1])
            with self.tracer.span("job.execute"):
                result = self.executor.execute(job)
            m = result.metrics
            metrics.append(m)
            sim += m.elapsed_seconds
            outcomes.append(Outcome(key, "completed", m.elapsed_seconds,
                                    m.record_accesses, result))
        counters = fold_engine(metrics)
        cache = self.cluster.cache_stats()
        counters["storage.cache_evictions"] = (
            cache.evictions - cache_before.evictions)
        counters["storage.cache_invalidations"] = (
            cache.invalidations - cache_before.invalidations)
        return Round(outcomes, sim,
                     self.cluster.sim.events_processed - events_before,
                     counters)


class Q5ScanPlanned(_Q5Lake):
    """Closed loop: the Impala-like scan engine, and the per-stage
    planner run un-forced with a fresh ``PlanningExecutor`` per job so
    ``plan()`` is never memo-served."""

    name = "q5_scan_planned"
    loop = "closed loop, 1 client"
    scan_selectivities = (0.05, 0.4)
    planned_selectivities = (0.0005, 0.01)

    def __init__(self, seed: int, tracer) -> None:
        super().__init__(seed, tracer)
        self.keys = ([("scan", s, REGION) for s in self.scan_selectivities]
                     + [("planned", s, REGION)
                        for s in self.planned_selectivities])
        self.add_references(self.keys)
        self.cluster_spec = self.lake.make_cluster(
            scan_seconds=SCAN_SECONDS).spec

    def run_round(self) -> Round:
        outcomes, sim = [], 0.0
        scan_bytes, scan_sim, scan_stages, q_errors = [], [], 0, []
        for key in self.keys:
            kind, selectivity, region = key
            low, high = self.window(selectivity)
            if kind == "scan":
                with self.tracer.span("job.build"):
                    engine = ScanEngine(
                        self.lake.make_cluster(scan_seconds=SCAN_SECONDS),
                        self.lake.blockstore)
                    plan = self.lake.q5_scan_plan(low, high, region)
                with self.tracer.span("job.execute"):
                    result = engine.execute(plan)
                m = result.metrics
                scan_bytes.append(m.bytes_scanned)
                scan_sim.append(m.elapsed_seconds)
                # Every tuple a scan reads is a record access (Fig. 9
                # charges scanning systems the whole file).
                outcomes.append(Outcome(
                    key, "completed", m.elapsed_seconds, m.rows_scanned,
                    result, canonical_q5_rows_scan))
                sim += m.elapsed_seconds
                continue
            with self.tracer.span("job.build"):
                planner = PlanningExecutor(
                    self.lake.catalog, self.lake.blockstore,
                    self.cluster_spec)
                logical = self.lake.q5_chain(low, high,
                                             region).logical_plan()
            with self.tracer.span("job.execute"):
                result = planner.execute(logical)
            scan_stages += sum(
                1 for path in result.planned.mixed.access_paths
                if path == "scan") if result.executed == "mixed" else 0
            estimate = result.planned.stage_estimates[-1].rows_out
            q_errors.append(max((estimate + 1) / (len(result.rows) + 1),
                                (len(result.rows) + 1) / (estimate + 1)))
            outcomes.append(Outcome(
                key, "completed", result.elapsed_seconds,
                result.record_accesses, result,
                canonical_q5_rows_scan if result.executed == "scan"
                else canonical_q5_rows_rede))
            sim += result.elapsed_seconds
        counters = {
            "storage.scan_bytes_per_job": statistics.fmean(scan_bytes),
            "baselines.scan_sim_ms": statistics.fmean(scan_sim) * 1e3,
            "plan.scan_stages_chosen": scan_stages,
            "plan.cardinality_q_error_max": max(q_errors),
        }
        # PlanningExecutor builds its cluster internally, so this
        # workload cannot read its kernels' event counts.
        return Round(outcomes, sim, None, counters)


#: gateway ticket states -> outcome states
_TICKET_STATES = {
    "completed": "completed",
    "rejected": "refused",
    "backpressure": "refused",
    "shed": "shed",
    "expired": "expired",
    "cancelled": "expired",
    "failed": "failed",
}


def drain(cluster, tickets) -> None:
    pending = [t.done for t in tickets if not t.finished]
    if pending:
        cluster.run_until(cluster.sim.all_of(pending))


def conditioned_poisson(rng: random.Random, start: float, duration: float,
                        count: int) -> list[float]:
    """Arrival times of a Poisson process on ``[start, start+duration)``
    conditioned on its count (uniform order statistics), so the trace
    offers exactly the stated load."""
    return sorted(start + rng.random() * duration for __ in range(count))


class ServeBurst(_Q5Lake):
    """Open loop: one rate-stepped trace through the serving gateway."""

    name = "serve_burst"
    loop = ("open loop on simulated time (the generator is a simulated "
            "process, so it is never late): 2 s at 25 jobs/s, 2 s at "
            "100 jobs/s, 2 s at 25 jobs/s, then drain")
    #: (phase, simulated seconds, jobs/s)
    phases = (("low", 2.0, 25), ("burst", 2.0, 100), ("recover", 2.0, 25))
    selectivities = (0.002, 0.01, 0.05)
    slots = 4
    queue_limit = 32
    #: one arrival in five is the half-weight `batch` tenant's, queued on
    #: the sheddable background lane
    batch_every = 5
    #: interactive jobs are abandoned after this long (simulated s)
    web_deadline = 1.0

    def __init__(self, seed: int, tracer) -> None:
        super().__init__(seed, tracer)
        classes = [("serve", s, r)
                   for s in self.selectivities for r in REGIONS]
        self.add_references(classes)
        rng = random.Random(TRACE_SEED)
        self.arrivals: list[tuple[float, str, str, tuple]] = []
        start = 0.0
        for phase, seconds, rate in self.phases:
            count = int(seconds * rate)
            times = conditioned_poisson(rng, start, seconds, count)
            # A balanced multiset of job classes and tenants, shuffled:
            # the mix is exact, only its order is drawn.
            keys = [classes[i % len(classes)] for i in range(count)]
            tenants = ["batch" if i % self.batch_every == 0 else "web"
                       for i in range(count)]
            rng.shuffle(keys)
            rng.shuffle(tenants)
            self.arrivals.extend(
                (t, phase, tenant, key)
                for t, tenant, key in zip(times, tenants, keys))
            start += seconds
        self.jobs = {key: self.q5(key[1], key[2]) for key in classes}

    def run_round(self) -> Round:
        with self.tracer.span("job.build"):
            cluster = self.lake.make_cluster(scan_seconds=SCAN_SECONDS)
            gateway = QueryGateway(cluster, self.lake.catalog,
                                   max_concurrent=self.slots,
                                   global_queue_limit=self.queue_limit)
            gateway.register(TenantSpec("web", weight=1.0))
            gateway.register(TenantSpec("batch", weight=0.5))
        tickets = []

        def drive():
            clock = 0.0
            for when, phase, tenant, key in self.arrivals:
                yield cluster.sim.timeout(when - clock)
                clock = when
                if tenant == "web":
                    ticket = gateway.submit("web", self.jobs[key],
                                            deadline=self.web_deadline)
                else:
                    ticket = gateway.submit("batch", self.jobs[key],
                                            lane="background")
                tickets.append((ticket, phase, key))

        with self.tracer.span("job.execute"):
            cluster.run_until(cluster.launch(drive(), name="arrivals"))
            drain(cluster, [t for t, __, __ in tickets])
            gateway.close()

        outcomes, metrics = [], []
        by_phase: dict[str, list[float]] = {p: [] for p, __, __ in
                                            self.phases}
        for ticket, phase, key in tickets:
            state = _TICKET_STATES[ticket.state]
            if state != "completed":
                outcomes.append(Outcome(key, state))
                continue
            m = ticket.result.metrics
            metrics.append(m)
            by_phase[phase].append(ticket.latency)
            outcomes.append(Outcome(key, state, ticket.latency,
                                    m.record_accesses, ticket.result))
        counters = fold_engine(metrics)
        trackers = list(gateway.metrics.values())
        waits = [w for t in trackers for w in t.queue_waits]
        counters.update({
            "service.queue_wait_sim_ms_p50": percentile(waits, 0.5) * 1e3,
            "service.queue_wait_sim_ms_p95": percentile(waits, 0.95) * 1e3,
            "service.admitted": sum(t.admitted for t in trackers),
            "service.rejected": sum(t.rejected for t in trackers),
            "service.backpressured": sum(t.backpressured for t in trackers),
            "service.shed": sum(t.shed for t in trackers),
            "service.expired": sum(t.expired_queued + t.expired_running
                                   for t in trackers),
            "service.degraded": sum(t.degraded for t in trackers),
        })
        for phase, latencies in by_phase.items():
            counters[f"service.sim_p95_ms_{phase}_phase"] = (
                percentile(latencies, 0.95) * 1e3)
        return Round(outcomes, cluster.sim.now,
                     cluster.sim.events_processed, counters)


class IngestMixed(_Q5Lake):
    """Open loop: lineitem micro-batches flushed and lazily compacted on
    the gateway's background lane while analyst Q5' queries arrive."""

    name = "ingest_mixed"
    loop = ("open loop on simulated time (the generators are simulated "
            "processes, so they are never late): 200 analyst queries "
            "and 32 micro-batches over 20 simulated s")
    scale_factor = 0.002
    num_nodes = 4
    selectivity = 0.05
    num_batches = 32
    appends_per_batch = 30
    upserts_per_batch = 10
    num_queries = 200
    #: simulated seconds over which queries and batches arrive
    duration = 20.0
    #: per-node LRU pool, smaller than a node's share of the lake, so
    #: compaction's page invalidations and evictions both happen
    cache_bytes = 64 * 1024

    def __init__(self, seed: int, tracer) -> None:
        super().__init__(seed, tracer)
        self.key = ("ingest", self.selectivity, REGION)
        self.add_references([self.key])
        rng = random.Random(TRACE_SEED)
        self.query_times = conditioned_poisson(rng, 0.0, self.duration,
                                               self.num_queries)
        self.batch_rows = self._draw_batches(rng)
        self.fresh = True

    def _draw_batches(self, rng: random.Random) -> list[tuple]:
        """Micro-batches copied from the lake's own lineitems: new lines
        for existing orders, and replacement versions of existing lines
        (3 : 1)."""
        source = self.lake.tables["lineitem"]
        batches, next_line = [], 10_000
        for __ in range(self.num_batches):
            appends, upserts = [], []
            for __ in range(self.appends_per_batch):
                data = dict(rng.choice(source).data)
                data["l_linenumber"] = next_line
                next_line += 1
                appends.append(data)
            for __ in range(self.upserts_per_batch):
                data = dict(rng.choice(source).data)
                data["l_quantity"] = rng.randint(1, 50)
                upserts.append(data)
            batches.append((appends, upserts))
        return batches

    def reset(self) -> None:
        """Each round ingests into a freshly generated lake."""
        if self.fresh:
            self.fresh = False
            return
        with self.tracer.span("reset") as span:
            self.lake = self.make_lake()
        self.reset_seconds.append(span.seconds)

    def run_round(self) -> Round:
        lake = self.lake
        with self.tracer.span("job.build"):
            cluster = lake.make_cluster(scan_seconds=SCAN_SECONDS,
                                        cache_bytes=self.cache_bytes)
            gateway = QueryGateway(cluster, lake.catalog,
                                   global_queue_limit=256)
            gateway.register(TenantSpec("analyst", max_queued=128))
            gateway.register(TenantSpec("ingest", weight=0.5,
                                        max_queued=128))
            coordinator = IngestCoordinator(lake.catalog, cluster)
            compactor = Compactor(lake.catalog, cluster,
                                  policy=CompactionPolicy.lazy())
            job = self.q5(self.selectivity)
            micro_batches = [
                MicroBatch("lineitem",
                           appends=[Record(d) for d in appends],
                           upserts=[Record(d) for d in upserts],
                           event_time=float(b + 1))
                for b, (appends, upserts) in enumerate(self.batch_rows)]
        batch_gap = self.duration / self.num_batches
        staged, compactions, queries = [], [], []
        newest_staged = [0.0]

        def ingest_driver():
            for micro in micro_batches:
                yield cluster.sim.timeout(batch_gap)
                batch = coordinator.stage(micro)
                staged.append((batch, cluster.sim.now, gateway.submit(
                    "ingest", work=background_ingest(coordinator, batch),
                    lane="background")))
                newest_staged[0] = micro.event_time
                for file_name, tier in compactor.due():
                    compactions.append(gateway.submit(
                        "ingest", work=background_compaction(
                            compactor, file_name, tier),
                        lane="background"))

        def query_driver():
            clock = 0.0
            for when in self.query_times:
                yield cluster.sim.timeout(when - clock)
                clock = when
                queries.append((gateway.submit("analyst", job),
                                newest_staged[0]))

        with self.tracer.span("job.execute"):
            drivers = [cluster.launch(ingest_driver(), name="ingest"),
                       cluster.launch(query_driver(), name="analyst")]
            cluster.run_until(cluster.sim.all_of(drivers))
            drain(cluster, [t for __, __, t in staged] + compactions
                  + [t for t, __ in queries])
            gateway.close()

        outcomes, metrics, staleness = [], [], []
        for ticket, newest in queries:
            state = _TICKET_STATES[ticket.state]
            if state != "completed":
                outcomes.append(Outcome(self.key, state))
                continue
            m = ticket.result.metrics
            metrics.append(m)
            staleness.append(newest - (m.freshness_watermark or 0.0))
            # Only a query that saw no commit has a fixed reference (the
            # base lake's); for the rows served mid-stream the convergence
            # check in ``verify`` stands in.
            outcomes.append(Outcome(
                self.key, state, ticket.latency, m.record_accesses,
                ticket.result if m.freshness_watermark is None else None))
        for batch, __, ticket in staged:
            if not batch.committed:
                outcomes.append(Outcome(("flush",), "failed"))
        commits = [batch.commit_time - staged_at
                   for batch, staged_at, __ in staged if batch.committed]
        rows = self.num_batches * (self.appends_per_batch
                                   + self.upserts_per_batch)
        last_commit = max(batch.commit_time for batch, __, __ in staged
                          if batch.committed)
        counters = fold_engine(metrics)
        cache = cluster.cache_stats()
        counters.update({
            "sim_commit_ms_p50": statistics.median(commits) * 1e3,
            "storage.cache_evictions": cache.evictions,
            "storage.cache_invalidations": cache.invalidations,
            "ingest.delta_probes_per_query":
                statistics.fmean(m.delta_probes for m in metrics),
            "ingest.final_delta_depth":
                lake.catalog.delta_depth("lineitem"),
            "ingest.minor_compactions": compactor.minor_compactions,
            "ingest.major_compactions": compactor.major_compactions,
            "ingest.staleness_batches_mean": statistics.fmean(staleness),
            "ingest.sim_rows_per_s": rows / (last_commit - staged[0][1]),
            "ingest.compaction_sim_ms_total":
                sum(t.latency for t in compactions) * 1e3,
        })
        waits = gateway.metrics["analyst"].queue_waits
        counters["service.queue_wait_sim_ms_p50"] = (
            percentile(waits, 0.5) * 1e3)
        counters["service.queue_wait_sim_ms_p95"] = (
            percentile(waits, 0.95) * 1e3)
        counters["service.admitted"] = sum(
            t.admitted for t in gateway.metrics.values())
        return Round(outcomes, cluster.sim.now,
                     cluster.sim.events_processed, counters,
                     extra=coordinator)

    def verify(self, rnd: Round) -> int:
        """Convergence: flush stragglers, fold every delta, and require
        the delta-served answer, the folded answer and the oracle's
        answer on the folded lake to be one row set."""
        lake, coordinator = self.lake, rnd.extra
        rnd.extra = None
        with self.tracer.span("job.verify"):
            coordinator.flush_pending()
            job = self.q5(self.selectivity)
            served = canonical_q5_rows_rede(ReDeExecutor(
                lake.make_cluster(scan_seconds=SCAN_SECONDS), lake.catalog,
                mode="smpe").execute(job))
            Compactor(lake.catalog).compact("lineitem", "major")
            folded = canonical_q5_rows_rede(ReDeExecutor(
                lake.make_cluster(scan_seconds=SCAN_SECONDS), lake.catalog,
                mode="smpe").execute(job))
            oracle = canonical_q5_rows_rede(ReDeExecutor(
                None, lake.catalog, mode="reference").execute(job))
        converged = (lake.catalog.delta_depth("lineitem") == 0
                     and served == folded == oracle)
        if converged:
            return super().verify(rnd)
        # The lake the analysts queried did not converge to the oracle:
        # none of their answers can be trusted.
        wrong = 0
        for outcome in rnd.outcomes:
            if outcome.state == "completed":
                outcome.state = "wrong"
                wrong += 1
        return wrong


WORKLOADS = {cls.name: cls for cls in (
    Q5IndexSmpe, Q5IndexPartitionedBatch, Q5ScanPlanned, ServeBurst,
    IngestMixed)}
