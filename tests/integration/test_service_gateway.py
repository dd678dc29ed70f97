"""Integration: the query gateway end to end on simulated time.

Covers the serving state machine against a real cluster + engine: the
zero-load bit-identity guarantee, both admission rungs, deadlines
expiring in queue vs mid-stage, graceful degradation, fairness under a
flooding tenant, shed-then-resubmit idempotency of background work,
scrub and repair on the background lane beside interactive queries,
cancellation racing a node crash mid-retry, and the exact reconciliation
of service-level metrics with engine-level metrics.
"""

import pytest

from repro.cluster import (Cluster, ClusterSpec, FaultPlan, NodeCrash,
                           PageCorruption)
from repro.config import EngineConfig
from repro.core import (
    AccessMethodDefinition,
    ChainQuery,
    MaintenanceWorker,
    MappingInterpreter,
    Record,
    StructureCatalog,
    StructureState,
)
from repro.core.scrub import ScrubReport, ScrubWorker
from repro.engine import ReDeExecutor, SmpeEngine
from repro.errors import ExecutionError
from repro.service import (
    BackgroundWork,
    OverloadPolicy,
    QueryGateway,
    ServiceMetrics,
    TenantSpec,
    background_build,
    background_repair,
    background_scrub,
)
from repro.storage import DistributedFileSystem

INTERP = MappingInterpreter()
NUM_NODES = 4


@pytest.fixture(scope="module")
def catalog():
    dfs = DistributedFileSystem(num_nodes=NUM_NODES)
    catalog = StructureCatalog(dfs)
    records = [Record({"pk": i, "attr": i % 50}) for i in range(2000)]
    catalog.register_file("t", records, lambda r: r["pk"])
    catalog.register_access_method(AccessMethodDefinition(
        name="idx_attr", base_file="t", interpreter=INTERP,
        key_field="attr", scope="global"))
    catalog.build_all()
    return catalog


def make_job(k=0, width=10):
    low = k % 40
    return (ChainQuery(f"q{k}", interpreter=INTERP)
            .from_index_range("idx_attr", low, low + width - 1, base="t")
            .build())


def make_gateway(catalog, **kwargs):
    cluster = Cluster(ClusterSpec(num_nodes=NUM_NODES))
    return cluster, QueryGateway(cluster, catalog, **kwargs)


def drain(cluster, tickets):
    pending = [t.done for t in tickets if not t.finished]
    if pending:
        cluster.run_until(cluster.sim.all_of(pending))


class TestZeroLoad:
    def test_single_job_bit_identical_to_direct_submission(self, catalog):
        """The gateway adds zero simulated time to an uncontended job."""
        cluster, gateway = make_gateway(catalog)
        gateway.register(TenantSpec("solo"))
        ticket = gateway.submit("solo", make_job())
        drain(cluster, [ticket])

        direct_cluster = Cluster(ClusterSpec(num_nodes=NUM_NODES))
        done, direct = SmpeEngine(direct_cluster, catalog).submit(make_job())
        direct_cluster.run_until(done)

        assert ticket.state == "completed"
        assert len(ticket.result.rows) == len(direct.rows) == 400
        assert (ticket.result.metrics.summary()
                == direct.metrics.summary())
        assert ticket.latency == direct.metrics.elapsed_seconds


class TestAdmission:
    def test_zero_capacity_tenant_rejects_everything(self, catalog):
        cluster, gateway = make_gateway(catalog)
        gateway.register(TenantSpec("frozen", max_queued=0))
        ticket = gateway.submit("frozen", make_job())
        assert ticket.state == "rejected"
        assert ticket.finished
        assert not ticket.admitted
        assert gateway.metrics["frozen"].rejected == 1
        # The refusal is final: its done event fires without the ticket
        # ever reaching the scheduler or the engine.
        cluster.run_until(ticket.done)
        assert ticket.result is None

    def test_per_tenant_limit_spares_other_tenants(self, catalog):
        cluster, gateway = make_gateway(catalog, max_concurrent=1,
                                        global_queue_limit=64)
        gateway.register(TenantSpec("greedy", max_queued=2))
        gateway.register(TenantSpec("other"))
        # All four arrive at the same instant (nothing has dispatched
        # yet): two fill greedy's queue share, the rest are rejected.
        tickets = [gateway.submit("greedy", make_job(k)) for k in range(4)]
        states = [t.state for t in tickets]
        assert states == ["queued", "queued", "rejected", "rejected"]
        # Another tenant is untouched by greedy's limit.
        other = gateway.submit("other", make_job())
        assert other.state == "queued"
        drain(cluster, tickets + [other])
        assert gateway.metrics["greedy"].completed == 2
        assert gateway.metrics["other"].completed == 1

    def test_global_limit_backpressures(self, catalog):
        cluster, gateway = make_gateway(catalog, max_concurrent=1,
                                        global_queue_limit=2)
        gateway.register(TenantSpec("t"))
        tickets = [gateway.submit("t", make_job(k)) for k in range(5)]
        states = [t.state for t in tickets]
        assert states == ["queued", "queued", "backpressure",
                          "backpressure", "backpressure"]
        assert gateway.metrics["t"].backpressured == 3
        drain(cluster, tickets)
        m = gateway.metrics["t"]
        assert m.completed == 2
        assert m.submitted == m.completed + m.dropped

    def test_interactive_arrival_displaces_queued_background(self, catalog):
        cluster, gateway = make_gateway(catalog, max_concurrent=1,
                                        global_queue_limit=2)
        gateway.register(TenantSpec("web"))
        gateway.register(TenantSpec("maint"))
        filler = gateway.submit("web", make_job())
        # Let the filler dispatch so it holds the slot, not a queue spot.
        cluster.run_until(cluster.sim.timeout(0.001))
        assert filler.state == "running"

        def noop():
            return
            yield

        work = BackgroundWork("noop", noop)
        queued_bg = [gateway.submit("maint", work=work) for __ in range(2)]
        assert all(t.state == "queued" for t in queued_bg)
        vip = gateway.submit("web", make_job(1))
        # The full queue sheds one background unit instead of refusing.
        assert vip.state == "queued"
        assert [t.state for t in queued_bg].count("shed") == 1
        assert gateway.metrics["maint"].shed == 1
        drain(cluster, [filler, vip] + queued_bg)

    def test_unregistered_tenant_and_bad_args_raise(self, catalog):
        cluster, gateway = make_gateway(catalog)
        gateway.register(TenantSpec("t"))
        with pytest.raises(ExecutionError):
            gateway.submit("ghost", make_job())
        with pytest.raises(ExecutionError):
            gateway.submit("t")  # neither job nor work
        with pytest.raises(ExecutionError):
            gateway.submit("t", make_job(), deadline=0.0)


class TestDecisionLog:
    """Satellite regression: the decision ledger is a bounded ring
    buffer — open-loop streaming traffic must not grow it forever."""

    def test_ring_buffer_drops_oldest_and_counts(self, catalog):
        cluster, gateway = make_gateway(catalog, decision_log_limit=5)
        gateway.register(TenantSpec("t"))
        tickets = [gateway.submit("t", make_job(k)) for k in range(8)]
        drain(cluster, tickets)
        # Every admit was logged, but only the newest five survive.
        assert len(gateway.decisions) == 5
        assert gateway.decisions_dropped == 3
        names = [d.request for d in gateway.decisions]
        assert names == [f"q{k}" for k in range(3, 8)]

    def test_default_limit_keeps_everything_small_scale(self, catalog):
        cluster, gateway = make_gateway(catalog)
        gateway.register(TenantSpec("t"))
        drain(cluster, [gateway.submit("t", make_job(k)) for k in range(4)])
        assert len(gateway.decisions) == 4
        assert gateway.decisions_dropped == 0

    def test_invalid_limit_rejected(self, catalog):
        with pytest.raises(ExecutionError):
            make_gateway(catalog, decision_log_limit=0)


class TestDeadlines:
    def test_deadline_expires_in_queue(self, catalog):
        cluster, gateway = make_gateway(catalog, max_concurrent=1)
        gateway.register(TenantSpec("t"))
        blocker = gateway.submit("t", make_job(0))
        doomed = gateway.submit("t", make_job(1), deadline=0.001)
        drain(cluster, [blocker, doomed])
        assert blocker.state == "completed"
        assert doomed.state == "expired"
        assert doomed.result is None  # never touched the engine
        m = gateway.metrics["t"]
        assert m.expired_queued == 1
        assert m.submitted == m.completed + m.dropped

    def test_deadline_cancels_mid_stage_keeping_partial_rows(self, catalog):
        """An expiring deadline cancels cooperatively: the ticket keeps
        the rows that had already cleared the pipeline."""
        cluster, gateway = make_gateway(catalog)
        gateway.register(TenantSpec("t"))
        # The uncontended job takes ~35ms; 30ms lands mid-execution.
        ticket = gateway.submit("t", make_job(), deadline=0.030)
        drain(cluster, [ticket])
        assert ticket.state == "cancelled"
        assert ticket.result.cancelled
        assert 0 < len(ticket.result.rows) < 400
        assert ticket.error is None
        m = gateway.metrics["t"]
        assert m.expired_running == 1
        assert m.completed == 0
        assert any(d.action == "cancel" for d in gateway.decisions)

    def test_generous_deadline_never_fires(self, catalog):
        cluster, gateway = make_gateway(catalog)
        gateway.register(TenantSpec("t"))
        ticket = gateway.submit("t", make_job(), deadline=10.0)
        drain(cluster, [ticket])
        assert ticket.state == "completed"
        assert len(ticket.result.rows) == 400


class TestDegradation:
    def test_hot_queue_dispatches_the_fallback_plan(self, catalog):
        cluster, gateway = make_gateway(
            catalog, max_concurrent=1,
            policy=OverloadPolicy(degrade_depth=2, shed_depth=50))
        gateway.register(TenantSpec("t"))
        cheap = make_job(0, width=2)  # 80 rows instead of 400
        tickets = [gateway.submit("t", make_job(k), fallback_job=cheap)
                   for k in range(4)]
        drain(cluster, tickets)
        degraded = [t for t in tickets if t.degraded]
        assert degraded  # the backlog crossed degrade_depth
        assert all(len(t.result.rows) == 80 for t in degraded)
        assert all(len(t.result.rows) == 400 for t in tickets
                   if not t.degraded)
        assert gateway.metrics["t"].degraded == len(degraded)
        assert all(t.state == "completed" for t in tickets)

    def test_cold_queue_never_degrades(self, catalog):
        cluster, gateway = make_gateway(catalog)
        gateway.register(TenantSpec("t"))
        ticket = gateway.submit("t", make_job(),
                                fallback_job=make_job(0, width=2))
        drain(cluster, [ticket])
        assert not ticket.degraded
        assert len(ticket.result.rows) == 400


class TestFairness:
    def test_flooding_tenant_cannot_starve_a_modest_one(self, catalog):
        """A tenant submitting 10x its share: the modest tenant's two
        jobs finish while the flood is still mostly queued."""
        cluster, gateway = make_gateway(catalog, max_concurrent=1,
                                        global_queue_limit=64)
        gateway.register(TenantSpec("flood"))
        gateway.register(TenantSpec("modest"))
        flood = [gateway.submit("flood", make_job(k)) for k in range(20)]
        modest = [gateway.submit("modest", make_job(k)) for k in range(2)]
        drain(cluster, modest)
        done_of_flood = sum(1 for t in flood if t.finished)
        assert all(t.state == "completed" for t in modest)
        # WFQ alternates, so at most a handful of flood jobs finished
        # before modest's two did — nowhere near its queued 20.
        assert done_of_flood <= 3
        drain(cluster, flood)

    def test_cancel_queued_ticket_leaves_the_schedule(self, catalog):
        cluster, gateway = make_gateway(catalog, max_concurrent=1)
        gateway.register(TenantSpec("t"))
        running = gateway.submit("t", make_job(0))
        queued = gateway.submit("t", make_job(1))
        assert gateway.cancel(queued, "changed my mind")
        assert queued.state == "cancelled"
        assert not gateway.cancel(queued)  # already settled
        drain(cluster, [running])
        assert gateway.queue_depth == 0


class TestBackgroundWork:
    def test_shed_then_resubmit_build_is_idempotent(self, catalog):
        """A shed build never ran, so resubmitting it builds exactly
        once; resubmitting after completion is a cheap no-op."""
        dfs = DistributedFileSystem(num_nodes=NUM_NODES)
        local = StructureCatalog(dfs)
        records = [Record({"pk": i, "v": i % 5}) for i in range(200)]
        local.register_file("u", records, lambda r: r["pk"])
        local.register_access_method(AccessMethodDefinition(
            name="idx_v", base_file="u", interpreter=INTERP,
            key_field="v", scope="global"))
        cluster, gateway = make_gateway(local, max_concurrent=1)
        worker = MaintenanceWorker(local, cluster=cluster)
        gateway.register(TenantSpec("web"))
        gateway.register(TenantSpec("maint"))

        def hold():
            yield cluster.sim.timeout(0.01)

        blocker = gateway.submit("web", work=BackgroundWork("hold", hold),
                                 lane="interactive")
        first = gateway.submit("maint",
                               work=background_build(worker, "idx_v"))
        assert first.state == "queued"
        # Shed it before it ever dispatches: nothing touched the cluster.
        victim = gateway.scheduler.shed_one(protect_lane="interactive")
        assert victim is first.request
        gateway._mark_shed(victim, "test shed")
        assert first.state == "shed"
        assert local.state("idx_v") is StructureState.PENDING

        resubmit = gateway.submit("maint",
                                  work=background_build(worker, "idx_v"))
        again = gateway.submit("maint",
                               work=background_build(worker, "idx_v"))
        drain(cluster, [blocker, resubmit, again])
        assert resubmit.state == "completed"
        assert again.state == "completed"  # no-op on the READY structure
        assert local.state("idx_v") is StructureState.READY
        # The duplicate added no simulated time: it completed the
        # instant it was dispatched.
        assert again.finished_at == again.dispatched_at

    def test_background_lane_yields_to_interactive(self, catalog):
        cluster, gateway = make_gateway(catalog, max_concurrent=1)
        gateway.register(TenantSpec("web"))
        gateway.register(TenantSpec("maint", weight=0.5))

        def slow_work():
            yield cluster.sim.timeout(0.5)

        blocker = gateway.submit("web", make_job(0))
        bg = gateway.submit("maint", work=BackgroundWork("slow", slow_work))
        vip = gateway.submit("web", make_job(1))
        drain(cluster, [blocker, vip])
        assert vip.state == "completed"
        assert not bg.finished  # still queued or just started
        drain(cluster, [bg])
        assert bg.state == "completed"


    def test_running_counts_dispatched_work(self, catalog):
        cluster, gateway = make_gateway(catalog, max_concurrent=2)
        gateway.register(TenantSpec("maint"))

        def hold():
            yield cluster.sim.timeout(0.01)

        tickets = [gateway.submit("maint", work=BackgroundWork("hold", hold))
                   for __ in range(3)]
        cluster.run_until(cluster.sim.timeout(0.005))
        assert gateway.running == 2
        assert gateway.queue_depth == 1
        drain(cluster, tickets)
        assert gateway.running == 0


class TestScrubAndRepair:
    """``background_scrub`` and ``background_repair`` run the very
    generators ``ScrubWorker.run_once`` drives, here on the shared
    timeline beside interactive queries."""

    @staticmethod
    def corrupt_lake():
        dfs = DistributedFileSystem(num_nodes=NUM_NODES)
        local = StructureCatalog(dfs)
        records = [Record({"pk": i, "v": i % 20}) for i in range(800)]
        local.register_file("u", records, lambda r: r["pk"])
        for name, field in (("idx_v", "v"), ("idx_pk", "pk")):
            local.register_access_method(AccessMethodDefinition(
                name=name, base_file="u", interpreter=INTERP,
                key_field=field, scope="global"))
        plan = FaultPlan(seed=5, page_corruptions=(
            PageCorruption("idx_v", 0.3),))
        cluster = Cluster(ClusterSpec(num_nodes=NUM_NODES), fault_plan=plan)
        MaintenanceWorker(local, cluster).run_pending()
        return local, cluster

    @staticmethod
    def interactive(k):
        # Probes the clean index only, so no query quarantines idx_v
        # before the scrub gets to demote it.
        return (ChainQuery(f"web{k}", interpreter=INTERP)
                .from_index_range("idx_pk", 40 * k, 40 * k + 39, base="u")
                .build())

    def test_scrub_demotes_then_repair_restores(self):
        local, cluster = self.corrupt_lake()
        gateway = QueryGateway(cluster, local, max_concurrent=2)
        gateway.register(TenantSpec("web"))
        gateway.register(TenantSpec("maint"))
        worker = ScrubWorker(local, cluster)
        report = ScrubReport()
        assert local.state("idx_v") is StructureState.READY

        scrub = gateway.submit(
            "maint", work=background_scrub(worker, "idx_v", report))
        queries = [gateway.submit("web", self.interactive(k))
                   for k in range(3)]
        drain(cluster, [scrub] + queries)
        assert scrub.state == "completed"
        assert all(q.state == "completed" for q in queries)
        assert all(len(q.result.rows) == 40 for q in queries)
        assert local.state("idx_v") is StructureState.DEGRADED
        assert report.structures_checked == 1
        assert report.findings
        assert {f.structure for f in report.findings} == {"idx_v"}
        assert report.demoted == ["idx_v"]
        assert report.entries_verified > 0
        assert report.scrub_seconds > 0.0

        # The generators own their guards: a scrub of the demoted
        # structure, and later a repair of the healthy one, complete the
        # instant they dispatch.
        rescrub = gateway.submit(
            "maint", work=background_scrub(worker, "idx_v", report))
        repair = gateway.submit("maint",
                                work=background_repair(worker, "idx_v"))
        queries = [gateway.submit("web", self.interactive(k))
                   for k in range(3, 6)]
        drain(cluster, [rescrub, repair] + queries)
        assert rescrub.state == "completed"
        assert rescrub.finished_at == rescrub.dispatched_at
        assert report.structures_checked == 1
        assert repair.state == "completed"
        assert repair.finished_at > repair.dispatched_at
        assert all(q.state == "completed" for q in queries)
        assert local.state("idx_v") is StructureState.READY
        assert not cluster.faults.has_corruption

        again = gateway.submit("maint",
                               work=background_repair(worker, "idx_v"))
        drain(cluster, [again])
        assert again.state == "completed"
        assert again.finished_at == again.dispatched_at

        job = (ChainQuery("after", interpreter=INTERP)
               .from_index_range("idx_v", 3, 7, base="u").build())
        after = gateway.submit("web", job)
        drain(cluster, [after])
        reference = ReDeExecutor(None, local, mode="reference").execute(job)
        assert after.state == "completed"
        assert len(after.result.rows) == len(reference.rows) == 200
        assert (sorted(row.record["pk"] for row in after.result.rows)
                == sorted(row.record["pk"] for row in reference.rows))


class TestCancellationUnderFaults:
    def test_cancel_races_node_crash_mid_retry(self, catalog):
        """A cancellation landing while the engine is absorbing a node
        crash (and retrying transient faults) settles cleanly: partial
        rows, no exception, and the gateway's ledger stays consistent."""
        plan = FaultPlan(seed=7, transient_io_rate=0.08,
                         node_crashes=(NodeCrash(3, 0.004),))
        cluster = Cluster(ClusterSpec(num_nodes=NUM_NODES),
                          fault_plan=plan)
        gateway = QueryGateway(cluster, catalog,
                               EngineConfig(on_error="retry"))
        gateway.register(TenantSpec("t"))
        ticket = gateway.submit("t", make_job())

        def canceller():
            # Land after the crash, while retries are still in flight.
            yield cluster.sim.timeout(0.020)
            gateway.cancel(ticket, "user abort during recovery")

        cluster.launch(canceller(), name="canceller")
        drain(cluster, [ticket])
        assert ticket.state == "cancelled"
        assert ticket.error is None
        assert ticket.result.cancelled
        assert 0 < len(ticket.result.rows) < 400
        assert ticket.result.metrics.node_crashes == 1
        assert ticket.result.metrics.retries > 0
        # Cancellation by the caller is not a deadline expiry.
        assert gateway.metrics["t"].expired_running == 0
        # The cluster survives to serve the next job normally.
        follow_up = gateway.submit("t", make_job(1))
        drain(cluster, [follow_up])
        assert follow_up.state == "completed"


class TestReconciliation:
    def test_engine_totals_match_per_job_sums(self, catalog):
        """Service-level accounting reconciles exactly with the engine:
        the gateway's aggregated counters equal the fold, under each
        field's declared merge rule, of every finished job's
        ExecutionMetrics."""
        cluster, gateway = make_gateway(catalog, max_concurrent=2)
        gateway.register(TenantSpec("a"))
        gateway.register(TenantSpec("b", weight=2.0))
        tickets = [gateway.submit("a" if k % 2 else "b", make_job(k))
                   for k in range(6)]
        tickets.append(gateway.submit("a", make_job(6), deadline=0.030))
        drain(cluster, tickets)

        acc = ServiceMetrics(tenant="check")
        for t in tickets:
            # A deadline that expired in queue never touched the engine
            # and contributes nothing; every dispatched job contributes
            # its full ExecutionMetrics (even if deadline-cancelled).
            if t.result is not None:
                acc.engine.merge(t.result.metrics)
        assert any(t.state in ("expired", "cancelled") for t in tickets)
        assert gateway.engine_totals().summary() == acc.engine.summary()

    def test_engine_totals_keep_batch_fill(self, catalog):
        """A batched job's fill survives the gateway's aggregation: the
        totals report the job's own fill and capacity, not 0."""
        cluster, gateway = make_gateway(
            catalog, config=EngineConfig(batch_size=16))
        gateway.register(TenantSpec("solo"))
        ticket = gateway.submit("solo", make_job(width=20))
        drain(cluster, [ticket])
        assert ticket.state == "completed"
        job = ticket.result.metrics
        assert job.batches > 0 and 0.0 < job.batch_fill < 1.0
        totals = gateway.engine_totals()
        assert totals.batched_capacity == job.batched_capacity
        assert totals.batch_fill == job.batch_fill
        assert totals.summary()["batch_fill"] == job.summary()["batch_fill"]

    def test_one_crash_seen_by_concurrent_jobs_counts_once(self, catalog):
        """Two concurrent jobs both observe the same node crash; the
        folded ledger reports the most crashes any one job saw, not one
        per job."""
        plan = FaultPlan(seed=3, node_crashes=(NodeCrash(3, 0.004),))
        cluster = Cluster(ClusterSpec(num_nodes=NUM_NODES),
                          fault_plan=plan)
        gateway = QueryGateway(cluster, catalog,
                               EngineConfig(on_error="retry"),
                               max_concurrent=2)
        gateway.register(TenantSpec("t"))
        tickets = [gateway.submit("t", make_job(k)) for k in range(2)]
        drain(cluster, tickets)
        assert [t.state for t in tickets] == ["completed"] * 2
        assert [t.result.metrics.node_crashes for t in tickets] == [1, 1]
        assert gateway.engine_totals().node_crashes == 1
