"""Integration: the streaming ingest subsystem end to end.

Covers the acceptance contract of the ingest PR: a seeded node crash
during a delta flush or a major compaction leaves the structure
queryable (the interrupted work is invisible, its paid IO checkpointed)
and a follow-up maintenance run converges to exactly the answer a
fault-free twin lake produces; a charged minor compaction answers like
a clusterless one; background ingest and compaction flow
through the ``QueryGateway`` without disturbing interactive queries,
whose metrics carry a monotone freshness watermark; and a lake whose
delta registry has seen zero batches stays bit-identical to a lake with
no registry at all.
"""

import pytest

from repro.cluster import Cluster, ClusterSpec, FaultPlan, NodeCrash
from repro.core import (
    AccessMethodDefinition,
    ChainQuery,
    MappingInterpreter,
    Record,
    StructureCatalog,
    StructureState,
)
from repro.engine import ReDeExecutor, SmpeEngine
from repro.ingest import Compactor, IngestCoordinator, MicroBatch
from repro.service import (
    QueryGateway,
    TenantSpec,
    background_compaction,
    background_ingest,
)
from repro.storage import DistributedFileSystem

INTERP = MappingInterpreter()
NUM_NODES = 4
FIELDS = ["pk", "attr", "version"]


def build_lake(num_records=800):
    dfs = DistributedFileSystem(num_nodes=NUM_NODES)
    catalog = StructureCatalog(dfs)
    records = [Record({"pk": i, "attr": i % 40, "version": 0})
               for i in range(num_records)]
    catalog.register_file("t", records, lambda r: r["pk"])
    catalog.register_access_method(AccessMethodDefinition(
        name="idx_attr", base_file="t", interpreter=INTERP,
        key_field="attr", scope="global"))
    catalog.ensure_built("idx_attr")
    return catalog


def make_batch(start, count, event_time, upsert_pks=()):
    appends = [Record({"pk": start + i, "attr": (start + i) % 40,
                       "version": 1}) for i in range(count)]
    upserts = [Record({"pk": pk, "attr": pk % 40, "version": 9})
               for pk in upsert_pks]
    return MicroBatch("t", appends=appends, upserts=upserts,
                      event_time=event_time)


def answer(catalog, low=0, high=39):
    job = (ChainQuery("probe", interpreter=INTERP)
           .from_index_range("idx_attr", low, high, base="t")
           .build())
    result = ReDeExecutor(None, catalog, mode="reference").execute(job)
    return sorted(tuple(row.project(INTERP, FIELDS).items())
                  for row in result.rows)


def fault_free_twin(batches, compact=None):
    """The oracle: an identical lake fed the same batches, no faults."""
    catalog = build_lake()
    coordinator = IngestCoordinator(catalog)
    for micro in batches:
        coordinator.flush(coordinator.stage(micro))
    if compact:
        Compactor(catalog).compact("t", compact)
    return answer(catalog)


class TestCrashDuringFlush:
    def test_interrupted_flush_invisible_then_converges(self):
        """A node crash mid-flush leaves the batch BUILDING with partial
        checkpoints, the lake serving its pre-batch contents, and a
        resumed flush converging to the fault-free answer."""
        catalog = build_lake()
        before = answer(catalog)
        cluster = Cluster(
            ClusterSpec(num_nodes=NUM_NODES),
            fault_plan=FaultPlan(seed=3,
                                 node_crashes=(NodeCrash(1, 0.0004),)))
        coordinator = IngestCoordinator(catalog, cluster)
        micro = make_batch(1000, 200, event_time=1.0,
                           upsert_pks=(0, 7, 13))
        batch = coordinator.stage(micro)
        coordinator.flush(batch)

        # Interrupted: partial progress is checkpointed, nothing visible.
        assert batch.state is StructureState.BUILDING
        assert not batch.committed
        assert 0 < len(batch.checkpoints) < NUM_NODES * 2
        assert catalog.delta_depth("t") == 0
        assert answer(catalog) == before
        watermark = coordinator.watermark()
        assert watermark.pending_batches == 1
        assert watermark.committed_batches == 0

        # The resumed flush pays only the remainder and commits.
        paid = set(batch.checkpoints)
        coordinator.flush(batch)
        assert batch.committed
        assert paid <= batch.checkpoints
        assert catalog.delta_depth("t") == 1
        assert answer(catalog) == fault_free_twin([micro])
        assert coordinator.watermark().committed_through == 1.0

    def test_flush_cost_resumes_not_restarts(self):
        """The resumed flush is cheaper than a from-scratch flush of an
        identical batch on the same (degraded) cluster: checkpointed
        partitions are never re-charged."""
        catalog = build_lake()
        cluster = Cluster(
            ClusterSpec(num_nodes=NUM_NODES),
            fault_plan=FaultPlan(seed=3,
                                 node_crashes=(NodeCrash(1, 0.0004),)))
        coordinator = IngestCoordinator(catalog, cluster)
        batch = coordinator.stage(make_batch(1000, 200, event_time=1.0))
        coordinator.flush(batch)
        assert not batch.committed

        def total_ops():
            return sum(node.disk.random_reads for node in cluster.nodes)

        start = total_ops()
        coordinator.flush(batch)
        resumed = total_ops() - start
        assert batch.committed

        # Same cluster, same degraded topology, no checkpoints: the
        # from-scratch flush pays every partition, the resumed one paid
        # only the crashed node's orphans.
        start = total_ops()
        coordinator.flush(
            coordinator.stage(make_batch(2000, 200, event_time=2.0)))
        scratch = total_ops() - start
        assert 0 < resumed < scratch


class TestCrashDuringCompaction:
    def test_interrupted_major_compaction_converges(self):
        """A crash mid-major-compaction leaves every run in place (still
        queryable), checkpoints the paid partitions in the registry, and
        a resumed pass converges to the fault-free answer at depth 0."""
        catalog = build_lake()
        batches = [make_batch(1000 + 100 * i, 60, event_time=float(i + 1),
                              upsert_pks=(i, 50 + i))
                   for i in range(3)]
        coordinator = IngestCoordinator(catalog)
        for micro in batches:
            coordinator.flush(coordinator.stage(micro))
        fresh = answer(catalog)
        assert fresh == fault_free_twin(batches)

        cluster = Cluster(
            ClusterSpec(num_nodes=NUM_NODES),
            fault_plan=FaultPlan(seed=5,
                                 node_crashes=(NodeCrash(2, 3e-05),)))
        compactor = Compactor(catalog, cluster)
        compactor.compact("t", "major")

        registry = catalog.delta_registry
        done = registry.compaction_checkpoints.get("t", set())
        assert 0 < len(done) < catalog.dfs.get_base("t").num_partitions
        assert catalog.delta_depth("t") == 3  # nothing retired
        assert compactor.major_compactions == 0
        assert answer(catalog) == fresh  # still fully queryable

        compactor.compact("t", "major")
        assert compactor.major_compactions == 1
        assert catalog.delta_depth("t") == 0
        assert catalog.delta_depth("idx_attr") == 0
        assert "t" not in registry.compaction_checkpoints
        assert answer(catalog) == fault_free_twin(batches, compact="major")
        assert answer(catalog) == fresh


class TestChargedMinorCompaction:
    def test_charged_minor_fold_answers_like_a_clusterless_one(self):
        """A minor compaction on a cluster pays for its fold and leaves the
        same single run, and the same answers, as a clusterless one."""
        batches = [make_batch(1000 + 100 * i, 60, event_time=float(i + 1),
                              upsert_pks=(i, 50 + i))
                   for i in range(3)]

        def streamed_lake():
            catalog = build_lake()
            coordinator = IngestCoordinator(catalog)
            for micro in batches:
                coordinator.flush(coordinator.stage(micro))
            assert catalog.delta_depth("t") == 3
            return catalog

        charged, free = streamed_lake(), streamed_lake()
        fresh = answer(charged)
        cluster = Cluster(ClusterSpec(num_nodes=NUM_NODES))
        compactor = Compactor(charged, cluster)
        assert compactor.compact("t", "minor") > 0.0
        assert compactor.minor_compactions == 1
        assert charged.delta_depth("t") == 1
        assert Compactor(free).compact("t", "minor") == 0.0
        assert free.delta_depth("t") == 1

        assert answer(charged) == answer(free) == fresh
        assert fresh == fault_free_twin(batches)
        job = (ChainQuery("probe", interpreter=INTERP)
               .from_index_range("idx_attr", 0, 39, base="t").build())
        served = ReDeExecutor(cluster, charged, mode="smpe").execute(job)
        assert sorted(tuple(row.project(INTERP, FIELDS).items())
                      for row in served.rows) == fresh


class TestGatewayIngest:
    def test_background_ingest_and_compaction_through_gateway(self):
        """Staged batches flushed through the gateway's background lane
        become visible, interactive queries keep completing, and every
        stamped watermark is monotone in submission order."""
        catalog = build_lake()
        cluster = Cluster(ClusterSpec(num_nodes=NUM_NODES))
        gateway = QueryGateway(cluster, catalog)
        gateway.register(TenantSpec("analyst"))
        gateway.register(TenantSpec("ingest", weight=0.5))
        coordinator = IngestCoordinator(catalog, cluster)
        compactor = Compactor(catalog, cluster)

        def probe(k):
            return (ChainQuery(f"q{k}", interpreter=INTERP)
                    .from_index_range("idx_attr", 0, 39, base="t")
                    .build())

        tickets = []
        tickets.append(gateway.submit("analyst", probe(0)))
        for i in range(2):
            batch = coordinator.stage(
                make_batch(1000 + 100 * i, 40, event_time=float(i + 1)))
            tickets.append(gateway.submit(
                "ingest", work=background_ingest(coordinator, batch),
                lane="background"))
            tickets.append(gateway.submit("analyst", probe(i + 1)))
        pending = [t.done for t in tickets if not t.finished]
        if pending:
            cluster.run_until(cluster.sim.all_of(pending))

        assert all(t.state == "completed" for t in tickets)
        assert not coordinator.pending()
        assert coordinator.watermark().committed_through == 2.0
        # 80 appended records are now served through the same index.
        final = gateway.submit("analyst", probe(99))
        cluster.run_until(final.done)
        assert len(final.result.rows) == 800 + 80
        assert final.result.metrics.freshness_watermark == 2.0
        assert final.result.metrics.delta_probes > 0

        stamps = [t.result.metrics.freshness_watermark
                  for t in tickets + [final]
                  if t.result is not None
                  and t.result.metrics.freshness_watermark is not None]
        assert stamps == sorted(stamps)

        # Background compaction restores the static lake through the
        # same lane.
        ticket = gateway.submit(
            "ingest", work=background_compaction(compactor, "t", "major"),
            lane="background")
        cluster.run_until(ticket.done)
        assert ticket.state == "completed"
        assert catalog.delta_depth("t") == 0
        after = gateway.submit("analyst", probe(100))
        cluster.run_until(after.done)
        assert len(after.result.rows) == 800 + 80
        assert after.result.metrics.delta_probes == 0

    def test_background_ingest_requires_cluster(self):
        catalog = build_lake()
        coordinator = IngestCoordinator(catalog)
        batch = coordinator.stage(make_batch(1000, 5, event_time=1.0))
        from repro.errors import ExecutionError
        with pytest.raises(ExecutionError):
            background_ingest(coordinator, batch)


class TestZeroIngestIdentity:
    def test_empty_registry_is_bit_identical_to_no_registry(self):
        """Attaching a delta registry that never sees a batch changes
        nothing: same rows, same metrics summary, no watermark stamp."""
        def run(with_registry):
            catalog = build_lake()
            if with_registry:
                IngestCoordinator(catalog)  # attaches an empty registry
            cluster = Cluster(ClusterSpec(num_nodes=NUM_NODES))
            job = (ChainQuery("q", interpreter=INTERP)
                   .from_index_range("idx_attr", 3, 17, base="t")
                   .build())
            done, result = SmpeEngine(cluster, catalog).submit(job)
            cluster.run_until(done)
            return result

        plain = run(with_registry=False)
        attached = run(with_registry=True)
        assert attached.metrics.freshness_watermark is None
        assert attached.metrics.summary() == plain.metrics.summary()
        assert (sorted(tuple(r.project(INTERP, ["pk"]).items())
                       for r in attached.rows)
                == sorted(tuple(r.project(INTERP, ["pk"]).items())
                          for r in plain.rows))
