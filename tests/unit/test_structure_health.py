"""Structure lifecycle & integrity: checkpointed builds, corruption faults,
quarantine-aware engines and planner, and the online scrub worker.

The contract under test:

* builds are crash-safe — a ``NodeCrash`` mid-build leaves the structure
  ``BUILDING`` with a consistent completed-partition set, and the next
  maintenance run charges exactly the missing partitions;
* the charge/materialize pair is atomic — a raising build rolls back to
  ``PENDING`` and leaves the catalog unchanged;
* ``PageCorruption`` draws a fixed, seeded corrupt-page set; probing a
  corrupt page raises :class:`StructureCorruptionError`, the engines
  quarantine the structure and re-serve the stage by scan, and the answer
  matches the fault-free run exactly;
* the planner refuses index access paths for unhealthy structures;
* the scrub worker detects every injected corruption, demotes, and repairs.
"""

import pytest

from repro.cluster import Cluster, ClusterSpec, FaultPlan, NodeCrash
from repro.cluster.faults import PageCorruption
from repro.config import EngineConfig
from repro.core import (
    AccessMethodDefinition,
    FileLookupDereferencer,
    IndexEntryReferencer,
    IndexLookupDereferencer,
    IndexRangeDereferencer,
    JobBuilder,
    KeyReferencer,
    MappingInterpreter,
    PointerRange,
    Record,
    StructureCatalog,
)
from repro.core.catalog import StructureState
from repro.core.maintenance import MaintenanceWorker
from repro.core.scrub import ScrubWorker
from repro.engine import ReDeExecutor
from repro.engine.access import classify_failure
from repro.errors import (AccessMethodError, JobDefinitionError,
                          StorageError, StructureCorruptionError,
                          UnknownStructure)
from repro.ingest import IngestCoordinator, MicroBatch
from repro.plan import ACCESS_INDEX, ACCESS_SCAN, StagePlanner
from repro.plan.feedback import RuntimeFeedback
from repro.queries import TpchWorkload
from repro.storage import DistributedFileSystem
from repro.storage.cache import PageId, page_checksum

INTERP = MappingInterpreter()
CLUSTER_MODES = ("smpe", "partitioned")


# -- fixtures ---------------------------------------------------------------

def small_catalog(num_partitions=8, record_bytes=2000, num_records=4000):
    """A 2-node catalog with one wide base file and one global index."""
    dfs = DistributedFileSystem(num_nodes=2,
                                default_partitions=num_partitions)
    catalog = StructureCatalog(dfs)
    records = [Record({"k": i, "v": "x" * record_bytes})
               for i in range(num_records)]
    catalog.register_file("base", records, lambda r: r["k"],
                          num_partitions=num_partitions)
    catalog.register_access_method(AccessMethodDefinition(
        name="idx", base_file="base", key_fn=lambda r: r["k"],
        scope="global"))
    return catalog


def join_catalog(num_nodes=4):
    dfs = DistributedFileSystem(num_nodes=num_nodes)
    catalog = StructureCatalog(dfs)
    parts = [Record({"p_partkey": i, "p_retailprice": 900 + i})
             for i in range(24)]
    catalog.register_file("part", parts, lambda r: r["p_partkey"])
    lineitems = [Record({"l_orderkey": i * 10 + j, "l_partkey": i,
                         "l_quantity": j + 1})
                 for i in range(24) for j in range(3)]
    catalog.register_file("lineitem", lineitems, lambda r: r["l_orderkey"])
    catalog.register_access_method(AccessMethodDefinition(
        name="idx_part_retailprice", base_file="part", interpreter=INTERP,
        key_field="p_retailprice", scope="local"))
    catalog.register_access_method(AccessMethodDefinition(
        name="idx_lineitem_partkey", base_file="lineitem",
        interpreter=INTERP, key_field="l_partkey", scope="global"))
    return catalog


def join_job():
    return (JobBuilder("join")
            .dereference(IndexRangeDereferencer("idx_part_retailprice"))
            .reference(IndexEntryReferencer("part"))
            .dereference(FileLookupDereferencer("part"))
            .reference(KeyReferencer("idx_lineitem_partkey", INTERP,
                                     "p_partkey", carry=["p_partkey"]))
            .dereference(IndexLookupDereferencer("idx_lineitem_partkey"))
            .reference(IndexEntryReferencer("lineitem"))
            .dereference(FileLookupDereferencer("lineitem"))
            .input(PointerRange("idx_part_retailprice", 905, 918))
            .build())


def fresh_join_catalog():
    """The join lake plus committed delta runs: new parts in the probed
    price range with lineitems of their own, and newest-wins lineitem
    upserts that move entries between parts (index tombstones)."""
    catalog = join_catalog()
    catalog.build_all()
    coord = IngestCoordinator(catalog)
    coord.flush(coord.stage(MicroBatch(
        "part", appends=[Record({"p_partkey": 100 + i,
                                 "p_retailprice": 906 + i})
                         for i in range(4)], event_time=1.0)))
    coord.flush(coord.stage(MicroBatch(
        "lineitem", appends=[Record({"l_orderkey": 1000 + i,
                                     "l_partkey": 100 + i % 4,
                                     "l_quantity": 9})
                             for i in range(8)], event_time=2.0)))
    coord.flush(coord.stage(MicroBatch(
        "lineitem", upserts=[Record({"l_orderkey": i * 10,
                                     "l_partkey": (i + 3) % 24,
                                     "l_quantity": 7})
                             for i in range(5, 15)], event_time=3.0)))
    return catalog


JOIN_FIELDS = ("l_orderkey", "l_partkey", "l_quantity")


def oracle_join_rows():
    result = ReDeExecutor(None, join_catalog(),
                          mode="reference").execute(join_job())
    return result.row_set(INTERP, JOIN_FIELDS)


# -- lifecycle enum and catalog health --------------------------------------

class TestLifecycleStates:
    def test_legacy_names_alias_lifecycle_states(self):
        assert StructureState.REGISTERED is StructureState.PENDING
        assert StructureState.BUILT is StructureState.READY
        assert StructureState.PENDING.value == "registered"
        assert StructureState.READY.value == "built"

    def test_plain_files_and_unbuilt_structures_are_healthy(self):
        catalog = small_catalog(num_records=20)
        assert catalog.healthy("base")
        assert catalog.healthy("idx")  # PENDING: lazy, not sick
        assert catalog.healthy("no-such-structure")

    def test_demote_only_applies_to_ready_structures(self):
        catalog = small_catalog(num_records=20)
        catalog.demote("idx")  # PENDING: no-op
        assert catalog.state("idx") is StructureState.PENDING
        catalog.ensure_built("idx")
        catalog.demote("idx")
        assert catalog.state("idx") is StructureState.DEGRADED
        assert not catalog.healthy("idx")

    def test_quarantine_is_idempotent_and_needs_materialization(self):
        catalog = small_catalog(num_records=20)
        with pytest.raises(UnknownStructure):
            catalog.quarantine("idx")  # not materialized yet
        catalog.ensure_built("idx")
        catalog.quarantine("idx")
        catalog.quarantine("idx")
        assert catalog.state("idx") is StructureState.QUARANTINED
        assert not catalog.healthy("idx")

    def test_rebuild_restores_ready_from_quarantine(self):
        catalog = small_catalog(num_records=20)
        catalog.ensure_built("idx")
        catalog.quarantine("idx")
        index = catalog.rebuild("idx")
        assert catalog.state("idx") is StructureState.READY
        assert catalog.healthy("idx")
        assert len(index) == 20

    def test_access_methods_lists_definitions_sorted(self):
        catalog = join_catalog()
        assert catalog.access_methods() == ["idx_lineitem_partkey",
                                            "idx_part_retailprice"]


class TestCheckpointedBuildApi:
    def test_begin_build_rejects_ready(self):
        catalog = small_catalog(num_records=20)
        catalog.ensure_built("idx")
        with pytest.raises(AccessMethodError):
            catalog.begin_build("idx")

    def test_checkpoints_accumulate_until_complete(self):
        catalog = small_catalog(num_records=20)
        catalog.begin_build("idx")
        assert catalog.state("idx") is StructureState.BUILDING
        assert "idx" in catalog.pending()  # resumable, still pending work
        assert not catalog.build_complete("idx")
        for pid in range(8):
            catalog.record_checkpoint("idx", pid)
        assert catalog.completed_partitions("idx") == frozenset(range(8))
        assert catalog.build_complete("idx")

    def test_abandon_build_rolls_back_to_pending(self):
        catalog = small_catalog(num_records=20)
        catalog.begin_build("idx")
        catalog.record_checkpoint("idx", 3)
        catalog.abandon_build("idx")
        assert catalog.state("idx") is StructureState.PENDING
        assert catalog.completed_partitions("idx") == frozenset()

    def test_successful_build_clears_checkpoints(self):
        catalog = small_catalog(num_records=20)
        catalog.begin_build("idx")
        for pid in range(8):
            catalog.record_checkpoint("idx", pid)
        catalog.ensure_built("idx")
        assert catalog.state("idx") is StructureState.READY
        assert catalog.completed_partitions("idx") == frozenset()


# -- crash-safe builds ------------------------------------------------------

class TestCrashSafeBuilds:
    def test_crash_mid_build_is_resumable(self):
        """The acceptance-criteria scenario: a NodeCrash during run_pending
        leaves the structure BUILDING with a consistent checkpoint set, and
        the second run charges exactly the missing partitions' scans."""
        catalog = small_catalog()
        cluster = Cluster(ClusterSpec(num_nodes=2))
        injector = cluster.inject_faults(
            FaultPlan(seed=3, node_crashes=(NodeCrash(1, 0.0015),)))
        worker = MaintenanceWorker(catalog, cluster)

        built, __ = worker.run_pending()
        assert built == []
        assert injector.stats["node-crash"] == 1
        assert catalog.state("idx") is StructureState.BUILDING
        done = catalog.completed_partitions("idx")
        base = catalog.dfs.get_base("base")
        assert 0 < len(done) < base.num_partitions
        # Consistency: every checkpointed partition is a real base pid.
        assert done <= set(range(base.num_partitions))
        assert "idx" not in catalog.dfs  # nothing half-materialized

        def scanned():
            return sum(node.disk.bytes_scanned for node in cluster.nodes)

        before = scanned()
        built2, elapsed2 = worker.run_pending()
        missing = [p for p in range(base.num_partitions) if p not in done]
        expected = sum(base.partition_bytes(p) for p in missing)
        assert built2 == ["idx"]
        assert elapsed2 > 0.0
        assert scanned() - before == expected
        assert catalog.state("idx") is StructureState.READY
        assert catalog.completed_partitions("idx") == frozenset()
        assert len(catalog.dfs.get_index("idx")) == 4000

    def test_fault_free_build_is_unaffected(self):
        catalog = small_catalog(num_records=200)
        cluster = Cluster(ClusterSpec(num_nodes=2))
        built, elapsed = MaintenanceWorker(catalog, cluster).run_pending()
        assert built == ["idx"]
        assert elapsed > 0.0
        assert catalog.state("idx") is StructureState.READY

    def test_raising_build_leaves_catalog_unchanged(self):
        """Satellite regression: the charge/materialize pair is atomic —
        a build whose key_fn raises rolls back to PENDING with no
        checkpoints, no materialized index, and no build-log entry."""
        catalog = small_catalog(num_records=40)
        catalog.register_access_method(AccessMethodDefinition(
            name="idx_bad", base_file="base",
            key_fn=lambda r: 1 / 0, scope="global"))
        cluster = Cluster(ClusterSpec(num_nodes=2))
        worker = MaintenanceWorker(catalog, cluster)
        with pytest.raises(ZeroDivisionError):
            worker.run_pending()
        assert catalog.state("idx_bad") is StructureState.PENDING
        assert catalog.completed_partitions("idx_bad") == frozenset()
        assert "idx_bad" not in catalog.dfs
        assert "idx_bad" not in catalog.build_log
        assert "idx_bad" in catalog.pending()


# -- PageCorruption fault kind ----------------------------------------------

class TestPageCorruptionFaults:
    def corrupt_cluster(self, seed=5, rate=0.3, num_nodes=2, node=None):
        plan = FaultPlan(seed=seed, page_corruptions=(
            PageCorruption("idx", rate, node=node),))
        return Cluster(ClusterSpec(num_nodes=num_nodes), fault_plan=plan)

    def pages(self, n=64):
        return [PageId("idx", pid % 4, "leaf", pid // 4)
                for pid in range(n)]

    def test_validation(self):
        with pytest.raises(JobDefinitionError):
            PageCorruption("idx", 1.5)
        with pytest.raises(JobDefinitionError):
            PageCorruption("", 0.1)
        with pytest.raises(JobDefinitionError):
            self.corrupt_cluster(node=9)  # unknown node
        plan = FaultPlan(page_corruptions=[PageCorruption("idx", 0.1)])
        assert isinstance(plan.page_corruptions, tuple)

    def test_verdicts_are_seeded_and_stable(self):
        first = self.corrupt_cluster().faults
        second = self.corrupt_cluster().faults
        verdicts = [first.page_corrupt(0, page) for page in self.pages()]
        assert verdicts == [second.page_corrupt(0, page)
                            for page in self.pages()]
        assert any(verdicts) and not all(verdicts)
        # Bit rot, not flakiness: re-reading a page repeats its verdict.
        assert verdicts == [first.page_corrupt(0, page)
                            for page in self.pages()]

    def test_stats_count_each_corrupt_page_once(self):
        injector = self.corrupt_cluster().faults
        corrupt = sum(injector.page_corrupt(0, page)
                      for page in self.pages())
        assert injector.stats["page-corruption"] == corrupt
        for page in self.pages():  # re-reads draw from the verdict cache
            injector.page_corrupt(0, page)
        assert injector.stats["page-corruption"] == corrupt

    def test_other_files_and_nodes_are_untouched(self):
        injector = self.corrupt_cluster(rate=1.0, node=1).faults
        page = PageId("idx", 0, "leaf", 0)
        assert not injector.page_corrupt(0, page)  # wrong node
        assert injector.page_corrupt(1, page)
        other = PageId("other", 0, "leaf", 0)
        assert not injector.page_corrupt(1, other)  # wrong file

    def test_repair_clears_verdicts_and_has_corruption(self):
        injector = self.corrupt_cluster(rate=1.0).faults
        assert injector.has_corruption
        assert injector.page_corrupt(0, PageId("idx", 0, "leaf", 0))
        injector.repair_file("idx")
        assert not injector.has_corruption
        assert not injector.page_corrupt(0, PageId("idx", 0, "leaf", 0))

    def test_corruption_error_classifies_as_corruption(self):
        exc = StructureCorruptionError("bad page")
        assert classify_failure(exc) == "corruption"

    def test_page_checksum_is_deterministic_per_identity(self):
        a = PageId("idx", 1, "leaf", 2)
        assert page_checksum(a) == page_checksum(PageId("idx", 1, "leaf", 2))
        assert page_checksum(a) != page_checksum(PageId("idx", 1, "leaf", 3))


# -- quarantine + scan fallback in the engines ------------------------------

CORRUPTION_PLAN = FaultPlan(seed=6, page_corruptions=(
    PageCorruption("idx_lineitem_partkey", 0.5),
    PageCorruption("idx_part_retailprice", 0.5),
))


@pytest.mark.parametrize("mode", CLUSTER_MODES)
class TestEngineQuarantineFallback:
    def run_join(self, mode, plan=None, catalog=None):
        cluster = Cluster(ClusterSpec(num_nodes=4), fault_plan=plan)
        catalog = catalog or join_catalog()
        executor = ReDeExecutor(cluster, catalog, mode=mode)
        return executor.execute(join_job()), catalog

    def test_corrupted_run_matches_fault_free_oracle(self, mode):
        result, catalog = self.run_join(mode, CORRUPTION_PLAN)
        assert result.row_set(INTERP, JOIN_FIELDS) == oracle_join_rows()
        assert result.complete
        metrics = result.metrics
        assert metrics.corruptions_detected > 0
        assert metrics.quarantines >= 1
        assert metrics.corruption_fallbacks >= metrics.quarantines
        # Every structure that tripped a probe is out of service now.
        quarantined = [name for name in catalog.access_methods()
                       if catalog.state(name)
                       is StructureState.QUARANTINED]
        assert len(quarantined) == metrics.quarantines

    def test_quarantine_report_keeps_job_complete(self, mode):
        result, __ = self.run_join(mode, CORRUPTION_PLAN)
        report = result.failure_report
        assert result.complete
        assert not report  # nothing lost: quarantine is not a drop
        assert report.dropped_units == 0
        assert len(report.quarantined) == result.metrics.quarantines
        assert "Quarantined mid-job" in report.render()
        assert "re-served by scan" in report.render()

    def test_fault_free_run_has_no_corruption_metrics(self, mode):
        result, __ = self.run_join(mode)
        assert result.metrics.corruptions_detected == 0
        assert result.metrics.quarantines == 0
        assert result.metrics.corruption_fallbacks == 0
        assert "Quarantined" not in result.failure_report.render()

    def test_corrupted_run_is_deterministic(self, mode):
        def one_run():
            result, __ = self.run_join(mode, CORRUPTION_PLAN)
            return (result.row_set(INTERP, JOIN_FIELDS),
                    result.metrics.summary())

        assert one_run() == one_run()

    @pytest.mark.parametrize("batch_size", (1, 8))
    def test_feedback_sees_each_record_once_under_corruption(
            self, mode, batch_size):
        """A degraded batch charges probe by probe in nested funnel
        passes; the batch's call, not the passes, reports its records to
        the feedback."""
        def observed(plan):
            feedback = RuntimeFeedback()
            cluster = Cluster(ClusterSpec(num_nodes=4), fault_plan=plan)
            config = EngineConfig(batch_size=batch_size, feedback=feedback)
            result = ReDeExecutor(cluster, join_catalog(), config=config,
                                  mode=mode).execute(join_job())
            assert result.complete
            return feedback.observed

        assert observed(CORRUPTION_PLAN) == observed(None)

    @pytest.mark.parametrize("batch_size", (1, 8))
    def test_fresh_lake_quarantines_once_at_any_batch_size(
            self, mode, batch_size):
        """Corruption x committed delta runs x batching: the recovery
        table and the delta merge compose, whatever the batch size."""
        def run(plan, batch_size):
            feedback = RuntimeFeedback()
            catalog = fresh_join_catalog()
            cluster = Cluster(ClusterSpec(num_nodes=4), fault_plan=plan)
            config = EngineConfig(batch_size=batch_size, feedback=feedback)
            result = ReDeExecutor(cluster, catalog, config=config,
                                  mode=mode).execute(join_job())
            assert result.complete
            return result, feedback.observed, catalog

        oracle = ReDeExecutor(None, fresh_join_catalog(),
                              mode="reference").execute(join_job())
        result, observed, catalog = run(CORRUPTION_PLAN, batch_size)
        assert (result.row_set(INTERP, JOIN_FIELDS)
                == oracle.row_set(INTERP, JOIN_FIELDS))
        assert result.metrics.delta_probes > 0
        quarantined = [name for name in catalog.access_methods()
                       if catalog.state(name)
                       is StructureState.QUARANTINED]
        assert quarantined
        assert result.metrics.quarantines == len(quarantined)
        assert len(result.failure_report.quarantined) == len(quarantined)
        __, clean_observed, __ = run(None, batch_size)
        assert observed == clean_observed
        per_record, __, __ = run(CORRUPTION_PLAN, 1)
        assert result.metrics.delta_probes == per_record.metrics.delta_probes

    def test_pre_quarantined_structure_is_served_by_scan(self, mode):
        catalog = join_catalog()
        catalog.build_all()
        catalog.quarantine("idx_lineitem_partkey")
        result, catalog = self.run_join(mode, catalog=catalog)
        assert result.row_set(INTERP, JOIN_FIELDS) == oracle_join_rows()
        assert result.complete
        assert result.metrics.corruption_fallbacks > 0
        assert result.metrics.quarantines == 0  # it already was


# -- planner health gating --------------------------------------------------

class TestPlannerHealthGating:
    @pytest.fixture()
    def workload(self):
        return TpchWorkload(scale_factor=0.001, seed=3, num_nodes=4,
                            block_size=64 * 1024)

    def plan(self, workload, logical=None):
        spec = workload.make_cluster(scan_seconds=0.25).spec
        if logical is None:
            low, high = workload.date_range(0.2)
            logical = workload.q5_chain(low, high, "ASIA").logical_plan()
        return StagePlanner(workload.catalog, workload.blockstore,
                            spec).plan(logical), logical

    def via_index_logical(self):
        from repro.core.chain import ChainQuery

        return (ChainQuery("via", interpreter=INTERP)
                .from_index_range("idx_part_retailprice", 901.0, 1200.0,
                                  base="part")
                .join("lineitem", key="p_partkey",
                      via_index="idx_lineitem_partkey",
                      carry=["p_partkey"])).logical_plan()

    def test_degraded_join_index_falls_back_to_scan(self, workload):
        logical = self.via_index_logical()
        planned, __ = self.plan(workload, logical)
        join_estimate = planned.stage_estimates[1]
        assert logical.joins[0].via_index == "idx_lineitem_partkey"
        assert join_estimate.access_path == ACCESS_INDEX

        workload.catalog.demote("idx_lineitem_partkey")
        replanned, __ = self.plan(workload, logical)
        assert replanned.stage_estimates[1].access_path == ACCESS_SCAN
        assert replanned.chosen != "index"

    def test_quarantined_source_forces_scan_plan(self, workload):
        planned, logical = self.plan(workload)
        assert planned.scan_estimate is not None
        workload.catalog.quarantine(logical.source.structure)
        replanned, __ = self.plan(workload)
        assert replanned.chosen == "scan"

    def test_pending_structures_stay_plannable(self, workload):
        # Laziness is not sickness: an unbuilt index is still healthy and
        # the planner prices it normally.
        for name in workload.catalog.access_methods():
            assert workload.catalog.healthy(name)


# -- online scrub -----------------------------------------------------------

class TestScrubWorker:
    def scrubbed_setup(self, rate=0.3, seed=5):
        catalog = small_catalog(num_partitions=4, num_records=800)
        plan = FaultPlan(seed=seed, page_corruptions=(
            PageCorruption("idx", rate),))
        cluster = Cluster(ClusterSpec(num_nodes=2), fault_plan=plan)
        MaintenanceWorker(catalog, cluster).run_pending()
        return catalog, cluster

    def test_sample_every_validated(self):
        catalog = small_catalog(num_records=20)
        cluster = Cluster(ClusterSpec(num_nodes=2))
        with pytest.raises(StorageError):
            ScrubWorker(catalog, cluster, sample_every=0)

    def test_clean_scrub_finds_nothing_but_pays_io(self):
        catalog, cluster = self.scrubbed_setup(rate=0.0)
        report = ScrubWorker(catalog, cluster).run_once()
        assert report.clean
        assert report.structures_checked == 1
        assert report.pages_checked > 0
        assert report.scrub_seconds > 0.0
        assert report.repair_seconds == 0.0
        assert "all structures clean" in report.render()

    def test_scrub_detects_demotes_and_repairs_everything(self):
        catalog, cluster = self.scrubbed_setup()
        assert cluster.faults.has_corruption
        report = ScrubWorker(catalog, cluster).run_once()
        assert not report.clean
        assert report.findings
        assert all(f.structure == "idx" for f in report.findings)
        assert report.demoted == ["idx"]
        assert report.repaired == ["idx"]
        assert report.entries_verified > 0
        assert report.repair_seconds > 0.0
        assert catalog.state("idx") is StructureState.READY
        assert not cluster.faults.has_corruption
        # The rewrite replaced the sick pages: a second pass is clean.
        assert ScrubWorker(catalog, cluster).run_once().clean

    def test_scrub_repairs_quarantined_without_sampling(self):
        catalog, cluster = self.scrubbed_setup(rate=0.0)
        catalog.quarantine("idx")
        report = ScrubWorker(catalog, cluster).run_once()
        assert report.structures_checked == 0  # straight to repair
        assert report.repaired == ["idx"]
        assert catalog.state("idx") is StructureState.READY

    def test_repair_false_only_demotes(self):
        catalog, cluster = self.scrubbed_setup()
        report = ScrubWorker(catalog, cluster).run_once(repair=False)
        assert report.demoted == ["idx"]
        assert report.repaired == []
        assert catalog.state("idx") is StructureState.DEGRADED

    def test_sampling_reduces_scrub_io(self):
        catalog, cluster = self.scrubbed_setup(rate=0.0)
        full = ScrubWorker(catalog, cluster).run_once()
        sampled = ScrubWorker(catalog, cluster,
                              sample_every=4).run_once()
        assert sampled.pages_checked < full.pages_checked
        assert sampled.scrub_seconds < full.scrub_seconds
