"""Unit tests for the per-stage planner and the cache-aware cost model."""

import pytest

from repro.cluster import ClusterSpec, NodeSpec
from repro.core import (AccessMethodDefinition, ChainQuery, Dereferencer,
                        IndexLookupDereferencer, IndexRangeDereferencer,
                        JobBuilder, MappingInterpreter, Pointer, PointerRange,
                        Record, StructureCatalog)
from repro.engine import PlanningExecutor, ReDeExecutor
from repro.errors import ExecutionError, JobDefinitionError
from repro.ingest import IngestCoordinator, MicroBatch
from repro.plan import (ACCESS_INDEX, ACCESS_SCAN, LogicalPlan, StagePlanner,
                        compile_logical)
from repro.plan import planner as planner_module
from repro.plan.planner import (estimate_indexed_job_seconds,
                                estimate_scan_plan_seconds,
                                expected_cache_hit_rate, initial_cardinality,
                                working_set_bytes)
from repro.queries import TpchWorkload, canonical_q5_rows_rede
from repro.storage import DistributedFileSystem
from repro.storage.blockstore import BlockStore

SELECTIVITY = 0.2
REGION = "ASIA"


@pytest.fixture(scope="module")
def workload():
    return TpchWorkload(scale_factor=0.001, seed=3, num_nodes=4,
                        block_size=64 * 1024)


@pytest.fixture(scope="module")
def spec(workload):
    return workload.make_cluster(scan_seconds=0.25).spec


@pytest.fixture(scope="module")
def logical(workload):
    low, high = workload.date_range(SELECTIVITY)
    return workload.q5_chain(low, high, REGION).logical_plan()


def make_planner(workload, spec):
    return StagePlanner(workload.catalog, workload.blockstore, spec)


class TestStagePlanner:
    def test_one_estimate_per_logical_node(self, workload, spec, logical):
        planned = make_planner(workload, spec).plan(logical)
        assert len(planned.stage_estimates) == len(logical.nodes)
        assert len(planned.mixed.stages) == len(logical.nodes)

    def test_every_estimate_prices_the_index_path(self, workload, spec,
                                                  logical):
        planned = make_planner(workload, spec).plan(logical)
        for estimate in planned.stage_estimates:
            assert estimate.index_seconds > 0
            assert estimate.access_path in (ACCESS_INDEX, ACCESS_SCAN)
            if estimate.access_path == ACCESS_SCAN:
                assert estimate.scan_seconds is not None
                assert estimate.scan_seconds < estimate.index_seconds

    def test_q5_mixed_plan_keeps_lineitem_indexed(self, workload, spec,
                                                  logical):
        """The interesting shape: small dimensions scan, lineitem — the
        dominant table — stays on its structure."""
        planned = make_planner(workload, spec).plan(logical)
        paths = dict(zip((n.fetches for n in logical.nodes),
                         planned.mixed.access_paths))
        assert paths["lineitem"] == ACCESS_INDEX
        assert ACCESS_SCAN in planned.mixed.access_paths

    def test_mixed_estimate_is_stage_sum(self, workload, spec, logical):
        planned = make_planner(workload, spec).plan(logical)
        total = sum(
            (e.scan_seconds if e.access_path == ACCESS_SCAN
             else e.index_seconds)
            for e in planned.stage_estimates)
        assert planned.mixed_estimate == pytest.approx(total)

    def test_cardinality_annotations_propagate(self, workload, spec,
                                               logical):
        planned = make_planner(workload, spec).plan(logical)
        assert logical.source.estimated_rows is not None
        for stage, estimate in zip(planned.mixed.stages,
                                   planned.stage_estimates):
            assert stage.estimated_rows == estimate.rows_out

    def test_margin_one_never_picks_mixed(self, workload, spec, logical,
                                          monkeypatch):
        """MARGIN=0 demands an infinite improvement, so the planner always
        falls back to exactly the whole-query degenerate choice."""
        monkeypatch.setattr(planner_module, "MARGIN", 0.0)
        planned = make_planner(workload, spec).plan(logical)
        assert planned.chosen in ("index", "scan")
        expected = ("index" if planned.scan_estimate is None
                    or planned.index_estimate <= planned.scan_estimate
                    else "scan")
        assert planned.chosen == expected

    def test_envelope_choice_matches_old_hybrid(self, workload, spec,
                                                logical):
        """Degenerate estimates are the whole-job primitives over the
        hand-written Q5' job and scan plan, so the fallback decision is
        the classic whole-query index-vs-scan decision."""
        low, high = workload.date_range(SELECTIVITY)
        planned = make_planner(workload, spec).plan(logical)
        assert planned.index_estimate == pytest.approx(
            estimate_indexed_job_seconds(spec, workload.catalog,
                                         workload.q5_job(low, high,
                                                         REGION)))
        assert planned.scan_estimate == pytest.approx(
            estimate_scan_plan_seconds(
                spec, workload.blockstore,
                workload.q5_scan_plan(low, high, REGION)))

    def test_empty_chain_rejected(self, workload, spec):
        with pytest.raises(JobDefinitionError, match="empty chain"):
            make_planner(workload, spec).plan(LogicalPlan("empty"))

    def test_describe_renders_decision_table(self, workload, spec,
                                             logical):
        text = make_planner(workload, spec).plan(logical).describe()
        assert "chosen=" in text
        assert "source:idx_orders_orderdate" in text
        assert "join:lineitem" in text


class TestDeterminism:
    """Identical inputs produce identical plans, traces, and metrics."""

    def test_planning_is_deterministic(self, workload, spec, logical):
        first = make_planner(workload, spec).plan(logical)
        second = make_planner(workload, spec).plan(logical)
        assert first.mixed.access_paths == second.mixed.access_paths
        assert first.chosen == second.chosen
        assert first.mixed_estimate == second.mixed_estimate
        assert first.index_estimate == second.index_estimate
        assert first.scan_estimate == second.scan_estimate
        assert first.stage_estimates == second.stage_estimates
        assert first.describe() == second.describe()
        assert first.mixed.describe() == second.mixed.describe()

    def test_execution_is_deterministic(self, workload, spec, logical):
        def run():
            executor = PlanningExecutor(workload.catalog,
                                        workload.blockstore, spec)
            return executor.execute(logical, force="mixed")

        first, second = run(), run()
        assert (canonical_q5_rows_rede(first)
                == canonical_q5_rows_rede(second))
        assert first.elapsed_seconds == second.elapsed_seconds
        assert first.record_accesses == second.record_accesses


class TestPlanningExecutor:
    def test_calibrate_sets_factor(self, workload, spec, logical):
        executor = PlanningExecutor(workload.catalog, workload.blockstore,
                                    spec)
        factor = executor.calibrate(logical)
        assert factor > 0
        assert executor.per_match_access_factor == factor

    def test_force_validation(self, workload, spec, logical):
        executor = PlanningExecutor(workload.catalog, workload.blockstore,
                                    spec)
        with pytest.raises(ExecutionError, match="mixed|index|scan"):
            executor.execute(logical, force="teleport")

    def test_scan_unavailable_raises(self, workload, spec):
        executor = PlanningExecutor(workload.catalog, workload.blockstore,
                                    spec)
        from repro.core import ChainQuery

        logical = (ChainQuery("ptr").from_pointers("orders", [1])
                   .logical_plan())
        with pytest.raises(JobDefinitionError, match="scan-engine"):
            executor.execute(logical, force="scan")


class TestCacheAwareCostModel:
    """cache_bytes > 0 discounts repeated index-probe IO."""

    def make_spec(self, base_spec, cache_bytes):
        return ClusterSpec(
            num_nodes=base_spec.num_nodes,
            node=NodeSpec(cores=base_spec.node.cores,
                          tuple_cpu_time=base_spec.node.tuple_cpu_time,
                          disk=base_spec.node.disk,
                          cache_bytes=cache_bytes),
            network=base_spec.network)

    def test_estimate_drops_with_cache(self, workload, spec):
        low, high = workload.date_range(SELECTIVITY)
        job = workload.q5_job(low, high, REGION)
        warm = self.make_spec(spec, 64 * 1024 * 1024)
        assert (estimate_indexed_job_seconds(warm, workload.catalog, job)
                < estimate_indexed_job_seconds(spec, workload.catalog, job))

    def test_discount_scales_with_pool_size(self, workload, spec):
        low, high = workload.date_range(SELECTIVITY)
        job = workload.q5_job(low, high, REGION)
        working = working_set_bytes(workload.catalog, job)
        small = self.make_spec(spec, working // 40)
        big = self.make_spec(spec, working)
        assert (estimate_indexed_job_seconds(big, workload.catalog, job)
                < estimate_indexed_job_seconds(small, workload.catalog, job))

    def test_hit_rate_clamps_to_one(self, spec):
        huge = self.make_spec(spec, 10 ** 12)
        assert expected_cache_hit_rate(huge, 1024.0) == 1.0
        assert expected_cache_hit_rate(spec, 1024.0) == 0.0

    def test_zero_cache_matches_classic_formula(self, workload, spec):
        """cache_bytes == 0 prices floor + accesses over cluster IOPS."""
        low, high = workload.date_range(SELECTIVITY)
        job = workload.q5_job(low, high, REGION)
        cold = self.make_spec(spec, 0)
        disk = cold.node.disk
        derefs = sum(isinstance(f, Dereferencer) for f in job.functions)
        accesses = initial_cardinality(workload.catalog, job.inputs) * derefs
        assert (estimate_indexed_job_seconds(cold, workload.catalog, job)
                == derefs * disk.random_service_time
                + accesses / (disk.random_iops * cold.num_nodes))


class TestCardinalityRouting:
    """The estimate counts exactly the partitions the engines probe."""

    NODES = 4

    @pytest.fixture(scope="class")
    def lake(self):
        catalog = StructureCatalog(DistributedFileSystem(num_nodes=self.NODES))
        catalog.register_file(
            "t", [Record({"pk": i, "v": i % 100}) for i in range(1000)],
            lambda r: r["pk"])
        for scope in ("global", "local", "replicated"):
            catalog.register_access_method(AccessMethodDefinition(
                f"idx_{scope}", "t", interpreter=MappingInterpreter(),
                key_field="v", scope=scope))
        catalog.build_all()
        return catalog

    @pytest.mark.parametrize("scope", ["global", "local", "replicated"])
    @pytest.mark.parametrize("target", ["range", "keyed", "broadcast"])
    def test_estimate_equals_reference_rows(self, lake, scope, target):
        index = f"idx_{scope}"
        if target == "range":
            probe = PointerRange(index, 0, 9)
            dereferencer = IndexRangeDereferencer(index)
        else:
            probe = Pointer(index, 5 if target == "keyed" else None, 5)
            dereferencer = IndexLookupDereferencer(index)
        job = (JobBuilder("probe").dereference(dereferencer)
               .input(probe).build())
        rows = ReDeExecutor(None, lake, mode="reference").execute(job).rows
        assert len(rows) == (100 if target == "range" else 10)
        assert initial_cardinality(lake, job.inputs) == len(rows)


class TestFreshTableScans:
    """Scan-backed stages are priceable on fresh tables: the stage's
    hash table merges unmerged delta runs at build time, so the planner
    no longer gates scans off the moment a batch commits."""

    INTERP = MappingInterpreter()

    def make_lake(self):
        dfs = DistributedFileSystem(num_nodes=2)
        catalog = StructureCatalog(dfs)
        rows = [Record({"pk": i, "grp": i % 5}) for i in range(200)]
        catalog.register_file("facts", rows, lambda r: r["pk"])
        catalog.register_access_method(AccessMethodDefinition(
            "idx_grp", "facts", interpreter=self.INTERP, key_field="grp",
            scope="global"))
        catalog.build_all()
        store = BlockStore(num_nodes=2, block_size=64 * 1024)
        store.load("facts", rows)
        return catalog, store

    def make_logical(self):
        return (ChainQuery("fresh", interpreter=self.INTERP)
                .from_index_lookup("idx_grp", [2], base="facts")
                .logical_plan())

    def ingest(self, catalog):
        coord = IngestCoordinator(catalog)
        coord.flush(coord.stage(MicroBatch(
            "facts", appends=[Record({"pk": 1000 + i, "grp": 2})
                              for i in range(5)],
            event_time=1.0)))
        return coord

    def test_planner_prices_scans_on_fresh_tables(self):
        catalog, store = self.make_lake()
        self.ingest(catalog)
        spec = ClusterSpec(num_nodes=2)
        planner = StagePlanner(catalog, store, spec)
        planned = planner.plan(self.make_logical())
        source = planned.stage_estimates[0]
        assert source.scan_seconds is not None

    def test_fresh_build_costs_more_than_static(self):
        catalog, store = self.make_lake()
        spec = ClusterSpec(num_nodes=2)
        planner = StagePlanner(catalog, store, spec)
        static = planner._scan_stage_seconds("facts", 10.0, 1.0)
        self.ingest(catalog)
        fresh = planner._scan_stage_seconds("facts", 10.0, 1.0)
        assert fresh > static

    def test_pure_scan_plan_still_gated_on_fresh_tables(self):
        catalog, store = self.make_lake()
        self.ingest(catalog)
        spec = ClusterSpec(num_nodes=2)
        planner = StagePlanner(catalog, store, spec)
        planned = planner.plan(self.make_logical())
        assert planned.scan_estimate is None

    def test_scan_backed_stage_answers_fresh(self):
        catalog, __ = self.make_lake()
        self.ingest(catalog)
        logical = self.make_logical()
        rows = {}
        for method in (ACCESS_INDEX, ACCESS_SCAN):
            physical = compile_logical(logical, catalog, [method])
            job = physical.to_job(catalog)
            result = ReDeExecutor(None, catalog, mode="reference").execute(
                job)
            rows[method] = sorted(row.record["pk"] for row in result.rows)
        expected = sorted([pk for pk in range(200) if pk % 5 == 2]
                          + [1000 + i for i in range(5)])
        assert rows[ACCESS_INDEX] == expected
        assert rows[ACCESS_SCAN] == expected
