"""Unit tests for runtime feedback, adaptive re-optimization, and the
planner-side estimate fixes that ride with them (delta-aware initial
cardinality, memoized planning)."""

import pytest

from repro.cluster import ClusterSpec
from repro.core import (
    AccessMethodDefinition,
    ChainQuery,
    MappingInterpreter,
    Record,
    StructureCatalog,
)
from repro.engine import PlanningExecutor
from repro.ingest import IngestCoordinator, MicroBatch
from repro.plan import ACCESS_INDEX, ACCESS_SCAN, ScanLookupDereferencer, \
    compile_logical
from repro.plan.feedback import (
    AdaptiveController,
    RuntimeFeedback,
    logical_signature,
    stage_spans,
)
from repro.plan.planner import initial_cardinality
from repro.core.pointers import PointerRange
from repro.storage import DistributedFileSystem
from repro.storage.blockstore import BlockStore

INTERP = MappingInterpreter()


# -- the skewed lake: average join fanout is tiny, one hot key explodes ----

HOT_FANOUT = 500
GRAND_ROWS = 80000


def make_skew_lake():
    dfs = DistributedFileSystem(num_nodes=2)
    catalog = StructureCatalog(dfs)
    parents = [Record({"pk": i}) for i in range(50)]
    children = []
    cid = 0
    for pk in range(50):
        for __ in range(HOT_FANOUT if pk == 0 else 1):
            children.append(Record({"cid": cid, "fk": pk,
                                    "gk": cid % GRAND_ROWS}))
            cid += 1
    pad = "x" * 200
    grands = [Record({"gk": i, "pad": pad, "payload": i % 7})
              for i in range(GRAND_ROWS)]
    catalog.register_file("parent", parents, lambda r: r["pk"])
    catalog.register_file("child", children, lambda r: r["cid"])
    catalog.register_file("grand", grands, lambda r: r["gk"])
    for name, base, key in (("idx_pk", "parent", "pk"),
                            ("idx_fk", "child", "fk"),
                            ("idx_gk", "grand", "gk")):
        catalog.register_access_method(AccessMethodDefinition(
            name, base, interpreter=INTERP, key_field=key, scope="global"))
    catalog.build_all()
    store = BlockStore(num_nodes=2, block_size=64 * 1024, catalog=catalog)
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


@pytest.fixture(scope="module")
def skew_lake():
    return make_skew_lake()


def run_skew(skew_lake, threshold):
    catalog, store = skew_lake
    executor = PlanningExecutor(catalog, store, ClusterSpec(num_nodes=2),
                                adaptive_threshold=threshold)
    result = executor.execute(skew_chain(), force="mixed")
    rows = sorted((r.record["gk"], r.record["payload"])
                  for r in result.rows)
    return result, rows


# -- stage spans -----------------------------------------------------------


class TestStageSpans:
    @pytest.fixture(scope="class")
    def catalog(self):
        dfs = DistributedFileSystem(num_nodes=2)
        catalog = StructureCatalog(dfs)
        parents = [Record({"pk": i, "attr": i % 4}) for i in range(20)]
        children = [Record({"pk": i, "fk": i % 20}) for i in range(60)]
        catalog.register_file("parent", parents, lambda r: r["pk"])
        catalog.register_file("child", children, lambda r: r["pk"])
        catalog.register_access_method(AccessMethodDefinition(
            "idx_attr", "parent", interpreter=INTERP, key_field="attr",
            scope="local"))
        catalog.register_access_method(AccessMethodDefinition(
            "idx_child_fk", "child", interpreter=INTERP, key_field="fk",
            scope="global"))
        catalog.build_all()
        return catalog

    def spans_for(self, catalog, logical, paths):
        physical = compile_logical(logical, catalog, paths)
        job = physical.to_job(catalog)
        spans = stage_spans(physical)
        # the invariant everything hangs on: spans tile the function list
        assert spans[0].start == 0
        assert spans[-1].end == len(job.functions) - 1
        for left, right in zip(spans, spans[1:]):
            assert right.start == left.end + 1
        return spans, job

    def test_based_source_and_via_index_join(self, catalog):
        logical = (ChainQuery("q", interpreter=INTERP)
                   .from_index_range("idx_attr", 0, 2, base="parent")
                   .join("child", key="pk", via_index="idx_child_fk")
                   .logical_plan())
        spans, __ = self.spans_for(catalog, logical,
                                   [ACCESS_INDEX, ACCESS_INDEX])
        assert (spans[0].start, spans[0].end) == (0, 2)
        assert (spans[1].start, spans[1].end) == (3, 6)

    def test_scan_backed_join_is_two_wide(self, catalog):
        logical = (ChainQuery("q", interpreter=INTERP)
                   .from_index_range("idx_attr", 0, 2, base="parent")
                   .join("child", key="pk", via_index="idx_child_fk")
                   .logical_plan())
        spans, job = self.spans_for(catalog, logical,
                                    [ACCESS_INDEX, ACCESS_SCAN])
        assert (spans[1].start, spans[1].end) == (3, 4)
        assert isinstance(job.functions[spans[1].end],
                          ScanLookupDereferencer)

    def test_direct_join_is_two_wide(self, catalog):
        logical = (ChainQuery("q", interpreter=INTERP)
                   .from_index_range("idx_attr", 0, 2, base="parent")
                   .join("child", key="pk")
                   .logical_plan())
        spans, __ = self.spans_for(catalog, logical,
                                   [ACCESS_INDEX, ACCESS_INDEX])
        assert (spans[1].start, spans[1].end) == (3, 4)

    def test_baseless_source_is_one_wide(self, catalog):
        logical = (ChainQuery("q", interpreter=INTERP)
                   .from_index_range("idx_attr", 0, 2)
                   .logical_plan())
        spans, __ = self.spans_for(catalog, logical, [ACCESS_INDEX])
        assert (spans[0].start, spans[0].end) == (0, 0)


# -- the feedback sink -----------------------------------------------------


class TestRuntimeFeedback:
    def test_accumulates_per_stage(self):
        feedback = RuntimeFeedback()
        feedback.observe(2, 5)
        feedback.observe(2, 7)
        feedback.observe(4, 1)
        assert feedback.observed == {2: 12, 4: 1}


# -- mid-query re-optimization --------------------------------------------


class TestAdaptiveController:
    def test_static_plan_underestimates_hot_key(self, skew_lake):
        catalog, store = skew_lake
        executor = PlanningExecutor(catalog, store,
                                    ClusterSpec(num_nodes=2))
        planned = executor.plan(skew_chain())
        # average fanout hides the hot key: the final join stays indexed
        # at a rows_in estimate ~50x below the truth
        estimates = planned.stage_estimates
        assert planned.mixed.access_paths[-1] == ACCESS_INDEX
        assert estimates[-1].rows_in < HOT_FANOUT / 10

    def test_switch_fires_and_pays_off(self, skew_lake):
        static, static_rows = run_skew(skew_lake, None)
        adaptive, adaptive_rows = run_skew(skew_lake, 4.0)
        controller = adaptive.adaptive
        assert static.adaptive is None
        assert [e.target for e in controller.switches] == ["grand"]
        event = controller.switches[0]
        assert event.observed_rows_in >= 4.0 * event.estimated_rows_in
        assert event.scan_seconds < event.index_seconds
        # same rows, materially faster
        assert adaptive_rows == static_rows
        assert adaptive.elapsed_seconds < static.elapsed_seconds / 1.5

    def test_switch_describes_itself_from_its_own_numbers(self, skew_lake):
        adaptive, __ = run_skew(skew_lake, 4.0)
        event = adaptive.adaptive.switches[0]
        assert event.describe() == (
            f"stage[{event.stage_index}] join:grand index->scan at fn "
            f"{event.function_index} (rows_in "
            f"{event.estimated_rows_in:.0f} est -> "
            f"{event.observed_rows_in:.0f} seen; "
            f"{event.index_seconds * 1e3:.1f}ms index vs "
            f"{event.scan_seconds * 1e3:.1f}ms scan)")

    def test_switched_function_is_scan_backed(self, skew_lake):
        adaptive, __ = run_skew(skew_lake, 4.0)
        event = adaptive.adaptive.switches[0]
        fn = adaptive.adaptive.job.functions[event.function_index]
        assert isinstance(fn, ScanLookupDereferencer)
        assert fn.key_id == ("grand", "idx_gk")

    def test_threshold_none_observes_but_never_triggers(self, skew_lake):
        catalog, store = skew_lake
        executor = PlanningExecutor(catalog, store,
                                    ClusterSpec(num_nodes=2))
        logical = skew_chain()
        planned = executor.plan(logical)
        physical = planned.mixed
        job = physical.to_job(catalog)
        controller = AdaptiveController(executor.planner, physical, job,
                                        planned.stage_estimates,
                                        threshold=None)
        controller.observe(len(job.functions) - 1, 10 ** 6)
        assert controller.switches == []
        assert controller.observed[len(job.functions) - 1] == 10 ** 6

    def test_adaptive_run_matches_static_time_when_estimates_hold(
            self, skew_lake):
        """A chain with no mis-estimation must run bit-identically with
        the controller armed (the zero-change guard)."""
        catalog, store = skew_lake
        logical = (ChainQuery("tame", interpreter=INTERP)
                   .from_index_lookup("idx_pk", [7], base="parent")
                   .join("child", key="pk", via_index="idx_fk")
                   .logical_plan())

        def run(threshold):
            executor = PlanningExecutor(catalog, store,
                                        ClusterSpec(num_nodes=2),
                                        adaptive_threshold=threshold)
            return executor.execute(logical, force="mixed")

        static, adaptive = run(None), run(8.0)
        assert adaptive.adaptive.switches == []
        assert adaptive.elapsed_seconds == static.elapsed_seconds
        assert adaptive.record_accesses == static.record_accesses
        assert ([r.record for r in adaptive.rows]
                == [r.record for r in static.rows])


# -- satellite: memoized planning on the lake token ------------------------


class TestPlanMemoization:
    @pytest.fixture()
    def lake(self):
        dfs = DistributedFileSystem(num_nodes=2)
        catalog = StructureCatalog(dfs)
        rows = [Record({"pk": i, "grp": i % 5}) for i in range(200)]
        catalog.register_file("facts", rows, lambda r: r["pk"])
        catalog.register_access_method(AccessMethodDefinition(
            "idx_grp", "facts", interpreter=INTERP, key_field="grp",
            scope="global"))
        catalog.build_all()
        store = BlockStore(num_nodes=2, block_size=64 * 1024,
                           catalog=catalog)
        store.load("facts", rows)
        return catalog, store

    def logical(self):
        return (ChainQuery("memo", interpreter=INTERP)
                .from_index_lookup("idx_grp", [2], base="facts")
                .logical_plan())

    def test_repeated_plan_returns_the_memoized_object(self, lake):
        catalog, store = lake
        executor = PlanningExecutor(catalog, store,
                                    ClusterSpec(num_nodes=2))
        first = executor.plan(self.logical())
        second = executor.plan(self.logical())
        assert second is first  # no re-pricing, no catalog re-scan

    def test_repeated_calibrate_runs_the_oracle_once(self, lake):
        catalog, store = lake
        executor = PlanningExecutor(catalog, store,
                                    ClusterSpec(num_nodes=2))
        first = executor.calibrate(self.logical())
        second = executor.calibrate(self.logical())
        assert executor.calibration_runs == 1
        assert second == first

    def test_catalog_mutation_invalidates_the_memo(self, lake):
        catalog, store = lake
        executor = PlanningExecutor(catalog, store,
                                    ClusterSpec(num_nodes=2))
        first = executor.plan(self.logical())
        coordinator = IngestCoordinator(catalog)
        coordinator.flush(coordinator.stage(MicroBatch(
            "facts", appends=[Record({"pk": 900 + i, "grp": 2})
                              for i in range(8)],
            event_time=1.0)))
        second = executor.plan(self.logical())
        assert second is not first
        assert second.stage_estimates[0].rows_out \
            > first.stage_estimates[0].rows_out

    def test_different_chains_memoize_separately(self, lake):
        catalog, store = lake
        executor = PlanningExecutor(catalog, store,
                                    ClusterSpec(num_nodes=2))
        other = (ChainQuery("memo", interpreter=INTERP)
                 .from_index_lookup("idx_grp", [3], base="facts")
                 .logical_plan())
        assert (logical_signature(self.logical())
                != logical_signature(other))
        assert executor.plan(self.logical()) is not executor.plan(other)


# -- satellite: freshness-aware initial cardinality ------------------------


class TestDeltaAwareCardinality:
    def make_lake(self):
        dfs = DistributedFileSystem(num_nodes=2)
        catalog = StructureCatalog(dfs)
        rows = [Record({"pk": i, "grp": i % 5}) for i in range(100)]
        catalog.register_file("facts", rows, lambda r: r["pk"])
        catalog.register_access_method(AccessMethodDefinition(
            "idx_grp", "facts", interpreter=INTERP, key_field="grp",
            scope="global"))
        catalog.build_all()
        return catalog

    def probe(self):
        return [PointerRange("idx_grp", 2, 2)]

    def test_estimate_counts_unmerged_deltas_at_depth_two(self):
        catalog = self.make_lake()
        built = initial_cardinality(catalog, self.probe())
        assert built == 20
        coordinator = IngestCoordinator(catalog)
        for wave in range(2):  # two commits, never compacted: depth 2
            coordinator.flush(coordinator.stage(MicroBatch(
                "facts",
                appends=[Record({"pk": 1000 + 10 * wave + i, "grp": 2})
                         for i in range(6)],
                event_time=float(wave + 1))))
        assert catalog.delta_depth("facts") >= 2
        fresh = initial_cardinality(catalog, self.probe())
        assert fresh == built + 12

    def test_static_lake_estimate_unchanged(self):
        catalog = self.make_lake()
        assert initial_cardinality(catalog, self.probe()) == 20
