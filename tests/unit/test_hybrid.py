"""Unit tests for the whole-query index-vs-scan decision.

The planner prices the two degenerate plans of a query (every stage
indexed, or one scan-engine plan) beside its per-stage mixed plan; these
tests pin that hybrid choice and its whole-job cost primitives on a small
1 000-row lake where ``v = pk % 100``.
"""

import pytest

from repro.baselines import HashJoinNode, ScanNode
from repro.cluster import ClusterSpec, DiskSpec, NodeSpec
from repro.core import (AccessMethodDefinition, ChainQuery,
                        FileLookupDereferencer, IndexEntryReferencer,
                        IndexRangeDereferencer, JobBuilder,
                        MappingInterpreter, Pointer, PointerRange, Record,
                        StructureCatalog)
from repro.engine import PlanningExecutor
from repro.errors import ExecutionError
from repro.plan.planner import (estimate_indexed_job_seconds,
                                estimate_scan_plan_seconds,
                                initial_cardinality)
from repro.storage import BlockStore, DistributedFileSystem

INTERP = MappingInterpreter()
NUM_NODES = 2
SPEC = ClusterSpec(num_nodes=NUM_NODES)


@pytest.fixture(scope="module")
def setup():
    dfs = DistributedFileSystem(num_nodes=NUM_NODES)
    catalog = StructureCatalog(dfs)
    records = [Record({"pk": i, "v": i % 100}) for i in range(1000)]
    catalog.register_file("t", records, lambda r: r["pk"])
    catalog.register_access_method(AccessMethodDefinition(
        "idx_v", "t", interpreter=INTERP, key_field="v", scope="global"))
    catalog.build_all()
    store = BlockStore(num_nodes=NUM_NODES, block_size=4096, catalog=catalog)
    store.load("t", records)
    return catalog, store


def make_job(low, high):
    return (JobBuilder("probe")
            .dereference(IndexRangeDereferencer("idx_v"))
            .reference(IndexEntryReferencer("t"))
            .dereference(FileLookupDereferencer("t"))
            .input(PointerRange("idx_v", low, high))
            .build())


def range_probe(low, high):
    return (ChainQuery("probe", interpreter=INTERP)
            .from_index_range("idx_v", low, high, base="t")
            .logical_plan())


SCAN_PLAN = ScanNode("t")


class TestCostModel:
    def test_initial_cardinality_exact(self, setup):
        catalog, __ = setup
        job = make_job(0, 9)  # 10 of 100 values -> 100 records
        assert initial_cardinality(catalog, job.inputs) == 100

    def test_initial_cardinality_equality_pointer(self, setup):
        catalog, __ = setup
        # Base-file pointers count as one probe.
        assert initial_cardinality(catalog, [Pointer("t", 5, 5)]) == 1

    def test_rede_estimate_grows_with_selectivity(self, setup):
        catalog, __ = setup
        narrow = estimate_indexed_job_seconds(SPEC, catalog, make_job(0, 0))
        wide = estimate_indexed_job_seconds(SPEC, catalog, make_job(0, 99))
        assert wide > narrow

    def test_scan_estimate_independent_of_job(self, setup):
        __, store = setup
        assert (estimate_scan_plan_seconds(SPEC, store, SCAN_PLAN)
                == estimate_scan_plan_seconds(SPEC, store, SCAN_PLAN))

    def test_scan_estimate_counts_joins(self, setup):
        __, store = setup
        join_plan = HashJoinNode(build=ScanNode("t"), probe=ScanNode("t"),
                                 build_key=lambda r: r["pk"],
                                 probe_key=lambda r: r["pk"])
        assert (estimate_scan_plan_seconds(SPEC, store, join_plan)
                > estimate_scan_plan_seconds(SPEC, store, SCAN_PLAN))

    def test_calibrated_access_factor(self, setup):
        catalog, __ = setup
        job = make_job(0, 50)
        assert (estimate_indexed_job_seconds(SPEC, catalog, job, 10.0)
                > estimate_indexed_job_seconds(SPEC, catalog, job))

    def test_unknown_plan_node(self, setup):
        __, store = setup
        with pytest.raises(ExecutionError):
            estimate_scan_plan_seconds(SPEC, store, "bogus")


class TestHybridExecutor:
    def make(self, setup, spec=SPEC):
        catalog, store = setup
        return PlanningExecutor(catalog, store, spec)

    def test_plan_returns_both_estimates(self, setup):
        planned = self.make(setup).plan(range_probe(0, 4))
        assert planned.chosen in ("mixed", "index", "scan")
        assert planned.index_estimate > 0
        assert planned.scan_estimate > 0
        assert planned.initial_cardinality == 50

    def test_execute_rede_side(self, setup):
        result = self.make(setup).execute(range_probe(3, 3), force="index")
        assert result.executed == "index"
        assert len(result.rows) == 10  # v == 3 occurs 10 times
        assert result.record_accesses > 0
        assert result.elapsed_seconds > 0

    def test_execute_scan_side(self, setup):
        result = self.make(setup).execute(range_probe(3, 3), force="scan")
        assert result.executed == "scan"
        assert len(result.rows) == 10  # the lowered scan plan filters v
        assert result.record_accesses == 0
        assert result.elapsed_seconds > 0

    def test_choice_flips_with_hardware_balance(self, setup):
        """On scan-hostile hardware a tiny probe stays indexed; on the
        paper's full-bandwidth disks this tiny dataset scans for free."""
        slow_scan = ClusterSpec(
            num_nodes=NUM_NODES,
            node=NodeSpec(disk=DiskSpec(seq_bandwidth=5e4)))
        assert self.make(setup, slow_scan).plan(
            range_probe(0, 0)).chosen == "index"
        assert self.make(setup).plan(range_probe(0, 0)).chosen == "scan"

    def test_calibrate_matches_observed_accesses(self, setup):
        executor = self.make(setup)
        logical = range_probe(10, 29)  # 20 values x 10 records = 200 matches
        # Job shape: index entries (200) + base rows (200) over 200
        # initial matches -> factor == 2.0 exactly.
        assert executor.calibrate(logical) == pytest.approx(2.0)
        assert executor.per_match_access_factor == pytest.approx(2.0)
        assert executor.plan(logical).index_estimate > 0

    def test_calibration_improves_estimate(self, setup):
        executor = self.make(setup)
        logical = range_probe(0, 99)
        uncalibrated = executor.plan(logical).index_estimate
        executor.calibrate(logical)
        calibrated = executor.plan(logical).index_estimate
        # Default factor = num dereference stages (2); observed factor is
        # also 2 for this job shape, so estimates agree — the point is the
        # factor is now grounded in measurement, not stage count.
        assert calibrated == pytest.approx(uncalibrated)

    def test_force_overrides_choice(self, setup):
        executor = self.make(setup)
        logical = range_probe(0, 0)
        assert executor.plan(logical).chosen == "scan"
        forced_rede = executor.execute(logical, force="index")
        assert forced_rede.executed == "index"
        assert len(forced_rede.rows) == 10  # v == 0 occurs 10 times
        forced_scan = executor.execute(logical, force="scan")
        assert forced_scan.executed == "scan"
        assert len(forced_scan.rows) == 10
